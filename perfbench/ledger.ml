(* The traced run's span recorder.  Spans come only from this directory's
   wrappers around the library's public entry points and hooks
   ([Vm.Natives.boot], [Lancet.Api.install], [Bgjit.create]/[install],
   [Lancet.Governor.attach], the [Mini] front-end passes, [rt.jit_hook],
   [rt.compile_hook], the compile function handed to the pool, the entry
   points compiles return, and the governor's tiering hooks); nothing in
   lib/ is instrumented.  GC pauses come from the stdlib [Runtime_events]
   ring.

   Mutator spans nest strictly, so each records its parent and the
   iteration it ran in; a layer's self time is its spans' durations minus
   their children and the mutator GC pauses that fell inside them.  Spans
   stay in memory until the session ends. *)

(* Monotonic nanoseconds: the clock [Runtime_events] timestamps use. *)
let now () = Int64.to_float (Monotonic_clock.now ())

type kind =
  | Session (* root: its self time is the harness's own work *)
  | Boot
  | Install
  | Pool_setup
  | Gov_attach
  | Parse
  | Typecheck
  | Codegen
  | Iter
  | Tier_compile
  | Explicit_compile
  | Compiled
  | Enqueue
  | Gov_hook
  | Drain
  | Gov_detach
  | Shutdown
  | Reference (* the benchmark's native reference run, left out of wall *)

let kinds =
  [| Session; Boot; Install; Pool_setup; Gov_attach; Parse; Typecheck;
     Codegen; Iter; Tier_compile; Explicit_compile; Compiled; Enqueue;
     Gov_hook; Drain; Gov_detach; Shutdown; Reference |]

let kind_index k =
  let rec go i = if kinds.(i) == k then i else go (i + 1) in
  go 0

let kind_name = function
  | Session -> "session"
  | Boot -> "vm.boot"
  | Install -> "lancet.install"
  | Pool_setup -> "bgjit.setup"
  | Gov_attach -> "governor.attach"
  | Parse -> "mini.parse"
  | Typecheck -> "mini.typecheck"
  | Codegen -> "mini.codegen"
  | Iter -> "vm.iteration"
  | Tier_compile -> "lancet.tier_compile"
  | Explicit_compile -> "lancet.explicit_compile"
  | Compiled -> "lms.compiled"
  | Enqueue -> "bgjit.enqueue"
  | Gov_hook -> "governor.hook"
  | Drain -> "bgjit.drain"
  | Gov_detach -> "governor.detach"
  | Shutdown -> "bgjit.shutdown"
  | Reference -> "native.reference"

(* ---- mutator spans: parallel growable arrays, no allocation per span
   beyond amortized growth ---- *)

let n = ref 0
let kind_of = ref (Array.make 1024 0)
let parent = ref (Array.make 1024 (-1))
let iter_of = ref (Array.make 1024 (-1))
let t0 = ref (Array.make 1024 0.0)
let t1 = ref (Array.make 1024 0.0)
let s0 = ref (Array.make 1024 0)
let s1 = ref (Array.make 1024 0)
let cur = ref (-1)

(* the interpreter's step counter, sampled at every span boundary *)
let steps : (unit -> int) ref = ref (fun () -> 0)
let cur_iter = ref (-1)

let grow () =
  let cap = Array.length !kind_of in
  let ext a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit !a 0 b 0 cap;
    a := b
  in
  ext kind_of 0;
  ext parent (-1);
  ext iter_of (-1);
  ext t0 0.0;
  ext t1 0.0;
  ext s0 0;
  ext s1 0

let open_span k =
  if !n = Array.length !kind_of then grow ();
  let i = !n in
  incr n;
  !kind_of.(i) <- kind_index k;
  !parent.(i) <- !cur;
  !iter_of.(i) <- !cur_iter;
  cur := i;
  !s0.(i) <- !steps ();
  !t0.(i) <- now ();
  i

let close_span i =
  !t1.(i) <- now ();
  !s1.(i) <- !steps ();
  cur := !parent.(i)

let duration i = !t1.(i) -. !t0.(i)

let span k f =
  let i = open_span k in
  match f () with
  | v ->
    close_span i;
    v
  | exception e ->
    close_span i;
    raise e

(* ---- background compiles: recorded by the worker domain ---- *)

type bg_compile = {
  bc_wait : float; (* ns from the (first outstanding) enqueue to start *)
  bc_start : float;
  bc_end : float;
  bc_ok : bool;
}

let bg_lock = Mutex.create ()
let bg_compiles : bg_compile list ref = ref []
let enqueued_at : (int, float) Hashtbl.t = Hashtbl.create 64

let locked f =
  Mutex.lock bg_lock;
  match f () with
  | v ->
    Mutex.unlock bg_lock;
    v
  | exception e ->
    Mutex.unlock bg_lock;
    raise e

(* A coalesced or repeated request keeps the earliest outstanding time;
   [true] when this call made the entry. *)
let note_enqueue mid =
  let t = now () in
  locked (fun () ->
      if Hashtbl.mem enqueued_at mid then false
      else begin
        Hashtbl.replace enqueued_at mid t;
        true
      end)

(* the request was dropped by a full queue: it never waits *)
let forget_enqueue mid = locked (fun () -> Hashtbl.remove enqueued_at mid)

let bg_start mid =
  let t = now () in
  let q = locked (fun () ->
      let q = Option.value ~default:t (Hashtbl.find_opt enqueued_at mid) in
      Hashtbl.remove enqueued_at mid;
      q)
  in
  (t, t -. q)

let bg_done ~start ~wait ~ok =
  let e = now () in
  locked (fun () ->
      bg_compiles := { bc_wait = wait; bc_start = start; bc_end = e; bc_ok = ok }
                     :: !bg_compiles)

(* ---- GC pauses from the runtime-events ring, every domain ---- *)

type gc_pause = { gp_domain : int; gp_major : bool; gp_start : float; gp_end : float }

let gc_pauses : gc_pause list ref = ref []
let gc_open : (int * bool, float) Hashtbl.t = Hashtbl.create 8
let cursor = ref None

let gc_phase = function
  | Runtime_events.EV_MINOR -> Some false
  | Runtime_events.EV_MAJOR_SLICE -> Some true
  | _ -> None

let callbacks =
  let ts t = Int64.to_float (Runtime_events.Timestamp.to_int64 t) in
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun dom t ph ->
      match gc_phase ph with
      | Some major -> Hashtbl.replace gc_open (dom, major) (ts t)
      | None -> ())
    ~runtime_end:(fun dom t ph ->
      match gc_phase ph with
      | Some major -> (
        match Hashtbl.find_opt gc_open (dom, major) with
        | Some s ->
          Hashtbl.remove gc_open (dom, major);
          gc_pauses :=
            { gp_domain = dom; gp_major = major; gp_start = s; gp_end = ts t }
            :: !gc_pauses
        | None -> ())
      | None -> ())
    ()

let poll_gc () =
  match !cursor with
  | Some c -> ignore (Runtime_events.read_poll c callbacks None)
  | None -> ()

let start_gc_events () =
  Runtime_events.start ();
  let c = Runtime_events.create_cursor None in
  cursor := Some c;
  poll_gc ();
  gc_pauses := []

(* ---- self times ---- *)

(* Mutator (domain 0) pauses inside [lo, hi], overlapping ones merged. *)
let mutator_pauses ~lo ~hi =
  let ps =
    List.filter_map
      (fun p ->
        if p.gp_domain = 0 && p.gp_end > lo && p.gp_start < hi then
          Some (Float.max p.gp_start lo, Float.min p.gp_end hi)
        else None)
      !gc_pauses
    |> List.sort compare
  in
  List.fold_left
    (fun acc (s, e) ->
      match acc with
      | (ps, pe) :: rest when s <= pe -> (ps, Float.max pe e) :: rest
      | _ -> (s, e) :: acc)
    [] ps
  |> List.rev

(* Interpreter steps each span took itself, children excluded. *)
let self_steps () =
  let n = !n and s0 = !s0 and s1 = !s1 and parent = !parent in
  let self = Array.init n (fun i -> s1.(i) - s0.(i)) in
  for i = 0 to n - 1 do
    let p = parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - (s1.(i) - s0.(i))
  done;
  self

(* Per-span self time: duration minus children minus the mutator GC
   pauses whose innermost enclosing span it is.  Returns the self-time
   array and the total mutator GC time inside the session. *)
let self_times () =
  let n = !n and t0 = !t0 and t1 = !t1 and parent = !parent in
  let self = Array.init n (fun i -> t1.(i) -. t0.(i)) in
  for i = 0 to n - 1 do
    let p = parent.(i) in
    if p >= 0 then self.(p) <- self.(p) -. (t1.(i) -. t0.(i))
  done;
  let gc_total = ref 0.0 in
  if n > 0 then begin
    let stack = ref [] and j = ref 0 in
    let rec pop_closed t =
      match !stack with
      | top :: rest when t1.(top) <= t ->
        stack := rest;
        pop_closed t
      | _ -> ()
    in
    List.iter
      (fun (s, e) ->
        while !j < n && t0.(!j) <= s do
          pop_closed t0.(!j);
          stack := !j :: !stack;
          incr j
        done;
        pop_closed s;
        match !stack with
        | top :: _ ->
          self.(top) <- self.(top) -. (e -. s);
          gc_total := !gc_total +. (e -. s)
        | [] -> ())
      (mutator_pauses ~lo:t0.(0) ~hi:t1.(0))
  end;
  (self, !gc_total)

let reset () =
  n := 0;
  cur := -1;
  cur_iter := -1;
  bg_compiles := [];
  Hashtbl.reset enqueued_at;
  gc_pauses := [];
  Hashtbl.reset gc_open

(* Write the recorded spans as tab-separated lines: index, name, parent,
   iteration, start and end in ns from the session start. *)
let write_spans path =
  let oc = open_out path in
  let base = if !n > 0 then !t0.(0) else 0.0 in
  output_string oc "id\tname\tparent\titer\tstart_ns\tend_ns\n";
  for i = 0 to !n - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%.0f\t%.0f\n" i
      (kind_name kinds.(!kind_of.(i)))
      !parent.(i) !iter_of.(i)
      (!t0.(i) -. base)
      (!t1.(i) -. base)
  done;
  close_out oc
