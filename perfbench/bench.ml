(* One benchmark session: boot a runtime the way `lancet run` does, load the
   workload's Mini source, run its iterations through [Mini.Front.call],
   check every result against the native reference, drain and shut down.
   Prints one JSON object on stdout.  `run.py` repeats sessions and
   aggregates them; see README.md.

     bench.exe --workload NAME --seed N [--trace] [--smoke]
               [--plant-wrong-reference] [--spans FILE] [--inputs-digest]

   Without --trace the session calls only the public entry points and
   reports setup, wall and per-iteration latency.  With --trace it boots
   through the same calls [Lancet.Api.boot_bg] makes, wrapped in
   [Ledger] spans, and reports the per-layer ledger instead. *)

open Vm.Types
module W = Workloads

let now_s () = Ledger.now () *. 1e-9

let gov_cfg =
  { Lancet.Governor.default_config with
    Lancet.Governor.g_watchdog_ms = W.watchdog_ms
  }

(* VmHWM: the process's peak resident set *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    let rec find () =
      match input_line ic with
      | l when String.starts_with ~prefix:"VmHWM:" l ->
        Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
      | _ -> find ()
      | exception End_of_file -> nan
    in
    let r = find () in
    close_in ic;
    r

(* ---- result checking: a mismatch or an exception is a failed operation *)

type outcome = { mutable failed : int; mutable first_failure : string option }

let check out (inst : W.inst) i r =
  let fail msg =
    out.failed <- out.failed + 1;
    if out.first_failure = None then
      out.first_failure <- Some (Printf.sprintf "iteration %d: %s" i msg)
  in
  match r with
  | Ok v when v = inst.W.expected.(i) -> ()
  | Ok v ->
    fail (Printf.sprintf "got %d, native reference %d" v inst.W.expected.(i))
  | Error e -> fail (Printexc.to_string e)

let run_iter (inst : W.inst) p i =
  match inst.W.step p i with v -> Ok v | exception e -> Error e

(* The native computation of iteration [i]'s result, timed right after the
   iteration itself: machine-speed drift on a shared host moves both
   timings alike, so their ratio stays put.  It runs [native_reps] times
   and the fastest run is the reference, so one interrupt or a cache
   refill after the iteration does not read as a slow machine.  Returns
   (fastest run, total time) in ms; the total is not the program's and is
   left out of [wall_s]. *)
let native_reps = 3

let time_native (inst : W.inst) i =
  let best = ref infinity and total = ref 0.0 in
  for _ = 1 to native_reps do
    let a = now_s () in
    ignore (Sys.opaque_identity (inst.W.native i));
    let t = (now_s () -. a) *. 1000. in
    best := Float.min !best t;
    total := !total +. t
  done;
  (!best, !total)

(* ---- JSON output ---- *)

let json_num f =
  if Float.is_finite f then Printf.sprintf "%.9g" f else "null"

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c ->
        Buffer.add_char b '\\';
        Buffer.add_char b c
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_arr a =
  "[" ^ String.concat "," (Array.to_list (Array.map json_num a)) ^ "]"

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields) ^ "}"

let common_fields (w : W.t) ~seed ~traced (inst : W.inst) out =
  [
    ("workload", json_str w.W.name);
    ("seed", string_of_int seed);
    ("trace", if traced then "1" else "0");
    ("attempted", string_of_int inst.W.iters);
    ("failed", string_of_int out.failed);
    ( "first_failure",
      match out.first_failure with Some s -> json_str s | None -> "null" );
  ]

(* ---- untraced session: the end-to-end metrics ---- *)

let run_plain (w : W.t) ~seed (inst : W.inst) =
  let m = w.W.mode in
  let out = { failed = 0; first_failure = None } in
  let t_start = now_s () in
  let rt, pool =
    Lancet.Api.boot_bg ~tiering:m.W.tiering ~tier_threshold:W.tier_threshold
      ~jit_threads:m.W.jit_threads ()
  in
  let gov =
    if m.W.governor then
      Some (Lancet.Governor.attach ~cfg:gov_cfg ?pool rt)
    else None
  in
  let p = Mini.Front.load rt inst.W.src in
  let t_setup = now_s () in
  let lat = Array.make inst.W.iters 0.0 in
  let nat = Array.make inst.W.iters 0.0 in
  let native_ms = ref 0.0 in
  for i = 0 to inst.W.iters - 1 do
    let a = now_s () in
    let r = run_iter inst p i in
    lat.(i) <- (now_s () -. a) *. 1000.;
    let best, total = time_native inst i in
    nat.(i) <- best;
    native_ms := !native_ms +. total;
    check out inst i r
  done;
  (match pool with Some b -> Bgjit.drain b | None -> ());
  (match gov with Some g -> Lancet.Governor.detach g | None -> ());
  (match pool with Some b -> Bgjit.shutdown b | None -> ());
  let t_end = now_s () in
  let native_s = !native_ms /. 1000. in
  json_obj
    (common_fields w ~seed ~traced:false inst out
    @ [
        ("setup_s", json_num (t_setup -. t_start));
        ("wall_s", json_num (t_end -. t_start -. native_s));
        ("peak_rss_mb", json_num (peak_rss_mb ()));
        ("iter_ms", json_arr lat);
        ("native_ms", json_arr nat);
      ])

(* ---- traced session: the per-layer ledger ---- *)

let percentile xs q =
  match List.sort compare xs with
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    a.(min (Array.length a - 1) (int_of_float (q *. float_of_int (Array.length a))))

let run_traced (w : W.t) ~seed ~spans (inst : W.inst) =
  let m = w.W.mode in
  let out = { failed = 0; first_failure = None } in
  Ledger.reset ();
  Ledger.start_gc_events ();
  let gc_s0 = Gc.quick_stat () in
  let session = Ledger.open_span Ledger.Session in
  let rt =
    Ledger.span Ledger.Boot (fun () ->
        Vm.Natives.boot ~tiering:m.W.tiering ~tier_threshold:W.tier_threshold
          ~jit_threads:m.W.jit_threads ())
  in
  Ledger.span Ledger.Install (fun () ->
      Lancet.Api.install rt;
      Obs.arm_exit_flush ());
  (* compiled code: one span per outermost entry; nested entries (compiled
     code calling compiled code, directly or through the interpreter) only
     count calls.  Interpreter steps taken inside a compiled span are
     interpretation after an OSR-out. *)
  Ledger.steps := (fun () -> rt.interp_steps);
  let depth = ref 0 and compiled_calls = ref 0 in
  let wrap_entry fn args =
    incr compiled_calls;
    let outer = !depth = 0 in
    let sp = if outer then Ledger.open_span Ledger.Compiled else -1 in
    incr depth;
    let fin () =
      decr depth;
      if outer then Ledger.close_span sp
    in
    match fn args with
    | v ->
      fin ();
      v
    | exception e ->
      fin ();
      raise e
  in
  (* synchronous tier-up: [rt.jit_hook] as [Lancet.Tiering.install] set it *)
  let sync_ok = ref 0 and sync_declined = ref 0 in
  let sync_ms = ref [] and last_install = ref neg_infinity in
  (match rt.jit_hook with
  | Some h ->
    rt.jit_hook <-
      Some
        (fun rt meth ->
          let t0 = Ledger.now () in
          let r = Ledger.span Ledger.Tier_compile (fun () -> h rt meth) in
          sync_ms := ((Ledger.now () -. t0) /. 1e6) :: !sync_ms;
          match r with
          | Jit_compiled fn ->
            incr sync_ok;
            last_install := Ledger.now ();
            Jit_compiled (wrap_entry fn)
          | Jit_declined ->
            incr sync_declined;
            r
          | Jit_pending -> r)
  | None -> ());
  (* explicit [Lancet.compile]: wrap the hook and the CompiledFn body it
     registers *)
  let explicit = ref 0 in
  (match rt.compile_hook with
  | Some h ->
    rt.compile_hook <-
      Some
        (fun rt v ->
          let r = Ledger.span Ledger.Explicit_compile (fun () -> h rt v) in
          incr explicit;
          (match r with
          | Obj o when String.equal o.ocls.cname "CompiledFn" ->
            let id = Vm.Value.to_int o.ofields.(0) in
            Hashtbl.replace rt.compiled id
              (wrap_entry (Vm.Runtime.compiled_body rt id))
          | _ -> ());
          r)
  | None -> ());
  (* background tier-up: the pool [Lancet.Api.boot_bg] builds, with the
     compile function wrapped; runs on the worker domain *)
  let pool =
    if m.W.jit_threads <= 0 then None
    else
      Some
        (Ledger.span Ledger.Pool_setup (fun () ->
             let compile rt (meth : meth) =
               let start, wait = Ledger.bg_start meth.mid in
               match Lancet.Tiering.compile rt meth with
               | Some (fn, deps, epoch) ->
                 Ledger.bg_done ~start ~wait ~ok:true;
                 Some (wrap_entry fn, deps, epoch)
               | None ->
                 Ledger.bg_done ~start ~wait ~ok:false;
                 None
               | exception e ->
                 Ledger.bg_done ~start ~wait ~ok:false;
                 raise e
             in
             let b = Bgjit.create ~compile rt in
             Bgjit.install b;
             b))
  in
  (* the enqueue side: the hooks [Bgjit.install] set *)
  (match pool with
  | Some b ->
    let enqueue mid f =
      let fresh = Ledger.note_enqueue mid in
      let dropped0 = (Bgjit.stats b).Bgjit.s_dropped in
      let r = Ledger.span Ledger.Enqueue f in
      if fresh && (Bgjit.stats b).Bgjit.s_dropped > dropped0 then
        Ledger.forget_enqueue mid;
      r
    in
    (match rt.jit_hook with
    | Some h -> rt.jit_hook <- Some (fun rt meth -> enqueue meth.mid (fun () -> h rt meth))
    | None -> ());
    (match rt.tiering.t_bg_recompile with
    | Some f ->
      rt.tiering.t_bg_recompile <-
        Some (fun meth -> enqueue meth.mid (fun () -> f meth))
    | None -> ())
  | None -> ());
  let gov =
    if m.W.governor then begin
      let g =
        Ledger.span Ledger.Gov_attach (fun () ->
            Lancet.Governor.attach ~cfg:gov_cfg ?pool rt)
      in
      let t = rt.tiering in
      (match t.t_on_deopt with
      | Some f ->
        t.t_on_deopt <-
          Some (fun meth tag pc line ->
              Ledger.span Ledger.Gov_hook (fun () -> f meth tag pc line))
      | None -> ());
      (match t.t_promote_gate with
      | Some f ->
        t.t_promote_gate <-
          Some (fun meth -> Ledger.span Ledger.Gov_hook (fun () -> f meth))
      | None -> ());
      Some g
    end
    else None
  in
  (* the three passes [Mini.Front.load] runs *)
  let parsed =
    Ledger.span Ledger.Parse (fun () -> Mini.Parser.parse_program inst.W.src)
  in
  let typed =
    Ledger.span Ledger.Typecheck (fun () -> Mini.Typecheck.check_program parsed)
  in
  let p = Ledger.span Ledger.Codegen (fun () -> Mini.Codegen.compile_typed rt typed) in
  let gc_i0 = Gc.quick_stat () and words0 = Gc.minor_words () in
  let first_iter = Ledger.now () in
  for i = 0 to inst.W.iters - 1 do
    Ledger.cur_iter := i;
    let sp = Ledger.open_span Ledger.Iter in
    let r = run_iter inst p i in
    Ledger.close_span sp;
    Ledger.cur_iter := -1;
    Ledger.span Ledger.Reference (fun () -> ignore (time_native inst i));
    check out inst i r;
    Ledger.poll_gc ()
  done;
  let gc_i1 = Gc.quick_stat () and words1 = Gc.minor_words () in
  (match pool with
  | Some b -> Ledger.span Ledger.Drain (fun () -> Bgjit.drain b)
  | None -> ());
  (match gov with
  | Some g -> Ledger.span Ledger.Gov_detach (fun () -> Lancet.Governor.detach g)
  | None -> ());
  (match pool with
  | Some b -> Ledger.span Ledger.Shutdown (fun () -> Bgjit.shutdown b)
  | None -> ());
  Ledger.close_span session;
  let gc_s1 = Gc.quick_stat () in
  Ledger.poll_gc ();
  Option.iter Ledger.write_spans spans;
  (* ---- fold the spans into layer metrics ---- *)
  let self, gc_mutator_ns = Ledger.self_times () in
  let by_kind = Array.make (Array.length Ledger.kinds) 0.0 in
  let steps_by_kind = Array.make (Array.length Ledger.kinds) 0 in
  Array.iteri
    (fun i s ->
      let k = !Ledger.kind_of.(i) in
      by_kind.(k) <- by_kind.(k) +. s)
    self;
  Array.iteri
    (fun i s ->
      let k = !Ledger.kind_of.(i) in
      steps_by_kind.(k) <- steps_by_kind.(k) + s)
    (Ledger.self_steps ());
  let ms k = by_kind.(Ledger.kind_index k) /. 1e6 in
  let steps_in k = steps_by_kind.(Ledger.kind_index k) in
  (* the native reference runs are the benchmark's, not the program's *)
  let wall_ms = (Ledger.duration session -. by_kind.(Ledger.kind_index Ledger.Reference)) /. 1e6 in
  let bg = !Ledger.bg_compiles in
  let bg_ms = List.map (fun c -> (c.Ledger.bc_end -. c.Ledger.bc_start) /. 1e6) bg in
  let bg_ok = List.filter (fun c -> c.Ledger.bc_ok) bg in
  let last_install =
    List.fold_left (fun acc c -> Float.max acc c.Ledger.bc_end) !last_install bg_ok
  in
  let tier_up_ms =
    if last_install = neg_infinity then 0.0 else (last_install -. first_iter) /. 1e6
  in
  let sum = List.fold_left ( +. ) 0.0 in
  let t = rt.tiering in
  let ic_hits, ic_misses, _, _, ic_mega = Vm.Runtime.ic_stats rt in
  let steps = rt.interp_steps in
  let interp_ms = ms Ledger.Iter in
  let pauses major =
    List.filter_map
      (fun g ->
        if g.Ledger.gp_major = major
           && g.Ledger.gp_start >= !Ledger.t0.(session)
           && g.Ledger.gp_end <= !Ledger.t1.(session)
        then Some ((g.Ledger.gp_end -. g.Ledger.gp_start) /. 1e6)
        else None)
      !Ledger.gc_pauses
  in
  let minor_p = pauses false and major_p = pauses true in
  let bs = Option.map Bgjit.stats pool in
  let bstat f = match bs with Some s -> float_of_int (f s) | None -> 0.0 in
  let gs = Option.map Lancet.Governor.stats gov in
  let gstat f = match gs with Some s -> float_of_int (f s) | None -> 0.0 in
  let iters = float_of_int inst.W.iters in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let f = float_of_int in
  let layers =
    [
      ("mini.parse_ms", ms Ledger.Parse, "ms");
      ("mini.typecheck_ms", ms Ledger.Typecheck, "ms");
      ("mini.codegen_ms", ms Ledger.Codegen, "ms");
      ("vm.boot_ms", ms Ledger.Boot, "ms");
      ("vm.interp_steps", f steps, "count");
      ("vm.interp_self_ms", interp_ms, "ms");
      ("vm.steps_per_ms", ratio (f (steps_in Ledger.Iter)) interp_ms, "1/ms");
      ("vm.ic_hits", f ic_hits, "count");
      ("vm.ic_misses", f ic_misses, "count");
      ("vm.ic_mega_sites", f ic_mega, "count");
      ("lancet.install_ms", ms Ledger.Install, "ms");
      ("lancet.tier_compile_ms", ms Ledger.Tier_compile +. sum bg_ms, "ms");
      ( "lancet.tier_compile_max_ms",
        List.fold_left Float.max 0.0 (!sync_ms @ bg_ms),
        "ms" );
      ("lancet.tier_compiles", f (!sync_ok + List.length bg_ok), "count");
      ("lancet.compiles_total", f t.t_compiles, "count");
      ( "lancet.declined",
        f (!sync_declined + List.length bg - List.length bg_ok),
        "count" );
      ("lancet.tier_up_ms", tier_up_ms, "ms");
      ("lancet.cache_hits", f t.t_cache_hits, "count");
      ("lancet.evictions", f t.t_evictions, "count");
      ("lancet.explicit_compile_ms", ms Ledger.Explicit_compile, "ms");
      ("lancet.explicit_compiles", f !explicit, "count");
      ("lms.compiled_self_ms", ms Ledger.Compiled, "ms");
      ("lms.compiled_calls", f !compiled_calls, "count");
      ("deopt.count", f t.t_deopts, "count");
      ("deopt.resumed_steps", f (steps_in Ledger.Compiled), "count");
      ("deopt.per_1k_calls", 1000. *. ratio (f t.t_deopts) (f !compiled_calls), "1/1k");
      ( "bgjit.mutator_ms",
        ms Ledger.Pool_setup +. ms Ledger.Enqueue +. ms Ledger.Drain
        +. ms Ledger.Shutdown,
        "ms" );
      ( "bgjit.queue_wait_p50_ms",
        percentile (List.map (fun c -> c.Ledger.bc_wait /. 1e6) bg) 0.5,
        "ms" );
      ( "bgjit.queue_wait_max_ms",
        List.fold_left (fun a c -> Float.max a (c.Ledger.bc_wait /. 1e6)) 0.0 bg,
        "ms" );
      ("bgjit.worker_compile_ms", sum bg_ms, "ms");
      ("bgjit.enqueued", bstat (fun s -> s.Bgjit.s_enqueued), "count");
      ("bgjit.installed", bstat (fun s -> s.Bgjit.s_installed), "count");
      ("bgjit.stale", bstat (fun s -> s.Bgjit.s_stale), "count");
      ("bgjit.dropped", bstat (fun s -> s.Bgjit.s_dropped), "count");
      ( "bgjit.install_ratio",
        ratio (bstat (fun s -> s.Bgjit.s_installed)) (bstat (fun s -> s.Bgjit.s_enqueued)),
        "ratio" );
      ( "governor.mutator_ms",
        ms Ledger.Gov_attach +. ms Ledger.Gov_hook +. ms Ledger.Gov_detach,
        "ms" );
      ("governor.demotions", gstat (fun s -> s.Lancet.Governor.g_demotions), "count");
      ( "governor.repromotions",
        gstat (fun s -> s.Lancet.Governor.g_repromotions),
        "count" );
      ("governor.blacklists", gstat (fun s -> s.Lancet.Governor.g_blacklists), "count");
      ( "governor.watchdog_kills",
        gstat (fun s -> s.Lancet.Governor.g_watchdog_kills),
        "count" );
      ( "governor.throttles",
        gstat (fun s -> s.Lancet.Governor.g_throttle_ups + s.Lancet.Governor.g_throttle_downs),
        "count" );
      ("gc.mutator_pause_ms", gc_mutator_ns /. 1e6, "ms");
      ( "gc.minor_words_per_iter",
        (words1 -. words0) /. iters,
        "words" );
      ( "gc.promoted_words_per_iter",
        (gc_i1.Gc.promoted_words -. gc_i0.Gc.promoted_words) /. iters,
        "words" );
      ( "gc.minor_collections",
        f (gc_s1.Gc.minor_collections - gc_s0.Gc.minor_collections),
        "count" );
      ( "gc.major_collections",
        f (gc_s1.Gc.major_collections - gc_s0.Gc.major_collections),
        "count" );
      ("gc.minor_pause_ms", sum minor_p, "ms");
      ("gc.major_slice_ms", sum major_p, "ms");
      ("gc.pause_max_ms", List.fold_left Float.max 0.0 (minor_p @ major_p), "ms");
      ("ledger.harness_ms", ms Ledger.Session, "ms");
      ("ledger.traced_wall_ms", wall_ms, "ms");
      ("ledger.coverage", 1.0 -. ratio (ms Ledger.Session) wall_ms, "ratio");
    ]
  in
  json_obj
    (common_fields w ~seed ~traced:true inst out
    @ [
        ("wall_s", json_num (wall_ms /. 1000.));
        ( "layers",
          json_obj
            (List.map
               (fun (k, v, u) ->
                 (k, json_obj [ ("value", json_num v); ("unit", json_str u) ]))
               layers) );
      ])

(* ---- command line ---- *)

let () =
  let workload = ref "" and seed = ref 1 and traced = ref false in
  let smoke = ref false and plant = ref false and spans = ref None in
  let digest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--trace", Arg.Set traced, " traced session (per-layer ledger)");
      ("--smoke", Arg.Set smoke, " tiny inputs, for the benchmark's own tests");
      ( "--plant-wrong-reference",
        Arg.Set plant,
        " perturb every native reference (the check must trip)" );
      ("--spans", Arg.String (fun s -> spans := Some s), "FILE write the traced spans");
      ( "--inputs-digest",
        Arg.Set digest,
        " print a digest of the generated inputs' native results and exit" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N [--trace] [--smoke]";
  match W.find !workload with
  | None ->
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  | Some w ->
    let inst = w.W.make ~seed:!seed ~smoke:!smoke in
    let inst =
      if !plant then { inst with W.expected = Array.map succ inst.W.expected }
      else inst
    in
    print_endline
      (if !digest then
         Digest.to_hex (Digest.string (Marshal.to_string inst.W.expected []))
       else if !traced then run_traced w ~seed:!seed ~spans:!spans inst
       else run_plain w ~seed:!seed inst)
