(* The surgical JIT API (paper Figs. 2-3, Sec. 3): the standard macros that
   pair with the [Lancet] builtin class of the VM.  In plain interpretation
   the natives are identity/fallback operations; under Lancet compilation
   these macros take over (the LancetLib / LancetMacros pairing of Sec. 2.3). *)

open Vm.Types
module C = Compiler
module B = Lms.Builder
module Ir = Lms.Ir

let bool_rep ctx b = C.lift_const ctx (Int (if b then 1 else 0))

(* inline a thunk (zero-argument closure rep) *)
let run_thunk ctx (thunk : C.rep) : C.macro_result = C.funR ctx thunk [||]

(* --- compile-time execution ----------------------------------------- *)

(* freeze: evaluate the thunk at JIT-compile time (Sec. 2.3).  The closure is
   materialized with [evalM] and then simply called, on real values, via the
   interpreter. *)
let freeze_macro ctx (args : C.rep array) : C.macro_result =
  let v = C.evalM ctx args.(0) in
  let result = Vm.Interp.call_closure ctx.C.rt v [||] in
  C.Val (C.lift_const ctx result)

let unroll_macro _ctx args = C.Val args.(0)

(* Trip counts up to this unroll by default; larger ones only under the
   unrollTopLevel directive (the paper's loopy/shouldInline example). *)
let default_unroll_limit = 64

(* ntimes: unroll a loop with a compile-time trip count (Sec. 3.1) *)
let ntimes_macro ctx (args : C.rep array) : C.macro_result =
  match C.evalA ctx args.(0) with
  | Absval.Const (Int count)
    when count <= ctx.C.opts.C.max_unroll
         && (count <= default_unroll_limit || ctx.C.unroll_flag) ->
    let body = C.funR ctx args.(1) in
    let rec go i =
      if i >= count then C.Val (C.lift_const ctx Null)
      else
        match body [| C.lift_const ctx (Int i) |] with
        | C.Val _ -> go (i + 1)
        | C.Diverge -> C.Diverge
    in
    go 0
  | _ ->
    (* dynamic trip count: residual call to the interpreter fallback *)
    let m = Vm.Classfile.static_method ctx.C.rt ~cls:"Lancet" ~name:"ntimes" in
    C.residual_static ctx m args;
    C.Val (C.pop ctx)

(* --- speculation and deoptimization (Sec. 3.2) ----------------------- *)

let likely_macro ctx args =
  (match C.evalA ctx args.(0) with
  | Absval.Const (Int 0) ->
    Errors.warn "likely" "likely(cond) is statically false"
  | _ -> ());
  C.Val args.(0)

(* speculate: assume the test always succeeds; the failing path becomes a
   side exit into the interpreter (OSR-out).  A feedback (tier-1) compile
   skips the guard at a site whose trap log says it already failed: the
   condition is returned as is, leaving a plain branch with both arms. *)
let speculate_macro ctx (args : C.rep array) : C.macro_result =
  let cond = args.(0) in
  let f = ctx.C.frame in
  match C.evalA ctx cond with
  | Absval.Const (Int _) -> C.Val cond
  | _ when ctx.C.opts.C.feedback && List.mem f.C.sf_pc f.C.sf_meth.mtraps ->
    C.Val cond
  | _ ->
    let bt = B.new_block ctx.C.bld and bf = B.new_block ctx.C.bld in
    B.terminate ctx.C.bld
      (Ir.Br
         (cond, { tblock = bt.bid; targs = [||] }, { tblock = bf.bid; targs = [||] }));
    B.switch_to ctx.C.bld bf;
    (* the interpreter resumes just after the call, seeing [false] *)
    C.side_exit ctx ~kind:`Interpret ~tag:"speculate"
      ~extra:[ bool_rep ctx false ];
    B.switch_to ctx.C.bld bt;
    C.Val (bool_rep ctx true)

(* stable: freeze the current value but guard against change; on change,
   recompile with the new value (OSR-in) instead of deoptimizing for good. *)
let stable_macro ctx (args : C.rep array) : C.macro_result =
  let thunk = args.(0) in
  let v = C.evalM ctx thunk in
  let frozen = Vm.Interp.call_closure ctx.C.rt v [||] in
  let frozen_rep = C.lift_const ctx frozen in
  match C.funR ctx thunk [||] with
  | C.Diverge -> C.Diverge
  | C.Val fresh -> (
    match C.evalA ctx fresh with
    | Absval.Const fv when Vm.Value.equal fv frozen ->
      C.Val frozen_rep (* provably unchanged at compile time *)
    | _ ->
      let cond =
        match frozen with
        | Int _ -> C.icmp_s ctx Eq fresh frozen_rep
        | _ ->
          let veq = Vm.Classfile.static_method ctx.C.rt ~cls:"Sys" ~name:"veq" in
          C.emit ctx (Ir.CallStatic veq) [| C.resolve_materialized ctx fresh; frozen_rep |] Ir.Tbool
      in
      let bt = B.new_block ctx.C.bld and bf = B.new_block ctx.C.bld in
      B.terminate ctx.C.bld
        (Ir.Br
           (cond, { tblock = bt.bid; targs = [||] }, { tblock = bf.bid; targs = [||] }));
      B.switch_to ctx.C.bld bf;
      C.side_exit ctx ~kind:`Recompile ~tag:"stable"
        ~extra:[ C.resolve_materialized ctx fresh ];
      B.switch_to ctx.C.bld bt;
      C.Val frozen_rep)

let slowpath_macro ctx _args : C.macro_result =
  C.side_exit ctx ~kind:`Interpret ~tag:"slowpath"
    ~extra:[ C.lift_const ctx Null ];
  C.Diverge

let fastpath_macro ctx _args : C.macro_result =
  C.side_exit ctx ~kind:`Recompile ~tag:"fastpath"
    ~extra:[ C.lift_const ctx Null ];
  C.Diverge

(* --- delimited continuations (Sec. 3.2: shiftR / resetR) -------------- *)

let reset_macro ctx (args : C.rep array) : C.macro_result =
  let scope = { C.rs_caller = ctx.C.frame; rs_aborts = ref [] } in
  ctx.C.resets <- scope :: ctx.C.resets;
  let res = run_thunk ctx args.(0) in
  ctx.C.resets <- List.tl ctx.C.resets;
  let items =
    (match res with C.Val r -> [ (r, C.save ctx) ] | C.Diverge -> [])
    @ List.rev !(scope.C.rs_aborts)
  in
  match items with
  | [] -> C.Diverge
  | items ->
    C.Val
      (C.merge_flows ctx ~with_slots:false
         (List.map (fun (r, s) -> (s, r)) items))

(* shift: pass the current continuation (up to the nearest reset) to the
   body; the body's result becomes the reset's result. *)
let shift_macro ctx (args : C.rep array) : C.macro_result =
  match ctx.C.resets with
  | [] -> Errors.compile_error "shift without an enclosing reset"
  | scope :: _ -> (
    let fds =
      C.frame_descs ~stop_before:scope.C.rs_caller ctx ~extra_innermost:[]
    in
    let flat =
      List.concat_map
        (fun (fd : Ir.frame_desc) ->
          Array.to_list fd.Ir.fd_locals @ Array.to_list fd.Ir.fd_stack)
        fds
    in
    let k =
      C.emit ctx (Ir.Ext (C.Make_cont fds)) (Array.of_list flat) Ir.Tobj
    in
    match C.funR ctx args.(0) [| k |] with
    | C.Val r ->
      scope.C.rs_aborts := (r, C.save ctx) :: !(scope.C.rs_aborts);
      C.Diverge
    | C.Diverge -> C.Diverge)

(* --- controlled inlining (Sec. 3.1) ---------------------------------- *)

let with_policy ctx mode thunk =
  ctx.C.policy <- mode :: ctx.C.policy;
  let res = run_thunk ctx thunk in
  ctx.C.policy <- List.tl ctx.C.policy;
  res

let inline_always_macro ctx args = with_policy ctx C.Inline_always args.(0)
let inline_never_macro ctx args = with_policy ctx C.Inline_never args.(0)
let inline_nonrec_macro ctx args = with_policy ctx C.Inline_nonrec args.(0)

let scope_macro ~at ctx (args : C.rep array) : C.macro_result =
  let pat =
    match C.evalM ctx args.(0) with
    | Str s -> s
    | _ -> Errors.compile_error "at_scope: pattern must be a constant string"
  in
  let dir =
    match C.evalM ctx args.(1) with
    | Str s -> s
    | _ -> Errors.compile_error "at_scope: directive must be a constant string"
  in
  let hook = { C.sh_pattern = pat; sh_directive = dir; sh_at = at } in
  ctx.C.hooks <- hook :: ctx.C.hooks;
  let res = run_thunk ctx args.(2) in
  ctx.C.hooks <- List.tl ctx.C.hooks;
  res

let unroll_top_level_macro ctx args =
  let saved = ctx.C.unroll_flag in
  ctx.C.unroll_flag <- true;
  let res = run_thunk ctx args.(0) in
  ctx.C.unroll_flag <- saved;
  res

(* --- just-in-time program analysis (Sec. 3.3) ------------------------ *)

let check_no_alloc_macro ctx args =
  let coll = ref [] in
  ctx.C.alloc_watch <- coll :: ctx.C.alloc_watch;
  let res = run_thunk ctx args.(0) in
  ctx.C.alloc_watch <- List.tl ctx.C.alloc_watch;
  (match !coll with
  | [] -> ()
  | vs ->
    Errors.compile_error "checkNoAlloc failed:\n  %s"
      (String.concat "\n  " (List.rev vs)));
  res

let taint_macro ctx args =
  C.taint ctx args.(0);
  C.Val args.(0)

let untaint_macro ctx (args : C.rep array) =
  Hashtbl.remove ctx.C.taints args.(0);
  C.Val args.(0)

let check_no_leak_macro ctx args =
  let coll = ref [] in
  ctx.C.leak_watch <- coll :: ctx.C.leak_watch;
  let res = run_thunk ctx args.(0) in
  ctx.C.leak_watch <- List.tl ctx.C.leak_watch;
  (match !coll with
  | [] -> ()
  | vs ->
    Errors.compile_error "checkNoLeak failed:\n  %s"
      (String.concat "\n  " (List.rev vs)));
  res

(* --- installation ----------------------------------------------------- *)

let install rt =
  rt.compile_hook <- Some (fun rt v -> C.compile_value rt v);
  Tiering.install rt;
  let reg name fn = C.register_macro rt ~cls:"Lancet" ~name fn in
  reg "freeze" freeze_macro;
  reg "unroll" unroll_macro;
  reg "ntimes" ntimes_macro;
  reg "likely" likely_macro;
  reg "speculate" speculate_macro;
  reg "stable" stable_macro;
  reg "slowpath" slowpath_macro;
  reg "fastpath" fastpath_macro;
  reg "reset" reset_macro;
  reg "shift" shift_macro;
  reg "inline_always" inline_always_macro;
  reg "inline_never" inline_never_macro;
  reg "inline_nonrec" inline_nonrec_macro;
  reg "at_scope" (scope_macro ~at:true);
  reg "in_scope" (scope_macro ~at:false);
  reg "unroll_top_level" unroll_top_level_macro;
  reg "check_no_alloc" check_no_alloc_macro;
  reg "taint" taint_macro;
  reg "untaint" untaint_macro;
  reg "check_no_leak" check_no_leak_macro

(* Boot a runtime with builtins + the Lancet JIT installed.  [tiering]
   enables hotness-driven promotion of interpreted methods (tier 0 -> 1);
   see {!Vm.Runtime.create} for the knobs. *)
let boot ?tiering ?tier_threshold ?tier_cache_size ?jit_threads ?jit_queue
    ?inline_caches () =
  let rt =
    Vm.Natives.boot ?tiering ?tier_threshold ?tier_cache_size ?jit_threads
      ?jit_queue ?inline_caches ()
  in
  install rt;
  (* single consolidated exit-time flush for every registered writer
     (Chrome trace, profile snapshot, pending Exec_samples); idempotent,
     so [boot_bg] calling [boot] cannot double-register *)
  Obs.arm_exit_flush ();
  rt

(* Boot with background compilation: when [jit_threads > 0], spawns a
   [Bgjit] worker pool over the tiering compile pipeline and points the
   promotion path at it, so hot methods tier up off the mutator thread.
   Returns the pool so the caller can [Bgjit.drain]/[Bgjit.shutdown] (and
   read its stats); [None] means synchronous compilation, identical to
   [boot].  Callers must shut the pool down before process exit. *)
let boot_bg ?tiering ?tier_threshold ?tier_cache_size ?(jit_threads = 0)
    ?jit_queue ?inline_caches () =
  let rt =
    boot ?tiering ?tier_threshold ?tier_cache_size ~jit_threads ?jit_queue
      ?inline_caches ()
  in
  if jit_threads <= 0 then (rt, None)
  else begin
    let pool = Bgjit.create ~compile:Tiering.compile rt in
    Bgjit.install pool;
    (rt, Some pool)
  end
