(* Tests for type feedback: interpreter inline caches with bytecode
   quickening, class-hierarchy invalidation of both the caches and the
   CHA memos, and speculative devirtualization in the JIT — including a
   dispatch-changing method definition racing an in-flight background
   compile, which must never install the speculated code. *)

open Vm
open Vm.Types

let value = Alcotest.testable Vm.Value.pp Vm.Value.equal
let check_value = Alcotest.check value
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let quiet = Some (fun (_ : string) -> ())

let await ?(what = "condition") p =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (p ())) && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done;
  if not (p ()) then Alcotest.failf "timed out waiting for %s" what

(* The single quickened site belonging to [driver]. *)
let driver_site rt (driver : meth) =
  match
    Hashtbl.fold
      (fun _ (s : callsite) acc ->
        if s.cs_mid = driver.mid then Some s else acc)
      rt.ic_sites None
  with
  | Some s -> s
  | None -> Alcotest.fail "call site did not quicken"

(* ------------------------------------------------------------------ *)
(* mono -> poly -> mega transitions, quickening in place, rendering.    *)

let test_transitions () =
  let rt = Natives.boot () in
  let base = Classfile.declare_class rt ~name:"IcBase" ~fields:[] () in
  ignore
    (Assembler.define_method rt base ~name:"tag" ~nargs:0 (fun b ->
         Assembler.emit b (Const (Int 0));
         Assembler.emit b Retv));
  let subs =
    List.init 5 (fun i ->
        let c =
          Classfile.declare_class rt
            ~name:(Printf.sprintf "IcSub%d" i)
            ~super:"IcBase" ~fields:[] ()
        in
        ignore
          (Assembler.define_method rt c ~name:"tag" ~nargs:0 (fun b ->
               Assembler.emit b (Const (Int (i + 1)));
               Assembler.emit b Retv));
        c)
  in
  let scratch = Classfile.declare_class rt ~name:"IcDrv" ~fields:[] () in
  let driver =
    Assembler.define_method rt scratch ~name:"call" ~static:true ~nargs:1
      (fun b ->
        Assembler.emit b (Load 0);
        Assembler.emit b (Invoke (Virtual ("tag", 0, None)));
        Assembler.emit b Retv)
  in
  let call c = Interp.call rt driver [| Obj (Runtime.alloc rt c) |] in
  check_value "first call" (Int 1) (call (List.nth subs 0));
  let site = driver_site rt driver in
  check_string "monomorphic after one class" "mono:IcSub0"
    (Inlinecache.state_string site);
  (match driver.mcode with
  | Bytecode code ->
    check_bool "invoke quickened in place" true
      (Array.exists
         (function Invoke (Virtual_ic _) -> true | _ -> false)
         code)
  | Native _ -> Alcotest.fail "expected bytecode");
  check_value "mono hit" (Int 1) (call (List.nth subs 0));
  check_int "hit counted" 1 site.cs_hits;
  check_value "second class" (Int 2) (call (List.nth subs 1));
  check_string "polymorphic after two" "poly:{IcSub0,IcSub1}"
    (Inlinecache.state_string site);
  check_value "poly hit" (Int 2) (call (List.nth subs 1));
  check_int "poly hits counted" 2 site.cs_hits;
  (* five distinct receiver classes blow past poly_limit = 4 *)
  List.iteri (fun i c -> check_value "chain" (Int (i + 1)) (call c)) subs;
  check_string "megamorphic after five" "mega" (Inlinecache.state_string site);
  check_value "mega still dispatches correctly" (Int 0) (call base);
  check_bool "disasm renders the site state" true
    (Strutil.contains (Disasm.method_to_string driver) "[mega]");
  let hits, misses, mono, poly, mega = Runtime.ic_stats rt in
  check_bool "stats: hits" true (hits >= 3);
  check_bool "stats: misses" true (misses >= 5);
  check_int "stats: site counts" 1 (mono + poly + mega)

(* ------------------------------------------------------------------ *)
(* Quickened and unquickened interpreters agree on a polymorphic
   workload, and both agree with the tiered (compiled) configuration.   *)

let poly_src =
  {|
class Shape {
  var k: int
  def init(k: int): unit = { this.k = k }
  def area(): int = 0
}
class Square extends Shape {
  def area(): int = this.k * this.k
}
class Circle extends Shape {
  def area(): int = 3 * this.k * this.k
}
def pick(i: int): Shape = {
  var s: Shape = new Shape(i % 5);
  if (i % 3 < 2) { s = new Square(i % 5) };
  if (i % 3 < 1) { s = new Circle(i % 5) };
  s
}
def total(n: int): int = {
  var acc = 0;
  var i = 0;
  while (i < n) {
    acc = acc + pick(i).area();
    i = i + 1
  };
  acc
}
|}

let test_quickened_equivalence () =
  let run rt = Mini.Front.call (Mini.Front.load rt poly_src) "total" [| Int 200 |] in
  let rt_on = Lancet.Api.boot () in
  let rt_off = Lancet.Api.boot ~inline_caches:false () in
  let rt_tiered = Lancet.Api.boot ~tiering:true ~tier_threshold:8 () in
  let v_on = run rt_on in
  check_value "ic off matches ic on" v_on (run rt_off);
  check_value "tiered matches interpreter" v_on (run rt_tiered);
  let hits, _, mono, poly, mega = Runtime.ic_stats rt_on in
  check_bool "caches were hit" true (hits > 0);
  check_bool "sites quickened" true (mono + poly + mega > 0);
  check_int "no sites without inline caches" 0 (Hashtbl.length rt_off.ic_sites)

(* ------------------------------------------------------------------ *)
(* Late redefinition after a speculative compile (synchronous tiering):
   the installed code direct-called the old target, so [add_method] must
   invalidate it through the devirtualization dependency and the next
   call must see the new behavior.                                      *)

let redefine_src =
  {|
class Pt {
  var x: int
  def init(x: int): unit = { this.x = x }
  def m(): int = this.x + 1
}
def driver(p: Pt, n: int): int = {
  var acc = 0;
  var i = 0;
  while (i < n) { acc = acc + p.m(); i = i + 1 };
  acc
}
def mk(x: int): Pt = new Pt(x)
|}

let test_late_redefine_sync () =
  let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:4 () in
  let p = Mini.Front.load rt redefine_src in
  let driver = Mini.Front.find_function p "driver" in
  let o = Mini.Front.call p "mk" [| Int 5 |] in
  for _ = 1 to 4 do
    check_value "trained" (Int 60) (Mini.Front.call p "driver" [| o; Int 10 |])
  done;
  check_bool "driver compiled with speculation" true
    (match driver.mtier with Tier_compiled _ -> true | _ -> false);
  let gen0 = Vm.Runtime.tier_gen rt driver.mid in
  (* redefine Pt.m out from under the compiled direct call *)
  let pt = Classfile.find_class rt "Pt" in
  let fx = Classfile.field pt "x" in
  ignore
    (Assembler.define_method rt pt ~name:"m" ~nargs:0 (fun b ->
         Assembler.emit b (Load 0);
         Assembler.emit b (Getfield fx);
         Assembler.emit b (Const (Int 100));
         Assembler.emit b (Iop Add);
         Assembler.emit b Retv));
  check_bool "dependency invalidation bumped the generation" true
    (Vm.Runtime.tier_gen rt driver.mid > gen0);
  (* the very first call after the redefinition must see the new method *)
  check_value "new dispatch target visible immediately" (Int 1050)
    (Mini.Front.call p "driver" [| o; Int 10 |]);
  (* and keeps being right once the method re-promotes and recompiles *)
  for _ = 1 to 6 do
    check_value "stable after recompile" (Int 1050)
      (Mini.Front.call p "driver" [| o; Int 10 |])
  done

(* ------------------------------------------------------------------ *)
(* A mono-speculated guard that fails at run time deopts to the
   interpreter (never a wrong answer), and repeated failures invalidate
   so the method recompiles against the retrained (now poly) profile.   *)

let guard_src =
  {|
class A2 {
  var x: int
  def init(x: int): unit = { this.x = x }
  def m(): int = 1
}
class B2 extends A2 {
  def m(): int = 2
}
def driver2(a: A2, n: int): int = {
  var acc = 0;
  var i = 0;
  while (i < n) { acc = acc + a.m(); i = i + 1 };
  acc
}
def mkA(): A2 = new A2(0)
def mkB(): A2 = new B2(0)
|}

let test_guard_fail_deopts () =
  let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:4 () in
  let p = Mini.Front.load rt guard_src in
  let driver = Mini.Front.find_function p "driver2" in
  let a = Mini.Front.call p "mkA" [||] in
  let b = Mini.Front.call p "mkB" [||] in
  (* train monomorphically on A2 until compiled: B2 overrides m, so CHA
     cannot prove the call and the compile must guard on the IC profile *)
  for _ = 1 to 4 do
    check_value "trained" (Int 10) (Mini.Front.call p "driver2" [| a; Int 10 |])
  done;
  check_bool "compiled against the mono profile" true
    (match driver.mtier with Tier_compiled _ -> true | _ -> false);
  let deopts0 = rt.tiering.t_deopts in
  (* an off-profile receiver: the class-id guard fails, the side exit
     resumes the interpreter at the invoke, and the answer is right *)
  check_value "guard failure never yields a wrong result" (Int 20)
    (Mini.Front.call p "driver2" [| b; Int 10 |]);
  check_bool "the miss deoptimized" true (rt.tiering.t_deopts > deopts0);
  (* keep missing: the entry invalidates and recompiles poly; every call
     stays correct throughout *)
  for _ = 1 to 6 do
    check_value "B2 stays correct" (Int 20)
      (Mini.Front.call p "driver2" [| b; Int 10 |]);
    check_value "A2 stays correct" (Int 10)
      (Mini.Front.call p "driver2" [| a; Int 10 |])
  done

(* ------------------------------------------------------------------ *)
(* A dispatch-changing definition racing an in-flight background
   compile: the worker finished building speculative code against the
   old hierarchy, so the epoch-checked install must discard it.         *)

let bg_src =
  {|
class P3 {
  var x: int
  def init(x: int): unit = { this.x = x }
  def m(): int = this.x + 1
}
def driver3(p: P3, n: int): int = {
  var acc = 0;
  var i = 0;
  while (i < n) { acc = acc + p.m(); i = i + 1 };
  acc
}
def mk3(x: int): P3 = new P3(x)
|}

let test_bg_inflight_override () =
  (* threshold high enough that nothing promotes organically: the test
     drives the queue by hand, like the bgjit stale-install test *)
  let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:1_000_000 () in
  let started = Atomic.make false in
  let release = Atomic.make false in
  let pool =
    Bgjit.create ~threads:1 ?log:quiet
      ~compile:(fun rt m ->
        (* build for real first — speculating on the trained IC — then
           stall so the mutator can mutate the hierarchy pre-install *)
        let r = Lancet.Tiering.compile rt m in
        Atomic.set started true;
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done;
        r)
      rt
  in
  let p = Mini.Front.load rt bg_src in
  let driver = Mini.Front.find_function p "driver3" in
  let o = Mini.Front.call p "mk3" [| Int 5 |] in
  (* train the site so the compile has a profile to speculate on *)
  for _ = 1 to 3 do
    check_value "trained" (Int 60) (Mini.Front.call p "driver3" [| o; Int 10 |])
  done;
  let epoch0 = Vm.Runtime.hier_epoch rt in
  check_bool "queued" true (Bgjit.enqueue pool driver = `Queued);
  await ~what:"background compile to finish building" (fun () ->
      Atomic.get started);
  (* the hierarchy mutation lands while the code sits unpublished *)
  let p3 = Classfile.find_class rt "P3" in
  ignore
    (Assembler.define_method rt p3 ~name:"m" ~nargs:0 (fun b ->
         Assembler.emit b (Const (Int 100));
         Assembler.emit b Retv));
  check_bool "epoch advanced" true (Vm.Runtime.hier_epoch rt > epoch0);
  Atomic.set release true;
  Bgjit.drain pool;
  Bgjit.shutdown pool;
  let s = Bgjit.stats pool in
  check_int "speculated code discarded as stale" 1 s.Bgjit.s_stale;
  check_int "nothing installed" 0 s.Bgjit.s_installed;
  check_bool "stale code not in the cache" false
    (Hashtbl.mem rt.tiering.t_cache driver.mid);
  check_value "correct against the new hierarchy" (Int 1000)
    (Mini.Front.call p "driver3" [| o; Int 10 |])

(* ------------------------------------------------------------------ *)
(* The CHA memos: [no_override_below] answers are cached and a later
   override drops them; [resolve_virtual_opt] memoizes inherited lookups
   into the subclass vtable and the override replaces them.             *)

let test_cha_caches () =
  let rt = Natives.boot () in
  let base = Classfile.declare_class rt ~name:"ChaA" ~fields:[] () in
  ignore
    (Assembler.define_method rt base ~name:"f" ~nargs:0 (fun b ->
         Assembler.emit b (Const (Int 1));
         Assembler.emit b Retv));
  let sub = Classfile.declare_class rt ~name:"ChaB" ~super:"ChaA" ~fields:[] () in
  check_bool "no override yet" true (Classfile.no_override_below rt base "f");
  check_bool "answer cached" true
    (Hashtbl.mem rt.cha_cache (base.cid, "f"));
  (match Classfile.resolve_virtual_opt sub "f" with
  | Some m -> check_bool "resolves to the inherited method" true (m.mowner == base)
  | None -> Alcotest.fail "resolve_virtual_opt failed");
  check_bool "inherited lookup memoized into subclass vtable" true
    (Hashtbl.mem sub.cvtable "f");
  ignore
    (Assembler.define_method rt sub ~name:"f" ~nargs:0 (fun b ->
         Assembler.emit b (Const (Int 2));
         Assembler.emit b Retv));
  check_bool "override flips the CHA answer" false
    (Classfile.no_override_below rt base "f");
  (match Classfile.resolve_virtual_opt sub "f" with
  | Some m -> check_bool "resolves to the override" true (m.mowner == sub)
  | None -> Alcotest.fail "resolve_virtual_opt failed");
  (* dispatch through the interpreter agrees *)
  let scratch = Classfile.declare_class rt ~name:"ChaDrv" ~fields:[] () in
  let call =
    Assembler.define_method rt scratch ~name:"call" ~static:true ~nargs:1
      (fun b ->
        Assembler.emit b (Load 0);
        Assembler.emit b (Invoke (Virtual ("f", 0, None)));
        Assembler.emit b Retv)
  in
  check_value "base" (Int 1) (Interp.call rt call [| Obj (Runtime.alloc rt base) |]);
  check_value "override" (Int 2) (Interp.call rt call [| Obj (Runtime.alloc rt sub) |])

(* ------------------------------------------------------------------ *)
(* A CHA direct call keeps the interpreter's receiver null check: one
   guard per receiver and path, whose side exit lets the interpreter
   raise the trap.                                                      *)

let test_cha_null_guard () =
  let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:1_000_000 () in
  let p =
    Mini.Front.load rt
      {|class Pt {
  var x: int
  def init(x: int): unit = { this.x = x }
  def m(): int = 7
}
def two(p: Pt): int = p.m() + p.m()
def mk(): Pt = new Pt(1)|}
  in
  let two = Mini.Front.find_function p "two" in
  let opts = { Lancet.Compiler.default_options with Lancet.Compiler.feedback = true } in
  let g = fst (Lancet.Compiler.stage ~opts rt two [| Lancet.Compiler.Dyn |]) in
  let null_exits =
    List.filter
      (fun (b : Lms.Ir.block) ->
        match b.Lms.Ir.term with
        | Lms.Ir.Exit se -> String.starts_with ~prefix:"null:" se.Lms.Ir.se_tag
        | _ -> false)
      (Lms.Ir.reachable_blocks g)
  in
  check_int "one null guard for two calls" 1 (List.length null_exits);
  (match Vm.Runtime.tier_promote rt two with
  | Some _ -> ()
  | None -> Alcotest.fail "two did not compile");
  check_value "object receiver" (Int 14) (Mini.Front.call p "two" [| Mini.Front.call p "mk" [||] |]);
  match Mini.Front.call p "two" [| Null |] with
  | v -> Alcotest.failf "null receiver returned %s" (Vm.Value.to_string v)
  | exception Vm_error msg ->
    check_string "the interpreter's trap" "null receiver for m" (Util.trap_message msg)

(* ------------------------------------------------------------------ *)
(* Megamorphic sites under tier-1 compiles: when the static receiver
   type has at most [mega_chain_limit] classes that resolve the method,
   the site becomes a class-id chain over all of them (class-hierarchy
   complete) with generic dispatch as the last arm.                     *)

(* [Op] plus one subclass per entry of [subs]: [Some body] overrides
   [ap] with that body, [None] inherits it.  [ops n] builds one receiver
   of each of the first [n] classes. *)
let hier_src subs =
  let cls i body =
    Printf.sprintf "class OpC%d extends Op {%s}\n" i
      (match body with
      | Some e -> Printf.sprintf " def ap(x: int): int = %s " e
      | None -> " ")
  in
  let mk_arms =
    String.concat ""
      (List.mapi
         (fun i _ -> Printf.sprintf "  if (c == %d) { o = new OpC%d(k) };\n" (i + 1) i)
         subs)
  in
  Printf.sprintf
    {|class Op {
  var k: int
  def init(k: int): unit = { this.k = k }
  def ap(x: int): int = x + this.k
}
%sdef mk(c: int, k: int): Op = {
  var o: Op = new Op(k);
%s  o
}
def ops(n: int): array[Op] = {
  val a = new array[Op](n);
  for (c <- 0 until n) { a[c] = mk(c, c + 2) };
  a
}
def run(a: array[Op], n: int): int = {
  var acc = 0;
  for (i <- 0 until n) { acc = (acc + a[i %% a.length].ap(i)) %% 1000003 };
  acc
}
|}
    (String.concat "" (List.mapi cls subs))
    mk_arms

let five_subs =
  [ Some "x * this.k"; Some "x - this.k"; Some "x * 3 + this.k"; None ]

let graph_nodes (g : Lms.Ir.graph) =
  List.concat_map (fun (b : Lms.Ir.block) -> b.Lms.Ir.body) (Lms.Ir.reachable_blocks g)

let count_op p g = List.length (List.filter (fun n -> p n.Lms.Ir.op) (graph_nodes g))

let is_callvirt = function Lms.Ir.CallVirtual ("ap", _) -> true | _ -> false
let is_classid = function Lms.Ir.ClassId -> true | _ -> false

(* compares of the receiver's class id: one per chained class *)
let classid_compares g =
  let nodes = graph_nodes g in
  let cids =
    List.filter_map
      (fun n -> if is_classid n.Lms.Ir.op then Some n.Lms.Ir.id else None)
      nodes
  in
  List.filter
    (fun n ->
      (match n.Lms.Ir.op with Lms.Ir.Icmp Eq -> true | _ -> false)
      && Array.exists (fun a -> List.mem a cids) n.Lms.Ir.args)
    nodes

(* Train [run]'s site on [n] receiver classes in a runtime that promotes
   nothing on its own; returns the program, [run] and the receivers. *)
let train_mega subs n =
  let rt = Lancet.Api.boot ~tiering:true ~tier_threshold:1_000_000 () in
  let p = Mini.Front.load rt (hier_src subs) in
  let run = Mini.Front.find_function p "run" in
  let a = Mini.Front.call p "ops" [| Int n |] in
  ignore (Mini.Front.call p "run" [| a; Int 40 |]);
  check_string "site trained megamorphic" "mega"
    (Inlinecache.state_string (driver_site rt run));
  (rt, p, run, a)

let feedback_graph rt run =
  let opts = { Lancet.Compiler.default_options with Lancet.Compiler.feedback = true } in
  fst (Lancet.Compiler.stage ~opts rt run [| Lancet.Compiler.Dyn; Lancet.Compiler.Dyn |])

let interp_run subs n iters =
  let pure = Lancet.Api.boot () in
  let p = Mini.Front.load pure (hier_src subs) in
  Mini.Front.call p "run" [| Mini.Front.call p "ops" [| Int n |]; Int iters |]

let test_mega_cha_chain () =
  let rt, p, run, a = train_mega five_subs 5 in
  let g = feedback_graph rt run in
  check_int "one class-id compare per class" 5 (List.length (classid_compares g));
  check_int "one generic call" 1 (count_op is_callvirt g);
  (* the generic call is the else arm of the chain's last compare *)
  let blocks = Lms.Ir.reachable_blocks g in
  let generic =
    List.find
      (fun (b : Lms.Ir.block) ->
        List.exists (fun n -> is_callvirt n.Lms.Ir.op) b.Lms.Ir.body)
      blocks
  in
  let compares = List.map (fun n -> n.Lms.Ir.id) (classid_compares g) in
  check_bool "generic call is the last arm" true
    (List.exists
       (fun (b : Lms.Ir.block) ->
         match b.Lms.Ir.term with
         | Lms.Ir.Br (c, _, f) ->
           List.mem c compares && f.Lms.Ir.tblock = generic.Lms.Ir.bid
         | _ -> false)
       blocks);
  (* run the tier-1 code: no [ap] is entered, compiled or interpreted *)
  (match Vm.Runtime.tier_promote rt run with
  | Some _ -> ()
  | None -> Alcotest.fail "run did not compile");
  let callees =
    List.filter_map
      (fun (c : cls) -> Classfile.own_method_opt c "ap")
      (Hashtbl.fold (fun _ c acc -> c :: acc) rt.classes [])
  in
  check_int "four own ap methods" 4 (List.length callees);
  let calls0 = List.map (fun m -> m.mcalls) callees in
  let steps0 = rt.interp_steps and compiles0 = rt.tiering.t_compiles in
  List.iter
    (fun iters ->
      check_value "compiled = pure interpreter" (interp_run five_subs 5 iters)
        (Mini.Front.call p "run" [| a; Int iters |]))
    [ 1; 7; 40; 123 ];
  check_bool "no ap entered" true (calls0 = List.map (fun m -> m.mcalls) callees);
  check_int "nothing interpreted" steps0 rt.interp_steps;
  check_int "nothing compiled" compiles0 rt.tiering.t_compiles;
  check_bool "ap stays cold" true
    (List.for_all (fun m -> match m.mtier with Tier_cold -> true | _ -> false) callees)

let test_mega_cha_late_override () =
  let rt, p, run, a = train_mega five_subs 5 in
  (match Vm.Runtime.tier_promote rt run with
  | Some _ -> ()
  | None -> Alcotest.fail "run did not compile");
  check_value "compiled = pure interpreter" (interp_run five_subs 5 50)
    (Mini.Front.call p "run" [| a; Int 50 |]);
  let gen0 = Vm.Runtime.tier_gen rt run.mid in
  (* OpC3 inherited [ap] from Op and sits in the chain with Op's target *)
  let c3 = Classfile.find_class rt "OpC3" in
  ignore
    (Assembler.define_method rt c3 ~name:"ap" ~nargs:1 (fun b ->
         Assembler.emit b (Load 1);
         Assembler.emit b (Const (Int 1000));
         Assembler.emit b (Iop Mul);
         Assembler.emit b Retv));
  check_bool "compiled run invalidated" true (Vm.Runtime.tier_gen rt run.mid > gen0);
  check_bool "run no longer compiled" true
    (match run.mtier with Tier_compiled _ -> false | _ -> true);
  let overridden = List.mapi (fun i s -> if i = 3 then Some "x * 1000" else s) five_subs in
  List.iter
    (fun iters ->
      check_value "follows the interpreter" (interp_run overridden 5 iters)
        (Mini.Front.call p "run" [| a; Int iters |]))
    [ 5; 50 ];
  (* and so does the recompile against the new hierarchy *)
  (match Vm.Runtime.tier_promote rt run with
  | Some _ -> ()
  | None -> Alcotest.fail "run did not recompile");
  check_value "recompiled = interpreter" (interp_run overridden 5 77)
    (Mini.Front.call p "run" [| a; Int 77 |])

let test_mega_cha_limit () =
  let subs n = List.init n (fun i -> Some (Printf.sprintf "x * %d + this.k" (i + 2))) in
  (* eight classes below the hint: chained *)
  let rt, _, run, _ = train_mega (subs 7) 5 in
  let g = feedback_graph rt run in
  check_int "eight classes: eight compares" 8 (List.length (classid_compares g));
  check_int "eight classes: one generic arm" 1 (count_op is_callvirt g);
  (* nine: a bare generic call *)
  let rt, _, run, _ = train_mega (subs 8) 5 in
  let g = feedback_graph rt run in
  check_int "nine classes: no class-id chain" 0 (count_op is_classid g);
  check_int "nine classes: one generic call" 1 (count_op is_callvirt g)

(* An explicit [Lancet.compile] has no feedback: the mega site stays a
   bare generic call. *)
let test_mega_explicit_compile () =
  let rt, _, run, a = train_mega five_subs 5 in
  let f =
    Lancet.Compiler.compile_method rt run [| Lancet.Compiler.Dyn; Lancet.Compiler.Dyn |]
  in
  let g =
    match !Lancet.Compiler.last_graph with
    | Some g -> g
    | None -> Alcotest.fail "no graph"
  in
  check_int "no class-id chain" 0 (count_op is_classid g);
  check_int "one generic call" 1 (count_op is_callvirt g);
  check_value "explicit = pure interpreter" (interp_run five_subs 5 33) (f [| a; Int 33 |])

let suite =
  [
    Alcotest.test_case "ic-transitions" `Quick test_transitions;
    Alcotest.test_case "quickened-equivalence" `Quick test_quickened_equivalence;
    Alcotest.test_case "late-redefine-sync" `Quick test_late_redefine_sync;
    Alcotest.test_case "guard-fail-deopt" `Quick test_guard_fail_deopts;
    Alcotest.test_case "bg-inflight-override" `Quick test_bg_inflight_override;
    Alcotest.test_case "cha-caches" `Quick test_cha_caches;
    Alcotest.test_case "cha-null-guard" `Quick test_cha_null_guard;
    Alcotest.test_case "mega-cha-chain" `Quick test_mega_cha_chain;
    Alcotest.test_case "mega-cha-late-override" `Quick test_mega_cha_late_override;
    Alcotest.test_case "mega-cha-limit" `Quick test_mega_cha_limit;
    Alcotest.test_case "mega-explicit-compile" `Quick test_mega_explicit_compile;
  ]
