(* Tests for the tiered execution engine: hotness-driven promotion of
   interpreted methods into Lancet-compiled code, the runtime code cache
   (installation, invalidation, eviction) and deoptimization back into the
   interpreter. *)

open Vm.Types

let value = Alcotest.testable Vm.Value.pp Vm.Value.equal
let check_value = Alcotest.check value
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let boot_tiered ?(threshold = 4) ?(cache = 512) () =
  Lancet.Api.boot ~tiering:true ~tier_threshold:threshold
    ~tier_cache_size:cache ()

(* ------------------------------------------------------------------ *)

let hot_src =
  {|
def hot(n: int, seed: int): int = {
  var acc = seed;
  var i = 0;
  while (i < n) {
    acc = (acc * 31 + i) % 1000003;
    i = i + 1
  };
  acc
}
|}

(* A hot loop crosses the threshold and gets compiled exactly once; every
   later call is a cache hit and agrees with pure interpretation. *)
let test_promotion () =
  let rt = boot_tiered ~threshold:4 () in
  let p = Mini.Front.load rt hot_src in
  let plain = Vm.Natives.boot () in
  let pp = Mini.Front.load plain hot_src in
  for k = 0 to 19 do
    let v = Mini.Front.call p "hot" [| Int 50; Int k |] in
    let w = Mini.Front.call pp "hot" [| Int 50; Int k |] in
    check_value "tiered = interpreted" w v
  done;
  check_int "compiled once" 1 rt.tiering.t_compiles;
  check_bool "cache hits recorded" true (rt.tiering.t_cache_hits >= 10);
  check_int "no deopts" 0 rt.tiering.t_deopts;
  let m = Mini.Front.find_function p "hot" in
  check_bool "method marked compiled" true
    (match m.mtier with Tier_compiled _ -> true | _ -> false)

(* Tiering disabled: same workload never compiles. *)
let test_disabled () =
  let rt = Lancet.Api.boot ~tiering:false () in
  let p = Mini.Front.load rt hot_src in
  for k = 0 to 9 do
    ignore (Mini.Front.call p "hot" [| Int 50; Int k |])
  done;
  check_int "no compiles" 0 rt.tiering.t_compiles;
  check_int "no hits" 0 rt.tiering.t_cache_hits

(* ------------------------------------------------------------------ *)
(* Compiled code agrees with the interpreter across language features.  *)

let battery =
  [
    ( "recursion",
      "def fib(n: int): int = if (n < 2) n else fib(n - 1) + fib(n - 2)",
      "fib",
      [| Int 15 |] );
    ( "floats",
      "def fsum(n: int): float = {\n\
      \  var acc = 0.0;\n\
      \  for (i <- 0 until n) { acc = acc + 0.5 * acc + 1.25; acc = acc / 1.5 };\n\
      \  acc\n\
       }",
      "fsum",
      [| Int 40 |] );
    ( "strings",
      "def s(n: int): string = {\n\
      \  var acc = \"x\";\n\
      \  for (i <- 0 until n) { acc = Str.concat(acc, Str.of_int(i)) };\n\
      \  acc\n\
       }",
      "s",
      [| Int 12 |] );
    ( "virtual-dispatch",
      "class Ctr { var x: int\n\
      \  def init(x: int): unit = { this.x = x }\n\
      \  def bump(d: int): int = { this.x = this.x + d; this.x } }\n\
       def v(n: int): int = {\n\
      \  val c = new Ctr(7);\n\
      \  var acc = 0;\n\
      \  for (i <- 0 until n) { acc = acc + c.bump(i) };\n\
      \  acc\n\
       }",
      "v",
      [| Int 25 |] );
    ( "closures",
      "def c(n: int): int = {\n\
      \  val add = fun (a: int, b: int) => a + b * 3;\n\
      \  var acc = 0;\n\
      \  for (i <- 0 until n) { acc = add(acc, i) };\n\
      \  acc\n\
       }",
      "c",
      [| Int 30 |] );
  ]

let test_matches_interpreter () =
  List.iter
    (fun (label, src, fname, args) ->
      let rt = boot_tiered ~threshold:1 () in
      let p = Mini.Front.load rt src in
      let plain = Vm.Natives.boot () in
      let pp = Mini.Front.load plain src in
      let expect = Mini.Front.call pp fname args in
      for _ = 1 to 6 do
        check_value label expect (Mini.Front.call p fname args)
      done;
      check_bool (label ^ ": compiled something") true
        (rt.tiering.t_compiles > 0))
    battery

(* ------------------------------------------------------------------ *)
(* Deoptimization: a failing speculation side-exits into the interpreter
   with the right frame state, producing the interpreter's answer.  The
   failure goes into the method's trap log, so the recompile emits a plain
   branch at that site and later failing calls no longer deopt. *)

let spec_src =
  {|
def spec(x: int): int =
  if (Lancet.speculate(x < 100)) x * 2 + 1 else x * 1000
|}

(* side exits tagged [tag] among the reachable blocks of [g] *)
let count_exits tag (g : Lms.Ir.graph) =
  List.length
    (List.filter
       (fun (b : Lms.Ir.block) ->
         match b.Lms.Ir.term with
         | Lms.Ir.Exit se -> String.equal se.Lms.Ir.se_tag tag
         | _ -> false)
       (Lms.Ir.reachable_blocks g))

let test_speculate_deopt () =
  Forensics.enable ();
  Fun.protect ~finally:Forensics.disable @@ fun () ->
  let rt = boot_tiered ~threshold:1 () in
  let p = Mini.Front.load rt spec_src in
  let plain = Vm.Natives.boot () in
  let pp = Mini.Front.load plain spec_src in
  check_value "fast path" (Int 11) (Mini.Front.call p "spec" [| Int 5 |]);
  check_value "fast path again" (Int 15) (Mini.Front.call p "spec" [| Int 7 |]);
  check_int "compiled" 1 rt.tiering.t_compiles;
  check_int "no deopt yet" 0 rt.tiering.t_deopts;
  (* speculation fails: resume in the interpreter, same answer as interp *)
  for i = 1 to 10 do
    let x = 500 + i in
    check_value
      (Printf.sprintf "spec(%d) = interpreter" x)
      (Mini.Front.call pp "spec" [| Int x |])
      (Mini.Front.call p "spec" [| Int x |])
  done;
  check_int "one deopt, then the guard is retired" 1 rt.tiering.t_deopts;
  check_int "warm compile + one recompile" 2 rt.tiering.t_compiles;
  let m = Mini.Front.find_function p "spec" in
  check_int "one pc in the trap log" 1 (List.length m.mtraps);
  (* the recompile planted no speculate guard: the journal holds the warm
     compile's plant only *)
  let plants =
    List.filter
      (fun d ->
        match d.Forensics.d_action with
        | Forensics.Guard_plant { tag = "speculate"; _ } -> true
        | _ -> false)
      (Forensics.for_mid m.mid)
  in
  check_int "speculate guard planted once" 1 (List.length plants);
  let spec = [| Lancet.Compiler.Dyn |] in
  let feedback =
    { Lancet.Compiler.default_options with Lancet.Compiler.feedback = true }
  in
  let exits ?opts () =
    count_exits "speculate" (fst (Lancet.Compiler.stage ?opts rt m spec))
  in
  check_int "no speculate exit in a feedback graph" 0 (exits ~opts:feedback ());
  check_int "explicit staging still plants the guard" 1 (exits ());
  (* the recompiled entry point serves both sides *)
  check_value "fast path after recompile" (Int 11)
    (Mini.Front.call p "spec" [| Int 5 |]);
  check_int "still one deopt" 1 rt.tiering.t_deopts

(* An explicit [Lancet.compile] keeps the paper's semantics: its guard is
   not fed back, so every failing call deopts, tiering on or not. *)
let explicit_spec_src =
  {|
def mk(): (int) -> int =
  Lancet.compile(fun (x: int) =>
    if (Lancet.speculate(x < 100)) x * 2 + 1 else x * 1000)
|}

let test_explicit_speculate_deopts () =
  let rt = boot_tiered ~threshold:1 () in
  let p = Mini.Front.load rt explicit_spec_src in
  let f = Mini.Front.call p "mk" [| |] in
  let call x = Vm.Interp.call_closure rt f [| Int x |] in
  check_value "fast path" (Int 11) (call 5);
  let d0 = Atomic.get Lancet.Compiler.count_deopts in
  for i = 1 to 10 do
    check_value "off-speculation" (Int ((500 + i) * 1000)) (call (500 + i))
  done;
  check_int "every failing call deopts" 10
    (Atomic.get Lancet.Compiler.count_deopts - d0);
  check_int "no tier-1 deopt" 0 rt.tiering.t_deopts

(* stable: a changed stable value triggers a `Recompile side exit — the
   method is rebuilt against the new value and stays in the cache. *)
let stable_src =
  {|
var fast: bool = true
def set_fast(b: bool): unit = { fast = b }
def f(x: int): int = if (Lancet.stable(fun () => fast)) x * 10 else x + 1
|}

let test_stable_recompile () =
  let rt = boot_tiered ~threshold:1 () in
  let p = Mini.Front.load rt stable_src in
  check_value "initial" (Int 30) (Mini.Front.call p "f" [| Int 3 |]);
  check_value "cached" (Int 30) (Mini.Front.call p "f" [| Int 3 |]);
  let compiles0 = rt.tiering.t_compiles in
  let m = Mini.Front.find_function p "f" in
  let gen0 = Vm.Runtime.tier_gen rt m.mid in
  ignore (Mini.Front.call p "set_fast" [| Vm.Value.of_bool false |]);
  (* guard fails: recompile against the new stable value, resume correctly *)
  check_value "after change" (Int 4) (Mini.Front.call p "f" [| Int 3 |]);
  check_bool "deopt counted" true (rt.tiering.t_deopts >= 1);
  check_bool "recompiled" true (rt.tiering.t_compiles > compiles0);
  check_bool "generation bumped" true (Vm.Runtime.tier_gen rt m.mid > gen0);
  (* the reinstalled entry point serves later calls with the new value *)
  check_value "recompiled entry" (Int 6) (Mini.Front.call p "f" [| Int 5 |])

(* ------------------------------------------------------------------ *)
(* Cache management: explicit invalidation and FIFO eviction.           *)

let test_invalidation () =
  let rt = boot_tiered ~threshold:2 () in
  let p = Mini.Front.load rt hot_src in
  for k = 0 to 5 do
    ignore (Mini.Front.call p "hot" [| Int 10; Int k |])
  done;
  check_int "compiled once" 1 rt.tiering.t_compiles;
  let m = Mini.Front.find_function p "hot" in
  check_int "generation 0" 0 (Vm.Runtime.tier_gen rt m.mid);
  Vm.Runtime.tier_invalidate rt m;
  check_int "generation bumped" 1 (Vm.Runtime.tier_gen rt m.mid);
  check_bool "back to cold" true (m.mtier = Tier_cold);
  (* still hot by its counters: the next call recompiles and installs *)
  let v = Mini.Front.call p "hot" [| Int 10; Int 3 |] in
  let plain = Vm.Natives.boot () in
  let pp = Mini.Front.load plain hot_src in
  check_value "recompiled result" (Mini.Front.call pp "hot" [| Int 10; Int 3 |]) v;
  check_int "recompiled" 2 rt.tiering.t_compiles

let two_hot_src =
  {|
def a(n: int): int = { var s = 0; for (i <- 0 until n) { s = s + i * 3 }; s }
def b(n: int): int = { var s = 1; for (i <- 0 until n) { s = s + i * 5 }; s }
|}

let test_eviction () =
  let rt = boot_tiered ~threshold:1 ~cache:1 () in
  let p = Mini.Front.load rt two_hot_src in
  let plain = Vm.Natives.boot () in
  let pp = Mini.Front.load plain two_hot_src in
  for _ = 1 to 4 do
    check_value "a" (Mini.Front.call pp "a" [| Int 20 |])
      (Mini.Front.call p "a" [| Int 20 |]);
    check_value "b" (Mini.Front.call pp "b" [| Int 20 |])
      (Mini.Front.call p "b" [| Int 20 |])
  done;
  check_bool "evictions happened" true (rt.tiering.t_evictions >= 1);
  check_bool "cache stays bounded" true
    (Hashtbl.length rt.tiering.t_cache <= 1)

(* A jit hook that declines to compile blacklists the method; execution
   stays on the interpreter and stays correct. *)
let test_blacklist () =
  let rt =
    Vm.Natives.boot ~tiering:true ~tier_threshold:2 ()
  in
  rt.jit_hook <- Some (fun _ _ -> Vm.Types.Jit_declined);
  let p = Mini.Front.load rt hot_src in
  let plain = Vm.Natives.boot () in
  let pp = Mini.Front.load plain hot_src in
  for k = 0 to 5 do
    check_value "still correct" (Mini.Front.call pp "hot" [| Int 10; Int k |])
      (Mini.Front.call p "hot" [| Int 10; Int k |])
  done;
  let m = Mini.Front.find_function p "hot" in
  check_bool "blacklisted" true (m.mtier = Tier_blacklisted);
  check_int "nothing compiled" 0 rt.tiering.t_compiles

(* ------------------------------------------------------------------ *)

let test_counters_monotone () =
  let rt = boot_tiered ~threshold:3 () in
  let p = Mini.Front.load rt spec_src in
  let snap () =
    let t = rt.tiering in
    [ t.t_compiles; t.t_cache_hits; t.t_cache_misses; t.t_deopts;
      rt.interp_steps ]
  in
  let prev = ref (snap ()) in
  for k = 0 to 14 do
    (* mix fast-path and deopting calls *)
    ignore (Mini.Front.call p "spec" [| Int (if k mod 5 = 4 then 900 else k) |]);
    let now = snap () in
    List.iter2
      (fun a b -> check_bool "monotone" true (b >= a))
      !prev now;
    prev := now
  done;
  check_bool "saw compiles" true (rt.tiering.t_compiles >= 1);
  check_bool "saw deopts" true (rt.tiering.t_deopts >= 1)

(* ------------------------------------------------------------------ *)

(* Allocation gate for compiled float kernels: once k-means [assign_all]
   (with [nearest] and [sqdist] inlined) runs as typed-backend code, a call
   allocates a fixed number of minor words -- the boxed arguments and
   result at the call boundary -- however many rows it scans.  Exact word
   counts, no timing: a boxed float anywhere in the row loop makes the
   250-row figure exceed the 10-row one. *)
let test_kernel_alloc_flat () =
  let ic = open_in_bin "../examples/kmeans.mini" in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let rt = boot_tiered ~threshold:4 () in
  let p = Mini.Front.load rt src in
  let d = 4 and k = 4 and rows = 250 in
  let ps = Farr (Array.init (rows * d) (fun i -> float_of_int (i * 37 mod 101))) in
  let cs = Farr (Array.init (k * d) (fun i -> float_of_int (i * 11 mod 97))) in
  let call n =
    Mini.Front.call p "assign_all" [| ps; cs; Int n; Int d; Int k |]
  in
  for _ = 1 to 20 do
    ignore (call 10);
    ignore (call rows)
  done;
  let m = Mini.Front.find_function p "assign_all" in
  check_bool "assign_all compiled" true
    (match m.mtier with Tier_compiled _ -> true | _ -> false);
  let words n =
    let w0 = Gc.minor_words () in
    ignore (call n);
    Gc.minor_words () -. w0
  in
  let w10 = words 10 in
  Alcotest.(check (float 0.)) "minor words per call: 250 rows = 10 rows" w10
    (words rows)

let suite =
  [
    Alcotest.test_case "promotion" `Quick test_promotion;
    Alcotest.test_case "disabled" `Quick test_disabled;
    Alcotest.test_case "matches-interpreter" `Quick test_matches_interpreter;
    Alcotest.test_case "speculate-deopt" `Quick test_speculate_deopt;
    Alcotest.test_case "explicit-speculate-deopts" `Quick
      test_explicit_speculate_deopts;
    Alcotest.test_case "stable-recompile" `Quick test_stable_recompile;
    Alcotest.test_case "invalidation" `Quick test_invalidation;
    Alcotest.test_case "eviction" `Quick test_eviction;
    Alcotest.test_case "blacklist" `Quick test_blacklist;
    Alcotest.test_case "counters-monotone" `Quick test_counters_monotone;
    Alcotest.test_case "kernel-alloc-flat" `Quick test_kernel_alloc_flat;
  ]
