(* Speculative optimization (paper Sec. 3.2): overflow-safe integers whose
   compiled fast path contains machine ints only; overflow deoptimizes into
   the interpreter where the BigInteger slow path runs. *)

let () =
  let rt, p = Safeint.boot () in
  let compiled_product n =
    let thunk = Mini.Front.call p "make_safe_product" [| Int n |] in
    let f = Lancet.Compiler.compile_value rt thunk in
    Vm.Value.to_str (Vm.Interp.call_closure rt f [||])
  in
  let d0 = Atomic.get Lancet.Compiler.count_deopts in
  Printf.printf "12! (no overflow, stays compiled)   = %s\n" (compiled_product 12);
  Printf.printf "deopts so far: %d\n" (Atomic.get Lancet.Compiler.count_deopts - d0);
  Printf.printf "25! (overflows, deoptimizes to Big) = %s\n" (compiled_product 25);
  Printf.printf "deopts so far: %d\n" (Atomic.get Lancet.Compiler.count_deopts - d0);
  match !Lancet.Compiler.last_graph with
  | Some g ->
    let s = Lms.Pretty.graph_to_string g in
    Printf.printf "\ncompiled code mentions Big arithmetic: %b (the slow path lives in the interpreter)\n"
      (let rec has i =
         i + 10 <= String.length s && (String.sub s i 10 = "Big.of_int" || has (i + 1))
       in
       has 0)
  | None -> ()
