(* Bigint substrate + SafeInt speculation (paper Sec. 3.2). *)

open Vm.Types

let check_str = Alcotest.(check string)

(* ---- bigint ---- *)

let test_bigint_basics () =
  let b = Bigint.of_int in
  check_str "of_int/to_string" "123456789" (Bigint.to_string (b 123456789));
  check_str "negative" "-42" (Bigint.to_string (b (-42)));
  check_str "zero" "0" (Bigint.to_string Bigint.zero);
  check_str "add" "300" (Bigint.to_string (Bigint.add (b 100) (b 200)));
  check_str "sub to negative" "-50" (Bigint.to_string (Bigint.sub (b 100) (b 150)));
  check_str "mul" "-600" (Bigint.to_string (Bigint.mul (b (-20)) (b 30)));
  Alcotest.(check (option int)) "to_int roundtrip" (Some (-98765))
    (Bigint.to_int_opt (b (-98765)))

let test_bigint_large () =
  (* 2^100 by repeated multiplication *)
  let two = Bigint.of_int 2 in
  let r = ref (Bigint.of_int 1) in
  for _ = 1 to 100 do
    r := Bigint.mul !r two
  done;
  check_str "2^100" "1267650600228229401496703205376" (Bigint.to_string !r);
  Alcotest.(check (option int)) "too large for int" None (Bigint.to_int_opt !r)

let test_bigint_factorial () =
  let r = ref (Bigint.of_int 1) in
  for i = 1 to 25 do
    r := Bigint.mul !r (Bigint.of_int i)
  done;
  check_str "25!" "15511210043330985984000000" (Bigint.to_string !r)

let test_bigint_of_string () =
  let s = "123456789012345678901234567890" in
  check_str "of_string roundtrip" s (Bigint.to_string (Bigint.of_string s));
  check_str "negative roundtrip" ("-" ^ s)
    (Bigint.to_string (Bigint.of_string ("-" ^ s)))

let prop_bigint_matches_int =
  QCheck.Test.make ~name:"bigint arithmetic matches native ints" ~count:300
    QCheck.(pair (int_range (-1000000) 1000000) (int_range (-1000000) 1000000))
    (fun (a, b) ->
      let ba = Bigint.of_int a and bb = Bigint.of_int b in
      Bigint.to_int_opt (Bigint.add ba bb) = Some (a + b)
      && Bigint.to_int_opt (Bigint.sub ba bb) = Some (a - b)
      && Bigint.to_int_opt (Bigint.mul ba bb) = Some (a * b)
      && compare (Bigint.compare_big ba bb) 0 = compare (compare a b) 0)

let prop_bigint_string_roundtrip =
  QCheck.Test.make ~name:"bigint decimal roundtrip" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 30) (int_range 0 9))
    (fun digits ->
      let s = String.concat "" (List.map string_of_int digits) in
      let canonical = Bigint.to_string (Bigint.of_string s) in
      (* canonical strips leading zeros *)
      canonical = Bigint.to_string (Bigint.of_string canonical))

(* ---- SafeInt ---- *)

let test_safeint_interpreted () =
  let _, p = Safeint.boot () in
  check_str "sum without overflow" "5050"
    (Vm.Value.to_str (Mini.Front.call p "safe_sum" [| Int 100 |]));
  check_str "20! overflows into Big" "2432902008176640000"
    (Vm.Value.to_str (Mini.Front.call p "safe_product" [| Int 20 |]))

let test_safeint_compiled_no_overflow () =
  let rt, p = Safeint.boot () in
  let thunk = Mini.Front.call p "make_safe_sum" [| Int 100 |] in
  let compiled = Lancet.Compiler.compile_value rt thunk in
  let d0 = Atomic.get Lancet.Compiler.count_deopts in
  check_str "compiled sum" "5050"
    (Vm.Value.to_str (Vm.Interp.call_closure rt compiled [||]));
  Alcotest.(check int) "no deopt" d0 (Atomic.get Lancet.Compiler.count_deopts);
  (* compiled code never contains Big operations *)
  match !Lancet.Compiler.last_graph with
  | Some g ->
    let s = Lms.Pretty.graph_to_string g in
    (* Big.add_fits (the overflow check) remains; the Big arithmetic and
       promotion calls must not *)
    Alcotest.(check bool) "overflow check present" true
      (Util.contains_sub s "Big.add_fits");
    Alcotest.(check bool) "no Big promotion in compiled code" false
      (Util.contains_sub s "Big.of_int")
  | None -> Alcotest.fail "no graph"

let test_safeint_compiled_overflow_deopts () =
  let rt, p = Safeint.boot () in
  (* 25! overflows 32-bit early; compiled code deopts into the interpreter
     and the Big slow path computes the exact result *)
  let thunk = Mini.Front.call p "make_safe_product" [| Int 25 |] in
  let compiled = Lancet.Compiler.compile_value rt thunk in
  let d0 = Atomic.get Lancet.Compiler.count_deopts in
  check_str "exact 25!" "15511210043330985984000000"
    (Vm.Value.to_str (Vm.Interp.call_closure rt compiled [||]));
  Alcotest.(check bool) "deoptimized at overflow" true
    (Atomic.get Lancet.Compiler.count_deopts > d0)

let test_safeint_compiled_matches_interp () =
  let rt, p = Safeint.boot () in
  let thunk = Mini.Front.call p "make_safe_product" [| Int 12 |] in
  let compiled = Lancet.Compiler.compile_value rt thunk in
  let a = Vm.Interp.call_closure rt compiled [||] in
  let b = Mini.Front.call p "safe_product" [| Int 12 |] in
  Alcotest.check Util.value "same result" b a

let suite =
  [
    Alcotest.test_case "bigint-basics" `Quick test_bigint_basics;
    Alcotest.test_case "bigint-large" `Quick test_bigint_large;
    Alcotest.test_case "bigint-factorial" `Quick test_bigint_factorial;
    Alcotest.test_case "bigint-of-string" `Quick test_bigint_of_string;
    QCheck_alcotest.to_alcotest prop_bigint_matches_int;
    QCheck_alcotest.to_alcotest prop_bigint_string_roundtrip;
    Alcotest.test_case "safeint-interp" `Quick test_safeint_interpreted;
    Alcotest.test_case "safeint-compiled" `Quick test_safeint_compiled_no_overflow;
    Alcotest.test_case "safeint-overflow-deopt" `Quick test_safeint_compiled_overflow_deopts;
    Alcotest.test_case "safeint-consistency" `Quick test_safeint_compiled_matches_interp;
  ]
