(* Shared helpers for the test suites. *)

let contains_sub s sub =
  let ls = String.length s and lsub = String.length sub in
  let rec go i =
    if i + lsub > ls then false
    else if String.sub s i lsub = sub then true
    else go (i + 1)
  in
  go 0

let value = Alcotest.testable Vm.Value.pp Vm.Value.equal

(* A VM trap message without its " at <location>" suffix: the interpreter
   knows where it trapped, compiled code does not. *)
let trap_message msg =
  let rec cut i =
    if i + 4 > String.length msg then msg
    else if String.sub msg i 4 = " at " then String.sub msg 0 i
    else cut (i + 1)
  in
  cut 0
