(* Operations on runtime values. *)

open Types

let to_int = function
  | Int i -> i
  | v -> vm_error "expected int, got %s" (match v with
      | Null -> "null" | Float _ -> "float" | Str _ -> "string"
      | Obj _ -> "object" | Arr _ -> "array" | Farr _ -> "farray"
      | Int _ -> assert false)

let to_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | _ -> vm_error "expected float"

let to_str = function
  | Str s -> s
  | _ -> vm_error "expected string"

let to_obj = function
  | Obj o -> o
  | _ -> vm_error "expected object"

let to_arr = function
  | Arr a -> a
  | _ -> vm_error "expected array"

let to_farr = function
  | Farr a -> a
  | _ -> vm_error "expected float array"

let of_bool b = Int (if b then 1 else 0)

let truthy = function
  | Int 0 | Null -> false
  | Int _ -> true
  | v -> vm_error "expected boolean, got %s"
           (match v with Float _ -> "float" | Str _ -> "string" | _ -> "value")

(* Structural equality used by tests and by the [streq]/[veq] natives:
   objects compare by identity, everything else structurally. *)
let rec equal a b =
  match a, b with
  | Null, Null -> true
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | Str x, Str y -> String.equal x y
  | Obj x, Obj y -> x.oid = y.oid
  | Arr x, Arr y ->
    Array.length x = Array.length y
    && (let ok = ref true in
        Array.iteri (fun i v -> if not (equal v y.(i)) then ok := false) x;
        !ok)
  | Farr x, Farr y -> x = y
  | (Null | Int _ | Float _ | Str _ | Obj _ | Arr _ | Farr _), _ -> false

let rec pp ppf v =
  match v with
  | Null -> Format.fprintf ppf "null"
  | Int i -> Format.fprintf ppf "%d" i
  | Float f -> Format.fprintf ppf "%g" f
  | Str s -> Format.fprintf ppf "%S" s
  | Obj o -> Format.fprintf ppf "%s#%d" o.ocls.cname o.oid
  | Arr a ->
    Format.fprintf ppf "[|%a|]"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp)
      (Array.to_list a)
  | Farr a ->
    Format.fprintf ppf "[f|%a|]"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
         (fun ppf f -> Format.fprintf ppf "%g" f))
      (Array.to_list a)

let to_string v =
  match v with
  | Str s -> s (* no quotes when stringifying for output *)
  | _ -> Format.asprintf "%a" pp v

(* 32-bit wrap-around semantics for int arithmetic, matching the JVM model
   the paper relies on for SafeInt overflow detection. *)
let wrap32 i = Int32.to_int (Int32.of_int i)

let iop_apply op x y =
  match op with
  | Add -> wrap32 (x + y)
  | Sub -> wrap32 (x - y)
  | Mul -> wrap32 (x * y)
  | Div -> if y = 0 then vm_error "division by zero" else wrap32 (x / y)
  | Rem -> if y = 0 then vm_error "remainder by zero" else wrap32 (x mod y)
  | And -> x land y
  | Or -> x lor y
  | Xor -> x lxor y
  | Shl -> wrap32 (x lsl (y land 31))
  | Shr -> x asr (y land 31)

let fop_apply op x y =
  match op with
  | FAdd -> x +. y
  | FSub -> x -. y
  | FMul -> x *. y
  | FDiv -> x /. y

let cond_apply c (x : int) (y : int) =
  match c with
  | Eq -> x = y
  | Ne -> x <> y
  | Lt -> x < y
  | Le -> x <= y
  | Gt -> x > y
  | Ge -> x >= y

let fcond_apply c (x : float) (y : float) =
  match c with
  | Eq -> x = y
  | Ne -> x <> y
  | Lt -> x < y
  | Le -> x <= y
  | Gt -> x > y
  | Ge -> x >= y
