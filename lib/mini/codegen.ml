(* Bytecode generation from the typed AST.  Performs closure conversion:
   each lambda becomes a synthesized class with one [apply] method and one
   final field per captured variable.  Mutable locals captured by a lambda
   are boxed (a one-field Box object) so that writes are shared, matching
   Scala's capture semantics. *)

open Ast
open Typecheck
module A = Vm.Assembler
module T = Vm.Types

module StringSet = Set.Make (String)

type storage =
  | Slot of int
  | BoxedSlot of int
  | Capture of T.field * bool (* field on the closure object; boxed? *)
  | GlobalSlot of int

type ctx = {
  rt : T.runtime;
  genv : genv;
  main_cls : T.cls; (* holds top-level functions of this program *)
  globals : (string, int) Hashtbl.t;
  box_cls : T.cls;
  src : string; (* source file name, stored on generated methods *)
}

(* scope of one method/function/lambda body under compilation *)
type scope = {
  ctx : ctx;
  b : A.t;
  mutable vars : (string * storage) list;
  this_storage : storage option; (* for methods: Slot 0; lambdas: a capture *)
  boxed_names : StringSet.t; (* mutable locals that must live in boxes *)
  mutable block_lets : int list; (* slots bound in the current block *)
}

(* ---------- free variables and captured-name analysis ---------- *)

let rec free_vars (e : texpr) (bound : StringSet.t) (acc : StringSet.t ref)
    (uses_this : bool ref) : StringSet.t =
  (* returns updated [bound] (lets extend it); accumulates free names *)
  let fv e bound = ignore (free_vars e bound acc uses_this) in
  match e.tdesc with
  | Cint _ | Cfloat _ | Cstr _ | Cbool _ | Cnull -> bound
  | Local x ->
    if not (StringSet.mem x bound) then acc := StringSet.add x !acc;
    bound
  | GlobalRef _ -> bound
  | This ->
    uses_this := true;
    bound
  | LetT (_, x, init) ->
    fv init bound;
    StringSet.add x bound
  | AssignLocal (x, v) ->
    if not (StringSet.mem x bound) then acc := StringSet.add x !acc;
    fv v bound;
    bound
  | AssignGlobal (_, v) ->
    fv v bound;
    bound
  | FieldGet (_, o, _) ->
    fv o bound;
    bound
  | FieldSet (_, o, _, v) ->
    fv o bound;
    fv v bound;
    bound
  | ArrayGet (a, i) ->
    fv a bound;
    fv i bound;
    bound
  | ArraySet (a, i, v) ->
    fv a bound;
    fv i bound;
    fv v bound;
    bound
  | ArrayLen a | NotT a | INegT a | FNegT a | I2FT a | F2IT a ->
    fv a bound;
    bound
  | Iarith (_, a, b)
  | Farith (_, a, b)
  | Icompare (_, a, b)
  | Fcompare (_, a, b)
  | StrConcat (a, b)
  | StrEq (_, a, b)
  | RefEq (_, a, b)
  | AndT (a, b)
  | OrT (a, b) ->
    fv a bound;
    fv b bound;
    bound
  | NullCheck (_, a) ->
    fv a bound;
    bound
  | IfT (c, t, f) ->
    fv c bound;
    fv t bound;
    Option.iter (fun f -> fv f bound) f;
    bound
  | WhileT (c, body) ->
    fv c bound;
    fv body bound;
    bound
  | ForT (x, a, b, body) ->
    fv a bound;
    fv b bound;
    fv body (StringSet.add x bound);
    bound
  | BlockT es ->
    let _ =
      List.fold_left (fun bnd e -> free_vars e bnd acc uses_this) bound es
    in
    bound
  | CallFun (_, args) | CallBuiltin (_, _, args) | NewT (_, args) ->
    List.iter (fun a -> fv a bound) args;
    bound
  | CallMethod (_, recv, _, args) ->
    fv recv bound;
    List.iter (fun a -> fv a bound) args;
    bound
  | CallClosure (f, args) ->
    fv f bound;
    List.iter (fun a -> fv a bound) args;
    bound
  | NewArrT (_, n) ->
    fv n bound;
    bound
  | LambdaT (params, _, body) ->
    let inner_bound =
      List.fold_left (fun s (x, _) -> StringSet.add x s) StringSet.empty params
    in
    (* names free in the lambda that are not bound inside it are free here *)
    let inner_acc = ref StringSet.empty in
    let inner_this = ref false in
    ignore (free_vars body inner_bound inner_acc inner_this);
    if !inner_this then uses_this := true;
    StringSet.iter
      (fun x -> if not (StringSet.mem x bound) then acc := StringSet.add x !acc)
      !inner_acc;
    bound

let lambda_free_vars params body =
  let bound =
    List.fold_left (fun s (x, _) -> StringSet.add x s) StringSet.empty params
  in
  let acc = ref StringSet.empty in
  let uses_this = ref false in
  ignore (free_vars body bound acc uses_this);
  (StringSet.elements !acc, !uses_this)

(* names captured by any lambda within [body]: candidates for boxing *)
let captured_names (body : texpr) : StringSet.t =
  let result = ref StringSet.empty in
  let rec walk (e : texpr) =
    (match e.tdesc with
    | LambdaT (params, _, lbody) ->
      let fvs, _ = lambda_free_vars params lbody in
      List.iter (fun x -> result := StringSet.add x !result) fvs
    | _ -> ());
    iter_children walk e
  and iter_children f (e : texpr) =
    match e.tdesc with
    | Cint _ | Cfloat _ | Cstr _ | Cbool _ | Cnull | Local _ | GlobalRef _
    | This ->
      ()
    | LetT (_, _, a)
    | AssignLocal (_, a)
    | AssignGlobal (_, a)
    | FieldGet (_, a, _)
    | ArrayLen a
    | NotT a
    | INegT a
    | FNegT a
    | I2FT a
    | F2IT a
    | NullCheck (_, a)
    | NewArrT (_, a) ->
      f a
    | FieldSet (_, a, _, b)
    | ArrayGet (a, b)
    | Iarith (_, a, b)
    | Farith (_, a, b)
    | Icompare (_, a, b)
    | Fcompare (_, a, b)
    | StrConcat (a, b)
    | StrEq (_, a, b)
    | RefEq (_, a, b)
    | AndT (a, b)
    | OrT (a, b)
    | WhileT (a, b) ->
      f a;
      f b
    | ArraySet (a, b, c) ->
      f a;
      f b;
      f c
    | IfT (a, b, c) ->
      f a;
      f b;
      Option.iter f c
    | ForT (_, a, b, c) ->
      f a;
      f b;
      f c
    | BlockT es -> List.iter f es
    | CallFun (_, args) | CallBuiltin (_, _, args) | NewT (_, args) ->
      List.iter f args
    | CallMethod (_, r, _, args) ->
      f r;
      List.iter f args
    | CallClosure (g, args) ->
      f g;
      List.iter f args
    | LambdaT (_, _, lbody) -> f lbody
  in
  walk body;
  !result

(* ---------- helpers ---------- *)

let lookup_var sc pos x =
  match List.assoc_opt x sc.vars with
  | Some st -> st
  | None -> (
    match Hashtbl.find_opt sc.ctx.globals x with
    | Some g -> GlobalSlot g
    | None -> type_error pos "codegen: unbound %s" x)

let box_field ctx = Vm.Classfile.field ctx.box_cls "v"

let emit_read sc st =
  match st with
  | Slot i -> A.emit sc.b (T.Load i)
  | BoxedSlot i ->
    A.emit sc.b (T.Load i);
    A.emit sc.b (T.Getfield (box_field sc.ctx))
  | Capture (f, boxed) -> (
    A.emit sc.b (T.Load 0);
    A.emit sc.b (T.Getfield f);
    if boxed then A.emit sc.b (T.Getfield (box_field sc.ctx)))
  | GlobalSlot g -> A.emit sc.b (T.Getglobal g)

(* value to store must be on top of the stack *)
let emit_write sc pos st =
  match st with
  | Slot i -> A.emit sc.b (T.Store i)
  | BoxedSlot i ->
    A.emit sc.b (T.Load i);
    A.emit sc.b T.Swap;
    A.emit sc.b (T.Putfield (box_field sc.ctx))
  | Capture (f, true) ->
    A.emit sc.b (T.Load 0);
    A.emit sc.b (T.Getfield f);
    A.emit sc.b T.Swap;
    A.emit sc.b (T.Putfield (box_field sc.ctx))
  | Capture (_, false) -> type_error pos "assignment to immutable capture"
  | GlobalSlot g -> A.emit sc.b (T.Putglobal g)

let vm_field ctx cls name = Vm.Classfile.field (Vm.Classfile.find_class ctx.rt cls) name

let iop_of_binop pos = function
  | Add -> T.Add
  | Sub -> T.Sub
  | Mul -> T.Mul
  | Div -> T.Div
  | Rem -> T.Rem
  | _ -> type_error pos "not an arithmetic operator"

let fop_of_binop pos = function
  | Add -> T.FAdd
  | Sub -> T.FSub
  | Mul -> T.FMul
  | Div -> T.FDiv
  | _ -> type_error pos "not a float operator"

let cond_of_binop pos = function
  | Eq -> T.Eq
  | Ne -> T.Ne
  | Lt -> T.Lt
  | Le -> T.Le
  | Gt -> T.Gt
  | Ge -> T.Ge
  | _ -> type_error pos "not a comparison"

(* the condition that holds exactly when [c] does not.  Integer compares
   only: a float compare with a NaN operand is false, and so is its
   "negation" *)
let negate = function
  | T.Eq -> T.Ne
  | T.Ne -> T.Eq
  | T.Lt -> T.Ge
  | T.Ge -> T.Lt
  | T.Le -> T.Gt
  | T.Gt -> T.Le

(* ---------- expression compilation ----------
   Three contexts, so that no instruction computes a value nobody reads:
   - value ([emit_expr]): pushes exactly one value;
   - statement ([emit_effect]): runs the expression for its effect and
     leaves the stack unchanged;
   - branch ([emit_cond]): jumps to a label when the condition has the
     given truth value and falls through otherwise, stack unchanged.
   Unit-valued forms (let, assignments, else-less if, loops) are compiled in
   statement context only; in value position they are the statement
   followed by [const null]. *)

(* stamp the line table: instructions emitted for this expression (until a
   subexpression re-stamps) are attributed to the expression's source line *)
let stamp sc (e : texpr) = if e.tpos.line > 0 then A.set_line sc.b e.tpos.line

let rec emit_expr sc (e : texpr) : unit =
  let b = sc.b in
  let pos = e.tpos in
  stamp sc e;
  match e.tdesc with
  | Cint i -> A.emit b (T.Const (T.Int i))
  | Cfloat f -> A.emit b (T.Const (T.Float f))
  | Cstr s -> A.emit b (T.Const (T.Str s))
  | Cbool v -> A.emit b (T.Const (T.Int (if v then 1 else 0)))
  | Cnull -> A.emit b (T.Const T.Null)
  | Local x ->
    emit_read sc (lookup_var sc pos x)
  | GlobalRef x -> emit_read sc (lookup_var sc pos x)
  | This -> (
    match sc.this_storage with
    | Some st -> emit_read sc st
    | None -> type_error pos "codegen: no this")
  | LetT _ | AssignLocal _ | AssignGlobal _ | FieldSet _ | ArraySet _
  | IfT (_, _, None)
  | WhileT _ | ForT _ ->
    emit_effect sc e;
    A.emit b (T.Const T.Null)
  | FieldGet (cls, o, name) ->
    emit_expr sc o;
    A.emit b (T.Getfield (vm_field sc.ctx cls name))
  | ArrayGet (a, i) ->
    emit_expr sc a;
    emit_expr sc i;
    A.emit b (if a.t = Tfarray then T.Faload else T.Aload)
  | ArrayLen a ->
    emit_expr sc a;
    A.emit b T.Alen
  | Iarith (op, x, y) ->
    emit_expr sc x;
    emit_expr sc y;
    A.emit b (T.Iop (iop_of_binop pos op))
  | Farith (op, x, y) ->
    emit_expr sc x;
    emit_expr sc y;
    A.emit b (T.Fop (fop_of_binop pos op))
  | Icompare _ | Fcompare _ | NullCheck _ | AndT _ | OrT _ ->
    (* a condition used as a value: materialize the branch as 0/1 *)
    let ltrue = A.new_label b and lend = A.new_label b in
    emit_cond sc e ~jump_if:true ltrue;
    A.emit b (T.Const (T.Int 0));
    A.goto b lend;
    A.place b ltrue;
    A.emit b (T.Const (T.Int 1));
    A.place b lend
  | StrConcat (x, y) ->
    emit_expr sc x;
    emit_expr sc y;
    A.emit b (T.Invoke (T.Static (Vm.Classfile.static_method sc.ctx.rt ~cls:"Str" ~name:"concat")))
  | StrEq (neg, _, _) | RefEq (neg, _, _) ->
    emit_equality sc e;
    if neg then begin
      A.emit b (T.Const (T.Int 1));
      A.emit b (T.Iop T.Xor)
    end
  | NotT x ->
    emit_expr sc x;
    A.emit b (T.Const (T.Int 1));
    A.emit b (T.Iop T.Xor)
  | INegT x ->
    emit_expr sc x;
    A.emit b T.Ineg
  | FNegT x ->
    emit_expr sc x;
    A.emit b T.Fneg
  | I2FT x ->
    emit_expr sc x;
    A.emit b T.I2f
  | F2IT x ->
    emit_expr sc x;
    A.emit b T.F2i
  | IfT (c, t, Some f) -> emit_if_else sc c t f emit_expr
  | BlockT [] -> A.emit b (T.Const T.Null)
  | BlockT es -> emit_block sc es emit_expr
  | CallFun (f, args) ->
    List.iter (emit_expr sc) args;
    let m = Vm.Classfile.own_method sc.ctx.main_cls f in
    A.emit b (T.Invoke (T.Static m))
  | CallBuiltin (cls, name, args) ->
    List.iter (emit_expr sc) args;
    let m = Vm.Classfile.static_method sc.ctx.rt ~cls ~name in
    A.emit b (T.Invoke (T.Static m))
  | CallMethod (cls, recv, name, args) ->
    emit_expr sc recv;
    List.iter (emit_expr sc) args;
    (* static receiver type as a devirtualization hint *)
    let hint = Vm.Classfile.find_class_opt sc.ctx.rt cls in
    A.emit b (T.Invoke (T.Virtual (name, List.length args, hint)))
  | CallClosure (f, args) ->
    emit_expr sc f;
    List.iter (emit_expr sc) args;
    A.emit b (T.Invoke (T.Virtual ("apply", List.length args, None)))
  | NewT (cls, args) -> (
    let vcls = Vm.Classfile.find_class sc.ctx.rt cls in
    A.emit b (T.New vcls);
    (* init may be inherited: resolve through the dispatch table *)
    match Vm.Classfile.resolve_virtual_opt vcls "init" with
    | Some init ->
      A.emit b T.Dup;
      List.iter (emit_expr sc) args;
      A.emit b (T.Invoke (T.Special init));
      A.emit b T.Pop
    | None -> ())
  | NewArrT (ty, n) -> (
    emit_expr sc n;
    A.emit b (if ty = Tfarray then T.Newfarr else T.Newarr);
    (* int/bool arrays default to 0, not null *)
    match ty with
    | Tarray (Tint | Tbool) ->
      A.emit b T.Dup;
      A.emit b (T.Const (T.Int 0));
      A.emit b
        (T.Invoke
           (T.Static (Vm.Classfile.static_method sc.ctx.rt ~cls:"Arr" ~name:"fill")));
      A.emit b T.Pop
    | Tarray Tfloat ->
      A.emit b T.Dup;
      A.emit b (T.Const (T.Float 0.0));
      A.emit b
        (T.Invoke
           (T.Static (Vm.Classfile.static_method sc.ctx.rt ~cls:"Arr" ~name:"fill")));
      A.emit b T.Pop
    | _ -> ())
  | LambdaT (params, _, body) -> emit_lambda sc params body

(* Statement context: run [e] for its effect, leaving the stack as it was. *)
and emit_effect sc (e : texpr) : unit =
  let b = sc.b in
  let pos = e.tpos in
  stamp sc e;
  match e.tdesc with
  | LetT (mut, x, init) ->
    emit_expr sc init;
    let boxed = mut && StringSet.mem x sc.boxed_names in
    let slot = A.local b in
    if boxed then begin
      (* stack: v — wrap it in a fresh box shared with capturing closures *)
      A.emit b (T.New sc.ctx.box_cls);
      A.emit b T.Dup;
      A.emit b (T.Store slot);
      A.emit b T.Swap;
      A.emit b (T.Putfield (box_field sc.ctx));
      sc.vars <- (x, BoxedSlot slot) :: sc.vars
    end
    else begin
      A.emit b (T.Store slot);
      sc.vars <- (x, Slot slot) :: sc.vars
    end;
    sc.block_lets <- slot :: sc.block_lets
  | AssignLocal (x, v) | AssignGlobal (x, v) ->
    emit_expr sc v;
    emit_write sc pos (lookup_var sc pos x)
  | FieldSet (cls, o, name, v) ->
    emit_expr sc o;
    emit_expr sc v;
    A.emit b (T.Putfield (vm_field sc.ctx cls name))
  | ArraySet (a, i, v) ->
    emit_expr sc a;
    emit_expr sc i;
    emit_expr sc v;
    A.emit b (if a.t = Tfarray then T.Fastore else T.Astore)
  | IfT (c, t, None) ->
    let lend = A.new_label b in
    emit_cond sc c ~jump_if:false lend;
    emit_effect sc t;
    A.place b lend
  | IfT (c, t, Some f) -> emit_if_else sc c t f emit_effect
  | WhileT (c, body) ->
    let lhead = A.new_label b and lexit = A.new_label b in
    A.place b lhead;
    emit_cond sc c ~jump_if:false lexit;
    emit_effect sc body;
    A.goto b lhead;
    A.place b lexit
  | ForT (x, lo, hi, body) ->
    let saved = sc.vars in
    emit_expr sc lo;
    let islot = A.local b in
    A.emit b (T.Store islot);
    emit_expr sc hi;
    let lim = A.local b in
    A.emit b (T.Store lim);
    sc.vars <- (x, Slot islot) :: sc.vars;
    let lhead = A.new_label b and lexit = A.new_label b in
    A.place b lhead;
    A.emit b (T.Load islot);
    A.emit b (T.Load lim);
    A.if_ b T.Ge lexit;
    emit_effect sc body;
    A.emit b (T.Load islot);
    A.emit b (T.Const (T.Int 1));
    A.emit b (T.Iop T.Add);
    A.emit b (T.Store islot);
    A.goto b lhead;
    A.place b lexit;
    sc.vars <- saved;
    A.emit b (T.Const T.Null);
    A.emit b (T.Store islot)
  | BlockT es -> emit_block sc es emit_effect
  | _ ->
    emit_expr sc e;
    A.emit b T.Pop

(* Branch context: jump to [l] when [c] evaluates to [jump_if], fall
   through otherwise. *)
and emit_cond sc (c : texpr) ~jump_if l : unit =
  let b = sc.b in
  stamp sc c;
  match c.tdesc with
  | Icompare (op, x, y) ->
    emit_expr sc x;
    emit_expr sc y;
    let cond = cond_of_binop c.tpos op in
    A.if_ b (if jump_if then cond else negate cond) l
  | Fcompare (op, x, y) ->
    emit_expr sc x;
    emit_expr sc y;
    let cond = cond_of_binop c.tpos op in
    if jump_if then A.iff b cond l
    else begin
      (* no negated float compare exists (NaN): branch around the jump *)
      let skip = A.new_label b in
      A.iff b cond skip;
      A.goto b l;
      A.place b skip
    end
  | NullCheck (when_null, x) ->
    emit_expr sc x;
    A.ifnull b (when_null = jump_if) l
  | NotT x -> emit_cond sc x ~jump_if:(not jump_if) l
  | AndT (x, y) when jump_if ->
    let skip = A.new_label b in
    emit_cond sc x ~jump_if:false skip;
    emit_cond sc y ~jump_if:true l;
    A.place b skip
  | AndT (x, y) ->
    emit_cond sc x ~jump_if:false l;
    emit_cond sc y ~jump_if:false l
  | OrT (x, y) when jump_if ->
    emit_cond sc x ~jump_if:true l;
    emit_cond sc y ~jump_if:true l
  | OrT (x, y) ->
    let skip = A.new_label b in
    emit_cond sc x ~jump_if:true skip;
    emit_cond sc y ~jump_if:false l;
    A.place b skip
  | StrEq (neg, _, _) | RefEq (neg, _, _) ->
    (* the 0/1 of the un-negated equality; [neg] flips the test instead *)
    emit_equality sc c;
    A.ifz b (if jump_if <> neg then T.Ne else T.Eq) l
  | _ ->
    emit_expr sc c;
    A.ifz b (if jump_if then T.Ne else T.Eq) l

(* [x == y] on strings or references, pushed as 0/1 (negation not applied) *)
and emit_equality sc (e : texpr) =
  let cls, name, x, y =
    match e.tdesc with
    | StrEq (_, x, y) -> ("Str", "eq", x, y)
    | RefEq (_, x, y) -> ("Sys", "veq", x, y)
    | _ -> type_error e.tpos "codegen: not an equality"
  in
  emit_expr sc x;
  emit_expr sc y;
  A.emit sc.b (T.Invoke (T.Static (Vm.Classfile.static_method sc.ctx.rt ~cls ~name)))

and emit_if_else sc c t f arm =
  let b = sc.b in
  let lelse = A.new_label b and lend = A.new_label b in
  emit_cond sc c ~jump_if:false lelse;
  arm sc t;
  A.goto b lend;
  A.place b lelse;
  arm sc f;
  A.place b lend

(* a block scope: every element but the last in statement context, the last
   through [last]; slots bound in the block are cleared on exit so stale
   references do not outlive it *)
and emit_block sc es last =
  let saved = sc.vars in
  let saved_lets = sc.block_lets in
  sc.block_lets <- [];
  let rec go = function
    | [] -> ()
    | [ e ] -> last sc e
    | e :: rest ->
      emit_effect sc e;
      go rest
  in
  go es;
  List.iter
    (fun slot ->
      A.emit sc.b (T.Const T.Null);
      A.emit sc.b (T.Store slot))
    sc.block_lets;
  sc.block_lets <- saved_lets;
  sc.vars <- saved

(* Build the closure class and emit the allocation + captures at the
   creation site. *)
and emit_lambda sc params body =
  let ctx = sc.ctx in
  let b = sc.b in
  let fvs, uses_this = lambda_free_vars params body in
  (* captured storages in the enclosing scope *)
  let captures =
    List.map
      (fun x ->
        let st = lookup_var sc body.tpos x in
        match st with
        | GlobalSlot _ -> (x, st, `Global) (* no field needed *)
        | Slot _ | Capture (_, false) -> (x, st, `ByValue)
        | BoxedSlot _ | Capture (_, true) -> (x, st, `ByBox))
      fvs
  in
  let field_captures =
    List.filter (fun (_, _, k) -> k <> `Global) captures
  in
  let cls_name = Printf.sprintf "Fn$%d" ctx.rt.T.next_cid in
  let fields =
    List.map (fun (x, _, _) -> ("c$" ^ x, true)) field_captures
    @ if uses_this then [ ("c$this", true) ] else []
  in
  let fcls = Vm.Classfile.declare_class ctx.rt ~name:cls_name ~fields () in
  (* compile the apply method *)
  let boxed_names = captured_mutables_of body in
  ignore
    (A.define_method ~src:ctx.src ctx.rt fcls ~name:"apply"
       ~nargs:(List.length params) (fun ab ->
         let inner_vars =
           List.mapi (fun i (x, _) -> (x, Slot (i + 1))) params
           @ List.map
               (fun (x, st, kind) ->
                 match kind with
                 | `Global -> (x, st)
                 | `ByValue ->
                   (x, Capture (Vm.Classfile.field fcls ("c$" ^ x), false))
                 | `ByBox ->
                   (x, Capture (Vm.Classfile.field fcls ("c$" ^ x), true)))
               captures
         in
         let inner_sc =
           {
             ctx;
             b = ab;
             vars = inner_vars;
             this_storage =
               (if uses_this then
                  Some (Capture (Vm.Classfile.field fcls "c$this", false))
                else None);
             boxed_names;
             block_lets = [];
           }
         in
         emit_expr inner_sc body;
         A.emit ab T.Retv));
  (* allocation site: new Fn$k; set capture fields *)
  A.emit b (T.New fcls);
  List.iter
    (fun (x, st, kind) ->
      match kind with
      | `Global -> ()
      | `ByValue | `ByBox ->
        A.emit b T.Dup;
        (match st, kind with
        | BoxedSlot i, `ByBox -> A.emit b (T.Load i) (* capture the box itself *)
        | Capture (f, true), `ByBox ->
          A.emit b (T.Load 0);
          A.emit b (T.Getfield f)
        | _, _ -> emit_read sc st);
        A.emit b (T.Putfield (Vm.Classfile.field fcls ("c$" ^ x))))
    field_captures;
  if uses_this then begin
    A.emit b T.Dup;
    (match sc.this_storage with
    | Some st -> emit_read sc st
    | None -> type_error body.tpos "lambda uses 'this' outside a class");
    A.emit b (T.Putfield (Vm.Classfile.field fcls "c$this"))
  end

and captured_mutables_of body = captured_names body

(* ---------- program compilation ---------- *)

(* a handle for running a loaded program *)
type compiled_program = {
  cp_ctx : ctx;
  cp_tprog : tprogram;
}

let ensure_box_cls rt =
  match Vm.Classfile.find_class_opt rt "Box" with
  | Some c -> c
  | None -> Vm.Classfile.declare_class rt ~name:"Box" ~fields:[ ("v", false) ] ()

let topo_classes (classes : tclass list) : tclass list =
  (* supers before subclasses *)
  let by_name = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace by_name c.tc_name c) classes;
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let rec visit c =
    if not (Hashtbl.mem seen c.tc_name) then begin
      Hashtbl.replace seen c.tc_name ();
      (match c.tc_super with
      | Some s -> (
        match Hashtbl.find_opt by_name s with Some sc -> visit sc | None -> ())
      | None -> ());
      out := c :: !out
    end
  in
  List.iter visit classes;
  List.rev !out

(* The synthetic program class is numbered per *runtime*, not per process:
   the first program loaded into any fresh runtime is always "Main$1", so
   the name is a stable symbol — profile snapshots recorded in one process
   resolve in the next (and in a second runtime booted by the same
   process), which a global counter would break. *)
let compile_typed ?(file = "<mini>") rt (tp : tprogram) : compiled_program =
  let next =
    let n = ref 0 in
    Hashtbl.iter
      (fun name _ ->
        if String.length name > 5 && String.sub name 0 5 = "Main$" then incr n)
      rt.Vm.Types.classes;
    !n + 1
  in
  let main_cls =
    Vm.Classfile.declare_class rt
      ~name:(Printf.sprintf "Main$%d" next)
      ~fields:[] ()
  in
  let ctx =
    {
      rt;
      genv = tp.p_genv;
      main_cls;
      globals = Hashtbl.create 16;
      box_cls = ensure_box_cls rt;
      src = file;
    }
  in
  (* declare classes (fields only) in topological order *)
  let ordered = topo_classes tp.p_classes in
  List.iter
    (fun c ->
      ignore
        (Vm.Classfile.declare_class rt ~name:c.tc_name ?super:c.tc_super
           ~fields:(List.map (fun (n, _, fin) -> (n, fin)) c.tc_fields)
           ()))
    ordered;
  (* allocate global slots *)
  List.iter
    (fun (name, _, _) ->
      Hashtbl.replace ctx.globals name (Vm.Runtime.alloc_global rt))
    tp.p_globals;
  (* pre-declare every method (class + top-level) so that bodies may refer
     to methods defined later in the file *)
  List.iter
    (fun c ->
      let vcls = Vm.Classfile.find_class rt c.tc_name in
      List.iter
        (fun (mname, params, _, _) ->
          ignore
            (Vm.Classfile.add_method rt vcls ~name:mname
               ~nargs:(List.length params) (T.Bytecode [||])))
        c.tc_methods)
    ordered;
  List.iter
    (fun (fname, params, _, _) ->
      ignore
        (Vm.Classfile.add_method rt main_cls ~name:fname ~static:true
           ~nargs:(List.length params) (T.Bytecode [||])))
    tp.p_funs;
  (* fill class method bodies *)
  List.iter
    (fun c ->
      let vcls = Vm.Classfile.find_class rt c.tc_name in
      List.iter
        (fun (mname, params, _, body) ->
          let m = Vm.Classfile.own_method vcls mname in
          ignore
            (A.fill_method ~src:ctx.src rt m (fun b ->
                 let sc =
                   {
                     ctx;
                     b;
                     vars = List.mapi (fun i (x, _) -> (x, Slot (i + 1))) params;
                     this_storage = Some (Slot 0);
                     boxed_names = captured_names body;
                     block_lets = [];
                   }
                 in
                 emit_expr sc body;
                 A.emit b T.Retv)))
        c.tc_methods)
    ordered;
  (* fill top-level function bodies *)
  List.iter
    (fun (fname, params, _, body) ->
      let m = Vm.Classfile.own_method main_cls fname in
      ignore
        (A.fill_method ~src:ctx.src rt m (fun b ->
             let sc =
               {
                 ctx;
                 b;
                 vars = List.mapi (fun i (x, _) -> (x, Slot i)) params;
                 this_storage = None;
                 boxed_names = captured_names body;
                 block_lets = [];
               }
             in
             emit_expr sc body;
             A.emit b T.Retv)))
    tp.p_funs;
  (* synthesize and run the global initializer *)
  if tp.p_globals <> [] then begin
    let init =
      A.define_method ~src:ctx.src rt main_cls ~name:"$init" ~static:true
        ~nargs:0 (fun b ->
          let sc =
            {
              ctx;
              b;
              vars = [];
              this_storage = None;
              boxed_names = StringSet.empty;
              block_lets = [];
            }
          in
          List.iter
            (fun (name, _, tinit) ->
              emit_expr sc tinit;
              A.emit b (T.Putglobal (Hashtbl.find ctx.globals name)))
            tp.p_globals;
          A.emit b T.Ret)
    in
    ignore (Vm.Interp.call rt init [||])
  end;
  { cp_ctx = ctx; cp_tprog = tp }

let find_function cp name = Vm.Classfile.own_method cp.cp_ctx.main_cls name

let call_function cp name args =
  Vm.Interp.call cp.cp_ctx.rt (find_function cp name) args
