(* A second, type-specialized execution backend: the analogue of Delite's
   kernel code generation.  Symbols whose value is an int/bool or a float
   live in unboxed register lanes (an [int array] / [float array]); only
   genuinely dynamic values are boxed.

   Why operands are slots, not getters.  Without flambda, OCaml boxes a
   float that is returned from a closure or passed to one: a getter
   [regs -> float] allocates a [Float] block on every read, and a setter
   taking a float allocates on every write.  So every operand is resolved
   at compile time to a [(lane, slot)] pair, and each op is one closure that
   indexes [r.ints]/[r.floats]/[r.vals] directly, e.g.
   [fun r -> let f = r.floats in f.(d) <- f.(a) +. f.(b)].  Float array
   reads and writes through a statically typed [float array] never box.

   - Constants live in constant slots, pre-filled when a register file is
     created; an op never distinguishes a constant operand from a computed
     one.
   - A read from another lane ([Lval] as int/float, [Lint] as float) is an
     explicit coercion step that moves the value into a temporary slot of
     the wanted lane just before its first use in a straight-line run of
     steps (a superblock); later uses in the run reuse it.  Ops themselves
     read only their own lane, so each op has exactly one code path.
   - Branch conditions fused into their [Br] specialize on the condition
     code at compile time ([x.(a) < x.(b)] on an [int array] or a
     [float array]): no generic [cond_apply] call, which would box floats.
   - Block-parameter copies are slot-to-slot moves.  When a destination is
     also a source of the same jump (a loop-carried swap), every source
     first moves into a fresh scratch slot of its destination lane, then the
     scratch slots move into the destinations: no allocated temporaries.

   Boxing remains only where the ABI needs a [value]: call arguments,
   side-exit frames, [Ret], and stores of unboxed values into the heap. *)

open Ir
module CB = Closure_backend

type lane = Lint | Lfloat | Lval

let lane_of_ty = function
  | Tint | Tbool -> Lint
  | Tfloat -> Lfloat
  | Tstr | Tobj | Tarr | Tfarr | Tunit | Tany -> Lval

type regs = {
  ints : int array;
  floats : float array;
  vals : Vm.Types.value array;
}

(* raised during compilation when a node cannot be handled; callers fall
   back to the boxed backend *)
exception Fallback of string

(* raised by a spliced guard step on the miss path, after running the side
   exit and storing its result; the kernel entry catches it *)
exception Guard_miss

type step = regs -> unit

(* one straight-line run of steps, without allocation *)
let seq (steps : step array) : step =
  match steps with
  | [||] -> fun _ -> ()
  | [| s |] -> s
  | [| s0; s1 |] ->
    fun r ->
      s0 r;
      s1 r
  | _ ->
    let last = Array.length steps - 1 in
    fun r ->
      for j = 0 to last do
        steps.(j) r
      done

(* Move slot [si] of lane [sl] into slot [di] of lane [dl], coercing across
   lanes exactly as the boxed backend's value accessors do. *)
let move (sl, si) (dl, di) : step =
  match (sl, dl) with
  | Lint, Lint ->
    fun r ->
      let x = r.ints in
      x.(di) <- x.(si)
  | Lfloat, Lfloat ->
    fun r ->
      let x = r.floats in
      x.(di) <- x.(si)
  | Lval, Lval ->
    fun r ->
      let x = r.vals in
      x.(di) <- x.(si)
  | Lint, Lfloat -> fun r -> r.floats.(di) <- float_of_int r.ints.(si)
  | Lval, Lint -> fun r -> r.ints.(di) <- Vm.Value.to_int r.vals.(si)
  | Lval, Lfloat -> fun r -> r.floats.(di) <- Vm.Value.to_float r.vals.(si)
  | Lint, Lval -> fun r -> r.vals.(di) <- Vm.Types.Int r.ints.(si)
  | Lfloat, Lval -> fun r -> r.vals.(di) <- Vm.Types.Float r.floats.(si)
  | Lfloat, Lint -> raise (Fallback "float used as int")

(* compare conditions, specialized on the condition code at compile time *)
let icond (c : Vm.Types.cond) a b : regs -> bool =
  match c with
  | Eq -> fun r -> r.ints.(a) = r.ints.(b)
  | Ne -> fun r -> r.ints.(a) <> r.ints.(b)
  | Lt -> fun r -> r.ints.(a) < r.ints.(b)
  | Le -> fun r -> r.ints.(a) <= r.ints.(b)
  | Gt -> fun r -> r.ints.(a) > r.ints.(b)
  | Ge -> fun r -> r.ints.(a) >= r.ints.(b)

let fcond (c : Vm.Types.cond) a b : regs -> bool =
  match c with
  | Eq -> fun r -> r.floats.(a) = r.floats.(b)
  | Ne -> fun r -> r.floats.(a) <> r.floats.(b)
  | Lt -> fun r -> r.floats.(a) < r.floats.(b)
  | Le -> fun r -> r.floats.(a) <= r.floats.(b)
  | Gt -> fun r -> r.floats.(a) > r.floats.(b)
  | Ge -> fun r -> r.floats.(a) >= r.floats.(b)

let cid_of = function
  | Vm.Types.Obj o -> o.Vm.Types.ocls.Vm.Types.cid
  | _ -> -1

(* the lane an op's result lives in: arithmetic and compares by op, the rest
   by IR type; graph parameters always come in boxed *)
let result_lane n =
  match n.op with
  | Iop _ | Ineg | F2i | Icmp _ | Fcmp _ | IsNull | ClassId | Alen -> Lint
  | Fop _ | Fneg | I2f | Faload -> Lfloat
  | Param _ -> Lval
  | _ -> lane_of_ty n.ty

(* a straight-line run of steps under construction, with the coercions
   already made in it *)
type superblock = {
  mutable steps : step list; (* reversed *)
  coerced : (sym * lane, int) Hashtbl.t;
}

let compile ?hooks (g : graph) : Vm.Types.value array -> Vm.Types.value =
  let open Vm.Types in
  let hooks = match hooks with Some h -> h | None -> failwith "hooks required" in
  let rt = hooks.CB.rt in
  let blocks = reachable_blocks g in
  (* slot assignment per lane *)
  let counts = [| 0; 0; 0 |] in
  let fresh lane =
    let k = match lane with Lint -> 0 | Lfloat -> 1 | Lval -> 2 in
    let i = counts.(k) in
    counts.(k) <- i + 1;
    i
  in
  let slots : (sym, lane * int) Hashtbl.t = Hashtbl.create 64 in
  let assign s lane =
    if not (Hashtbl.mem slots s) then Hashtbl.replace slots s (lane, fresh lane)
  in
  List.iter
    (fun b ->
      List.iter (fun (s, ty) -> assign s (lane_of_ty ty)) b.params;
      List.iter
        (fun n ->
          match n.op with Konst _ -> () | _ -> assign n.id (result_lane n))
        (body_in_order b))
    blocks;
  (* where a computed symbol lives; graph parameters are floating nodes and
     get their boxed slots on demand *)
  let loc s =
    (match (node g s).op with Param _ -> assign s Lval | _ -> ());
    match Hashtbl.find_opt slots s with
    | Some x -> x
    | None -> raise (Fallback (Printf.sprintf "unassigned sym %d" s))
  in
  (* constant slots, one per (constant, lane), written into every fresh
     register file by [prefill] *)
  let const_slots : (sym * lane, int) Hashtbl.t = Hashtbl.create 16 in
  let prefill : step list ref = ref [] in
  let const_slot s lane v =
    match Hashtbl.find_opt const_slots (s, lane) with
    | Some i -> i
    | None ->
      let i = fresh lane in
      let fill : step =
        match (lane, v) with
        | Lint, Int k -> fun r -> r.ints.(i) <- k
        | Lfloat, Float f -> fun r -> r.floats.(i) <- f
        | Lfloat, Int k ->
          let f = float_of_int k in
          fun r -> r.floats.(i) <- f
        | Lval, v -> fun r -> r.vals.(i) <- v
        | (Lint | Lfloat), _ -> raise (Fallback "constant of the wrong kind")
      in
      Hashtbl.replace const_slots (s, lane) i;
      prefill := fill :: !prefill;
      i
  in
  (* where to read [s] from when [lane] is wanted: constants are
     materialized in [lane] itself *)
  let src s lane =
    match (node g s).op with
    | Konst v -> (lane, const_slot s lane v)
    | _ -> loc s
  in
  (* the slot of [lane] holding [s] at this point of [sb]; a cross-lane
     read adds a coercion step the first time *)
  let operand sb lane s =
    match src s lane with
    | l, i when l = lane -> i
    | from -> (
      match Hashtbl.find_opt sb.coerced (s, lane) with
      | Some t -> t
      | None ->
        let t = fresh lane in
        sb.steps <- move from (lane, t) :: sb.steps;
        Hashtbl.replace sb.coerced (s, lane) t;
        t)
  in
  (* ABI boundary: [s] as a boxed value, evaluated only when the boundary
     is crossed (calls, side exits, return) *)
  let boxed s : regs -> value =
    match (node g s).op with
    | Konst v -> fun _ -> v
    | _ -> (
      match loc s with
      | Lval, i -> fun r -> r.vals.(i)
      | Lint, i -> fun r -> Int r.ints.(i)
      | Lfloat, i -> fun r -> Float r.floats.(i))
  in
  let boxed_all syms : regs -> value array =
    let bs = Array.map boxed syms in
    let n = Array.length bs in
    fun r ->
      let a = Array.make n Null in
      for j = 0 to n - 1 do
        a.(j) <- bs.(j) r
      done;
      a
  in
  (* store a boxed result into [n]'s slot, unboxing into its lane *)
  let vstore n (f : regs -> value) : step =
    match loc n.id with
    | Lval, d -> fun r -> r.vals.(d) <- f r
    | Lint, d -> fun r -> r.ints.(d) <- Vm.Value.to_int (f r)
    | Lfloat, d -> fun r -> r.floats.(d) <- Vm.Value.to_float (f r)
  in
  (* Branch-condition fusion, as in the boxed backend: a comparison whose
     only consumer is its own block's Br — and a ClassId feeding such a
     comparison — compiles into the branch instead of becoming a step, so
     a devirtualization guard is a bare compare-and-branch.  Same-block
     single-use only, which keeps the pure condition's evaluation inside
     its original block. *)
  let uses = Hashtbl.create 64 in
  let defined_in = Hashtbl.create 64 in
  let add_use s =
    Hashtbl.replace uses s (1 + Option.value ~default:0 (Hashtbl.find_opt uses s))
  in
  let add_target (t : target) = Array.iter add_use t.targs in
  List.iter
    (fun b ->
      List.iter
        (fun n ->
          Hashtbl.replace defined_in n.id b.bid;
          Array.iter add_use n.args)
        (body_in_order b);
      match b.term with
      | Ir.Ret s -> add_use s
      | Jump t -> add_target t
      | Br (c, t1, t2) ->
        add_use c;
        add_target t1;
        add_target t2
      | Exit se ->
        List.iter
          (fun fd ->
            Array.iter add_use fd.fd_locals;
            Array.iter add_use fd.fd_stack)
          se.se_frames
      | Unreachable _ -> ())
    blocks;
  let fused = Hashtbl.create 8 in
  let fusable bid s =
    Hashtbl.find_opt uses s = Some 1 && Hashtbl.find_opt defined_in s = Some bid
  in
  let is_classid s = match (node g s).op with ClassId -> true | _ -> false in
  List.iter
    (fun b ->
      match b.term with
      | Br (c, _, _) when fusable b.bid c -> (
        match (node g c).op with
        | Icmp _ ->
          Array.iter
            (fun s ->
              if is_classid s && fusable b.bid s then Hashtbl.replace fused s ())
            (node g c).args;
          Hashtbl.replace fused c ()
        | Fcmp _ | IsNull -> Hashtbl.replace fused c ()
        | _ -> ())
      | _ -> ())
    blocks;
  (* the devirtualization guard shape, classid(x) == const, fused: the
     receiver and the class id *)
  let cid_eq c =
    if not (Hashtbl.mem fused c) then None
    else
      let n = node g c in
      match n.op with
      | Icmp Eq -> (
        match ((node g n.args.(0)).op, (node g n.args.(1)).op) with
        | ClassId, Konst (Int k) when Hashtbl.mem fused n.args.(0) ->
          Some ((node g n.args.(0)).args.(0), k)
        | _ -> None)
      | _ -> None (* a fused IsNull has one operand *)
  in
  (* Irtrace: report branch compares that could not fuse, and snapshot the
     post-guard-lowering shape with fused nodes eliminated. *)
  if !Irtrace.on then begin
    List.iter
      (fun b ->
        match b.term with
        | Br (c, _, _) when not (Hashtbl.mem fused c) -> (
          let n = node g c in
          let record (n : Ir.node) why =
            match n.prov with
            | Some p ->
              Irtrace.record_miss ~phase:(Phases.name (Phases.Guards "typed"))
                ~mid:p.pv_mid ~pc:p.pv_pc ~line:p.pv_line
                (Irtrace.Guard_fusion_declined { cond = Ir.op_tag n.op; why })
            | None -> ()
          in
          match n.op with
          | Icmp _ | Fcmp _ | IsNull ->
            record n
              (if Hashtbl.find_opt defined_in c <> Some b.bid then "cross-block"
               else "multi-use")
          | _ -> (
            match Snapshot.materialized_cond g b.bid c with
            | Some cmp -> record cmp "materialized-bool"
            | None -> ()))
        | _ -> ())
      blocks;
    Snapshot.take g (Phases.Guards "typed") ~exclude:(Hashtbl.mem fused)
      ~meta:[ ("fused", string_of_int (Hashtbl.length fused)) ]
  end;
  let compile_op sb n =
    let arg k lane = operand sb lane n.args.(k) in
    let emit (st : step) = sb.steps <- st :: sb.steps in
    let dst () = snd (loc n.id) in
    match n.op with
    | Konst _ | Param _ | Bparam -> ()
    | Iop op ->
      let a = arg 0 Lint in
      let b = arg 1 Lint in
      let d = dst () in
      emit
        (match op with
        | Add ->
          fun r ->
            let x = r.ints in
            x.(d) <- Vm.Value.wrap32 (x.(a) + x.(b))
        | Sub ->
          fun r ->
            let x = r.ints in
            x.(d) <- Vm.Value.wrap32 (x.(a) - x.(b))
        | Mul ->
          fun r ->
            let x = r.ints in
            x.(d) <- Vm.Value.wrap32 (x.(a) * x.(b))
        | _ ->
          fun r ->
            let x = r.ints in
            x.(d) <- Vm.Value.iop_apply op x.(a) x.(b))
    | Ineg ->
      let a = arg 0 Lint and d = dst () in
      emit (fun r ->
          let x = r.ints in
          x.(d) <- Vm.Value.wrap32 (-x.(a)))
    | Fop op ->
      let a = arg 0 Lfloat in
      let b = arg 1 Lfloat in
      let d = dst () in
      emit
        (match op with
        | FAdd ->
          fun r ->
            let f = r.floats in
            f.(d) <- f.(a) +. f.(b)
        | FSub ->
          fun r ->
            let f = r.floats in
            f.(d) <- f.(a) -. f.(b)
        | FMul ->
          fun r ->
            let f = r.floats in
            f.(d) <- f.(a) *. f.(b)
        | FDiv ->
          fun r ->
            let f = r.floats in
            f.(d) <- f.(a) /. f.(b))
    | Fneg ->
      let a = arg 0 Lfloat and d = dst () in
      emit (fun r ->
          let f = r.floats in
          f.(d) <- -.f.(a))
    | I2f ->
      let a = arg 0 Lint and d = dst () in
      emit (fun r -> r.floats.(d) <- float_of_int r.ints.(a))
    | F2i ->
      let a = arg 0 Lfloat and d = dst () in
      emit (fun r -> r.ints.(d) <- Vm.Value.wrap32 (int_of_float r.floats.(a)))
    | Icmp c ->
      let a = arg 0 Lint in
      let t = icond c a (arg 1 Lint) and d = dst () in
      emit (fun r -> r.ints.(d) <- (if t r then 1 else 0))
    | Fcmp c ->
      let a = arg 0 Lfloat in
      let t = fcond c a (arg 1 Lfloat) and d = dst () in
      emit (fun r -> r.ints.(d) <- (if t r then 1 else 0))
    | IsNull ->
      let a = arg 0 Lval and d = dst () in
      emit (fun r -> r.ints.(d) <- (match r.vals.(a) with Null -> 1 | _ -> 0))
    | ClassId ->
      let a = arg 0 Lval and d = dst () in
      emit (fun r -> r.ints.(d) <- cid_of r.vals.(a))
    | Getfield f ->
      let a = arg 0 Lval and i = f.fidx in
      emit (vstore n (fun r -> (Vm.Value.to_obj r.vals.(a)).ofields.(i)))
    | Putfield f ->
      let a = arg 0 Lval in
      let v = arg 1 Lval and i = f.fidx in
      emit (fun r ->
          let x = r.vals in
          (Vm.Value.to_obj x.(a)).ofields.(i) <- x.(v))
    | Getglobal gi -> emit (vstore n (fun _ -> Vm.Runtime.get_global rt gi))
    | Putglobal gi ->
      let v = arg 0 Lval in
      emit (fun r -> Vm.Runtime.set_global rt gi r.vals.(v))
    | NewObj cls -> emit (vstore n (fun _ -> Obj (Vm.Runtime.alloc rt cls)))
    | Newarr ->
      let a = arg 0 Lint in
      emit (vstore n (fun r -> Arr (Array.make r.ints.(a) Null)))
    | Newfarr ->
      let a = arg 0 Lint in
      emit (vstore n (fun r -> Farr (Array.make r.ints.(a) 0.0)))
    | Aload ->
      let a = arg 0 Lval in
      let i = arg 1 Lint in
      emit (vstore n (fun r -> (Vm.Value.to_arr r.vals.(a)).(r.ints.(i))))
    | Astore ->
      let a = arg 0 Lval in
      let i = arg 1 Lint in
      let v = arg 2 Lval in
      emit (fun r ->
          let x = r.vals in
          (Vm.Value.to_arr x.(a)).(r.ints.(i)) <- x.(v))
    | Faload ->
      let a = arg 0 Lval in
      let i = arg 1 Lint and d = dst () in
      emit (fun r -> r.floats.(d) <- (Vm.Value.to_farr r.vals.(a)).(r.ints.(i)))
    | Fastore ->
      let a = arg 0 Lval in
      let i = arg 1 Lint in
      let v = arg 2 Lfloat in
      emit (fun r -> (Vm.Value.to_farr r.vals.(a)).(r.ints.(i)) <- r.floats.(v))
    | Alen ->
      let a = arg 0 Lval and d = dst () in
      emit (fun r ->
          r.ints.(d) <-
            (match r.vals.(a) with
            | Arr x -> Array.length x
            | Farr x -> Array.length x
            | _ -> vm_error "alen: not an array"))
    | CallStatic
        {
          mcode =
            Native
              (("Math.sqrt" | "Math.exp" | "Math.log" | "Math.fabs") as name, _);
          _;
        }
      when Array.length n.args = 1 && fst (loc n.id) = Lfloat ->
      (* pure float math natives run in place, unboxed *)
      let a = arg 0 Lfloat and d = dst () in
      emit
        (match name with
        | "Math.sqrt" -> fun r -> r.floats.(d) <- sqrt r.floats.(a)
        | "Math.exp" -> fun r -> r.floats.(d) <- exp r.floats.(a)
        | "Math.log" -> fun r -> r.floats.(d) <- log r.floats.(a)
        | _ -> fun r -> r.floats.(d) <- abs_float r.floats.(a))
    | CallStatic m -> (
      let args = boxed_all n.args in
      match m.mcode with
      | Native (_, fn) -> emit (vstore n (fun r -> fn rt (args r)))
      | Bytecode _ ->
        let call = hooks.CB.call_static in
        emit (vstore n (fun r -> call m (args r))))
    | CallVirtual (name, _) ->
      let args = boxed_all n.args in
      let call = hooks.CB.call_virtual in
      emit (vstore n (fun r -> call name (args r)))
    | CallClosure _ ->
      let f = boxed n.args.(0) in
      let args = boxed_all (Array.sub n.args 1 (Array.length n.args - 1)) in
      let call = hooks.CB.call_closure in
      emit (vstore n (fun r -> call (f r) (args r)))
    | Ext _ -> raise (Fallback "extension op in typed kernel")
  in
  let compile_node sb n = if not (Hashtbl.mem fused n.id) then compile_op sb n in
  (* a branch condition, its operands resolved in [sb] *)
  let cond sb c : regs -> bool =
    match cid_eq c with
    | Some (recv, k) ->
      let a = operand sb Lval recv in
      fun r -> cid_of r.vals.(a) = k
    | None when Hashtbl.mem fused c -> (
      let n = node g c in
      match n.op with
      | Icmp cc ->
        (* a fused class id feeding a general compare is computed right
           before the branch *)
        Array.iter
          (fun s -> if Hashtbl.mem fused s then compile_op sb (node g s))
          n.args;
        let a = operand sb Lint n.args.(0) in
        icond cc a (operand sb Lint n.args.(1))
      | Fcmp cc ->
        let a = operand sb Lfloat n.args.(0) in
        fcond cc a (operand sb Lfloat n.args.(1))
      | _ ->
        let a = operand sb Lval n.args.(0) in
        fun r -> (match r.vals.(a) with Null -> true | _ -> false))
    | None ->
      let i = operand sb Lint c in
      fun r -> r.ints.(i) <> 0
  in
  (* block-parameter copies of a jump: direct moves, or a two-phase copy
     through scratch slots when a destination is also a source *)
  let jump_moves (t : target) : step array =
    let pairs =
      List.mapi
        (fun k (ps, _) ->
          let d = loc ps in
          (src t.targs.(k) (fst d), d))
        (block g t.tblock).params
      |> List.filter (fun (s, d) -> s <> d)
    in
    if not (List.exists (fun (_, d) -> List.mem_assoc d pairs) pairs) then
      Array.of_list (List.map (fun (s, d) -> move s d) pairs)
    else
      let staged =
        List.map
          (fun (s, ((dl, _) as d)) ->
            let tmp = (dl, fresh dl) in
            (move s tmp, move tmp d))
          pairs
      in
      Array.of_list (List.map fst staged @ List.map snd staged)
  in
  let ret_val = ref Null in
  let compile_exit se : regs -> value =
    let syms =
      List.concat_map
        (fun fd -> Array.to_list fd.fd_locals @ Array.to_list fd.fd_stack)
        se.se_frames
    in
    let vals = boxed_all (Array.of_list syms) in
    let handler = hooks.CB.on_exit in
    fun r -> handler se (vals r)
  in
  (* Control-flow lowering, three layers:
     - superblock splicing: an unconditional jump to a forward block with a
       single predecessor concatenates the successor's steps in place, and
       a Br whose cold arm is a bare side-exit block becomes an in-line
       guard step (the miss path runs the exit and raises [Guard_miss]) —
       so a devirtualization guard costs exactly one compare step on the
       hot path, with no extra block boundary;
     - threading: remaining forward transfers call the successor's closure
       directly (recursion bounded by the block count);
     - trampoline: backward (loop) edges return the target index.
     [-1] means "function done" and unwinds nested forward calls. *)
  let bindex = Hashtbl.create 16 in
  List.iteri (fun i b -> Hashtbl.replace bindex b.bid i) blocks;
  let idx_of bid = Hashtbl.find bindex bid in
  let nblocks = List.length blocks in
  let barr = Array.of_list blocks in
  let compiled : (regs -> int) array = Array.make nblocks (fun _ -> -1) in
  let npreds = Array.make nblocks 0 in
  List.iter
    (fun b ->
      let tgt (t : target) =
        let i = idx_of t.tblock in
        npreds.(i) <- npreds.(i) + 1
      in
      match b.term with
      | Jump t -> tgt t
      | Br (_, t1, t2) ->
        tgt t1;
        tgt t2
      | Ir.Ret _ | Exit _ | Unreachable _ -> ())
    blocks;
  (* a block that is only ever entered from [my_idx]'s terminator, forward:
     safe to splice into the predecessor *)
  let spliceable my_idx (t : target) =
    let i = idx_of t.tblock in
    i > my_idx && npreds.(i) = 1
  in
  let exit_only (t : target) : side_exit option =
    let tb = block g t.tblock in
    match tb.term with
    | Exit se when body_in_order tb = [] -> Some se
    | _ -> None
  in
  (* emit block [i]'s steps (and its spliced successors') into [sb];
     returns the terminator *)
  let rec superblock sb i : regs -> int =
    let b = barr.(i) in
    List.iter (compile_node sb) (body_in_order b);
    let emit (st : step) = sb.steps <- st :: sb.steps in
    match b.term with
    | Jump t when spliceable i t ->
      Array.iter emit (jump_moves t);
      superblock sb (idx_of t.tblock)
    | Br (c, t1, t2) when spliceable i t1 && exit_only t2 <> None ->
      guard sb c ~stay_if:true ~stay:t1 ~leave:t2
    | Br (c, t1, t2) when spliceable i t2 && exit_only t1 <> None ->
      guard sb c ~stay_if:false ~stay:t2 ~leave:t1
    | term -> terminator sb i term
  (* a guard step: the hot path stays in the superblock while [c] is
     [stay_if]; the other arm is a bare side exit *)
  and guard sb c ~stay_if ~stay ~leave =
    let emit (st : step) = sb.steps <- st :: sb.steps in
    let cp = seq (jump_moves leave) in
    let exit_run = compile_exit (Option.get (exit_only leave)) in
    let miss r =
      cp r;
      ret_val := exit_run r;
      raise Guard_miss
    in
    (* the devirtualization shape is a single-closure guard: receiver
       slot -> class-id compare, no nested calls on the hit path *)
    emit
      (match cid_eq c with
      | Some (recv, k) when stay_if ->
        let a = operand sb Lval recv in
        fun r ->
          (match r.vals.(a) with
          | Obj o when o.ocls.cid = k -> ()
          | _ -> miss r)
      | _ ->
        let ok = cond sb c in
        fun r -> if ok r <> stay_if then miss r);
    Array.iter emit (jump_moves stay);
    superblock sb (idx_of stay.tblock)
  and terminator sb my_idx term : regs -> int =
    let arm (t : target) : regs -> int =
      let nxt = idx_of t.tblock in
      match (jump_moves t, nxt > my_idx) with
      | [||], true -> fun r -> compiled.(nxt) r
      | [||], false -> fun _ -> nxt
      | moves, true ->
        let cp = seq moves in
        fun r ->
          cp r;
          compiled.(nxt) r
      | moves, false ->
        let cp = seq moves in
        fun r ->
          cp r;
          nxt
    in
    match term with
    | Ir.Ret s ->
      let v = boxed s in
      fun r ->
        ret_val := v r;
        -1
    | Jump t -> arm t
    | Br (c, t1, t2) ->
      let ok = cond sb c in
      let a1 = arm t1 and a2 = arm t2 in
      fun r -> if ok r then a1 r else a2 r
    | Exit se ->
      let run = compile_exit se in
      fun r ->
        ret_val := run r;
        -1
    | Unreachable msg -> fun _ -> vm_error "reached unreachable block: %s" msg
  in
  Array.iteri
    (fun i _ ->
      let sb = { steps = []; coerced = Hashtbl.create 8 } in
      let term = superblock sb i in
      let steps = Array.of_list (List.rev sb.steps) in
      compiled.(i) <-
        (match steps with
        | [||] -> term
        | [| s0 |] ->
          fun r ->
            s0 r;
            term r
        | _ ->
          let last = Array.length steps - 1 in
          fun r ->
            for j = 0 to last do
              steps.(j) r
            done;
            term r))
    barr;
  if !Irtrace.on then
    Snapshot.take g (Phases.Schedule "typed") ~exclude:(Hashtbl.mem fused)
      ~meta:[ ("blocks", string_of_int (List.length blocks)) ];
  let entry_idx = idx_of g.entry in
  let nparams = g.nparams in
  (* param symbols get val slots; find them to seed from arguments *)
  let param_slots = Array.make nparams (-1) in
  Hashtbl.iter
    (fun s (lane, i) ->
      match (node g s).op with
      | Param k when lane = Lval -> param_slots.(k) <- i
      | _ -> ())
    slots;
  let ni = counts.(0) and nf = counts.(1) and nv = counts.(2) in
  let prefill = !prefill in
  let new_regs () =
    let r =
      {
        ints = Array.make (max ni 1) 0;
        floats = Array.make (max nf 1) 0.0;
        vals = Array.make (max nv 1) Null;
      }
    in
    List.iter (fun fill -> fill r) prefill;
    r
  in
  (* pooled registers, as in the boxed backend (SSA: no stale reads); the
     option cell itself is recycled so a call allocates nothing here *)
  let pool : regs option Atomic.t = Atomic.make None in
  let run r =
    let bid = ref entry_idx in
    (try
       while !bid >= 0 do
         bid := compiled.(!bid) r
       done
     with Guard_miss -> ());
    !ret_val
  in
  fun args ->
    if Array.length args <> nparams then
      vm_error "typed kernel %s: expected %d args, got %d" g.name nparams
        (Array.length args);
    let cell =
      match Atomic.exchange pool None with
      | Some _ as cell -> cell
      | None -> Some (new_regs ())
    in
    let r = Option.get cell in
    for k = 0 to nparams - 1 do
      let slot = param_slots.(k) in
      if slot >= 0 then r.vals.(slot) <- args.(k)
    done;
    match run r with
    | v ->
      Atomic.set pool cell;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Atomic.set pool cell;
      Printexc.raise_with_backtrace e bt

(* Span-instrumented entry point: attributes backend compile time in traces
   (a no-op single branch when no observability sink is attached). *)
let compile ?hooks (g : graph) =
  Obs.span ~cat:Phases.cat_jit (Phases.span_backend "typed") (fun () ->
      compile ?hooks g)

(* The one compile-with-fallback path: typed lanes when the graph allows,
   else the boxed backend.  Returns the entry point, the backend that built
   it and the reason the typed backend declined, if it did. *)
let compile_or_fallback ?hooks (g : graph) =
  match compile ?hooks g with
  | fn -> (fn, "typed", None)
  | exception Fallback reason ->
    (Closure_backend.compile ?hooks g, "closure", Some reason)
