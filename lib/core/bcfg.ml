(* Control-flow analyses over bytecode at instruction granularity:
   successors, dominators, immediate postdominators (used to locate the join
   point of a conditional) and natural loops (used to drive the abstract-
   interpretation fixpoint of paper Sec. 2.2). *)

open Vm.Types

type t = {
  code : instr array;
  n : int;
  succs : int list array;
  preds : int list array;
  ipostdom : int array; (* -1 = exits / no postdominator *)
  loop_headers : bool array;
  loop_body : (int, (int, unit) Hashtbl.t) Hashtbl.t; (* header -> member pcs *)
}

let successors code pc =
  match code.(pc) with
  | Goto t -> [ t ]
  | If (_, t) | Iff (_, t) | Ifz (_, t) | Ifnull (_, t) -> [ pc + 1; t ]
  | Ret | Retv | Trap _ -> []
  | Const _ | Load _ | Store _ | Dup | Pop | Swap | Iop _ | Ineg | Fop _
  | Fneg | I2f | F2i | New _ | Getfield _ | Putfield _ | Getglobal _
  | Putglobal _ | Newarr | Newfarr | Aload | Astore | Faload | Fastore | Alen
  | Invoke _ ->
    [ pc + 1 ]

(* bitset helpers over int arrays *)
module Bits = struct
  let make n full =
    let words = (n + 62) / 63 in
    Array.make (max words 1) (if full then -1 else 0)

  let mem b i = b.(i / 63) land (1 lsl (i mod 63)) <> 0
  let add b i = b.(i / 63) <- b.(i / 63) lor (1 lsl (i mod 63))

  let inter_into dst src =
    let changed = ref false in
    for w = 0 to Array.length dst - 1 do
      let v = dst.(w) land src.(w) in
      if v <> dst.(w) then begin
        dst.(w) <- v;
        changed := true
      end
    done;
    !changed

  let copy = Array.copy
end

(* Dominators of each pc (forward); exit-augmented postdominators (reverse).
   Standard iterative bitset dataflow; bytecode methods are small. *)
let analyze (code : instr array) : t =
  let n = Array.length code in
  let succs = Array.init n (fun pc -> List.filter (fun s -> s < n) (successors code pc)) in
  let preds = Array.make n [] in
  Array.iteri (fun pc ss -> List.iter (fun s -> preds.(s) <- pc :: preds.(s)) ss) succs;
  (* dominators *)
  let dom = Array.init n (fun _ -> Bits.make n true) in
  dom.(0) <- Bits.make n false;
  Bits.add dom.(0) 0;
  let changed = ref true in
  while !changed do
    changed := false;
    for pc = 1 to n - 1 do
      match preds.(pc) with
      | [] -> () (* unreachable *)
      | p0 :: rest ->
        let acc = Bits.copy dom.(p0) in
        List.iter (fun p -> ignore (Bits.inter_into acc dom.(p))) rest;
        Bits.add acc pc;
        if Bits.inter_into dom.(pc) acc then changed := true;
        (* ensure dom(pc) = acc exactly, not just intersection *)
        Array.blit acc 0 dom.(pc) 0 (Array.length acc)
    done
  done;
  (* postdominators, with a virtual exit node joining all Ret/Trap *)
  let pdom = Array.init n (fun _ -> Bits.make n true) in
  let is_exit pc = succs.(pc) = [] in
  for pc = 0 to n - 1 do
    if is_exit pc then begin
      pdom.(pc) <- Bits.make n false;
      Bits.add pdom.(pc) pc
    end
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    for pc = n - 1 downto 0 do
      if not (is_exit pc) then begin
        match succs.(pc) with
        | [] -> ()
        | s0 :: rest ->
          let acc = Bits.copy pdom.(s0) in
          List.iter (fun s -> ignore (Bits.inter_into acc pdom.(s))) rest;
          Bits.add acc pc;
          let old = Bits.copy pdom.(pc) in
          Array.blit acc 0 pdom.(pc) 0 (Array.length acc);
          if old <> pdom.(pc) then changed := true
      end
    done
  done;
  (* immediate postdominator: the postdominator (other than pc itself) that is
     postdominated by all other postdominators of pc *)
  let pd_list pc =
    let l = ref [] in
    for i = 0 to n - 1 do
      if i <> pc && Bits.mem pdom.(pc) i then l := i :: !l
    done;
    !l
  in
  let ipostdom =
    Array.init n (fun pc ->
        let cands = pd_list pc in
        let is_ipd c =
          List.for_all (fun o -> o = c || Bits.mem pdom.(c) o) cands
        in
        match List.find_opt is_ipd cands with Some c -> c | None -> -1)
  in
  (* natural loops: back edge pc -> h where h dominates pc *)
  let loop_headers = Array.make n false in
  let loop_body = Hashtbl.create 4 in
  Array.iteri
    (fun pc ss ->
      List.iter
        (fun h ->
          if Bits.mem dom.(pc) h then begin
            (* back edge pc -> h *)
            loop_headers.(h) <- true;
            let body =
              match Hashtbl.find_opt loop_body h with
              | Some b -> b
              | None ->
                let b = Hashtbl.create 16 in
                Hashtbl.replace b h ();
                Hashtbl.replace loop_body h b;
                b
            in
            (* reverse reachability from pc without passing h *)
            let rec mark x =
              if not (Hashtbl.mem body x) then begin
                Hashtbl.replace body x ();
                List.iter mark preds.(x)
              end
            in
            mark pc
          end)
        ss)
    succs;
  { code; n; succs; preds; ipostdom; loop_headers; loop_body }

let in_loop t header pc =
  match Hashtbl.find_opt t.loop_body header with
  | Some b -> Hashtbl.mem b pc
  | None -> false

let is_loop_header t pc = pc < t.n && t.loop_headers.(pc)

(* cache per method, one table per domain: background JIT workers stage
   concurrently, and a shared [Hashtbl] is not safe to mutate from several
   domains at once *)
let cache_key : (int, t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let of_method (m : meth) : t =
  let code =
    match m.mcode with
    | Bytecode c -> c
    | Native _ -> invalid_arg "Bcfg.of_method: native method"
  in
  let cache = Domain.DLS.get cache_key in
  match Hashtbl.find_opt cache m.mid with
  | Some t when t.code == code -> t
  | Some _ | None ->
    let t = analyze code in
    Hashtbl.replace cache m.mid t;
    t
