(* The benchmark's four workloads.  Each fixes a Mini source, the runtime
   mode `lancet run` would be started in, and a generator that derives every
   input from the seed.  The expected result of every iteration comes from
   native OCaml code in this file (or [Csvlib.Harness.reference]), never
   from the bytecode interpreter or the JIT under test.  The README in this
   directory records why each workload was chosen. *)

open Vm.Types

type mode = {
  tiering : bool; (* `lancet run --tiered` *)
  jit_threads : int; (* `--jit-threads`; 0 = synchronous compiles *)
  governor : bool;
      (* `--governor`'s deopt and promotion hooks, without its ticker
         domain: the sessions stay single-domain (see the README) *)
}

(* A workload instantiated for one seed.  [step p i] runs iteration [i]
   through [Mini.Front.call] and folds its result to an int, which must
   equal [expected.(i)]; [native i] is the native OCaml computation of the
   same result, which sessions also time as the unit of the relative
   metrics. *)
type inst = {
  src : string;
  iters : int;
  step : Mini.Front.program -> int -> int;
  native : int -> int;
  expected : int array;
}

let instance ~src ~iters ~step ~native =
  { src; iters; step; native; expected = Array.init iters native }

type t = {
  name : string;
  mode : mode;
  make : seed:int -> smoke:bool -> inst;
}

(* `lancet run` defaults for --tier-threshold and --watchdog-ms *)
let tier_threshold = 16
let watchdog_ms = 500.0

(* the VM's 32-bit int semantics *)
let wrap32 i = Int32.to_int (Int32.of_int i)
let rng seed salt = Random.State.make [| seed; salt |]

let int_result = function
  | Int n -> n
  | v -> failwith (Format.asprintf "expected an int result, got %a" Vm.Value.pp v)

let int_arr a = Arr (Array.map (fun n -> Int n) a)

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* ------------------------------------------------------------------ *)
(* kmeans-steady: tiered k-means assignment, synchronous compiles.     *)

let kmeans_src =
  {|
def sqdist(ps: farray, cs: farray, r: int, c: int, d: int): float = {
  var s = 0.0;
  for (j <- 0 until d) {
    val diff = ps[r * d + j] - cs[c * d + j];
    s = s + diff * diff
  };
  s
}
def nearest(ps: farray, cs: farray, r: int, d: int, k: int): int = {
  var best = 0;
  var bd = sqdist(ps, cs, r, 0, d);
  for (c <- 1 until k) {
    val dd = sqdist(ps, cs, r, c, d);
    if (dd < bd) { bd = dd; best = c }
  };
  best
}
def assign_all(ps: farray, cs: farray, n: int, d: int, k: int): int = {
  var s = 0;
  for (r <- 0 until n) { s = s + nearest(ps, cs, r, d, k) };
  s
}
|}

let native_assign ps cs n d k =
  let sqdist r c =
    let s = ref 0.0 in
    for j = 0 to d - 1 do
      let diff = ps.((r * d) + j) -. cs.((c * d) + j) in
      s := !s +. (diff *. diff)
    done;
    !s
  in
  let s = ref 0 in
  for r = 0 to n - 1 do
    let best = ref 0 and bd = ref (sqdist r 0) in
    for c = 1 to k - 1 do
      let dd = sqdist r c in
      if dd < !bd then begin
        bd := dd;
        best := c
      end
    done;
    s := wrap32 (!s + !best)
  done;
  !s

let kmeans ~seed ~smoke =
  let st = rng seed 1 in
  let rows = if smoke then 20 else 250 and d = 4 and k = 4 and sets = 8 in
  let ps = Array.init (rows * d) (fun _ -> Random.State.float st 100.) in
  (* iterations cycle through several centroid sets, so consecutive
     results differ and a stale answer cannot pass the check *)
  let css =
    Array.init sets (fun _ ->
        Array.init (k * d) (fun _ -> Random.State.float st 100.))
  in
  instance ~src:kmeans_src
    ~iters:(if smoke then 24 else 600)
    ~step:(fun p i ->
      int_result
        (Mini.Front.call p "assign_all"
           [| Farr ps; Farr css.(i mod sets); Int rows; Int d; Int k |]))
    ~native:(fun i -> native_assign ps css.(i mod sets) rows d k)

(* ------------------------------------------------------------------ *)
(* oo-interp: object allocation and virtual calls in the interpreter.  *)

let oo_src =
  {|
class Shape {
  var w: int
  def init(w: int): unit = { this.w = w }
  def area(): int = this.w
}
class Circle extends Shape {
  def area(): int = this.w * 3
}
class Square extends Shape {
  def area(): int = this.w * this.w
}
class Tri extends Shape {
  def area(): int = this.w * this.w / 2
}
class Hexa extends Shape {
  def area(): int = this.w * this.w * 3
}

def build(kinds: array[int], widths: array[int]): array[Shape] = {
  val n = kinds.length;
  val a = new array[Shape](n);
  for (i <- 0 until n) {
    val k = kinds[i];
    val w = widths[i];
    if (k == 0) { a[i] = new Shape(w) }
    else { if (k == 1) { a[i] = new Circle(w) }
    else { if (k == 2) { a[i] = new Square(w) }
    else { if (k == 3) { a[i] = new Tri(w) }
    else { a[i] = new Hexa(w) } } } }
  };
  a
}

// one virtual call site per function, so each site settles in its own
// inline-cache state: the inputs make them mono-, poly- and megamorphic
def sum_mono(a: array[Shape]): int = {
  var s = 0;
  for (i <- 0 until a.length) { s = (s + a[i].area()) % 1000003 };
  s
}
def sum_poly(a: array[Shape]): int = {
  var s = 0;
  for (i <- 0 until a.length) { s = (s + a[i].area()) % 1000003 };
  s
}
def sum_mega(a: array[Shape]): int = {
  var s = 0;
  for (i <- 0 until a.length) { s = (s + a[i].area()) % 1000003 };
  s
}
def grow(a: array[Shape]): unit = {
  for (i <- 0 until a.length) {
    val s = a[i];
    s.w = s.w % 97 + 1
  }
}

def round(mk: array[int], mw: array[int], pk: array[int], pw: array[int],
          gk: array[int], gw: array[int], reps: int): int = {
  val m = build(mk, mw);
  val p = build(pk, pw);
  val g = build(gk, gw);
  var acc = 0;
  for (r <- 0 until reps) {
    acc = (acc + sum_mono(m) + 3 * sum_poly(p) + 7 * sum_mega(g)) % 1000003;
    grow(m);
    grow(p);
    grow(g)
  };
  acc
}
|}

let area kind w =
  match kind with
  | 0 -> w
  | 1 -> wrap32 (w * 3)
  | 2 -> wrap32 (w * w)
  | 3 -> wrap32 (w * w) / 2
  | _ -> wrap32 (wrap32 (w * w) * 3)

let native_round (mk, mw) (pk, pw) (gk, gw) reps =
  let mw = Array.copy mw and pw = Array.copy pw and gw = Array.copy gw in
  let sum ks ws =
    let s = ref 0 in
    Array.iteri (fun i k -> s := wrap32 (!s + area k ws.(i)) mod 1000003) ks;
    !s
  in
  let grow ws = Array.iteri (fun i w -> ws.(i) <- (w mod 97) + 1) ws in
  let acc = ref 0 in
  for _ = 1 to reps do
    let t =
      wrap32
        (wrap32 (wrap32 (!acc + sum mk mw) + wrap32 (3 * sum pk pw))
        + wrap32 (7 * sum gk gw))
    in
    acc := t mod 1000003;
    grow mw;
    grow pw;
    grow gw
  done;
  !acc

let oo_interp ~seed ~smoke =
  let st = rng seed 2 in
  let n = if smoke then 10 else 40 and reps = if smoke then 3 else 12 in
  let sets = 16 in
  (* the monomorphic site sees one class all run long; the polymorphic one
     three classes (under the 4-entry cache limit); the megamorphic one all
     five *)
  (* fixed class mix, seeded order and widths: every seed costs the same
     number of interpreter steps *)
  let mono_kind = 2 in
  let poly_kinds = [| 1; 3; 4 |] in
  let widths () = Array.init n (fun _ -> 1 + Random.State.int st 97) in
  let covering kinds =
    let a = Array.init n (fun i -> kinds.(i mod Array.length kinds)) in
    shuffle st a;
    a
  in
  let inputs =
    Array.init sets (fun _ ->
        let m = (Array.make n mono_kind, widths ()) in
        let p = (covering poly_kinds, widths ()) in
        let g = (covering [| 0; 1; 2; 3; 4 |], widths ()) in
        (m, p, g))
  in
  let args =
    Array.map
      (fun ((mk, mw), (pk, pw), (gk, gw)) ->
        [| int_arr mk; int_arr mw; int_arr pk; int_arr pw; int_arr gk;
           int_arr gw; Int reps |])
      inputs
  in
  instance ~src:oo_src
    ~iters:(if smoke then 16 else 800)
    ~step:(fun p i -> int_result (Mini.Front.call p "round" args.(i mod sets)))
    ~native:(fun i ->
      let m, p, g = inputs.(i mod sets) in
      native_round m p g reps)

(* ------------------------------------------------------------------ *)
(* phase-churn: tier-up compiles, deopts and governor actions all      *)
(* through the run.                                                     *)

let n_kernels = 48
let active = 12
let bound j = 1000 + (37 * j)
let mul j = 1 + (j mod 7)
let add j = j * 13 mod 101

(* fixed template: kernel constants depend only on the kernel index *)
let phase_src =
  let kernel j =
    Printf.sprintf
      {|
def k%d(ops: array[Op], xs: array[int]): int = {
  var s = %d;
  val n = ops.length;
  for (i <- 0 until xs.length) {
    val x = xs[i];
    val y = if (Lancet.speculate(x < %d)) x * %d + %d else x - %d;
    s = (s + ops[i %% n].ap(y)) %% 1000003
  };
  s
}
|}
      j j (bound j) (mul j) (add j) (bound j)
  in
  {|
class Op {
  val c: int
  def init(c: int): unit = { this.c = c }
  def ap(x: int): int = x + this.c
}
class OpMul extends Op {
  def ap(x: int): int = x * this.c % 65521
}
class OpSub extends Op {
  def ap(x: int): int = x - this.c
}
class OpSq extends Op {
  def ap(x: int): int = x * x % 10007
}
class OpHalf extends Op {
  def ap(x: int): int = x / 2 + this.c
}

def mk_ops(kinds: array[int], cs: array[int]): array[Op] = {
  val n = kinds.length;
  val a = new array[Op](n);
  for (i <- 0 until n) {
    val k = kinds[i];
    val c = cs[i];
    if (k == 0) { a[i] = new Op(c) }
    else { if (k == 1) { a[i] = new OpMul(c) }
    else { if (k == 2) { a[i] = new OpSub(c) }
    else { if (k == 3) { a[i] = new OpSq(c) }
    else { a[i] = new OpHalf(c) } } } }
  };
  a
}
|}
  ^ String.concat "" (List.init n_kernels kernel)

let ap kind c x =
  match kind with
  | 0 -> wrap32 (x + c)
  | 1 -> wrap32 (x * c) mod 65521
  | 2 -> wrap32 (x - c)
  | 3 -> wrap32 (x * x) mod 10007
  | _ -> wrap32 ((x / 2) + c)

(* The op index wraps by counting rather than by [i mod n]: with a
   hardware divide per element the reference timed the divider, whose
   speed swings with the host far more than the JIT's does. *)
let native_kernel j (kinds, cs) xs =
  let n = Array.length kinds in
  let b = bound j and m = mul j and a = add j in
  let s = ref j and k = ref 0 in
  Array.iter
    (fun x ->
      let y = if x < b then wrap32 (wrap32 (x * m) + a) else x - b in
      s := wrap32 (!s + ap kinds.(!k) cs.(!k) y) mod 1000003;
      k := if !k + 1 = n then 0 else !k + 1)
    xs;
  !s

(* One iteration's result: the active kernels' results folded in
   call order, so one wrong kernel result changes it. *)
let fold_results rs = Array.fold_left (fun h r -> (h * 1_000_033) + r) 17 rs

type phase = {
  kernels : int array; (* the [active] kernels this phase makes hot *)
  calm : (int array * int array) * int array; (* (op kinds, op consts), xs *)
  late : (int array * int array) * int array;
}

let phase_churn ~seed ~smoke =
  let st = rng seed 3 in
  let phases = if smoke then 2 else 8 in
  let len = if smoke then 4 else 24 in
  let late_from = len - (len / 4) in
  let xs_len = if smoke then 64 else 256 and ops_len = 8 in
  let ops kinds =
    ( Array.init ops_len (fun i -> kinds.(i mod Array.length kinds)),
      Array.init ops_len (fun _ -> 1 + Random.State.int st 97) )
  in
  let schedule =
    Array.init phases (fun _ ->
        let all = Array.init n_kernels Fun.id in
        shuffle st all;
        let order = [| 0; 1; 2; 3; 4 |] in
        shuffle st order;
        (* calm: inputs under every kernel's speculated bound, two receiver
           classes; late: every 8th input breaks the bound and all five
           receiver classes appear *)
        let calm_ops = ops (Array.sub order 0 2) in
        let late_ops = ops order in
        let xs = Array.init xs_len (fun _ -> Random.State.int st 1000) in
        let late_xs =
          Array.mapi
            (fun i x -> if i mod 8 = 7 then 3000 + Random.State.int st 500 else x)
            xs
        in
        {
          kernels = Array.sub all 0 active;
          calm = (calm_ops, xs);
          late = (late_ops, late_xs);
        })
  in
  let iters = phases * len in
  let part i =
    let ph = schedule.(i / len) in
    (ph, if i mod len >= late_from then ph.late else ph.calm)
  in
  let names = Array.init n_kernels (Printf.sprintf "k%d") in
  let cur_ops = ref Null in
  let step p i =
    let ph, ((kinds, cs), xs) = part i in
    if i mod len = 0 || i mod len = late_from then
      cur_ops := Mini.Front.call p "mk_ops" [| int_arr kinds; int_arr cs |];
    let xs = int_arr xs in
    fold_results
      (Array.map
         (fun j -> int_result (Mini.Front.call p names.(j) [| !cur_ops; xs |]))
         ph.kernels)
  in
  instance ~src:phase_src ~iters ~step ~native:(fun i ->
      let ph, (ops, xs) = part i in
      fold_results (Array.map (fun j -> native_kernel j ops xs) ph.kernels))

(* ------------------------------------------------------------------ *)
(* csv-surgical: the paper's Table 1 "Lancet" row, explicit compile.   *)

let csv_surgical ~seed ~smoke =
  let files = 8 and bytes = if smoke then 600 else 3000 in
  let texts =
    Array.init files (fun i ->
        Csvlib.Gen.generate ~seed:((seed * 7919) + i) ~bytes)
  in
  instance ~src:Csvlib.Mini_src.specialized
    ~iters:(if smoke then 8 else 400)
    ~step:(fun p i ->
      int_result
        (Mini.Front.call p "run_specialized" [| Str texts.(i mod files) |]))
    ~native:(fun i -> Csvlib.Harness.reference texts.(i mod files))

let all =
  [
    {
      name = "kmeans-steady";
      mode = { tiering = true; jit_threads = 0; governor = false };
      make = kmeans;
    };
    {
      name = "oo-interp";
      mode = { tiering = false; jit_threads = 0; governor = false };
      make = oo_interp;
    };
    {
      name = "phase-churn";
      mode = { tiering = true; jit_threads = 0; governor = true };
      make = phase_churn;
    };
    {
      name = "csv-surgical";
      mode = { tiering = false; jit_threads = 0; governor = false };
      make = csv_surgical;
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
