(* The splitmix64 state lives unboxed in 8 bytes, so advancing it
   writes in place instead of boxing a fresh [int64]; the inlined
   helpers keep every draw below free of intermediate boxes. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state state =
  let g = Bytes.create 8 in
  Bytes.set_int64_ne g 0 state;
  g

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] int64 g =
  let state = Int64.add (Bytes.get_int64_ne g 0) golden_gamma in
  Bytes.set_int64_ne g 0 state;
  mix64 state

let split g = of_state (int64 g)

(* 53 random bits scaled into [0, 1). *)
let[@inline] float g =
  let bits = Int64.shift_right_logical (int64 g) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

(* [max (float g) 1e-300] without boxing two floats for the polymorphic
   [max]. *)
let[@inline] positive_unit g =
  let u = float g in
  if u >= 1e-300 then u else 1e-300

let uniform g ~lo ~hi =
  assert (lo <= hi);
  lo +. ((hi -. lo) *. float g)

let int g n =
  assert (n > 0);
  let mask = Int64.of_int max_int in
  let v = Int64.to_int (Int64.logand (int64 g) mask) in
  v mod n

let bool g = Int64.logand (int64 g) 1L = 1L
let bernoulli g ~p = float g < p

let gaussian g ~mu ~sigma =
  (* Box–Muller; guard against log 0. *)
  let u1 = positive_unit g in
  let u2 = float g in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let exponential g ~rate =
  assert (rate > 0.0);
  let u = positive_unit g in
  -.log u /. rate

let pareto g ~shape ~scale =
  assert (shape > 0.0 && scale > 0.0);
  let u = positive_unit g in
  scale /. (u ** (1.0 /. shape))

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose g a =
  assert (Array.length a > 0);
  a.(int g (Array.length a))

let sample_without_replacement g ~k ~n =
  assert (0 <= k && k <= n);
  let idx = Array.init n (fun i -> i) in
  shuffle g idx;
  Array.to_list (Array.sub idx 0 k)
