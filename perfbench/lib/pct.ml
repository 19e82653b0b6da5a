(* Order statistics over timing samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least a share
   [q] of the samples at or below it. *)
let rank ~q n = max 1 (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)))

let at ~q a =
  let n = Array.length a in
  if n = 0 then nan else a.(rank ~q n - 1)

let median xs = at ~q:0.5 (sorted xs)

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* A tail percentile is reported only with at least ten samples beyond
   it, so one outlier cannot set it. *)
let beyond ~q n = n - rank ~q n
let tail_ok ~q n = n > 0 && beyond ~q n >= 10
