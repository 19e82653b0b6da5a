module Rng = Rm_stats.Rng

type t = {
  rng : Rng.t;
  mu : float;
  tau : float;
  sigma : float;
  lo : float;
  hi : float;
  mutable value : float;
}

let create ~rng ~mu ~tau ~sigma ?(lo = neg_infinity) ?(hi = infinity) ?init () =
  if tau <= 0.0 then invalid_arg "Ou_process.create: tau must be positive";
  if sigma < 0.0 then invalid_arg "Ou_process.create: negative sigma";
  if lo > hi then invalid_arg "Ou_process.create: lo > hi";
  let init =
    match init with
    | Some v -> v
    | None -> Rng.gaussian rng ~mu ~sigma:(sigma /. 2.0)
  in
  let value = Float.min hi (Float.max lo init) in
  { rng; mu; tau; sigma; lo; hi; value }

let value t = t.value

(* Longest single step {!catch_up} takes: short enough that a
   time-varying mean is followed the way frequent small steps follow it. *)
let max_step t = t.tau /. 10.0

(* Fold [v] back into [lo, hi] as a reflecting barrier would: the
   small-step limit of clamping, without the point mass a long clamped
   step piles up at the bound. The final min/max only absorbs rounding. *)
let reflect ~lo ~hi v =
  if v >= lo && v <= hi then v
  else begin
    let v =
      if hi = infinity then lo +. (lo -. v)
      else if lo = neg_infinity then hi -. (v -. hi)
      else begin
        let w = hi -. lo in
        if w = 0.0 then lo
        else begin
          let m = Float.rem (v -. lo) (2.0 *. w) in
          let m = if m < 0.0 then m +. (2.0 *. w) else m in
          if m <= w then lo +. m else lo +. ((2.0 *. w) -. m)
        end
      end
    in
    Float.min hi (Float.max lo v)
  end

(* Exact OU discretization: x' = mu + (x - mu) e^{-dt/tau} + sigma
   sqrt(1 - e^{-2 dt/tau}) N(0,1). *)
let transition t ~dt ~mu =
  if dt > 0.0 then begin
    let decay = exp (-.dt /. t.tau) in
    let noise_scale = t.sigma *. sqrt (1.0 -. (decay *. decay)) in
    let noise = Rng.gaussian t.rng ~mu:0.0 ~sigma:1.0 in
    let v = mu +. ((t.value -. mu) *. decay) +. (noise_scale *. noise) in
    t.value <- reflect ~lo:t.lo ~hi:t.hi v
  end

let step t ~dt ?mu () =
  if dt < 0.0 then invalid_arg "Ou_process.step: negative dt";
  transition t ~dt ~mu:(Option.value mu ~default:t.mu);
  t.value

let catch_up t ~from ~until ?mu_at () =
  if until < from then invalid_arg "Ou_process.catch_up: until < from";
  let span = until -. from in
  if span > 0.0 then begin
    let n = Stdlib.max 1 (int_of_float (Float.ceil (span /. max_step t))) in
    let dt = span /. float_of_int n in
    for k = 1 to n do
      let at = if k = n then until else from +. (float_of_int k *. dt) in
      let mu = match mu_at with None -> t.mu | Some f -> f at in
      transition t ~dt ~mu
    done
  end
