(* Samples live in a ring of two unboxed float arrays, oldest at [head].
   The running sum and the last pushed time sit in a float array too, so
   a steady-state push writes floats in place and allocates nothing; the
   ring doubles only when it is full. Samples are added and evicted in
   arrival order, so [sum] sees the same additions and subtractions in
   the same order as a FIFO queue of (time, value) pairs would. *)
type t = {
  span : float;
  mutable times : float array;
  mutable values : float array;
  mutable head : int;
  mutable len : int;
  acc : float array;  (* [| sum; last_time |] *)
}

let sum = 0
let last_time = 1

let create ~span =
  if span <= 0.0 then invalid_arg "Window.create: span must be positive";
  {
    span;
    times = Array.make 16 0.0;
    values = Array.make 16 0.0;
    head = 0;
    len = 0;
    acc = [| 0.0; neg_infinity |];
  }

let span t = t.span

let grow t =
  let cap = Array.length t.times in
  let times = Array.make (2 * cap) 0.0 and values = Array.make (2 * cap) 0.0 in
  let first = cap - t.head in
  Array.blit t.times t.head times 0 first;
  Array.blit t.times 0 times first t.head;
  Array.blit t.values t.head values 0 first;
  Array.blit t.values 0 values first t.head;
  t.times <- times;
  t.values <- values;
  t.head <- 0

let evict t ~now =
  let cutoff = now -. t.span in
  let cap = Array.length t.times in
  while t.len > 0 && t.times.(t.head) <= cutoff do
    t.acc.(sum) <- t.acc.(sum) -. t.values.(t.head);
    t.head <- (if t.head + 1 = cap then 0 else t.head + 1);
    t.len <- t.len - 1
  done

let push t ~time ~value =
  if time < t.acc.(last_time) then
    invalid_arg "Window.push: time went backwards";
  t.acc.(last_time) <- time;
  if t.len = Array.length t.times then grow t;
  let cap = Array.length t.times in
  let slot = t.head + t.len in
  let slot = if slot >= cap then slot - cap else slot in
  t.times.(slot) <- time;
  t.values.(slot) <- value;
  t.len <- t.len + 1;
  t.acc.(sum) <- t.acc.(sum) +. value;
  evict t ~now:time

let length t = t.len

let mean_default t ~default =
  if t.len = 0 then default else t.acc.(sum) /. float_of_int t.len

let mean t = if t.len = 0 then None else Some (mean_default t ~default:0.0)

let latest t =
  if t.len = 0 then None
  else begin
    let slot = (t.head + t.len - 1) mod Array.length t.times in
    Some (t.times.(slot), t.values.(slot))
  end

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.acc.(sum) <- 0.0;
  t.acc.(last_time) <- neg_infinity
