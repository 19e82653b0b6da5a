(* Wall time from CLOCK_MONOTONIC. Sys.time is process CPU time and
   Unix.gettimeofday can step; neither measures elapsed time. *)

let now_ns () = Monotonic_clock.now ()
let s_of_ns ns = Int64.to_float ns *. 1e-9
let since_s t0 = s_of_ns (Int64.sub (now_ns ()) t0)

(* Time one call; returns its result and the elapsed seconds. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, since_s t0)
