(* Open-loop request schedule. Slot [i] of a step at [rate] is due at
   [i / rate] seconds after the step starts, whatever happened to
   earlier slots, and its latency is measured from that due time, so a
   stall in the system or in the generator is charged to every request
   that waited behind it. The loop is written against an abstract
   transport so a test can drive it with a fake clock. *)

type transport = {
  now : unit -> float;  (** seconds since the step started *)
  ready : int -> bool;
      (** whether slot [i] may be sent: an op on a grant waits for the
          reply to the previous op on that grant *)
  send : int -> unit;
  poll : until:float -> (int * float) list;
      (** wait until [until] or until replies arrive, whichever is
          first; returns the answered slots with their reply times *)
}

type sample = {
  due : float;
  mutable sent : float;  (** nan until sent *)
  mutable answered : float;  (** nan until answered *)
  mutable waited : bool;  (** was held back by [ready] past its due time *)
}

let run ~rate ~duration ~drain_s tr =
  let n = max 1 (int_of_float (Float.floor (duration *. rate))) in
  let s =
    Array.init n (fun i ->
        { due = float_of_int i /. rate; sent = nan; answered = nan; waited = false })
  in
  let next = ref 0 (* first slot never considered *)
  and held = ref [] (* due slots waiting on [ready], in slot order *)
  and outstanding = ref 0 in
  let deadline = duration +. drain_s in
  let send i =
    s.(i).sent <- tr.now ();
    tr.send i;
    incr outstanding
  in
  let rec loop () =
    let now = tr.now () in
    held :=
      List.filter
        (fun i ->
          if tr.ready i then (send i; false) else true)
        !held;
    while !next < n && s.(!next).due <= now do
      let i = !next in
      incr next;
      if tr.ready i then send i
      else begin
        s.(i).waited <- true;
        held := !held @ [ i ]
      end
    done;
    let finished = !next >= n && !held = [] && !outstanding = 0 in
    if (not finished) && now < deadline then begin
      let until = if !next < n then s.(!next).due else deadline in
      List.iter
        (fun (i, t) ->
          if Float.is_nan s.(i).answered then begin
            s.(i).answered <- t;
            decr outstanding
          end)
        (tr.poll ~until);
      loop ()
    end
  in
  loop ();
  s

type summary = {
  slots : int;
  unanswered : int;
  lag_p99_ms : float;  (** over slots that were not held by [ready] *)
  lag_max_ms : float;
  backlog_growth : float;
      (** mean requests outstanding over the last quarter of the step
          minus over its second quarter *)
  valid : bool;
}

(* The generator fell behind when slots that could be sent on time went
   out more than [max_lag_ms] late at p99; such a step measures the
   generator's host, not the system, and is not reported. Smaller lags
   are charged to the requests' latency by the due-time accounting;
   the bound is half of serve-mix's 20 ms latency limit. *)
let max_lag_ms = 10.0

let outstanding_at s t =
  Array.fold_left
    (fun acc x ->
      if x.due <= t && (Float.is_nan x.answered || x.answered > t) then acc + 1
      else acc)
    0 s

let mean_outstanding s ~lo ~hi =
  let k = 50 in
  let total = ref 0 in
  for j = 0 to k - 1 do
    total :=
      !total
      + outstanding_at s (lo +. ((hi -. lo) *. (float_of_int j +. 0.5) /. float_of_int k))
  done;
  float_of_int !total /. float_of_int k

let growing summary ~rate =
  summary.backlog_growth > 2.0 +. (0.002 *. rate)

let summarize s ~duration =
  let lags =
    Array.to_list s
    |> List.filter_map (fun x ->
           if x.waited || Float.is_nan x.sent then None
           else Some (1000.0 *. (x.sent -. x.due)))
  in
  let sorted = Pct.sorted lags in
  let lag_p99_ms = if lags = [] then 0.0 else Pct.at ~q:0.99 sorted in
  let lag_max_ms = List.fold_left Float.max 0.0 lags in
  let q = duration /. 4.0 in
  {
    slots = Array.length s;
    unanswered =
      Array.fold_left (fun acc x -> if Float.is_nan x.answered then acc + 1 else acc) 0 s;
    lag_p99_ms;
    lag_max_ms;
    backlog_growth =
      mean_outstanding s ~lo:(3.0 *. q) ~hi:duration
      -. mean_outstanding s ~lo:q ~hi:(2.0 *. q);
    valid = lag_p99_ms <= max_lag_ms;
  }

(* Milliseconds from due time to reply for the answered slots [keep]
   selects. *)
let latencies_ms s ~keep =
  Array.to_list s
  |> List.filteri (fun i x -> keep i && not (Float.is_nan x.answered))
  |> List.map (fun x -> 1000.0 *. (x.answered -. x.due))
