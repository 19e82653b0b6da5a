type link_view = {
  latency_us : src:int -> dst:int -> float;
  bandwidth_mb_s : src:int -> dst:int -> float;
}

let log2_ceil p =
  let rec go acc v = if v >= p then acc else go (acc + 1) (v * 2) in
  go 0 1

(* Worst latency / tightest bandwidth among distinct node pairs of the
   allocation — the stage cost of a placement-oblivious collective. *)
let worst_pair ~placement ~view =
  let nodes = Placement.nodes placement in
  let rec pairs acc = function
    | [] -> acc
    | u :: rest ->
      pairs (List.fold_left (fun acc v -> (u, v) :: acc) acc rest) rest
  in
  match pairs [] nodes with
  | [] -> None
  | ps ->
    let lat =
      List.fold_left
        (fun acc (u, v) -> Float.max acc (view.latency_us ~src:u ~dst:v))
        0.0 ps
    in
    let bw =
      List.fold_left
        (fun acc (u, v) -> Float.min acc (view.bandwidth_mb_s ~src:u ~dst:v))
        infinity ps
    in
    Some (lat, bw)

let stage_time_of worst ~bytes =
  match worst with
  | None -> Cost_model.intra_node_time_s ~bytes
  | Some (lat, bw) ->
    Cost_model.message_time_s ~latency_us:lat ~bandwidth_mb_s:bw ~bytes

let stage_time ~placement ~view ~bytes =
  stage_time_of (worst_pair ~placement ~view) ~bytes

(* The two allreduce formulas over an already-found worst pair, for
   [p > 1] ranks. *)
let recursive_doubling_s ~p ~worst ~bytes =
  (* Each stage sends and receives the full [bytes]. *)
  float_of_int (log2_ceil p) *. stage_time_of worst ~bytes *. 2.0

let ring_s ~p ~worst ~bytes =
  (* Reduce-scatter + allgather: 2(p-1) steps of bytes/p each. *)
  let steps = 2 * (p - 1) in
  let chunk = bytes /. float_of_int p in
  float_of_int steps *. stage_time_of worst ~bytes:chunk

let allreduce_recursive_doubling_s ~placement ~view ~bytes =
  if bytes < 0.0 then
    invalid_arg "Collectives.allreduce_recursive_doubling_s: negative bytes";
  let p = Placement.ranks placement in
  if p <= 1 then 0.0
  else recursive_doubling_s ~p ~worst:(worst_pair ~placement ~view) ~bytes

let allreduce_ring_s ~placement ~view ~bytes =
  if bytes < 0.0 then invalid_arg "Collectives.allreduce_ring_s: negative bytes";
  let p = Placement.ranks placement in
  if p <= 1 then 0.0 else ring_s ~p ~worst:(worst_pair ~placement ~view) ~bytes

(* Both formulas see the same placement and view, so the O(nodes²) worst
   pair is found once. *)
let allreduce_time_s ~placement ~view ~bytes =
  if bytes < 0.0 then invalid_arg "Collectives.allreduce_time_s: negative bytes";
  let p = Placement.ranks placement in
  if p <= 1 then 0.0
  else begin
    let worst = worst_pair ~placement ~view in
    Float.min (recursive_doubling_s ~p ~worst ~bytes) (ring_s ~p ~worst ~bytes)
  end

let barrier_time_s ~placement ~view =
  allreduce_time_s ~placement ~view ~bytes:8.0

let bcast_time_s ~placement ~view ~bytes =
  if bytes < 0.0 then invalid_arg "Collectives.bcast_time_s: negative bytes";
  let p = Placement.ranks placement in
  if p <= 1 then 0.0
  else float_of_int (log2_ceil p) *. stage_time ~placement ~view ~bytes
