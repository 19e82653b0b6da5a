module Rng = Rm_stats.Rng
module Flow = Rm_netsim.Flow

type params = {
  arrival_rate_per_s : float;
  p_external : float;
  p_same_switch : float;
  demand_pareto_shape : float;
  demand_pareto_scale_mb_s : float;
  demand_cap_mb_s : float;
  p_elephant : float;
  short_mean_duration_s : float;
  elephant_mean_duration_s : float;
  hotspot : (int * float) option;
}

let default =
  {
    arrival_rate_per_s = 0.09;
    p_external = 0.35;
    p_same_switch = 0.55;
    demand_pareto_shape = 1.3;
    demand_pareto_scale_mb_s = 6.0;
    demand_cap_mb_s = 110.0;
    p_elephant = 0.2;
    short_mean_duration_s = 45.0;
    elephant_mean_duration_s = 900.0;
    hotspot = None;
  }

type live = { flow : Flow.t; expires : float }

type t = {
  rng : Rng.t;
  node_count : int;
  params : params;
  mutable next_arrival : float;
  mutable next_id : int;
  mutable live : live list;
  mutable next_expiry : float;  (* earliest [expires] in [live] *)
  mutable last_now : float;
}

let draw_gap t =
  if t.params.arrival_rate_per_s <= 0.0 then infinity
  else Rng.exponential t.rng ~rate:t.params.arrival_rate_per_s

let create ~rng ~node_count ~params =
  if node_count < 2 then invalid_arg "Flow_gen.create: need at least 2 nodes";
  if params.p_external < 0.0 || params.p_external > 1.0 then
    invalid_arg "Flow_gen.create: p_external out of range";
  let t =
    { rng; node_count; params; next_arrival = 0.0; next_id = 0; live = [];
      next_expiry = infinity; last_now = 0.0 }
  in
  t.next_arrival <- draw_gap t;
  t

let pick_source t ~switch_of_node =
  match t.params.hotspot with
  | Some (switch, boost) when Rng.bernoulli t.rng ~p:boost ->
    (* Rejection-sample a node on the hotspot switch. *)
    let rec go attempts =
      let n = Rng.int t.rng t.node_count in
      if switch_of_node n = switch || attempts > 50 then n else go (attempts + 1)
    in
    go 0
  | Some _ | None -> Rng.int t.rng t.node_count

let spawn t ~start ~switch_of_node =
  let p = t.params in
  let src = pick_source t ~switch_of_node in
  let dst =
    if Rng.bernoulli t.rng ~p:p.p_external then Flow.External
    else begin
      let rec other () =
        let d = Rng.int t.rng t.node_count in
        if d = src then other () else d
      in
      (* Lab traffic is partly switch-local (nearby workstations, local
         file servers); rejection-sample a same-switch peer when asked. *)
      if Rng.bernoulli t.rng ~p:p.p_same_switch then begin
        let rec local attempts =
          let d = other () in
          if switch_of_node d = switch_of_node src || attempts > 50 then d
          else local (attempts + 1)
        in
        Flow.Node (local 0)
      end
      else Flow.Node (other ())
    end
  in
  let demand =
    Float.min p.demand_cap_mb_s
      (Rng.pareto t.rng ~shape:p.demand_pareto_shape
         ~scale:p.demand_pareto_scale_mb_s)
  in
  let mean_duration =
    if Rng.bernoulli t.rng ~p:p.p_elephant then p.elephant_mean_duration_s
    else p.short_mean_duration_s
  in
  let duration = Rng.exponential t.rng ~rate:(1.0 /. mean_duration) in
  let flow = Flow.make ~id:t.next_id ~src ~dst ~demand_mb_s:demand in
  t.next_id <- t.next_id + 1;
  { flow; expires = start +. duration }

let next_change t = Float.min t.next_arrival t.next_expiry

let advance t ~now ~switch_of_node =
  if now < t.last_now then invalid_arg "Flow_gen.advance: time went backwards";
  t.last_now <- now;
  while t.next_arrival <= now do
    let start = t.next_arrival in
    let live = spawn t ~start ~switch_of_node in
    if live.expires > now then begin
      t.live <- live :: t.live;
      t.next_expiry <- Float.min t.next_expiry live.expires
    end;
    t.next_arrival <- start +. draw_gap t
  done;
  if t.next_expiry <= now then begin
    t.live <- List.filter (fun l -> l.expires > now) t.live;
    t.next_expiry <-
      List.fold_left (fun acc l -> Float.min acc l.expires) infinity t.live
  end

let active_flows t = List.map (fun l -> l.flow) t.live
let active_count t = List.length t.live
