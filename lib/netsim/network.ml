module Topology = Rm_cluster.Topology

type cache = {
  demands : Fairshare.demand array;
  rates : float array;
  loads : float array;  (** per link id *)
}

type t = {
  topology : Topology.t;
  base_capacities : float array;  (** nominal, from the topology *)
  capacities : float array;  (** effective = base × degradation scale *)
  scales : float array;
  mutable flows : Flow.t list;
  mutable cache : cache option;
}

let create topology =
  let base = Routing.capacities topology in
  {
    topology;
    base_capacities = base;
    capacities = Array.copy base;
    scales = Array.make (Array.length base) 1.0;
    flows = [];
    cache = None;
  }

let topology t = t.topology

let set_capacity_scale t ~link_id scale =
  if link_id < 0 || link_id >= Array.length t.capacities then
    invalid_arg "Network.set_capacity_scale: bad link id";
  if not (Float.is_finite scale) || scale < 0.0 || scale > 1.0 then
    invalid_arg "Network.set_capacity_scale: scale must be in [0, 1]";
  t.scales.(link_id) <- scale;
  t.capacities.(link_id) <- t.base_capacities.(link_id) *. scale;
  t.cache <- None

let capacity_scale t ~link_id =
  if link_id < 0 || link_id >= Array.length t.scales then
    invalid_arg "Network.capacity_scale: bad link id";
  t.scales.(link_id)

(* Element-wise physical equality: the world rebuilds its flow list on
   every tick from the same flow values, and only a birth, expiry,
   registration or release changes which values it holds. *)
let rec same_flows a b =
  match (a, b) with
  | [], [] -> true
  | x :: a, y :: b -> x == y && same_flows a b
  | _ -> false

let set_flows t flows =
  if not (same_flows t.flows flows) then begin
    t.flows <- flows;
    t.cache <- None
  end

let flows t = t.flows
let flow_count t = List.length t.flows

let demand_of_flow t (f : Flow.t) : Fairshare.demand =
  { path = Routing.flow_path t.topology f; demand_mb_s = f.demand_mb_s }

let cache t =
  match t.cache with
  | Some c -> c
  | None ->
    let demands = Array.of_list (List.map (demand_of_flow t) t.flows) in
    let rates = Fairshare.compute ~capacities:t.capacities ~demands in
    let loads = Fairshare.link_loads ~capacities:t.capacities ~demands ~rates in
    let c = { demands; rates; loads } in
    t.cache <- Some c;
    c

let available_bandwidth_mb_s t ~src ~dst =
  if src = dst then infinity
  else begin
    let c = cache t in
    let probe_path = Routing.p2p_path t.topology ~src ~dst in
    Fairshare.probe_rate ~capacities:t.capacities ~demands:c.demands ~probe_path
  end

let link_utilization t ~link_id =
  let c = cache t in
  if link_id < 0 || link_id >= Array.length t.capacities then
    invalid_arg "Network.link_utilization: bad link id";
  Float.min 1.0 (c.loads.(link_id) /. t.capacities.(link_id))

(* Queueing penalty per link: base per-link cost inflated by an M/M/1-ish
   rho/(1-rho) term, capped so a saturated GbE link adds at most ~10x. *)
let queueing_factor rho =
  let rho = Float.min 0.95 (Float.max 0.0 rho) in
  rho /. (1.0 -. rho)

let latency_us t ~src ~dst =
  if src = dst then 0.0
  else begin
    let base = Topology.base_latency_us t.topology src dst in
    let path = Routing.p2p_path t.topology ~src ~dst in
    let extra =
      Array.fold_left
        (fun acc link_id ->
          let rho = link_utilization t ~link_id in
          acc +. (25.0 *. queueing_factor rho))
        0.0 path
    in
    base +. extra
  end

let nic_rate_mb_s t ~node =
  let c = cache t in
  let acc = ref 0.0 in
  List.iteri
    (fun i f -> if Flow.touches_node f node then acc := !acc +. c.rates.(i))
    t.flows;
  !acc

let rates_with_extra t ~extra =
  let c = cache t in
  let extra_demands =
    Array.map
      (fun (src, dst) : Fairshare.demand ->
        {
          path = (if src = dst then [||] else Routing.p2p_path t.topology ~src ~dst);
          demand_mb_s = infinity;
        })
      extra
  in
  let all = Array.append c.demands extra_demands in
  let rates = Fairshare.compute ~capacities:t.capacities ~demands:all in
  Array.sub rates (Array.length c.demands) (Array.length extra_demands)

let peak_bandwidth_mb_s t ~src ~dst =
  if src = dst then infinity
  else begin
    let path = Routing.p2p_path t.topology ~src ~dst in
    Array.fold_left
      (fun acc link_id -> Float.min acc t.capacities.(link_id))
      infinity path
  end
