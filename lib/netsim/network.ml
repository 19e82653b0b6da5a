module Topology = Rm_cluster.Topology

(* Everything a reading needs for one flow epoch: the fair-share
   solution plus tables derived from it, so a latency or NIC reading is
   a few array loads. [probes] memoizes [probe_rate] per ordered
   (src, dst), filled on first use. The whole record is dropped when the
   flow set or a capacity changes. *)
type cache = {
  demands : Fairshare.demand array;
  rates : float array;
  loads : float array;  (** per link id *)
  penalty_us : float array;  (** per link id: 25 · queueing_factor(ρ) *)
  nic : float array;  (** per node: rates of the flows touching it *)
  probes : (int, float) Hashtbl.t;  (** key src · node_count + dst *)
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

(* Queueing penalty per link: base per-link cost inflated by an M/M/1-ish
   rho/(1-rho) term, capped so a saturated GbE link adds at most ~10x. *)
let queueing_factor rho =
  let rho = Float.min 0.95 (Float.max 0.0 rho) in
  rho /. (1.0 -. rho)

let utilization ~capacities ~loads l = Float.min 1.0 (loads.(l) /. capacities.(l))

let cache t =
  match t.cache with
  | Some c -> c
  | None ->
    let demands = Array.of_list (List.map (demand_of_flow t) t.flows) in
    let capacities = t.capacities in
    let rates = Fairshare.compute ~capacities ~demands in
    let loads = Fairshare.link_loads ~capacities ~demands ~rates in
    let penalty_us =
      Array.init (Array.length capacities) (fun l ->
          25.0 *. queueing_factor (utilization ~capacities ~loads l))
    in
    (* Each node's sum runs over the flows in list order, as a walk of
       the flow list per node would add them. *)
    let nic = Array.make (Topology.node_count t.topology) 0.0 in
    List.iteri
      (fun i (f : Flow.t) ->
        nic.(f.src) <- nic.(f.src) +. rates.(i);
        match f.dst with
        | Flow.Node d -> nic.(d) <- nic.(d) +. rates.(i)
        | Flow.External -> ())
      t.flows;
    let c = { demands; rates; loads; penalty_us; nic; probes = Hashtbl.create 64 } in
    t.cache <- Some c;
    c

let probe t c ~src ~dst =
  Fairshare.probe_rate ~capacities:t.capacities ~demands:c.demands
    ~probe_path:(Routing.p2p_path t.topology ~src ~dst)

let available_bandwidth_mb_s t ~src ~dst =
  if src = dst then infinity
  else begin
    let c = cache t in
    let n = Topology.node_count t.topology in
    if src < 0 || src >= n || dst < 0 || dst >= n then probe t c ~src ~dst
    else begin
      let key = (src * n) + dst in
      match Hashtbl.find c.probes key with
      | rate -> rate
      | exception Not_found ->
        let rate = probe t c ~src ~dst in
        Hashtbl.add c.probes key rate;
        rate
    end
  end

let link_utilization t ~link_id =
  let c = cache t in
  if link_id < 0 || link_id >= Array.length t.capacities then
    invalid_arg "Network.link_utilization: bad link id";
  utilization ~capacities:t.capacities ~loads:c.loads link_id

let latency_us t ~src ~dst =
  if src = dst then 0.0
  else begin
    let c = cache t in
    let base = Topology.base_latency_us t.topology src dst in
    let path = Routing.p2p_path t.topology ~src ~dst in
    let extra = ref 0.0 in
    for k = 0 to Array.length path - 1 do
      extra := !extra +. c.penalty_us.(path.(k))
    done;
    base +. !extra
  end

let nic_rate_mb_s t ~node =
  let c = cache t in
  if node < 0 || node >= Array.length c.nic then 0.0 else c.nic.(node)

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
