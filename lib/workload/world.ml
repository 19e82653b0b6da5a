module Rng = Rm_stats.Rng
module Cluster = Rm_cluster.Cluster
module Topology = Rm_cluster.Topology
module Network = Rm_netsim.Network

type job = {
  job_id : int;
  job_load : (int * float) list;
  job_flows : Rm_netsim.Flow.t list;
}

type job_handle = int

type t = {
  cluster : Cluster.t;
  scenario : Scenario.t;
  network : Network.t;
  models : Node_model.t array;
  flows : Flow_gen.t;
  up : bool array;
  mutable jobs : job list;
  mutable next_job_id : int;
  mutable next_flow_id : int;
  mutable now : float;
}

let assemble ~cluster ~scenario ~models ~flows =
  let network = Network.create (Cluster.topology cluster) in
  let t =
    {
      cluster;
      scenario;
      network;
      models;
      flows;
      up = Array.make (Cluster.node_count cluster) true;
      jobs = [];
      next_job_id = 0;
      next_flow_id = 1_000_000;
      now = 0.0;
    }
  in
  (* Materialize the t=0 state so queries before the first tick are sane. *)
  Network.set_flows network (Flow_gen.active_flows flows);
  t

let check_hotspot ~cluster (scenario : Scenario.t) =
  match scenario.flow_params.hotspot with
  | None -> ()
  | Some (switch, _) ->
    let count = Topology.switch_count (Cluster.topology cluster) in
    if switch < 0 || switch >= count then
      invalid_arg
        (Printf.sprintf
           "World.create: scenario %s targets switch %d but the topology has \
            switches 0..%d"
           scenario.name switch (count - 1))

let create ~cluster ~scenario ~seed =
  check_hotspot ~cluster scenario;
  let rng = Rng.create seed in
  let models =
    Array.map
      (fun node ->
        let profile = scenario.Scenario.sample_profile rng node in
        Node_model.create ~rng:(Rng.split rng) ~node ~profile)
      (Cluster.nodes cluster)
  in
  let flows =
    Flow_gen.create ~rng:(Rng.split rng)
      ~node_count:(Cluster.node_count cluster)
      ~params:scenario.Scenario.flow_params
  in
  assemble ~cluster ~scenario ~models ~flows

let create_replay ?(flow_params = Flow_gen.default) ~cluster ~traces ~seed () =
  let traces = Array.of_list traces in
  if Array.length traces <> Cluster.node_count cluster then
    invalid_arg "World.create_replay: one trace per node required";
  let models =
    Array.mapi
      (fun i node -> Node_model.create_replay ~node ~trace:traces.(i))
      (Cluster.nodes cluster)
  in
  let rng = Rng.create seed in
  let flows =
    Flow_gen.create ~rng:(Rng.split rng)
      ~node_count:(Cluster.node_count cluster)
      ~params:flow_params
  in
  let scenario =
    {
      Scenario.name = "replay";
      flow_params;
      sample_profile = (fun _ _ -> invalid_arg "replay scenario has no profiles");
    }
  in
  assemble ~cluster ~scenario ~models ~flows

let cluster t = t.cluster
let network t = t.network
let scenario_name t = t.scenario.Scenario.name
let now t = t.now

let all_flows t =
  Flow_gen.active_flows t.flows
  @ List.concat_map (fun j -> j.job_flows) t.jobs

(* Lenient monotonic: callers on different clocks (monitor daemons on the
   sim, the MPI executor on its own critical path) may race slightly;
   whoever is furthest ahead wins and earlier calls are no-ops. Node
   models are not stepped here: each catches up when it is read. Until a
   flow is born or expires, a tick only moves the clock, and the network
   keeps its flow epoch. *)
let advance t ~now =
  if now > t.now then begin
    t.now <- now;
    if Flow_gen.next_change t.flows <= now then begin
      let topo = Cluster.topology t.cluster in
      Flow_gen.advance t.flows ~now ~switch_of_node:(Topology.switch_of_node topo);
      Network.set_flows t.network (all_flows t)
    end
  end

let attach t ~sim ~period ~until =
  Rm_engine.Sim.every sim ~period ~until (fun sim ->
      advance t ~now:(Rm_engine.Sim.now sim))

let check_node t node =
  if node < 0 || node >= Array.length t.models then
    invalid_arg "World: node index out of range"

let job_load_on t node =
  List.fold_left
    (fun acc j ->
      List.fold_left
        (fun acc (n, l) -> if n = node then acc +. l else acc)
        acc j.job_load)
    0.0 t.jobs

(* The node's model, brought up to the world clock: reads are what move
   node models, so a tick costs nothing for nodes nobody looks at. *)
let model t node =
  check_node t node;
  let m = t.models.(node) in
  Node_model.advance m ~now:t.now;
  m

let cpu_load t ~node = Node_model.cpu_load (model t node) +. job_load_on t node
let cpu_util_pct t ~node = Node_model.cpu_util_pct (model t node)
let mem_used_gb t ~node = Node_model.mem_used_gb (model t node)
let users t ~node = Node_model.users (model t node)

let users_field t i = users t ~node:i

let nic_rate_mb_s t ~node =
  check_node t node;
  Network.nic_rate_mb_s t.network ~node

let background_flow_count t = Flow_gen.active_count t.flows

let register_job t ~load ~flows =
  List.iter (fun (n, l) ->
      check_node t n;
      if l < 0.0 then invalid_arg "World.register_job: negative load") load;
  let job_flows =
    List.map
      (fun (src, dst, demand_mb_s) ->
        let id = t.next_flow_id in
        t.next_flow_id <- t.next_flow_id + 1;
        Rm_netsim.Flow.make ~id ~src ~dst ~demand_mb_s)
      flows
  in
  let job = { job_id = t.next_job_id; job_load = load; job_flows } in
  t.next_job_id <- t.next_job_id + 1;
  t.jobs <- job :: t.jobs;
  Network.set_flows t.network (all_flows t);
  job.job_id

let release_job t handle =
  let before = List.length t.jobs in
  t.jobs <- List.filter (fun j -> j.job_id <> handle) t.jobs;
  if List.length t.jobs <> before then Network.set_flows t.network (all_flows t)

let job_count t = List.length t.jobs

let is_up t ~node =
  check_node t node;
  t.up.(node)

let set_down t ~node =
  check_node t node;
  t.up.(node) <- false

let set_up t ~node =
  check_node t node;
  t.up.(node) <- true

let set_nic_scale t ~node scale =
  check_node t node;
  let link = Topology.access_link (Cluster.topology t.cluster) ~node in
  Network.set_capacity_scale t.network ~link_id:link.Topology.link_id scale

let nic_scale t ~node =
  check_node t node;
  let link = Topology.access_link (Cluster.topology t.cluster) ~node in
  Network.capacity_scale t.network ~link_id:link.Topology.link_id

let up_nodes t =
  let acc = ref [] in
  for i = Array.length t.up - 1 downto 0 do
    if t.up.(i) then acc := i :: !acc
  done;
  !acc

let record_traces t ~hours ~period_s =
  if hours <= 0.0 || period_s <= 0.0 then
    invalid_arg "World.record_traces: non-positive span";
  let n = Array.length t.models in
  let steps = int_of_float (Float.ceil (hours *. 3600.0 /. period_s)) in
  let times = Array.make (steps + 1) 0.0 in
  let load = Array.make_matrix n (steps + 1) 0.0 in
  let util = Array.make_matrix n (steps + 1) 0.0 in
  let mem = Array.make_matrix n (steps + 1) 0.0 in
  let users = Array.make_matrix n (steps + 1) 0.0 in
  let start = t.now in
  for k = 0 to steps do
    let now = start +. (float_of_int k *. period_s) in
    advance t ~now;
    times.(k) <- now;
    for i = 0 to n - 1 do
      load.(i).(k) <- cpu_load t ~node:i;
      util.(i).(k) <- cpu_util_pct t ~node:i;
      mem.(i).(k) <- mem_used_gb t ~node:i;
      users.(i).(k) <- float_of_int (users_field t i)
    done
  done;
  List.init n (fun i ->
      Trace_replay.make_node ~times ~load:load.(i) ~util_pct:util.(i)
        ~mem_used_gb:mem.(i) ~users:users.(i))
