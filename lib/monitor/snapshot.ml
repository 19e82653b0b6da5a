module Matrix = Rm_stats.Matrix
module Running_means = Rm_stats.Running_means
module Cluster = Rm_cluster.Cluster
module Topology = Rm_cluster.Topology
module Network = Rm_netsim.Network
module World = Rm_workload.World

type node_info = {
  static : Rm_cluster.Node.t;
  users : int;
  load : Running_means.view;
  util_pct : Running_means.view;
  nic_mb_s : Running_means.view;
  mem_avail_gb : Running_means.view;
  written_at : float;
}

type t = {
  time : float;
  cluster : Cluster.t;
  live : int list;
  nodes : node_info option array;
  bw_mb_s : Matrix.t;
  peak_bw_mb_s : Matrix.t;
  lat_us : Matrix.t;
}

let peak_matrix cluster =
  let topo = Cluster.topology cluster in
  let n = Cluster.node_count cluster in
  let m = Matrix.square n ~init:infinity in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let cap =
          List.fold_left
            (fun acc (l : Topology.link) -> Float.min acc l.capacity_mb_s)
            infinity (Topology.path topo i j)
        in
        Matrix.set m i j cap
      end
    done
  done;
  m

let base_latency_matrix cluster =
  let topo = Cluster.topology cluster in
  let n = Cluster.node_count cluster in
  let m = Matrix.square n ~init:0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then Matrix.set m i j (Topology.base_latency_us topo i j)
    done
  done;
  m

(* Both matrices depend on the topology alone: build them once per
   cluster (a one-entry memo keyed by physical identity) and share them.
   Every snapshot captured on the cluster holds the same peak matrix,
   and copies the base-latency one before writing measurements into it;
   see the read-only invariant on [peak_bw_mb_s] in the interface. *)
let static_matrices : (Cluster.t * Matrix.t * Matrix.t) option Atomic.t =
  Atomic.make None

let static_of cluster =
  match Atomic.get static_matrices with
  | Some (c, peak, base_lat) when c == cluster -> (peak, base_lat)
  | Some _ | None ->
    let peak = peak_matrix cluster and base_lat = base_latency_matrix cluster in
    Atomic.set static_matrices (Some (cluster, peak, base_lat));
    (peak, base_lat)

let capture ~time ~cluster ~store =
  let n = Cluster.node_count cluster in
  if Store.node_count store <> n then
    invalid_arg "Snapshot.capture: store/cluster size mismatch";
  let live =
    match Store.read_livehosts store with
    | Some (_, nodes) -> nodes
    | None -> List.init n (fun i -> i)
  in
  let nodes =
    Array.init n (fun i ->
        match Store.read_node store ~node:i with
        | None -> None
        | Some (r : Store.node_record) ->
          Some
            {
              static = Cluster.node cluster i;
              users = r.users;
              load = r.load;
              util_pct = r.util_pct;
              nic_mb_s = r.nic_mb_s;
              mem_avail_gb = r.mem_avail_gb;
              written_at = r.written_at;
            })
  in
  let peak, base_lat = static_of cluster in
  let bw = Matrix.copy peak in
  let lat = Matrix.copy base_lat in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      (match Store.read_bandwidth store ~src:i ~dst:j with
      | Some (_, mb_s) ->
        Matrix.set bw i j mb_s;
        Matrix.set bw j i mb_s
      | None -> ());
      match Store.read_latency store ~src:i ~dst:j with
      | Some (_, us) ->
        Matrix.set lat i j us;
        Matrix.set lat j i us
      | None -> ()
    done
  done;
  { time; cluster; live; nodes; bw_mb_s = bw; peak_bw_mb_s = peak; lat_us = lat }

let usable t =
  List.filter (fun i -> t.nodes.(i) <> None) (List.sort compare t.live)

let restrict t ~exclude =
  { t with live = List.filter (fun n -> not (List.mem n exclude)) t.live }

let node_info t i =
  if i < 0 || i >= Array.length t.nodes then None else t.nodes.(i)

let max_staleness t =
  List.fold_left
    (fun acc i ->
      match t.nodes.(i) with
      | Some info -> Float.max acc (t.time -. info.written_at)
      | None -> acc)
    0.0 (usable t)

let flat value : Running_means.view =
  { instant = value; m1 = value; m5 = value; m15 = value }

let of_truth ~time ~world =
  let cluster = World.cluster world in
  let network = World.network world in
  let n = Cluster.node_count cluster in
  let nodes =
    Array.init n (fun i ->
        if not (World.is_up world ~node:i) then None
        else begin
          let static = Cluster.node cluster i in
          let mem_avail =
            Float.max 0.0
              (static.Rm_cluster.Node.mem_gb -. World.mem_used_gb world ~node:i)
          in
          Some
            {
              static;
              users = World.users world ~node:i;
              load = flat (World.cpu_load world ~node:i);
              util_pct = flat (World.cpu_util_pct world ~node:i);
              nic_mb_s = flat (World.nic_rate_mb_s world ~node:i);
              mem_avail_gb = flat mem_avail;
              written_at = time;
            }
        end)
  in
  let peak, _ = static_of cluster in
  let bw = Matrix.square n ~init:infinity in
  let lat = Matrix.square n ~init:0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        Matrix.set bw i j (Network.available_bandwidth_mb_s network ~src:i ~dst:j);
        Matrix.set lat i j (Network.latency_us network ~src:i ~dst:j)
      end
    done
  done;
  Matrix.symmetrize bw;
  Matrix.symmetrize lat;
  {
    time;
    cluster;
    live = World.up_nodes world;
    nodes;
    bw_mb_s = bw;
    peak_bw_mb_s = peak;
    lat_us = lat;
  }
