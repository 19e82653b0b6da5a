module Topology = Rm_cluster.Topology

(* The link ids of [Topology.path], in its order, built directly. *)
let p2p_path topo ~src ~dst =
  if src = dst then [||]
  else begin
    let id (l : Topology.link) = l.link_id in
    let access n = id (Topology.access_link topo ~node:n) in
    let up s = id (Topology.uplink topo ~switch:s) in
    let su = Topology.switch_of_node topo src
    and sv = Topology.switch_of_node topo dst in
    if su = sv then [| access src; access dst |]
    else begin
      let site_u = Topology.site_of_switch topo su
      and site_v = Topology.site_of_switch topo sv in
      if site_u = site_v then [| access src; up su; up sv; access dst |]
      else
        let wan s = id (Topology.wan_link topo ~site:s) in
        [| access src; up su; wan site_u; wan site_v; up sv; access dst |]
    end
  end

let flow_path topo (flow : Flow.t) =
  match flow.dst with
  | Flow.Node d -> p2p_path topo ~src:flow.src ~dst:d
  | Flow.External ->
    let access = Topology.access_link topo ~node:flow.src in
    let uplink = Topology.uplink topo ~switch:(Topology.switch_of_node topo flow.src) in
    [| access.link_id; uplink.link_id |]

let capacities topo =
  Array.init (Topology.link_count topo) (fun i ->
      (Topology.link topo i).capacity_mb_s)
