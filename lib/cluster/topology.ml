type link = { link_id : int; capacity_mb_s : float; label : string }

type t = {
  node_switch : int array;
  switches : int;
  switch_site : int array;
  sites : int;
  links : link array;
      (** access links for nodes 0..n-1, then uplinks per switch, then
          one WAN link per site (multi-site topologies only) *)
  by_switch : int list array;
  wan_latency_us : float;
}

let create ?(access_mb_s = 118.0) ?(uplink_mb_s = 118.0) ?switch_site
    ?(wan_mb_s = 60.0) ?(wan_latency_us = 900.0) ~node_switch ~switches () =
  if switches <= 0 then invalid_arg "Topology.create: no switches";
  if Array.length node_switch = 0 then invalid_arg "Topology.create: no nodes";
  Array.iter
    (fun s ->
      if s < 0 || s >= switches then
        invalid_arg "Topology.create: switch index out of range")
    node_switch;
  if access_mb_s <= 0.0 || uplink_mb_s <= 0.0 || wan_mb_s <= 0.0 then
    invalid_arg "Topology.create: non-positive capacity";
  if wan_latency_us < 0.0 then invalid_arg "Topology.create: negative latency";
  let switch_site =
    match switch_site with
    | None -> Array.make switches 0
    | Some a ->
      if Array.length a <> switches then
        invalid_arg "Topology.create: switch_site length mismatch";
      a
  in
  let sites = 1 + Array.fold_left max 0 switch_site in
  Array.iter
    (fun s ->
      if s < 0 || s >= sites then
        invalid_arg "Topology.create: site index out of range")
    switch_site;
  (* Every site in [0, sites) must own at least one switch. *)
  let seen = Array.make sites false in
  Array.iter (fun s -> seen.(s) <- true) switch_site;
  if Array.exists not seen then
    invalid_arg "Topology.create: sites must be contiguous from 0";
  let n = Array.length node_switch in
  let wan_links = if sites > 1 then sites else 0 in
  let links =
    Array.init (n + switches + wan_links) (fun i ->
        if i < n then
          {
            link_id = i;
            capacity_mb_s = access_mb_s;
            label = Printf.sprintf "access-n%d" i;
          }
        else if i < n + switches then
          {
            link_id = i;
            capacity_mb_s = uplink_mb_s;
            label = Printf.sprintf "uplink-s%d" (i - n);
          }
        else
          {
            link_id = i;
            capacity_mb_s = wan_mb_s;
            label = Printf.sprintf "wan-site%d" (i - n - switches);
          })
  in
  let by_switch = Array.make switches [] in
  for i = n - 1 downto 0 do
    by_switch.(node_switch.(i)) <- i :: by_switch.(node_switch.(i))
  done;
  { node_switch; switches; switch_site; sites; links; by_switch; wan_latency_us }

let node_count t = Array.length t.node_switch
let switch_count t = t.switches

let switch_of_node t i =
  if i < 0 || i >= node_count t then
    invalid_arg "Topology.switch_of_node: bad node";
  t.node_switch.(i)

let nodes_of_switch t s =
  if s < 0 || s >= t.switches then
    invalid_arg "Topology.nodes_of_switch: bad switch";
  t.by_switch.(s)

let link_count t = Array.length t.links

let link t i =
  if i < 0 || i >= link_count t then invalid_arg "Topology.link: bad id";
  t.links.(i)

let access_link t ~node =
  if node < 0 || node >= node_count t then
    invalid_arg "Topology.access_link: bad node";
  t.links.(node)

let uplink t ~switch =
  if switch < 0 || switch >= t.switches then
    invalid_arg "Topology.uplink: bad switch";
  t.links.(node_count t + switch)

let site_count t = t.sites

let site_of_switch t s =
  if s < 0 || s >= t.switches then
    invalid_arg "Topology.site_of_switch: bad switch";
  t.switch_site.(s)

let site_of_node t i = site_of_switch t (switch_of_node t i)
let same_switch t u v = switch_of_node t u = switch_of_node t v
let same_site t u v = site_of_node t u = site_of_node t v

let wan_link t ~site =
  if t.sites <= 1 then invalid_arg "Topology.wan_link: single-site topology";
  if site < 0 || site >= t.sites then invalid_arg "Topology.wan_link: bad site";
  t.links.(node_count t + t.switches + site)

let path t u v =
  if u = v then []
  else begin
    let su = switch_of_node t u and sv = switch_of_node t v in
    if su = sv then [ access_link t ~node:u; access_link t ~node:v ]
    else begin
      let site_u = site_of_switch t su and site_v = site_of_switch t sv in
      if site_u = site_v then
        [
          access_link t ~node:u;
          uplink t ~switch:su;
          uplink t ~switch:sv;
          access_link t ~node:v;
        ]
      else
        [
          access_link t ~node:u;
          uplink t ~switch:su;
          wan_link t ~site:site_u;
          wan_link t ~site:site_v;
          uplink t ~switch:sv;
          access_link t ~node:v;
        ]
    end
  end

let hops t u v = List.length (path t u v)

(* GbE-ish figures: ~25 us per link traversal, ~20 us per switch. *)
let per_link_us = 25.0
let per_switch_us = 20.0

(* Hop counts of {!path}'s three shapes, without building the list. *)
let base_latency_us t u v =
  if u = v then 0.0
  else begin
    let links, switches =
      if same_switch t u v then (2.0, 1.0)
      else if same_site t u v then (4.0, 3.0)
      else (6.0, 4.0)
    in
    let wan = if same_site t u v then 0.0 else 2.0 *. t.wan_latency_us in
    (links *. per_link_us) +. (switches *. per_switch_us) +. wan
  end
