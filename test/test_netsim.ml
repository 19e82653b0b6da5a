(* Tests for rm_netsim: flows, routing, max-min fairness, network view. *)

module Flow = Rm_netsim.Flow
module Routing = Rm_netsim.Routing
module Fairshare = Rm_netsim.Fairshare
module Network = Rm_netsim.Network
module Topology = Rm_cluster.Topology
module Cluster = Rm_cluster.Cluster

let check_float = Alcotest.(check (float 1e-6))

let topo () = Topology.create ~node_switch:[| 0; 0; 1; 1 |] ~switches:2 ()

(* --- Flow -------------------------------------------------------------- *)

let test_flow_validation () =
  Alcotest.check_raises "self loop" (Invalid_argument "Flow.make: self-loop")
    (fun () -> ignore (Flow.make ~id:0 ~src:1 ~dst:(Flow.Node 1) ~demand_mb_s:1.0));
  Alcotest.check_raises "bad demand"
    (Invalid_argument "Flow.make: non-positive demand") (fun () ->
      ignore (Flow.make ~id:0 ~src:1 ~dst:Flow.External ~demand_mb_s:0.0))

let test_flow_touches () =
  let f = Flow.make ~id:0 ~src:1 ~dst:(Flow.Node 3) ~demand_mb_s:1.0 in
  Alcotest.(check bool) "touches src" true (Flow.touches_node f 1);
  Alcotest.(check bool) "touches dst" true (Flow.touches_node f 3);
  Alcotest.(check bool) "not others" false (Flow.touches_node f 2);
  Alcotest.(check bool) "not external" false (Flow.is_external f)

(* --- Routing ------------------------------------------------------------- *)

let test_routing_p2p () =
  let t = topo () in
  Alcotest.(check int) "same switch: 2 links" 2
    (Array.length (Routing.p2p_path t ~src:0 ~dst:1));
  Alcotest.(check int) "cross switch: 4 links" 4
    (Array.length (Routing.p2p_path t ~src:0 ~dst:3));
  Alcotest.(check int) "self: empty" 0
    (Array.length (Routing.p2p_path t ~src:2 ~dst:2))

let test_routing_external () =
  let t = topo () in
  let f = Flow.make ~id:0 ~src:2 ~dst:Flow.External ~demand_mb_s:1.0 in
  let path = Routing.flow_path t f in
  (* access(2)=2, uplink(switch 1)=4+1=5. *)
  Alcotest.(check (array int)) "access+uplink" [| 2; 5 |] path

let test_routing_capacities () =
  let t = topo () in
  let caps = Routing.capacities t in
  Alcotest.(check int) "one per link" (Topology.link_count t) (Array.length caps);
  Array.iter (fun c -> Alcotest.(check bool) "positive" true (c > 0.0)) caps

(* --- Fairshare ------------------------------------------------------------ *)

let demand path demand_mb_s : Fairshare.demand = { Fairshare.path; demand_mb_s }

let test_fairshare_single_flow_demand_capped () =
  let rates =
    Fairshare.compute ~capacities:[| 100.0 |] ~demands:[| demand [| 0 |] 30.0 |]
  in
  check_float "capped at demand" 30.0 rates.(0)

let test_fairshare_single_flow_capacity_capped () =
  let rates =
    Fairshare.compute ~capacities:[| 100.0 |]
      ~demands:[| demand [| 0 |] infinity |]
  in
  check_float "capped at capacity" 100.0 rates.(0)

let test_fairshare_equal_split () =
  let rates =
    Fairshare.compute ~capacities:[| 90.0 |]
      ~demands:[| demand [| 0 |] infinity; demand [| 0 |] infinity; demand [| 0 |] infinity |]
  in
  Array.iter (fun r -> check_float "30 each" 30.0 r) rates

let test_fairshare_demand_capped_redistributes () =
  (* One small flow frees capacity for the greedy one. *)
  let rates =
    Fairshare.compute ~capacities:[| 100.0 |]
      ~demands:[| demand [| 0 |] 10.0; demand [| 0 |] infinity |]
  in
  check_float "small keeps demand" 10.0 rates.(0);
  check_float "greedy gets rest" 90.0 rates.(1)

let test_fairshare_multilink_bottleneck () =
  (* Flow 0 crosses both links; flow 1 only the fat one. The thin link
     bottlenecks flow 0; flow 1 takes what remains of the fat link. *)
  let rates =
    Fairshare.compute
      ~capacities:[| 10.0; 100.0 |]
      ~demands:[| demand [| 0; 1 |] infinity; demand [| 1 |] infinity |]
  in
  check_float "thin-link flow" 10.0 rates.(0);
  check_float "fat-link flow" 90.0 rates.(1)

let test_fairshare_classic_three_flows () =
  (* The textbook example: two unit links; flow A spans both, flows B
     and C take one link each. Max-min: A=50, B=C=50 … actually with
     capacities 100: A and B share link 0 (50 each), then C gets
     100-50=50 on link 1? No: A also crosses link 1, so link 1 hosts A
     and C. All three end at 50. *)
  let rates =
    Fairshare.compute
      ~capacities:[| 100.0; 100.0 |]
      ~demands:
        [| demand [| 0; 1 |] infinity; demand [| 0 |] infinity; demand [| 1 |] infinity |]
  in
  Array.iter (fun r -> check_float "50 each" 50.0 r) rates

let test_fairshare_empty_path () =
  let rates =
    Fairshare.compute ~capacities:[| 10.0 |] ~demands:[| demand [||] 7.0 |]
  in
  check_float "unconstrained = demand" 7.0 rates.(0)

let test_fairshare_no_oversubscription () =
  let capacities = [| 50.0; 80.0; 120.0 |] in
  let demands =
    [|
      demand [| 0; 1 |] 40.0;
      demand [| 1; 2 |] infinity;
      demand [| 0 |] 40.0;
      demand [| 2 |] 90.0;
    |]
  in
  let rates = Fairshare.compute ~capacities ~demands in
  let loads = Fairshare.link_loads ~capacities ~demands ~rates in
  Array.iteri
    (fun l load ->
      Alcotest.(check bool)
        (Printf.sprintf "link %d within capacity" l)
        true
        (load <= capacities.(l) +. 1e-6))
    loads

let test_fairshare_probe_rate () =
  let capacities = [| 100.0 |] in
  let demands = [| demand [| 0 |] infinity |] in
  let p = Fairshare.probe_rate ~capacities ~demands ~probe_path:[| 0 |] in
  check_float "probe shares with greedy flow" 50.0 p;
  check_float "empty probe" infinity
    (Fairshare.probe_rate ~capacities ~demands ~probe_path:[||])

let test_fairshare_validation () =
  Alcotest.check_raises "bad link id"
    (Invalid_argument "Fairshare: link id out of range") (fun () ->
      ignore
        (Fairshare.compute ~capacities:[| 1.0 |] ~demands:[| demand [| 3 |] 1.0 |]))

(* --- Network ----------------------------------------------------------------- *)

let network () =
  let t = topo () in
  Network.create t

let test_network_idle () =
  let n = network () in
  check_float "idle same-switch bw" 118.0
    (Network.available_bandwidth_mb_s n ~src:0 ~dst:1);
  check_float "idle cross-switch bw" 118.0
    (Network.available_bandwidth_mb_s n ~src:0 ~dst:3);
  check_float "self infinite" infinity
    (Network.available_bandwidth_mb_s n ~src:0 ~dst:0);
  check_float "nic idle" 0.0 (Network.nic_rate_mb_s n ~node:0)

let test_network_contention () =
  let n = network () in
  (* A greedy flow leaving node 0 saturates access(0) and uplink(0). *)
  Network.set_flows n
    [ Flow.make ~id:0 ~src:0 ~dst:Flow.External ~demand_mb_s:infinity ];
  let bw = Network.available_bandwidth_mb_s n ~src:1 ~dst:3 in
  (* Probe 1->3 shares uplink(0) with the greedy flow. *)
  check_float "halved on the shared uplink" 59.0 bw;
  Alcotest.(check bool) "same-switch pair unaffected" true
    (Network.available_bandwidth_mb_s n ~src:2 ~dst:3 > 100.0)

let test_network_latency_increases_with_load () =
  let n = network () in
  let idle = Network.latency_us n ~src:0 ~dst:3 in
  Network.set_flows n
    [ Flow.make ~id:0 ~src:0 ~dst:(Flow.Node 3) ~demand_mb_s:110.0 ];
  let loaded = Network.latency_us n ~src:0 ~dst:3 in
  Alcotest.(check bool) "loaded > idle" true (loaded > idle);
  check_float "self latency" 0.0 (Network.latency_us n ~src:1 ~dst:1)

let test_network_nic_rate () =
  let n = network () in
  Network.set_flows n
    [
      Flow.make ~id:0 ~src:0 ~dst:(Flow.Node 2) ~demand_mb_s:20.0;
      Flow.make ~id:1 ~src:3 ~dst:(Flow.Node 0) ~demand_mb_s:10.0;
      Flow.make ~id:2 ~src:1 ~dst:Flow.External ~demand_mb_s:5.0;
    ];
  check_float "node 0 sums src+dst flows" 30.0 (Network.nic_rate_mb_s n ~node:0);
  check_float "node 1 external only" 5.0 (Network.nic_rate_mb_s n ~node:1)

let test_network_peak () =
  let n = network () in
  check_float "peak is min capacity" 118.0
    (Network.peak_bandwidth_mb_s n ~src:0 ~dst:3)

let test_network_rates_with_extra_contend () =
  let n = network () in
  (* Two extra greedy flows across the same uplinks split the path. *)
  let rates = Network.rates_with_extra n ~extra:[| (0, 2); (1, 3) |] in
  check_float "share uplink" 59.0 rates.(0);
  check_float "share uplink (2)" 59.0 rates.(1);
  let solo = Network.rates_with_extra n ~extra:[| (0, 2) |] in
  check_float "alone gets full" 118.0 solo.(0)

let test_network_link_utilization () =
  let n = network () in
  Network.set_flows n
    [ Flow.make ~id:0 ~src:0 ~dst:Flow.External ~demand_mb_s:59.0 ];
  check_float "access link half used" 0.5 (Network.link_utilization n ~link_id:0);
  check_float "other access idle" 0.0 (Network.link_utilization n ~link_id:1)

(* The fair-share solution is kept across [set_flows] only while the
   list holds the very same flow values; every other population, and
   every capacity change, answers exactly as a freshly built network. *)
let test_network_set_flows_cache () =
  let n = network () in
  let a = Flow.make ~id:0 ~src:0 ~dst:Flow.External ~demand_mb_s:infinity in
  let b = Flow.make ~id:1 ~src:1 ~dst:(Flow.Node 3) ~demand_mb_s:40.0 in
  let c = Flow.make ~id:2 ~src:2 ~dst:(Flow.Node 0) ~demand_mb_s:90.0 in
  let answers n =
    List.concat_map
      (fun src ->
        Network.nic_rate_mb_s n ~node:src
        :: List.filter_map
             (fun dst ->
               if dst = src then None
               else Some (Network.available_bandwidth_mb_s n ~src ~dst))
             [ 0; 1; 2; 3 ])
      [ 0; 1; 2; 3 ]
  in
  let fresh ?(scale = 1.0) flows =
    let m = network () in
    Network.set_capacity_scale m ~link_id:0 scale;
    Network.set_flows m flows;
    answers m
  in
  let check label ?scale flows =
    Alcotest.(check (list (float 0.0))) label (fresh ?scale flows) (answers n)
  in
  Network.set_flows n [ a; b ];
  check "initial" [ a; b ];
  Network.set_flows n (List.map Fun.id [ a; b ]);
  check "rebuilt list of the same flows" [ a; b ];
  Network.set_flows n [ a ];
  check "a flow dropped" [ a ];
  Network.set_flows n [ a; c ];
  check "a flow added" [ a; c ];
  Network.set_flows n [ { c with Flow.demand_mb_s = 10.0 }; a ];
  check "a flow replaced by an equal-id copy" [ { c with Flow.demand_mb_s = 10.0 }; a ];
  Network.set_capacity_scale n ~link_id:0 0.25;
  check "capacity change under the same flows" ~scale:0.25
    [ { c with Flow.demand_mb_s = 10.0 }; a ];
  Alcotest.(check bool) "the scale moved an answer" true
    (fresh [ { c with Flow.demand_mb_s = 10.0 }; a ]
    <> fresh ~scale:0.25 [ { c with Flow.demand_mb_s = 10.0 }; a ])

let qcheck = QCheck_alcotest.to_alcotest

(* Random flow populations: fairness invariants always hold. *)
let flow_population_gen =
  QCheck.Gen.(
    list_size (1 -- 25)
      (triple (0 -- 3) (0 -- 4) (float_range 0.5 150.0)))

let prop_fairshare_feasible_and_demand_bounded =
  QCheck.Test.make ~name:"fair rates: feasible and demand-bounded" ~count:200
    (QCheck.make flow_population_gen)
    (fun specs ->
      let t = topo () in
      let capacities = Routing.capacities t in
      let demands =
        Array.of_list
          (List.map
             (fun (s, d, dem) ->
               (* d = 4 or d = s means "external". *)
               let path =
                 if d = 4 || d = s then
                   Routing.flow_path t
                     (Flow.make ~id:0 ~src:s ~dst:Flow.External ~demand_mb_s:dem)
                 else Routing.p2p_path t ~src:s ~dst:d
               in
               { Fairshare.path; demand_mb_s = dem })
             specs)
      in
      let rates = Fairshare.compute ~capacities ~demands in
      let loads = Fairshare.link_loads ~capacities ~demands ~rates in
      let feasible =
        Array.for_all2 (fun load cap -> load <= cap +. 1e-6) loads capacities
      in
      let bounded =
        Array.for_all2
          (fun rate (d : Fairshare.demand) ->
            rate <= d.Fairshare.demand_mb_s +. 1e-6 && rate >= 0.0)
          rates demands
      in
      feasible && bounded)

(* Max-min optimality: every flow held below its demand must cross a
   saturated link on which it already receives the largest rate — i.e.
   nobody can be raised without lowering someone no better off. *)
let prop_fairshare_bottleneck_condition =
  QCheck.Test.make ~name:"max-min bottleneck condition" ~count:200
    (QCheck.make flow_population_gen)
    (fun specs ->
      let t = topo () in
      let capacities = Routing.capacities t in
      let demands =
        Array.of_list
          (List.map
             (fun (s, d, dem) ->
               let path =
                 if d = 4 || d = s then
                   Routing.flow_path t
                     (Flow.make ~id:0 ~src:s ~dst:Flow.External ~demand_mb_s:dem)
                 else Routing.p2p_path t ~src:s ~dst:d
               in
               { Fairshare.path; demand_mb_s = dem })
             specs)
      in
      let rates = Fairshare.compute ~capacities ~demands in
      let loads = Fairshare.link_loads ~capacities ~demands ~rates in
      let eps = 1e-6 in
      Array.to_list demands
      |> List.mapi (fun i d -> (i, d))
      |> List.for_all (fun (i, (d : Fairshare.demand)) ->
             rates.(i) >= d.Fairshare.demand_mb_s -. eps
             || Array.exists
                  (fun l ->
                    loads.(l) >= capacities.(l) -. eps
                    && Array.to_list demands
                       |> List.mapi (fun j d2 -> (j, d2))
                       |> List.for_all (fun (j, (d2 : Fairshare.demand)) ->
                              (not (Array.mem l d2.Fairshare.path))
                              || rates.(j) <= rates.(i) +. eps))
                  d.Fairshare.path))

let prop_probe_positive =
  QCheck.Test.make ~name:"probe rate is positive on any population" ~count:100
    (QCheck.make flow_population_gen)
    (fun specs ->
      let t = topo () in
      let n = Network.create t in
      let flows =
        List.mapi
          (fun i (s, d, dem) ->
            let dst = if d = 4 || d = s then Flow.External else Flow.Node d in
            Flow.make ~id:i ~src:s ~dst ~demand_mb_s:dem)
          specs
      in
      Network.set_flows n flows;
      let bw = Network.available_bandwidth_mb_s n ~src:0 ~dst:3 in
      bw > 0.0)

(* --- per-epoch tables ------------------------------------------------------ *)

(* Two sites, three switches: same-switch, same-site and cross-site
   paths all occur. *)
let site_topo () =
  Topology.create ~node_switch:[| 0; 0; 0; 1; 1; 2; 2; 2 |] ~switches:3
    ~switch_site:[| 0; 0; 1 |] ()

(* The per-call formulas the epoch tables replaced, over the network's
   public state: a path list per call, the queueing term per link, a
   walk of the flow list per NIC reading and a progressive filling per
   probe. *)
module Per_call = struct
  let path topo ~src ~dst =
    Array.of_list
      (List.map (fun (l : Topology.link) -> l.link_id) (Topology.path topo src dst))

  let base_latency_us topo u v =
    if u = v then 0.0
    else begin
      let links = float_of_int (Topology.hops topo u v) in
      let switches =
        if Topology.same_switch topo u v then 1.0
        else if Topology.same_site topo u v then 3.0
        else 4.0
      in
      let wan =
        if Topology.same_site topo u v then 0.0
        else 2.0 *. 900.0 (* the topology's default WAN latency *)
      in
      (links *. 25.0) +. (switches *. 20.0) +. wan
    end

  let queueing_factor rho =
    let rho = Float.min 0.95 (Float.max 0.0 rho) in
    rho /. (1.0 -. rho)

  let latency_us n ~src ~dst =
    let topo = Network.topology n in
    if src = dst then 0.0
    else
      base_latency_us topo src dst
      +. Array.fold_left
           (fun acc link_id ->
             acc +. (25.0 *. queueing_factor (Network.link_utilization n ~link_id)))
           0.0 (path topo ~src ~dst)

  let capacities n =
    let topo = Network.topology n in
    Array.mapi
      (fun link_id c -> c *. Network.capacity_scale n ~link_id)
      (Routing.capacities topo)

  let demands n =
    let topo = Network.topology n in
    Array.of_list
      (List.map
         (fun (f : Flow.t) ->
           { Fairshare.path = Routing.flow_path topo f; demand_mb_s = f.demand_mb_s })
         (Network.flows n))

  let nic_rate_mb_s n ~node =
    let rates = Fairshare.compute ~capacities:(capacities n) ~demands:(demands n) in
    let acc = ref 0.0 in
    List.iteri
      (fun i f -> if Flow.touches_node f node then acc := !acc +. rates.(i))
      (Network.flows n);
    !acc

  let available_bandwidth_mb_s n ~src ~dst =
    if src = dst then infinity
    else
      Fairshare.probe_rate ~capacities:(capacities n) ~demands:(demands n)
        ~probe_path:(path (Network.topology n) ~src ~dst)
end

let bits = List.map Int64.bits_of_float

(* Every reading of a network, twice over so the second pass answers
   from the memo, as raw float bits. *)
let readings n =
  let nodes = Topology.node_count (Network.topology n) in
  let pass () =
    List.concat
      (List.init nodes (fun src ->
           Network.nic_rate_mb_s n ~node:src
           :: List.concat
                (List.init nodes (fun dst ->
                     [
                       Network.latency_us n ~src ~dst;
                       Network.available_bandwidth_mb_s n ~src ~dst;
                     ]))))
  in
  let first = pass () in
  let second = pass () in
  Alcotest.(check (list int64)) "memo answers as the first reading" (bits first) (bits second);
  first

let flows_of_specs specs =
  List.mapi
    (fun i (s, d, dem) ->
      let dst = if d = s || d >= 8 then Flow.External else Flow.Node d in
      Flow.make ~id:i ~src:s ~dst ~demand_mb_s:dem)
    specs

let epoch_gen =
  QCheck.Gen.(
    triple
      (list_size (0 -- 20) (triple (0 -- 7) (0 -- 9) (float_range 0.5 150.0)))
      (0 -- 12) (float_range 0.05 1.0))

(* On random flow sets and a degraded link, the tables answer exactly
   what the per-call formulas compute. *)
let prop_tables_match_per_call =
  QCheck.Test.make ~name:"epoch tables = per-call formulas, bit for bit" ~count:150
    (QCheck.make epoch_gen)
    (fun (specs, link_id, scale) ->
      let t = site_topo () in
      let n = Network.create t in
      Network.set_capacity_scale n ~link_id scale;
      Network.set_flows n (flows_of_specs specs);
      let ok = ref true in
      for src = 0 to 7 do
        if Network.nic_rate_mb_s n ~node:src <> Per_call.nic_rate_mb_s n ~node:src
        then ok := false;
        for dst = 0 to 7 do
          if Routing.p2p_path t ~src ~dst <> Per_call.path t ~src ~dst then ok := false;
          if Topology.base_latency_us t src dst <> Per_call.base_latency_us t src dst
          then ok := false;
          let same a b = Int64.bits_of_float a = Int64.bits_of_float b in
          if not (same (Network.latency_us n ~src ~dst) (Per_call.latency_us n ~src ~dst))
          then ok := false;
          if not
               (same
                  (Network.available_bandwidth_mb_s n ~src ~dst)
                  (Per_call.available_bandwidth_mb_s n ~src ~dst))
          then ok := false
        done
      done;
      !ok)

(* The tables and the probe memo live for one flow epoch: after new
   flows or a capacity change, every reading equals a freshly built
   network's. *)
let test_network_epoch_invalidation () =
  let rng = Rm_stats.Rng.create 11 in
  let random_flows k =
    flows_of_specs
      (List.init k (fun _ ->
           ( Rm_stats.Rng.int rng 8,
             Rm_stats.Rng.int rng 10,
             Rm_stats.Rng.uniform rng ~lo:1.0 ~hi:120.0 )))
  in
  let n = Network.create (site_topo ()) in
  let fresh ~scales flows =
    let m = Network.create (site_topo ()) in
    List.iter (fun (link_id, s) -> Network.set_capacity_scale m ~link_id s) scales;
    Network.set_flows m flows;
    readings m
  in
  let check label ~scales flows =
    let before = readings n in
    fun () ->
      let after = readings n in
      Alcotest.(check (list int64)) label (bits (fresh ~scales flows)) (bits after);
      Alcotest.(check bool) (label ^ " moved a reading") true (before <> after)
  in
  let f1 = random_flows 12 in
  Network.set_flows n f1;
  let f2 = random_flows 9 in
  let after = check "new flows" ~scales:[] f2 in
  Network.set_flows n f2;
  after ();
  let after = check "capacity scale" ~scales:[ (3, 0.2) ] f2 in
  Network.set_capacity_scale n ~link_id:3 0.2;
  after ();
  let after = check "capacity restored, flows changed" ~scales:[] f1 in
  Network.set_capacity_scale n ~link_id:3 1.0;
  Network.set_flows n f1;
  after ()

let suites =
  [
    ( "netsim.flow",
      [
        Alcotest.test_case "validation" `Quick test_flow_validation;
        Alcotest.test_case "touches" `Quick test_flow_touches;
      ] );
    ( "netsim.routing",
      [
        Alcotest.test_case "p2p" `Quick test_routing_p2p;
        Alcotest.test_case "external" `Quick test_routing_external;
        Alcotest.test_case "capacities" `Quick test_routing_capacities;
      ] );
    ( "netsim.fairshare",
      [
        Alcotest.test_case "single demand-capped" `Quick
          test_fairshare_single_flow_demand_capped;
        Alcotest.test_case "single capacity-capped" `Quick
          test_fairshare_single_flow_capacity_capped;
        Alcotest.test_case "equal split" `Quick test_fairshare_equal_split;
        Alcotest.test_case "demand-capped redistributes" `Quick
          test_fairshare_demand_capped_redistributes;
        Alcotest.test_case "multilink bottleneck" `Quick
          test_fairshare_multilink_bottleneck;
        Alcotest.test_case "classic three flows" `Quick
          test_fairshare_classic_three_flows;
        Alcotest.test_case "empty path" `Quick test_fairshare_empty_path;
        Alcotest.test_case "no oversubscription" `Quick
          test_fairshare_no_oversubscription;
        Alcotest.test_case "probe rate" `Quick test_fairshare_probe_rate;
        Alcotest.test_case "validation" `Quick test_fairshare_validation;
        qcheck prop_fairshare_feasible_and_demand_bounded;
        qcheck prop_fairshare_bottleneck_condition;
      ] );
    ( "netsim.network",
      [
        Alcotest.test_case "idle" `Quick test_network_idle;
        Alcotest.test_case "contention" `Quick test_network_contention;
        Alcotest.test_case "latency under load" `Quick
          test_network_latency_increases_with_load;
        Alcotest.test_case "nic rate" `Quick test_network_nic_rate;
        Alcotest.test_case "peak" `Quick test_network_peak;
        Alcotest.test_case "rates with extra" `Quick
          test_network_rates_with_extra_contend;
        Alcotest.test_case "link utilization" `Quick test_network_link_utilization;
        Alcotest.test_case "set_flows keeps or drops the solution" `Quick
          test_network_set_flows_cache;
        qcheck prop_probe_positive;
        Alcotest.test_case "epoch tables dropped with the epoch" `Quick
          test_network_epoch_invalidation;
        qcheck prop_tables_match_per_call;
      ] );
  ]
