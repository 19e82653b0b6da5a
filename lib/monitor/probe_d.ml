module Sim = Rm_engine.Sim
module Rng = Rm_stats.Rng
module World = Rm_workload.World
module Network = Rm_netsim.Network
module Telemetry = Rm_telemetry

let m_bw_rounds =
  Telemetry.Metrics.counter "monitor.probe.rounds"
    ~labels:[ ("kind", "bandwidth") ]

let m_lat_rounds =
  Telemetry.Metrics.counter "monitor.probe.rounds" ~labels:[ ("kind", "latency") ]

let live_nodes world store =
  match Store.read_livehosts store with
  | Some (_, nodes) -> nodes
  | None -> World.up_nodes world

(* The tournament schedule is a pure function of the live set, which
   rarely changes between rounds: rebuild it only when the set does. *)
let schedule () =
  let cached = ref ([], []) in
  fun nodes ->
    let prev, rounds = !cached in
    if List.equal Int.equal nodes prev then rounds
    else begin
      let rounds = List.map Array.of_list (Pair_schedule.rounds nodes) in
      cached := (nodes, rounds);
      rounds
    end

let launch_bandwidth ~sim ~world ~store ~rng ~node ?(period = 300.0) ~until () =
  let rng = Rng.split rng in
  let schedule = schedule () in
  let action sim =
    let now = Sim.now sim in
    World.advance world ~now;
    let nodes = live_nodes world store in
    if List.length nodes >= 2 then
      List.iter
        (fun pairs ->
          (* The whole round measures concurrently: every probe pair
             gets its fair share against the others and background. *)
          Telemetry.Metrics.incr m_bw_rounds;
          Telemetry.Trace.instant ~time:now
            ~attrs:[ ("pairs", string_of_int (Array.length pairs)) ]
            "probe.bandwidth.round";
          let rates = Network.rates_with_extra (World.network world) ~extra:pairs in
          Array.iteri
            (fun i (src, dst) ->
              let noise = 1.0 +. Rng.gaussian rng ~mu:0.0 ~sigma:0.03 in
              let mb_s = Float.max 0.1 (rates.(i) *. noise) in
              Store.write_bandwidth store ~time:now ~src ~dst ~mb_s)
            pairs)
        (schedule nodes)
  in
  Daemon.launch ~sim
    ~name:(Printf.sprintf "bandwidth-%d" node)
    ~node ~period
    ~host_up:(fun n -> World.is_up world ~node:n)
    ~until ~action ()

let launch_latency ~sim ~world ~store ~rng ~node ?(period = 60.0) ~until () =
  let rng = Rng.split rng in
  let schedule = schedule () in
  let action sim =
    let now = Sim.now sim in
    World.advance world ~now;
    let nodes = live_nodes world store in
    if List.length nodes >= 2 then
      List.iter
        (fun round ->
          Telemetry.Metrics.incr m_lat_rounds;
          Telemetry.Trace.instant ~time:now
            ~attrs:[ ("pairs", string_of_int (Array.length round)) ]
            "probe.latency.round";
          Array.iter
            (fun (src, dst) ->
              let truth = Network.latency_us (World.network world) ~src ~dst in
              let noise = 1.0 +. Rng.gaussian rng ~mu:0.0 ~sigma:0.05 in
              let us = Float.max 1.0 (truth *. noise) in
              Store.write_latency store ~time:now ~src ~dst ~us)
            round)
        (schedule nodes)
  in
  Daemon.launch ~sim
    ~name:(Printf.sprintf "latency-%d" node)
    ~node ~period
    ~host_up:(fun n -> World.is_up world ~node:n)
    ~until ~action ()
