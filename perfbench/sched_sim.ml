(* sched-sim: the queue-study job mix (miniMD/miniFE, 16-48 procs, one
   arrival per 600 virtual s, no faults) on the 60-node IIT-K reference
   world under Scenario.normal, placed by the network-load-aware broker
   and drained to completion. Arrivals are open-loop in virtual time;
   the run is one single-process batch, advanced in [slice_vs] slices
   of Sim.run_until. *)

module Sim = Rm_engine.Sim
module Rng = Rm_stats.Rng
module Cluster = Rm_cluster.Cluster
module World = Rm_workload.World
module Scenario = Rm_workload.Scenario
module System = Rm_monitor.System
module Broker = Rm_core.Broker
module Request = Rm_core.Request
module Scheduler = Rm_sched.Scheduler
module Queue_study = Rm_experiments.Queue_study
module Span = Pb.Span
module Clock = Pb.Clock

let job_count = 10
let slice_vs = 60.0
let horizon = 100_000.0

type env = { sim : Sim.t; world : World.t; monitor : System.t; sched : Scheduler.t }

let construct ~seed =
  let sim = Sim.create () in
  let world = World.create ~cluster:(Cluster.iitk_reference ()) ~scenario:Scenario.normal ~seed in
  let rng = Rng.create (seed + 5) in
  let monitor = System.start ~sim ~world ~rng ~until:horizon () in
  let config =
    { Scheduler.default_config with
      Scheduler.broker = { Broker.default_config with Broker.policy = Rm_core.Policies.Network_load_aware } }
  in
  { sim; world; monitor; sched = Scheduler.create ~sim ~world ~monitor ~config ~rng ~horizon () }

type subrun = {
  seed : int;
  setup_s : float;
  submit_s : float list;
  slices_s : float list;
  virtual_s : float;  (** simulated after set-up *)
  exec_vs : float list;  (** finished_at - started_at of each finished job *)
  unfinished : int;
  digest : string;  (** of every job's final state *)
  minor_words : float;
  major_collections : int;
  snapshot_s : float list;  (** isolated System.snapshot calls, traced runs only *)
}

(* Set-up is construction, submission and the monitor's warm-up up to
   a second before the first arrival: the work before the scheduler has
   anything to schedule. *)
let subrun ~seed ~spans =
  let gc0 = Gc.quick_stat () in
  let t0 = Clock.now_ns () in
  let env = construct ~seed in
  let warm = System.warm_up_s System.default_cadence in
  let submit_s = ref [] in
  let ids =
    List.map
      (fun (name, kind, procs, at) ->
        let id, t =
          Clock.time (fun () ->
              Span.with_span spans "rm_sched.submit" (fun () ->
                  Scheduler.submit env.sched ~name ~at
                    ~request:(Request.make ~ppn:4 ~alpha:0.35 ~procs ())
                    ~app_of:(Queue_study.app_of_kind kind) ()))
        in
        submit_s := t :: !submit_s;
        id)
      (Queue_study.job_mix ~job_count ~warm)
  in
  Sim.run_until env.sim (warm -. 1.0);
  let setup_s = Clock.since_s t0 in
  (* A job is unknown to the scheduler until its submit time comes. *)
  let state id = try Some (Scheduler.state env.sched id) with Invalid_argument _ -> None in
  let terminal id =
    match state id with
    | None -> false
    | Some s -> (
      match s with
    | Scheduler.Finished _ | Scheduler.Rejected _ -> true
      | Scheduler.Queued | Scheduler.Running _ | Scheduler.Failed _ -> false)
  in
  let slices = ref [] in
  while (not (List.for_all terminal ids)) && Sim.now env.sim < horizon do
    let (), t =
      Clock.time (fun () ->
          Span.with_span spans "rm_engine.run_until" (fun () ->
              Sim.run_until env.sim (Sim.now env.sim +. slice_vs)))
    in
    slices := t :: !slices
  done;
  let gc1 = Gc.quick_stat () in
  let exec_vs =
    List.map (fun (o : Scheduler.outcome) -> o.finished_at -. o.started_at) (Scheduler.finished env.sched)
  in
  let describe id =
    match state id with
    | None -> "unsubmitted"
    | Some (Scheduler.Finished o) ->
      Printf.sprintf "%s:%h:%h:%s" o.name o.started_at o.finished_at
        (String.concat "," (List.map string_of_int o.nodes))
    | Some (Scheduler.Rejected why) -> "rejected:" ^ why
    | Some (Scheduler.Queued | Scheduler.Running _ | Scheduler.Failed _) -> "unfinished"
  in
  let snapshot_s =
    if not (Span.enabled spans) then []
    else
      List.init 20 (fun _ ->
          snd
            (Clock.time (fun () ->
                 Span.with_span spans "rm_monitor.snapshot" (fun () ->
                     ignore (System.snapshot env.monitor ~time:(Sim.now env.sim))))))
  in
  {
    seed;
    setup_s;
    submit_s = !submit_s;
    slices_s = !slices;
    virtual_s = Sim.now env.sim -. (warm -. 1.0);
    exec_vs;
    unfinished = job_count - List.length exec_vs;
    digest = Digest.to_hex (Digest.string (String.concat "|" (List.map describe ids)));
    minor_words = gc1.minor_words -. gc0.minor_words;
    major_collections = gc1.major_collections - gc0.major_collections;
    snapshot_s;
  }

(* Two seeds alternate, and a run makes at least two batches of each,
   so each seed runs twice and its repeat is checked against its first
   outcome. *)
let seeds seed = [| seed; seed + 7919 |]

let run (o : Common.opts) ~spans =
  let t_end = Int64.add (Clock.now_ns ()) (Int64.of_float (o.seconds *. 1e9)) in
  let seeds = seeds o.seed in
  let rec go i acc =
    if i >= 4 && Int64.compare (Clock.now_ns ()) t_end >= 0 then List.rev acc
    else go (i + 1) (subrun ~seed:seeds.(i mod 2) ~spans :: acc)
  in
  let runs = go 0 [] in
  let mismatched =
    List.filter
      (fun r -> List.exists (fun r' -> r'.seed = r.seed && r'.digest <> r.digest) runs)
      runs
  in
  (runs, mismatched <> [])

(* Isolated probes of the substrate on a fresh world of the same seed:
   World.advance over one node-state period, and one available-bandwidth
   query on the flow set that leaves behind. *)
let substrate_probes ~seed ~spans =
  let world = World.create ~cluster:(Cluster.iitk_reference ()) ~scenario:Scenario.normal ~seed in
  let period = System.default_cadence.System.node_state_period in
  let advance =
    List.init 200 (fun i ->
        snd
          (Clock.time (fun () ->
               Span.with_span spans "rm_workload.advance" (fun () ->
                   World.advance world ~now:(period *. float_of_int (i + 1))))))
  in
  let net = World.network world in
  let n = Cluster.node_count (World.cluster world) in
  let rng = Rng.create seed in
  let probe =
    List.init 200 (fun _ ->
        let src = Rng.int rng n in
        let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
        snd
          (Clock.time (fun () ->
               Span.with_span spans "rm_netsim.probe" (fun () ->
                   ignore (Rm_netsim.Network.available_bandwidth_mb_s net ~src ~dst)))))
  in
  (Pb.Pct.mean advance, Pb.Pct.mean probe)
