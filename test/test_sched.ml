(* Tests for rm_sched plus the world job overlay, the executor's pure
   estimator, the profiler and the hierarchical allocator. *)

module Sim = Rm_engine.Sim
module Rng = Rm_stats.Rng
module Cluster = Rm_cluster.Cluster
module World = Rm_workload.World
module Scenario = Rm_workload.Scenario
module System = Rm_monitor.System
module Snapshot = Rm_monitor.Snapshot
module Allocation = Rm_core.Allocation
module Request = Rm_core.Request
module Weights = Rm_core.Weights
module Broker = Rm_core.Broker
module Hierarchical = Rm_core.Hierarchical
module Compute_load = Rm_core.Compute_load
module Executor = Rm_mpisim.Executor
module Profiler = Rm_mpisim.Profiler
module App = Rm_mpisim.App
module Scheduler = Rm_sched.Scheduler
module Flow = Rm_netsim.Flow

let cluster () = Cluster.homogeneous ~cores:8 ~freq_ghz:3.0 ~nodes_per_switch:[ 4; 4 ] ()

let quiet_world ?(seed = 1) () =
  World.create ~cluster:(cluster ()) ~scenario:Scenario.quiet ~seed

let alloc entries =
  Allocation.make ~policy:"test"
    ~entries:(List.map (fun (node, procs) -> { Allocation.node; procs }) entries)

let ring_app ~ranks ~iterations =
  App.make ~name:"ring" ~ranks ~iterations
    ~phase:(fun ~iter:_ ->
      {
        App.flops_per_rank = (fun _ -> 1e6);
        messages = List.init ranks (fun r -> (r, (r + 1) mod ranks, 1e4));
        allreduce_bytes = 8.0;
      })
    ()

(* --- World job overlay ------------------------------------------------------ *)

let test_world_job_overlay_load () =
  let w = quiet_world () in
  let before = World.cpu_load w ~node:2 in
  let h = World.register_job w ~load:[ (2, 4.0); (3, 4.0) ] ~flows:[] in
  Alcotest.(check (float 1e-9)) "load raised" (before +. 4.0)
    (World.cpu_load w ~node:2);
  Alcotest.(check int) "one job" 1 (World.job_count w);
  World.release_job w h;
  Alcotest.(check (float 1e-9)) "load restored" before (World.cpu_load w ~node:2);
  Alcotest.(check int) "no jobs" 0 (World.job_count w)

let test_world_job_overlay_flows () =
  let w = quiet_world () in
  let net = World.network w in
  let bw_before = Rm_netsim.Network.available_bandwidth_mb_s net ~src:0 ~dst:5 in
  let h =
    World.register_job w ~load:[]
      ~flows:[ (0, Flow.Node 5, 200.0) ]
  in
  let bw_during = Rm_netsim.Network.available_bandwidth_mb_s net ~src:1 ~dst:6 in
  Alcotest.(check bool) "cross traffic visible" true (bw_during < bw_before);
  World.release_job w h;
  let bw_after = Rm_netsim.Network.available_bandwidth_mb_s net ~src:1 ~dst:6 in
  Alcotest.(check bool) "restored" true (bw_after > bw_during)

let test_world_job_release_idempotent () =
  let w = quiet_world () in
  let h = World.register_job w ~load:[ (0, 1.0) ] ~flows:[] in
  World.release_job w h;
  World.release_job w h;
  Alcotest.(check int) "still zero" 0 (World.job_count w)

let test_world_job_survives_advance () =
  let w = quiet_world () in
  ignore (World.register_job w ~load:[ (1, 2.0) ] ~flows:[]);
  World.advance w ~now:600.0;
  Alcotest.(check bool) "overlay persists" true (World.cpu_load w ~node:1 >= 2.0)

(* --- Executor estimator / pair rates ------------------------------------------ *)

let test_estimate_close_to_run () =
  (* On a quiet cluster conditions barely change, so the estimate should
     land near the executed duration. *)
  let w = quiet_world () in
  let allocation = alloc [ (0, 2); (1, 2) ] in
  let app = ring_app ~ranks:4 ~iterations:50 in
  let est = Executor.estimate_duration_s ~world:w ~allocation ~app () in
  let real = (Executor.run ~world:w ~allocation ~app ()).Executor.total_time_s in
  Alcotest.(check bool) "within 50%" true
    (est > 0.5 *. real && est < 2.0 *. real)

let test_estimate_pure () =
  let w = quiet_world () in
  let allocation = alloc [ (0, 2); (1, 2) ] in
  let app = ring_app ~ranks:4 ~iterations:50 in
  let t0 = World.now w in
  ignore (Executor.estimate_duration_s ~world:w ~allocation ~app ());
  Alcotest.(check (float 1e-12)) "world untouched" t0 (World.now w)

let test_pair_rates_structure () =
  let allocation = alloc [ (0, 2); (1, 2) ] in
  let app = ring_app ~ranks:4 ~iterations:50 in
  let rates = Executor.mean_pair_rates_mb_s ~allocation ~app ~duration_s:10.0 in
  Alcotest.(check int) "one inter-node pair" 1 (List.length rates);
  let (u, v), r = List.hd rates in
  Alcotest.(check (pair int int)) "the pair" (0, 1) (u, v);
  (* ring over 2 nodes: ranks 1->2 and 3->0 cross, 1e4 bytes each,
     50 iterations over 10 s = 100 kB/s. *)
  Alcotest.(check (float 1e-6)) "rate" (2.0 *. 1e4 *. 50.0 /. 10.0 /. 1e6) r

(* --- Profiler -------------------------------------------------------------------- *)

let test_profiler_fractions_sum () =
  let w = quiet_world () in
  let allocation = alloc [ (0, 2); (1, 2) ] in
  let p = Profiler.profile ~world:w ~allocation ~app:(ring_app ~ranks:4 ~iterations:50) () in
  Alcotest.(check (float 1e-9)) "fractions sum to 1" 1.0
    (p.Profiler.compute_fraction +. p.Profiler.comm_fraction);
  Alcotest.(check bool) "alpha in range" true
    (p.Profiler.suggested_alpha >= 0.1 && p.Profiler.suggested_alpha <= 0.9)

let test_profiler_orders_apps () =
  let w = quiet_world () in
  let allocation = alloc [ (0, 4); (1, 4) ] in
  let md =
    Profiler.profile ~world:w ~allocation
      ~app:(Rm_apps.Minimd.app ~config:(Rm_apps.Minimd.default_config ~s:16) ~ranks:8)
      ()
  in
  let fe =
    Profiler.profile ~world:w ~allocation
      ~app:(Rm_apps.Minife.app ~config:(Rm_apps.Minife.default_config ~nx:144) ~ranks:8)
      ()
  in
  Alcotest.(check bool) "miniMD more comm-bound" true
    (md.Profiler.comm_fraction > fe.Profiler.comm_fraction);
  Alcotest.(check bool) "so miniMD gets lower alpha" true
    (md.Profiler.suggested_alpha < fe.Profiler.suggested_alpha)

let test_profiler_weights_for () =
  let w = quiet_world () in
  let allocation = alloc [ (0, 2); (1, 2) ] in
  let p = Profiler.profile ~world:w ~allocation ~app:(ring_app ~ranks:4 ~iterations:20) () in
  let weights = Profiler.weights_for p ~base:Weights.paper_default in
  Weights.validate weights;
  Alcotest.(check (float 1e-9)) "w_lt copied" p.Profiler.suggested_w_lt
    weights.Weights.w_lt

(* --- Hierarchical ------------------------------------------------------------------ *)

let truth_snapshot world = Snapshot.of_truth ~time:(World.now world) ~world

let test_hierarchical_groups () =
  let w = quiet_world () in
  World.advance w ~now:600.0;
  let snap = truth_snapshot w in
  let loads = Compute_load.of_snapshot snap ~weights:Weights.paper_default in
  let groups = Hierarchical.groups ~snapshot:snap ~loads ~capacity:(fun _ -> 4) in
  Alcotest.(check int) "two switches" 2 (List.length groups);
  List.iter
    (fun (g : Hierarchical.group) ->
      Alcotest.(check int) "4 members" 4 (List.length g.Hierarchical.members);
      Alcotest.(check int) "capacity" 16 g.Hierarchical.capacity)
    groups

let test_hierarchical_allocates () =
  let w = quiet_world () in
  World.advance w ~now:600.0;
  let snap = truth_snapshot w in
  let request = Request.make ~ppn:4 ~alpha:0.3 ~procs:12 () in
  match Hierarchical.allocate ~snapshot:snap ~weights:Weights.paper_default ~request () with
  | Ok a ->
    Alcotest.(check int) "covers request" 12 (Allocation.total_procs a);
    Alcotest.(check string) "labelled" "hierarchical" a.Allocation.policy
  | Error _ -> Alcotest.fail "hierarchical failed"

let test_hierarchical_prefers_quiet_switch () =
  (* Load every node of switch 0 heavily via the overlay; a 2-node job
     must land on switch 1. *)
  let w = quiet_world () in
  ignore
    (World.register_job w
       ~load:(List.init 4 (fun i -> (i, 7.0)))
       ~flows:[ (0, Flow.Node 1, 90.0); (2, Flow.Node 3, 90.0) ]);
  World.advance w ~now:600.0;
  let snap = truth_snapshot w in
  let request = Request.make ~ppn:4 ~alpha:0.5 ~procs:8 () in
  match Hierarchical.allocate ~snapshot:snap ~weights:Weights.paper_default ~request () with
  | Ok a ->
    List.iter
      (fun n -> Alcotest.(check bool) "on switch 1" true (n >= 4))
      (Allocation.node_ids a)
  | Error _ -> Alcotest.fail "hierarchical failed"

let test_hierarchical_matches_flat_scale () =
  (* Node count covered and no duplicates, on the 60-node reference. *)
  let w =
    World.create ~cluster:(Cluster.iitk_reference ()) ~scenario:Scenario.normal
      ~seed:9
  in
  World.advance w ~now:3600.0;
  let snap = truth_snapshot w in
  let request = Request.make ~ppn:4 ~alpha:0.3 ~procs:32 () in
  match Hierarchical.allocate ~snapshot:snap ~weights:Weights.paper_default ~request () with
  | Ok a ->
    Alcotest.(check int) "32 procs" 32 (Allocation.total_procs a);
    let nodes = Allocation.node_ids a in
    Alcotest.(check int) "distinct nodes" (List.length nodes)
      (List.length (List.sort_uniq compare nodes))
  | Error _ -> Alcotest.fail "hierarchical failed"

(* --- Multi-site allocation (§6 federation) ----------------------------------- *)

let test_federated_allocator_avoids_wan () =
  let cluster =
    Cluster.federated ~cores:8 ~sites:[ ("a", [ 4 ]); ("b", [ 4 ]) ] ()
  in
  let world = World.create ~cluster ~scenario:Scenario.quiet ~seed:8 in
  World.advance world ~now:600.0;
  let snap = Snapshot.of_truth ~time:600.0 ~world in
  let request = Request.make ~ppn:4 ~alpha:0.3 ~procs:12 () in
  match
    Rm_core.Policies.allocate ~policy:Rm_core.Policies.Network_load_aware
      ~snapshot:snap ~weights:Weights.paper_default ~request
      ~rng:(Rm_stats.Rng.create 2) ()
  with
  | Ok a ->
    let topo = Cluster.topology cluster in
    let sites =
      List.sort_uniq compare
        (List.map
           (Rm_cluster.Topology.site_of_node topo)
           (Allocation.node_ids a))
    in
    Alcotest.(check int) "single site" 1 (List.length sites)
  | Error _ -> Alcotest.fail "allocation failed"

let test_federated_executor_pays_wan () =
  let cluster =
    Cluster.federated ~cores:8 ~sites:[ ("a", [ 4 ]); ("b", [ 4 ]) ] ()
  in
  let run entries =
    let world = World.create ~cluster ~scenario:Scenario.quiet ~seed:5 in
    let app = ring_app ~ranks:8 ~iterations:50 in
    (Executor.run ~world ~allocation:(alloc entries) ~app ())
      .Executor.total_time_s
  in
  let same_site = run [ (0, 4); (1, 4) ] in
  let cross_site = run [ (0, 4); (4, 4) ] in
  Alcotest.(check bool) "WAN placement slower" true
    (cross_site > 2.0 *. same_site)

let qcheck = QCheck_alcotest.to_alcotest

let prop_hierarchical_covers =
  QCheck.Test.make ~name:"hierarchical covers any request size" ~count:30
    QCheck.(int_range 1 40)
    (fun procs ->
      let w = quiet_world ~seed:(procs + 100) () in
      World.advance w ~now:600.0;
      let snap = Snapshot.of_truth ~time:600.0 ~world:w in
      match
        Hierarchical.allocate ~snapshot:snap ~weights:Weights.paper_default
          ~request:(Request.make ~ppn:4 ~procs ()) ()
      with
      | Ok a -> Allocation.total_procs a = procs
      | Error _ -> false)

(* --- Scheduler -------------------------------------------------------------------- *)

let sched_setup ?(config = Scheduler.default_config) ?(seed = 3) () =
  let sim = Sim.create () in
  let world = World.create ~cluster:(cluster ()) ~scenario:Scenario.quiet ~seed in
  let rng = Rng.create (seed + 10) in
  let horizon = 100_000.0 in
  let monitor = System.start ~sim ~world ~rng ~until:horizon () in
  let sched = Scheduler.create ~sim ~world ~monitor ~config ~rng ~horizon () in
  (sim, world, sched)

let submit_ring ?priority sched ~name ~at ~procs =
  Scheduler.submit sched ~name ~at ?priority
    ~request:(Request.make ~ppn:4 ~alpha:0.5 ~procs ())
    ~app_of:(fun ~ranks -> ring_app ~ranks ~iterations:100)
    ()

let test_scheduler_runs_one_job () =
  let sim, _world, sched = sched_setup () in
  let id = submit_ring sched ~name:"j1" ~at:1000.0 ~procs:8 in
  Sim.run_until sim 5000.0;
  match Scheduler.state sched id with
  | Scheduler.Finished o ->
    Alcotest.(check int) "procs" 8 o.Scheduler.procs;
    Alcotest.(check bool) "started after submit" true
      (o.Scheduler.started_at >= o.Scheduler.submitted_at);
    Alcotest.(check bool) "finished after start" true
      (o.Scheduler.finished_at > o.Scheduler.started_at)
  | _ -> Alcotest.fail "job did not finish"

let test_scheduler_fcfs_order () =
  let sim, _world, sched = sched_setup () in
  let a = submit_ring sched ~name:"a" ~at:1000.0 ~procs:8 in
  let b = submit_ring sched ~name:"b" ~at:1001.0 ~procs:8 in
  Sim.run_until sim 20_000.0;
  match (Scheduler.state sched a, Scheduler.state sched b) with
  | Scheduler.Finished oa, Scheduler.Finished ob ->
    Alcotest.(check bool) "a started first" true
      (oa.Scheduler.started_at <= ob.Scheduler.started_at)
  | _ -> Alcotest.fail "jobs did not finish"

let test_scheduler_dispatch_gap () =
  let sim, _world, sched = sched_setup () in
  let a = submit_ring sched ~name:"a" ~at:1000.0 ~procs:8 in
  let b = submit_ring sched ~name:"b" ~at:1000.0 ~procs:8 in
  Sim.run_until sim 30_000.0;
  match (Scheduler.state sched a, Scheduler.state sched b) with
  | Scheduler.Finished oa, Scheduler.Finished ob ->
    Alcotest.(check bool) "starts separated by the dispatch gap" true
      (Float.abs (ob.Scheduler.started_at -. oa.Scheduler.started_at)
      >= Scheduler.default_config.Scheduler.min_dispatch_gap_s -. 1e-6)
  | _ -> Alcotest.fail "jobs did not finish"

let test_scheduler_running_overlay_visible () =
  let sim, world, sched = sched_setup () in
  (* A long job: 8 nodes x 4 ranks on a 8-node cluster occupies all. *)
  ignore
    (Scheduler.submit sched ~name:"long" ~at:1000.0
       ~request:(Request.make ~ppn:4 ~alpha:0.5 ~procs:32 ())
       ~app_of:(fun ~ranks -> ring_app ~ranks ~iterations:200_000)
       ());
  Sim.run_until sim 1100.0;
  Alcotest.(check int) "job registered in world" 1 (World.job_count world)

let test_scheduler_wait_threshold_queues () =
  let config =
    {
      Scheduler.default_config with
      Scheduler.broker =
        { Broker.default_config with Broker.wait_threshold = Some 0.01 };
    }
  in
  (* Busy background exceeds the threshold; the job must stay queued. *)
  let sim = Sim.create () in
  let world = World.create ~cluster:(cluster ()) ~scenario:Scenario.busy ~seed:4 in
  let rng = Rng.create 14 in
  let monitor = System.start ~sim ~world ~rng ~until:50_000.0 () in
  let sched = Scheduler.create ~sim ~world ~monitor ~config ~rng ~horizon:50_000.0 () in
  let id = submit_ring sched ~name:"q" ~at:1000.0 ~procs:8 in
  Sim.run_until sim 10_000.0;
  Alcotest.(check bool) "still queued" true (Scheduler.state sched id = Scheduler.Queued)

let test_scheduler_summary () =
  let sim, _world, sched = sched_setup () in
  ignore (submit_ring sched ~name:"a" ~at:1000.0 ~procs:8);
  ignore (submit_ring sched ~name:"b" ~at:1100.0 ~procs:8);
  Sim.run_until sim 30_000.0;
  let s = Scheduler.summary sched in
  Alcotest.(check int) "two finished" 2 s.Scheduler.jobs_finished;
  Alcotest.(check bool) "waits sane" true
    (s.Scheduler.mean_wait_s >= 0.0 && s.Scheduler.max_wait_s >= s.Scheduler.mean_wait_s);
  Alcotest.(check bool) "turnaround >= wait" true
    (s.Scheduler.mean_turnaround_s >= s.Scheduler.mean_wait_s)

let test_scheduler_priority_order () =
  (* A first job consumes the dispatch slot; two more land inside the
     dispatch gap. When the gap expires, the high-priority one must be
     examined (and start) before the earlier-submitted low one. *)
  let sim, _world, sched = sched_setup () in
  ignore (submit_ring sched ~name:"first" ~at:1000.0 ~procs:8);
  let low = submit_ring sched ~name:"low" ~at:1001.0 ~procs:8 in
  let high = submit_ring ~priority:10 sched ~name:"high" ~at:1002.0 ~procs:8 in
  Sim.run_until sim 60_000.0;
  match (Scheduler.state sched low, Scheduler.state sched high) with
  | Scheduler.Finished ol, Scheduler.Finished oh ->
    Alcotest.(check bool) "high starts before low" true
      (oh.Scheduler.started_at < ol.Scheduler.started_at)
  | _ -> Alcotest.fail "jobs did not finish"

let test_scheduler_cancel_queued () =
  let config =
    {
      Scheduler.default_config with
      Scheduler.broker =
        { Rm_core.Broker.default_config with Rm_core.Broker.wait_threshold = Some 0.0001 };
    }
  in
  let sim, _world, sched = sched_setup ~config () in
  let id = submit_ring sched ~name:"stuck" ~at:1000.0 ~procs:8 in
  Sim.run_until sim 2000.0;
  Alcotest.(check bool) "queued" true (Scheduler.state sched id = Scheduler.Queued);
  Scheduler.cancel sched id;
  Alcotest.(check bool) "cancelled" true
    (Scheduler.state sched id = Scheduler.Rejected "cancelled");
  Scheduler.cancel sched id (* idempotent *)

let test_scheduler_cancel_running_releases_overlay () =
  let sim, world, sched = sched_setup () in
  let id =
    Scheduler.submit sched ~name:"long" ~at:1000.0
      ~request:(Request.make ~ppn:4 ~alpha:0.5 ~procs:32 ())
      ~app_of:(fun ~ranks -> ring_app ~ranks ~iterations:200_000)
      ()
  in
  Sim.run_until sim 1100.0;
  Alcotest.(check int) "overlay present" 1 (World.job_count world);
  Scheduler.cancel sched id;
  Alcotest.(check int) "overlay released" 0 (World.job_count world);
  Sim.run_until sim 50_000.0;
  Alcotest.(check bool) "never finishes" true
    (Scheduler.state sched id = Scheduler.Rejected "cancelled");
  Alcotest.(check int) "no outcome recorded" 0
    (List.length (Scheduler.finished sched))

let test_scheduler_exclusive_serializes () =
  (* An 8-node cluster; two 32-proc jobs each need all 8 nodes under
     exclusive mode, so the second cannot overlap the first. *)
  let config = { Scheduler.default_config with Scheduler.exclusive = true } in
  let sim, _world, sched = sched_setup ~config () in
  let submit name at =
    Scheduler.submit sched ~name ~at
      ~request:(Request.make ~ppn:4 ~alpha:0.5 ~procs:32 ())
      ~app_of:(fun ~ranks -> ring_app ~ranks ~iterations:2000)
      ()
  in
  let a = submit "a" 1000.0 in
  let b = submit "b" 1000.0 in
  Sim.run_until sim 80_000.0;
  match (Scheduler.state sched a, Scheduler.state sched b) with
  | Scheduler.Finished oa, Scheduler.Finished ob ->
    let first, second =
      if oa.Scheduler.started_at <= ob.Scheduler.started_at then (oa, ob)
      else (ob, oa)
    in
    Alcotest.(check bool) "no overlap" true
      (second.Scheduler.started_at >= first.Scheduler.finished_at -. 1e-6)
  | _ -> Alcotest.fail "jobs did not finish"

let test_snapshot_restrict () =
  let w = World.create ~cluster:(cluster ()) ~scenario:Scenario.quiet ~seed:2 in
  World.advance w ~now:60.0;
  let snap = Snapshot.of_truth ~time:60.0 ~world:w in
  let restricted = Snapshot.restrict snap ~exclude:[ 0; 5 ] in
  Alcotest.(check int) "six usable" 6
    (List.length (Snapshot.usable restricted));
  Alcotest.(check bool) "0 gone" false (List.mem 0 (Snapshot.usable restricted));
  Alcotest.(check int) "original untouched" 8
    (List.length (Snapshot.usable snap))

let test_scheduler_timeline () =
  let sim, _world, sched = sched_setup () in
  Alcotest.(check string) "empty before finishes" ""
    (Scheduler.render_timeline sched ());
  ignore (submit_ring sched ~name:"alpha" ~at:1000.0 ~procs:8);
  ignore (submit_ring sched ~name:"beta" ~at:1200.0 ~procs:8);
  Sim.run_until sim 30_000.0;
  let timeline = Scheduler.render_timeline sched ~width:40 () in
  Alcotest.(check bool) "mentions both jobs" true
    (let has needle =
       let rec go i =
         i + String.length needle <= String.length timeline
         && (String.sub timeline i (String.length needle) = needle || go (i + 1))
       in
       go 0
     in
     has "alpha" && has "beta");
  Alcotest.(check bool) "has running marks" true
    (String.exists (fun c -> c = '#') timeline)

(* --- Failure detection and requeue -------------------------------------- *)

let test_scheduler_requeues_after_node_death () =
  let config =
    {
      Scheduler.default_config with
      Scheduler.node_check_period_s = Some 5.0;
      backoff_base_s = 20.0;
      restart_overhead_s = 10.0;
    }
  in
  let sim, world, sched = sched_setup ~config () in
  let id =
    Scheduler.submit sched ~name:"victim" ~at:1000.0
      ~request:(Request.make ~ppn:4 ~alpha:0.5 ~procs:8 ())
      ~app_of:(fun ~ranks -> ring_app ~ranks ~iterations:200_000)
      ()
  in
  Sim.run_until sim 1001.0;
  let victim =
    match Scheduler.state sched id with
    | Scheduler.Running { nodes; _ } -> List.hd nodes
    | _ -> Alcotest.fail "job did not start"
  in
  World.set_down world ~node:victim;
  (* The liveness poll (or the completion check, whichever lands first)
     must move the job to Failed within one poll period. *)
  Sim.run_until sim 1010.0;
  (match Scheduler.state sched id with
  | Scheduler.Failed { requeues; reason; _ } ->
    Alcotest.(check int) "first failure" 1 requeues;
    Alcotest.(check bool) "reason names the node" true (reason <> "")
  | _ -> Alcotest.fail "node death not detected");
  Alcotest.(check bool) "listed as failed" true
    (Scheduler.failed sched = [ id ]);
  Alcotest.(check bool) "wasted node-seconds recorded" true
    (Scheduler.wasted_node_seconds sched > 0.0);
  (* Repair the node; after the backoff the job re-enters the queue and
     runs to completion — exactly one Failed -> Queued -> Finished. *)
  World.set_up world ~node:victim;
  Sim.run_until sim 100_000.0;
  (match Scheduler.state sched id with
  | Scheduler.Finished o ->
    Alcotest.(check int) "survived one requeue" 1 o.Scheduler.requeues;
    Alcotest.(check bool) "restarted after the failure" true
      (o.Scheduler.started_at > 1010.0)
  | _ -> Alcotest.fail "job never finished after requeue");
  Alcotest.(check int) "one requeue total" 1 (Scheduler.requeue_count sched);
  (* The requeue is visible in the queue-depth series: depth returns to
     >= 1 at some tick after the failure. *)
  let series = Scheduler.queue_depth_series sched in
  let requeued_visible = ref false in
  Rm_stats.Timeseries.iter series ~f:(fun ~time ~value ->
      if time > 1005.0 && value >= 1.0 then requeued_visible := true);
  Alcotest.(check bool) "requeue visible in queue depth" true !requeued_visible

let test_scheduler_gives_up_after_max_requeues () =
  let config =
    {
      Scheduler.default_config with
      Scheduler.node_check_period_s = Some 5.0;
      max_requeues = 1;
      backoff_base_s = 10.0;
    }
  in
  let sim, world, sched = sched_setup ~config () in
  let id =
    Scheduler.submit sched ~name:"doomed" ~at:1000.0
      ~request:(Request.make ~ppn:4 ~alpha:0.5 ~procs:8 ())
      ~app_of:(fun ~ranks -> ring_app ~ranks ~iterations:200_000)
      ()
  in
  (* Kill whichever nodes the job lands on, every time it starts. *)
  let rec sabotage sim =
    match Scheduler.state sched id with
    | Scheduler.Rejected _ -> ()
    | Scheduler.Running { nodes; _ } ->
      List.iter (fun n -> World.set_down world ~node:n) nodes;
      ignore (Sim.schedule_after sim ~delay:2.0 sabotage)
    | _ -> ignore (Sim.schedule_after sim ~delay:2.0 sabotage)
  in
  ignore (Sim.schedule_after sim ~delay:1001.0 sabotage);
  Sim.run_until sim 100_000.0;
  (match Scheduler.state sched id with
  | Scheduler.Rejected reason ->
    Alcotest.(check bool) "reason mentions giving up" true
      (let needle = "gave up" in
       let h = String.length reason and n = String.length needle in
       let rec go i = i + n <= h && (String.sub reason i n = needle || go (i + 1)) in
       go 0)
  | _ -> Alcotest.fail "job was not rejected");
  Alcotest.(check int) "no outcome recorded" 0
    (List.length (Scheduler.finished sched))

(* Boundary pin: [max_requeues = N] permits exactly N requeues — a job
   that fails N times still finishes on attempt N+1 (the strict [>] in
   the give-up check fires only on failure N+1). A sabotage callback
   kills the job's nodes on its first two runs, then lets it be. *)
let test_scheduler_requeue_boundary () =
  let config =
    {
      Scheduler.default_config with
      Scheduler.node_check_period_s = Some 5.0;
      max_requeues = 2;
      backoff_base_s = 10.0;
    }
  in
  let sim, world, sched = sched_setup ~config () in
  let id =
    Scheduler.submit sched ~name:"boundary" ~at:1000.0
      ~request:(Request.make ~ppn:4 ~alpha:0.5 ~procs:8 ())
      ~app_of:(fun ~ranks -> ring_app ~ranks ~iterations:2000)
      ()
  in
  let kills = ref 0 in
  let rec sabotage sim =
    match Scheduler.state sched id with
    | Scheduler.Running { nodes; _ } when !kills < 2 ->
      incr kills;
      List.iter (fun n -> World.set_down world ~node:n) nodes;
      ignore (Sim.schedule_after sim ~delay:2.0 sabotage)
    | Scheduler.Finished _ | Scheduler.Rejected _ -> ()
    | _ when !kills < 2 -> ignore (Sim.schedule_after sim ~delay:2.0 sabotage)
    | _ -> ()
  in
  ignore (Sim.schedule_after sim ~delay:1001.0 sabotage);
  Sim.run_until sim 200_000.0;
  (match Scheduler.state sched id with
  | Scheduler.Finished o ->
    Alcotest.(check int) "exactly max_requeues requeues" 2
      o.Scheduler.requeues
  | Scheduler.Rejected reason ->
    Alcotest.fail
      ("max_requeues = 2 must permit 2 requeues, but job was rejected: "
      ^ reason)
  | _ -> Alcotest.fail "job neither finished nor rejected");
  Alcotest.(check int) "two requeues total" 2 (Scheduler.requeue_count sched)

let test_scheduler_detection_off_is_historic () =
  (* Default config: no liveness poll, so a node death mid-run does not
     fail the job — the historical (pre-faults) behavior. *)
  let sim, world, sched = sched_setup () in
  let id =
    Scheduler.submit sched ~name:"legacy" ~at:1000.0
      ~request:(Request.make ~ppn:4 ~alpha:0.5 ~procs:8 ())
      ~app_of:(fun ~ranks -> ring_app ~ranks ~iterations:2000)
      ()
  in
  Sim.run_until sim 1001.0;
  (match Scheduler.state sched id with
  | Scheduler.Running { nodes; _ } ->
    List.iter (fun n -> World.set_down world ~node:n) nodes
  | _ -> Alcotest.fail "job did not start");
  Sim.run_until sim 100_000.0;
  (match Scheduler.state sched id with
  | Scheduler.Finished o -> Alcotest.(check int) "no requeues" 0 o.Scheduler.requeues
  | _ -> Alcotest.fail "job should finish when detection is off");
  Alcotest.(check int) "no requeues counted" 0 (Scheduler.requeue_count sched)

let test_scheduler_cancel_failed_job () =
  let config =
    {
      Scheduler.default_config with
      Scheduler.node_check_period_s = Some 5.0;
      backoff_base_s = 500.0;
    }
  in
  let sim, world, sched = sched_setup ~config () in
  let id =
    Scheduler.submit sched ~name:"limbo" ~at:1000.0
      ~request:(Request.make ~ppn:4 ~alpha:0.5 ~procs:8 ())
      ~app_of:(fun ~ranks -> ring_app ~ranks ~iterations:200_000)
      ()
  in
  Sim.run_until sim 1001.0;
  (match Scheduler.state sched id with
  | Scheduler.Running { nodes; _ } -> World.set_down world ~node:(List.hd nodes)
  | _ -> Alcotest.fail "job did not start");
  Sim.run_until sim 1010.0;
  (match Scheduler.state sched id with
  | Scheduler.Failed _ -> ()
  | _ -> Alcotest.fail "not failed");
  Scheduler.cancel sched id;
  Alcotest.(check bool) "cancelled" true
    (Scheduler.state sched id = Scheduler.Rejected "cancelled");
  (* The pending requeue must not resurrect it. *)
  Sim.run_until sim 100_000.0;
  Alcotest.(check bool) "stays cancelled" true
    (Scheduler.state sched id = Scheduler.Rejected "cancelled")

let test_scheduler_submit_past_rejected () =
  let sim, _world, sched = sched_setup () in
  Sim.run_until sim 1000.0;
  Alcotest.check_raises "past"
    (Invalid_argument "Scheduler.submit: time in the past") (fun () ->
      ignore (submit_ring sched ~name:"x" ~at:10.0 ~procs:4))

(* --- Scheduler SLO views ------------------------------------------------ *)

module Slo = Rm_sched.Slo
module Descriptive = Rm_stats.Descriptive
module Timeseries = Rm_stats.Timeseries

(* A histogram estimate can only be off by the width of the bucket the
   rank lands in; check the interpolation against the exact sample
   percentile under that tolerance. *)
let test_slo_percentile_sanity () =
  let samples = Array.init 100 (fun i -> float_of_int i +. 0.5) in
  let bounds = List.init 10 (fun i -> float_of_int ((i + 1) * 10)) in
  let buckets =
    List.map
      (fun ub ->
        ( ub,
          Array.to_list samples
          |> List.filter (fun x -> x <= ub && x > ub -. 10.0)
          |> List.length ))
      bounds
    @ [ (infinity, 0) ]
  in
  List.iter
    (fun p ->
      let exact = Descriptive.percentile samples ~p in
      let estimate = Slo.percentile_of_buckets buckets ~p in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f estimate %.1f within a bucket of exact %.1f" p
           estimate exact)
        true
        (Float.abs (estimate -. exact) <= 10.0))
    [ 50.0; 90.0; 99.0 ]

let test_slo_percentile_edges () =
  (* A rank landing in the overflow bucket clamps to the last finite
     bound — the histogram cannot see past it. *)
  Alcotest.(check (float 1e-9))
    "overflow clamps" 1.0
    (Slo.percentile_of_buckets [ (1.0, 1); (infinity, 9) ] ~p:99.0);
  Alcotest.check_raises "empty histogram"
    (Invalid_argument "Slo.percentile_of_buckets: empty histogram") (fun () ->
      ignore (Slo.percentile_of_buckets [ (1.0, 0); (infinity, 0) ] ~p:50.0));
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Slo.percentile_of_buckets: p out of [0, 100]") (fun () ->
      ignore (Slo.percentile_of_buckets [ (1.0, 1) ] ~p:101.0))

(* Regression: interpolating across a gap of empty buckets. The rank
   crosses in (3, 4] after a (1, 3] stretch with zero counts, so the
   crossing bucket's lower bound is 3.0 (the last non-empty upper
   bound), and the estimate must stay inside [3, 4] — exact values
   pinned, not just containment. *)
let test_slo_percentile_gap_histogram () =
  let buckets = [ (1.0, 10); (2.0, 0); (3.0, 0); (4.0, 5); (infinity, 0) ] in
  (* rank 7.5 inside the first bucket: plain interpolation from 0. *)
  Alcotest.(check (float 1e-9))
    "p50 in first bucket" 0.75
    (Slo.percentile_of_buckets buckets ~p:50.0);
  (* rank 10.5 lands past the empty gap: 3.0 + 1.0 * 0.5/5. *)
  Alcotest.(check (float 1e-9))
    "p70 past the gap" 3.1
    (Slo.percentile_of_buckets buckets ~p:70.0);
  (* rank exactly at the first bucket's cumulative count (p50 of a
     16-sample histogram, rank 8.0 exactly): its upper bound, never a
     value inside the gap. *)
  Alcotest.(check (float 1e-9))
    "rank on the boundary" 1.0
    (Slo.percentile_of_buckets
       [ (1.0, 8); (2.0, 0); (3.0, 0); (4.0, 8); (infinity, 0) ]
       ~p:50.0);
  Alcotest.(check (float 1e-9))
    "p100 is the last bound" 4.0
    (Slo.percentile_of_buckets buckets ~p:100.0);
  (* Sweep: every estimate must sit inside the crossing bucket. *)
  for i = 0 to 1000 do
    let p = 0.1 *. float_of_int i in
    let est = Slo.percentile_of_buckets buckets ~p in
    Alcotest.(check bool)
      (Printf.sprintf "p%.1f=%.4f inside a bucket" p est)
      true
      ((est >= 0.0 && est <= 1.0) || (est >= 3.0 && est <= 4.0))
  done

(* Regression: with telemetry off (or a run where nothing dispatched)
   [report] used to raise Invalid_argument; callers like [rmctl slo]
   crashed. Now it is an [Error] the caller can render as a notice. *)
let test_slo_report_without_wait_data () =
  Rm_telemetry.Runtime.disable ();
  Rm_telemetry.Metrics.reset ();
  let sim, _world, sched = sched_setup () in
  ignore (submit_ring sched ~name:"a" ~at:1000.0 ~procs:8);
  Sim.run_until sim 30_000.0;
  match Slo.report ~sched ~policy:"test" with
  | Error `No_wait_data -> ()
  | Ok _ -> Alcotest.fail "expected Error `No_wait_data with telemetry off"

let test_queue_depth_series_sampled () =
  let sim, _world, sched = sched_setup () in
  ignore (submit_ring sched ~name:"a" ~at:1000.0 ~procs:8);
  ignore (submit_ring sched ~name:"b" ~at:1000.0 ~procs:8);
  Sim.run_until sim 30_000.0;
  let depths = Timeseries.values (Scheduler.queue_depth_series sched) in
  Alcotest.(check bool) "series non-empty" true (Array.length depths > 0);
  (* Two simultaneous submissions with a dispatch gap: the second job
     must have been observed waiting at least once. *)
  Alcotest.(check bool) "depth 1 observed" true
    (Array.exists (fun d -> d >= 1.0) depths);
  Alcotest.(check (float 1e-9)) "drains to zero" 0.0
    depths.(Array.length depths - 1)

let test_slo_report () =
  Rm_telemetry.Runtime.enable ();
  Rm_telemetry.Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Rm_telemetry.Runtime.disable ();
      Rm_telemetry.Metrics.reset ())
    (fun () ->
      let sim, _world, sched = sched_setup () in
      ignore (submit_ring sched ~name:"a" ~at:1000.0 ~procs:8);
      ignore (submit_ring sched ~name:"b" ~at:1000.0 ~procs:8);
      Sim.run_until sim 30_000.0;
      let r =
        match Slo.report ~sched ~policy:"test" with
        | Ok r -> r
        | Error `No_wait_data -> Alcotest.fail "expected wait data"
      in
      Alcotest.(check int) "jobs" 2 r.Slo.jobs_finished;
      Alcotest.(check bool) "percentiles ordered" true
        (r.Slo.wait.Slo.p50 <= r.Slo.wait.Slo.p90
        && r.Slo.wait.Slo.p90 <= r.Slo.wait.Slo.p99);
      Alcotest.(check bool) "saw the queue" true (r.Slo.max_queue_depth >= 1);
      let rendered = Slo.render [ r ] in
      Alcotest.(check bool) "render mentions policy" true
        (let hay = rendered and needle = "test" in
         let h = String.length hay and n = String.length needle in
         let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
         go 0))

(* --- substrate golden ------------------------------------------------------ *)

(* The sched-sim benchmark's batch (perfbench/sched_sim.ml): the
   queue-study mix on the reference world under Scenario.normal, placed
   by the network-load-aware broker, drained in 60 vs slices. Its
   outcome digest (names, nodes, start and finish as %h) and a digest of
   the monitor snapshot at the end are pinned at two seeds, so a change
   to the simulated substrate that is not bit-identical (a different
   random draw, or the same arithmetic in another order) fails here. *)
let golden_run ~seed =
  let sim = Sim.create () in
  let world =
    World.create ~cluster:(Cluster.iitk_reference ()) ~scenario:Scenario.normal
      ~seed
  in
  let rng = Rng.create (seed + 5) in
  let horizon = 100_000.0 in
  let monitor = System.start ~sim ~world ~rng ~until:horizon () in
  let config =
    {
      Scheduler.default_config with
      Scheduler.broker =
        {
          Broker.default_config with
          Broker.policy = Rm_core.Policies.Network_load_aware;
        };
    }
  in
  let sched = Scheduler.create ~sim ~world ~monitor ~config ~rng ~horizon () in
  let warm = System.warm_up_s System.default_cadence in
  let ids =
    List.map
      (fun (name, kind, procs, at) ->
        Scheduler.submit sched ~name ~at
          ~request:(Request.make ~ppn:4 ~alpha:0.35 ~procs ())
          ~app_of:(Rm_experiments.Queue_study.app_of_kind kind) ())
      (Rm_experiments.Queue_study.job_mix ~job_count:10 ~warm)
  in
  let state id =
    try Some (Scheduler.state sched id) with Invalid_argument _ -> None
  in
  let terminal id =
    match state id with
    | Some (Scheduler.Finished _ | Scheduler.Rejected _) -> true
    | None | Some (Scheduler.Queued | Scheduler.Running _ | Scheduler.Failed _) ->
      false
  in
  Sim.run_until sim (warm -. 1.0);
  while (not (List.for_all terminal ids)) && Sim.now sim < horizon do
    Sim.run_until sim (Sim.now sim +. 60.0)
  done;
  let describe id =
    match state id with
    | None -> "unsubmitted"
    | Some (Scheduler.Finished o) ->
      Printf.sprintf "%s:%h:%h:%s" o.Scheduler.name o.Scheduler.started_at
        o.Scheduler.finished_at
        (String.concat "," (List.map string_of_int o.Scheduler.nodes))
    | Some (Scheduler.Rejected why) -> "rejected:" ^ why
    | Some (Scheduler.Queued | Scheduler.Running _ | Scheduler.Failed _) ->
      "unfinished"
  in
  let outcome =
    Digest.to_hex (Digest.string (String.concat "|" (List.map describe ids)))
  in
  let snap = System.snapshot monitor ~time:(Sim.now sim) in
  let b = Buffer.create 65536 in
  let view (v : Rm_stats.Running_means.view) =
    Printf.bprintf b "%h,%h,%h,%h;" v.instant v.m1 v.m5 v.m15
  in
  Printf.bprintf b "%h|%s|" snap.Snapshot.time
    (String.concat "," (List.map string_of_int snap.Snapshot.live));
  Array.iter
    (function
      | None -> Buffer.add_string b "-|"
      | Some (i : Snapshot.node_info) ->
        Printf.bprintf b "%d:%h:" i.users i.written_at;
        List.iter view [ i.load; i.util_pct; i.nic_mb_s; i.mem_avail_gb ])
    snap.Snapshot.nodes;
  List.iter
    (fun m ->
      Rm_stats.Matrix.iteri m ~f:(fun ~row:_ ~col:_ x -> Printf.bprintf b "%h," x))
    [ snap.Snapshot.bw_mb_s; snap.Snapshot.peak_bw_mb_s; snap.Snapshot.lat_us ];
  (outcome, Digest.to_hex (Digest.string (Buffer.contents b)))

(* The outcome digests are the ones the sched-sim workload computes for
   its seeds 1 and 7920. A change meant to move the substrate's draws
   re-pins both columns and says so in CHANGES.md. *)
let test_substrate_golden () =
  List.iter
    (fun (seed, outcome, snapshot) ->
      let o, s = golden_run ~seed in
      Alcotest.(check string) (Printf.sprintf "outcome digest, seed %d" seed) outcome o;
      Alcotest.(check string) (Printf.sprintf "snapshot digest, seed %d" seed) snapshot s)
    [
      (1, "6b0e41d48c84373f4732eb4258e6f1f5", "d88fb9a890cec57db2867f52147856f9");
      (7920, "d30e46b598152f493e4f5ac3949339bb", "4255616df6cf6a511dcecb24d3e90a46");
    ]

let suites =
  [
    ( "sched.golden",
      [ Alcotest.test_case "substrate bit-identity" `Quick test_substrate_golden ] );
    ( "world.jobs",
      [
        Alcotest.test_case "overlay load" `Quick test_world_job_overlay_load;
        Alcotest.test_case "overlay flows" `Quick test_world_job_overlay_flows;
        Alcotest.test_case "release idempotent" `Quick test_world_job_release_idempotent;
        Alcotest.test_case "survives advance" `Quick test_world_job_survives_advance;
      ] );
    ( "mpisim.estimator",
      [
        Alcotest.test_case "close to executed" `Quick test_estimate_close_to_run;
        Alcotest.test_case "pure" `Quick test_estimate_pure;
        Alcotest.test_case "pair rates" `Quick test_pair_rates_structure;
      ] );
    ( "mpisim.profiler",
      [
        Alcotest.test_case "fractions sum" `Quick test_profiler_fractions_sum;
        Alcotest.test_case "orders apps" `Quick test_profiler_orders_apps;
        Alcotest.test_case "weights_for" `Quick test_profiler_weights_for;
      ] );
    ( "core.hierarchical",
      [
        Alcotest.test_case "groups" `Quick test_hierarchical_groups;
        Alcotest.test_case "allocates" `Quick test_hierarchical_allocates;
        Alcotest.test_case "prefers quiet switch" `Quick
          test_hierarchical_prefers_quiet_switch;
        Alcotest.test_case "reference scale" `Quick test_hierarchical_matches_flat_scale;
      ] );
    ( "core.federation",
      [
        Alcotest.test_case "allocator avoids wan" `Quick
          test_federated_allocator_avoids_wan;
        Alcotest.test_case "executor pays wan" `Quick test_federated_executor_pays_wan;
      ] );
    ( "core.hierarchical.props",
      [ qcheck prop_hierarchical_covers ] );
    ( "sched.slo",
      [
        Alcotest.test_case "percentile sanity vs descriptive" `Quick
          test_slo_percentile_sanity;
        Alcotest.test_case "percentile edge cases" `Quick
          test_slo_percentile_edges;
        Alcotest.test_case "queue depth series sampled" `Quick
          test_queue_depth_series_sampled;
        Alcotest.test_case "full report from a run" `Quick test_slo_report;
        Alcotest.test_case "gap-y histogram interpolation" `Quick
          test_slo_percentile_gap_histogram;
        Alcotest.test_case "report without wait data" `Quick
          test_slo_report_without_wait_data;
      ] );
    ( "sched.scheduler",
      [
        Alcotest.test_case "runs one job" `Quick test_scheduler_runs_one_job;
        Alcotest.test_case "fcfs order" `Quick test_scheduler_fcfs_order;
        Alcotest.test_case "dispatch gap" `Quick test_scheduler_dispatch_gap;
        Alcotest.test_case "overlay visible" `Quick
          test_scheduler_running_overlay_visible;
        Alcotest.test_case "wait threshold queues" `Quick
          test_scheduler_wait_threshold_queues;
        Alcotest.test_case "summary" `Quick test_scheduler_summary;
        Alcotest.test_case "priority order" `Quick test_scheduler_priority_order;
        Alcotest.test_case "cancel queued" `Quick test_scheduler_cancel_queued;
        Alcotest.test_case "cancel running" `Quick
          test_scheduler_cancel_running_releases_overlay;
        Alcotest.test_case "exclusive serializes" `Quick
          test_scheduler_exclusive_serializes;
        Alcotest.test_case "snapshot restrict" `Quick test_snapshot_restrict;
        Alcotest.test_case "timeline" `Quick test_scheduler_timeline;
        Alcotest.test_case "requeues after node death" `Quick
          test_scheduler_requeues_after_node_death;
        Alcotest.test_case "gives up after max requeues" `Quick
          test_scheduler_gives_up_after_max_requeues;
        Alcotest.test_case "requeue boundary: N permits exactly N" `Quick
          test_scheduler_requeue_boundary;
        Alcotest.test_case "detection off is historic" `Quick
          test_scheduler_detection_off_is_historic;
        Alcotest.test_case "cancel failed job" `Quick
          test_scheduler_cancel_failed_job;
        Alcotest.test_case "submit past rejected" `Quick
          test_scheduler_submit_past_rejected;
      ] );
  ]
