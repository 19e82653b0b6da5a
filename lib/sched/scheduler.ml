module Sim = Rm_engine.Sim
module Rng = Rm_stats.Rng
module World = Rm_workload.World
module System = Rm_monitor.System
module Broker = Rm_core.Broker
module Request = Rm_core.Request
module Allocation = Rm_core.Allocation
module Policies = Rm_core.Policies
module Executor = Rm_mpisim.Executor
module Flow = Rm_netsim.Flow
module Malleable = Rm_malleable.Malleable
module Telemetry = Rm_telemetry

let m_submitted = Telemetry.Metrics.counter "sched.jobs_submitted"
let m_dispatched = Telemetry.Metrics.counter "sched.jobs_dispatched"
let m_completed = Telemetry.Metrics.counter "sched.jobs_completed"
let m_cancelled = Telemetry.Metrics.counter "sched.jobs_cancelled"
let m_backfill = Telemetry.Metrics.counter "sched.backfill_hits"
let m_queue_depth = Telemetry.Metrics.gauge "sched.queue_depth"
let m_failed = Telemetry.Metrics.counter "sched.jobs_failed"
let m_requeues = Telemetry.Metrics.counter "sched.requeues"
let m_wasted = Telemetry.Metrics.counter "sched.wasted_node_s"

(* Virtual seconds between submission and dispatch; jobs on a busy
   cluster can queue for hours, hence the wide buckets. *)
let m_wait_s =
  Telemetry.Metrics.histogram "sched.dispatch_wait_s"
    ~buckets:[| 1.0; 10.0; 60.0; 300.0; 1800.0; 7200.0; 43200.0 |]

type config = {
  broker : Broker.config;
  backfill : bool;
  exclusive : bool;
  min_dispatch_gap_s : float;
  retry_s : float;
  node_check_period_s : float option;
  max_requeues : int;
  backoff_base_s : float;
  backoff_cap_s : float;
  checkpoint_interval_s : float option;
  restart_overhead_s : float;
  malleable : Malleable.config option;
}

let default_config =
  {
    broker = Broker.default_config;
    backfill = true;
    exclusive = false;
    min_dispatch_gap_s = 15.0;
    retry_s = 60.0;
    node_check_period_s = None;
    max_requeues = 3;
    backoff_base_s = 30.0;
    backoff_cap_s = 1800.0;
    checkpoint_interval_s = None;
    restart_overhead_s = 0.0;
    malleable = None;
  }

type job_id = int

type outcome = {
  job : job_id;
  name : string;
  submitted_at : float;
  started_at : float;
  finished_at : float;
  nodes : int list;
  procs : int;
  requeues : int;
}

type state =
  | Queued
  | Running of { started_at : float; nodes : int list }
  | Failed of { at : float; reason : string; requeues : int }
  | Finished of outcome
  | Rejected of string

type job = {
  id : job_id;
  name : string;
  priority : int;
  request : Request.t;
  app_of : ranks:int -> Rm_mpisim.App.t;
  submitted_at : float;
  malleable : Malleable.spec option;
  mutable state : state;
  mutable alloc : Allocation.t option;  (** current allocation while running *)
  mutable overlay : World.job_handle option;
      (** set while running, for cancellation *)
  mutable completion : Rm_engine.Event_queue.handle option;
  mutable requeue_event : Rm_engine.Event_queue.handle option;
      (** pending Failed → Queued transition, for cancellation *)
  mutable span : Telemetry.Trace.span option;  (** open while running *)
  mutable requeues : int;
  mutable preserved_s : float;
      (** virtual work saved at checkpoints, deducted from the next run *)
  (* Segment bookkeeping: each (re)configuration starts a new segment.
     The segment IS the job's remaining work at its current width —
     [seg_duration_s] virtual seconds starting at [seg_started_at], of
     which the first [seg_delay_s] are data redistribution (no useful
     progress). Reconfiguration math scales the unfinished tail of the
     current segment to the new width; rigid jobs live in one segment
     per dispatch, bit-identical to the pre-malleability scheduler. *)
  mutable seg_started_at : float;
  mutable seg_duration_s : float;
  mutable seg_delay_s : float;
  mutable reconfigs : int;
}

type t = {
  sim : Sim.t;
  world : World.t;
  monitor : System.t;
  config : config;
  rng : Rng.t;
  horizon : float;
  jobs : (job_id, job) Hashtbl.t;
  mutable queue : job_id list;  (** submission order *)
  mutable finished_log : outcome list;  (** reverse completion order *)
  mutable last_dispatch : float;
  mutable retry_pending : bool;
  mutable next_id : int;
  mutable wasted_node_s : float;
      (** node-seconds of work lost to node failures (since the last
          checkpoint, per failure) *)
  mutable requeues_total : int;  (** Failed → Queued transitions *)
  mutable last_snapshot : Rm_monitor.Snapshot.t option;
      (** previous dispatch tick's shared snapshot — the incremental-NL
          priming base for the next tick *)
  mutable last_negotiation : float;
      (** virtual time of the last evaluated malleability directive —
          throttles reconfiguration points to one per negotiation period *)
  mutable malleable_log : Malleable.record list;  (** reverse order *)
  depth_series : Rm_stats.Timeseries.t;
      (** queue depth sampled at every dispatch tick (virtual time) *)
}

let job t id =
  match Hashtbl.find_opt t.jobs id with
  | Some j -> j
  | None -> invalid_arg "Scheduler: unknown job id"

let state t id = (job t id).state

(* Queued ids in dispatch order: priority descending, then submission
   (queue) order. List.stable_sort keeps FCFS among equal priorities. *)
let queued t =
  List.filter (fun id -> (job t id).state = Queued) t.queue
  |> List.stable_sort
       (fun a b -> compare (job t b).priority (job t a).priority)

let running t =
  List.filter
    (fun id -> match (job t id).state with Running _ -> true | _ -> false)
    t.queue

let finished t = List.rev t.finished_log

let failed t =
  List.filter
    (fun id -> match (job t id).state with Failed _ -> true | _ -> false)
    t.queue

let rejected t =
  List.filter
    (fun id -> match (job t id).state with Rejected _ -> true | _ -> false)
    t.queue

let requeue_count t = t.requeues_total
let wasted_node_seconds t = t.wasted_node_s
let malleable_log t = List.rev t.malleable_log
let reconfig_count t id = (job t id).reconfigs

let sync_queue_gauge t =
  if Telemetry.Runtime.is_enabled () then
    Telemetry.Metrics.set m_queue_depth (float_of_int (List.length (queued t)))

(* The depth series is scheduler state, not telemetry: it is sampled
   unconditionally (one append per dispatch tick) so SLO views work
   without the telemetry switch and cannot perturb the simulation. *)
let sample_queue_depth t ~now =
  Rm_stats.Timeseries.append t.depth_series ~time:now
    ~value:(float_of_int (List.length (queued t)))

let queue_depth_series t = t.depth_series

(* --- malleability helpers ------------------------------------------------ *)

(* Fraction of the current segment's useful work still ahead at [now].
   The redistribution prefix makes no progress, so it is subtracted
   from both the numerator and the denominator. *)
let seg_frac_left j ~now =
  let seg_work = Float.max 1e-9 (j.seg_duration_s -. j.seg_delay_s) in
  let done_s =
    Float.max 0.0
      (Float.min seg_work (now -. j.seg_started_at -. j.seg_delay_s))
  in
  1.0 -. (done_s /. seg_work)

let seg_remaining_s j ~now =
  Float.max 0.0 (j.seg_started_at +. j.seg_duration_s -. now)

let log_directive t ~now (r : Malleable.record) =
  t.malleable_log <- r :: t.malleable_log;
  (match r.Malleable.verdict with
  | Malleable.Accepted -> (
    Telemetry.Metrics.add Malleable.m_redistributed_mb r.Malleable.moved_mb;
    match r.Malleable.kind with
    | Malleable.Grow -> Telemetry.Metrics.incr Malleable.m_grows
    | Malleable.Shrink_admit -> Telemetry.Metrics.incr Malleable.m_shrinks
    | Malleable.Shrink_failure ->
      Telemetry.Metrics.incr Malleable.m_shrinks;
      Telemetry.Metrics.incr Malleable.m_shrink_recoveries)
  | Malleable.Rejected _ -> Telemetry.Metrics.incr Malleable.m_rejected);
  if Telemetry.Runtime.is_enabled () then
    Telemetry.Trace.instant ~time:now
      ~attrs:
        [
          ("job", r.Malleable.job);
          ("kind", Malleable.kind_name r.Malleable.kind);
          ( "verdict",
            match r.Malleable.verdict with
            | Malleable.Accepted -> "accepted"
            | Malleable.Rejected why -> "rejected: " ^ why );
          ("procs", Printf.sprintf "%d->%d" r.Malleable.from_procs r.Malleable.to_procs);
        ]
      "sched.malleable.directive"

(* Forward declaration dance: dispatch and completion reference each
   other through the event queue. *)
let rec try_dispatch t sim =
  let now = Sim.now sim in
  World.advance t.world ~now;
  if now < t.last_dispatch +. t.config.min_dispatch_gap_s then begin
    sample_queue_depth t ~now;
    schedule_retry t ~delay:(t.last_dispatch +. t.config.min_dispatch_gap_s -. now)
  end
  else begin
    let candidates =
      match queued t with
      | [] -> []
      | head :: rest -> if t.config.backfill then head :: rest else [ head ]
    in
    (* One snapshot per tick, shared by every attempt: the monitor state
       cannot change between attempts at the same virtual time, and the
       busy set only changes when an attempt succeeds (which ends the
       tick) — so all queued jobs are scored against the same snapshot
       record and the broker's model cache turns V²-sized model builds
       into one build per tick. *)
    let snapshot =
      match candidates with
      | [] -> None
      | _ :: _ ->
        let s = System.snapshot t.monitor ~time:now in
        (* Patch the previous tick's cached network model forward to
           this capture when only a few monitor rows changed —
           O(touched·V) instead of the O(V²) rebuild the first decision
           of the tick would otherwise pay. The exclusive-mode
           restricted snapshot changes the usable set, so priming the
           unrestricted capture is the useful (and valid) base. *)
        (match t.last_snapshot with
        | Some prev ->
          Rm_core.Model_cache.prime_derived s ~prev
            ~weights:t.config.broker.Broker.weights
        | None -> ());
        t.last_snapshot <- Some s;
        Some
          (if t.config.exclusive then
             Rm_monitor.Snapshot.restrict s ~exclude:(busy_nodes t)
           else s)
    in
    (* A job starting from any position but the head is a backfill hit:
       the queue head could not be placed but a later job could. *)
    let rec attempt_each pos = function
      | [] -> false
      | id :: rest ->
        if attempt t sim snapshot id then begin
          if pos > 0 then Telemetry.Metrics.incr m_backfill;
          true
        end
        else attempt_each (pos + 1) rest
    in
    let started = attempt_each 0 candidates in
    if started then t.last_dispatch <- now;
    sync_queue_gauge t;
    sample_queue_depth t ~now;
    if queued t <> [] then schedule_retry t ~delay:t.config.retry_s;
    (* Malleability negotiation phase: after the dispatch attempts, so a
       shrink directive reacts to the head that just failed to place and
       a grow only fires on a genuinely empty queue. *)
    negotiate t sim ~queue_blocked:((not started) && queued t <> [])
  end

and schedule_retry t ~delay =
  if (not t.retry_pending) && Sim.now t.sim +. delay <= t.horizon then begin
    t.retry_pending <- true;
    ignore
      (Sim.schedule_after t.sim ~delay (fun sim ->
           t.retry_pending <- false;
           try_dispatch t sim))
  end

and busy_nodes t =
  List.concat_map
    (fun id ->
      match (job t id).state with
      | Running { nodes; _ } -> nodes
      | Queued | Failed _ | Finished _ | Rejected _ -> [])
    t.queue

and attempt t sim snapshot id =
  let j = job t id in
  let snapshot =
    match snapshot with
    | Some s -> s
    | None -> System.snapshot t.monitor ~time:(Sim.now sim)
  in
  match
    Broker.decide ~config:t.config.broker ~snapshot ~request:j.request ~rng:t.rng
  with
  | Error _ | Ok (Broker.Wait _) -> false
  | Ok (Broker.Allocated allocation) ->
    start_job t sim j allocation;
    true

and start_job t sim j allocation =
  let now = Sim.now sim in
  let app = j.app_of ~ranks:(Allocation.total_procs allocation) in
  let duration =
    (* Checkpointed work survives a failure; a restarted job pays a
       restart overhead and re-runs only the unpreserved remainder. *)
    Float.max 1e-3
      (Executor.estimate_duration_s ~world:t.world ~allocation ~app ()
      -. j.preserved_s
      +. (if j.requeues > 0 then t.config.restart_overhead_s else 0.0))
  in
  install_overlay t j ~allocation ~app ~duration;
  let nodes = Allocation.node_ids allocation in
  j.state <- Running { started_at = now; nodes };
  j.alloc <- Some allocation;
  j.seg_started_at <- now;
  j.seg_duration_s <- duration;
  j.seg_delay_s <- 0.0;
  if Telemetry.Runtime.is_enabled () then begin
    Telemetry.Metrics.incr m_dispatched;
    Telemetry.Metrics.observe m_wait_s (now -. j.submitted_at);
    j.span <-
      Some
        (Telemetry.Trace.span_begin ~time:now
           ~attrs:
             [
               ("job", j.name);
               ("nodes", string_of_int (List.length nodes));
               ("procs", string_of_int (Allocation.total_procs allocation));
             ]
           "sched.job")
  end;
  arm_completion t sim j ~delay:duration

and install_overlay t j ~allocation ~app ~duration =
  let load =
    List.map
      (fun (e : Allocation.entry) -> (e.Allocation.node, float_of_int e.Allocation.procs))
      allocation.Allocation.entries
  in
  let flows =
    List.map
      (fun ((src, dst), mb_s) -> (src, Flow.Node dst, Float.max 0.01 mb_s))
      (Executor.mean_pair_rates_mb_s ~allocation ~app ~duration_s:duration)
  in
  j.overlay <- Some (World.register_job t.world ~load ~flows)

and arm_completion t sim j ~delay =
  j.completion <-
    Some
      (Sim.schedule_after sim ~delay (fun sim ->
           j.completion <- None;
           let started_at, nodes =
             match j.state with
             | Running { started_at; nodes } -> (started_at, nodes)
             | _ -> (j.submitted_at, [])
           in
           (* With failure detection on, a completion on a node that is
              currently down is a death the poll has not seen yet. *)
           let dead =
             if t.config.node_check_period_s = None then None
             else
               List.find_opt (fun n -> not (World.is_up t.world ~node:n)) nodes
           in
           match dead with
           | Some node ->
             fail_job t sim j ~reason:(Printf.sprintf "node %d died" node)
           | None ->
             (match j.overlay with
             | Some handle ->
               World.release_job t.world handle;
               j.overlay <- None
             | None -> ());
             let finished_at = Sim.now sim in
             let procs =
               match j.alloc with
               | Some a -> Allocation.total_procs a
               | None -> 0
             in
             let outcome =
               {
                 job = j.id;
                 name = j.name;
                 submitted_at = j.submitted_at;
                 started_at;
                 finished_at;
                 nodes;
                 procs;
                 requeues = j.requeues;
               }
             in
             j.state <- Finished outcome;
             t.finished_log <- outcome :: t.finished_log;
             Telemetry.Metrics.incr m_completed;
             (match j.span with
             | Some span ->
               Telemetry.Trace.span_end ~time:finished_at span;
               j.span <- None
             | None -> ());
             try_dispatch t sim))

(* Replace a running job's allocation in place: release the old overlay
   and completion event, install the new allocation with a fresh
   segment whose first [delay] seconds are redistribution, and re-arm
   completion. The job keeps its original [started_at] and its span. *)
and apply_reconfig t sim j ~to_alloc ~delay ~useful_s =
  let now = Sim.now sim in
  (match j.overlay with
  | Some handle ->
    World.release_job t.world handle;
    j.overlay <- None
  | None -> ());
  (match j.completion with
  | Some handle ->
    Sim.cancel t.sim handle;
    j.completion <- None
  | None -> ());
  let app = j.app_of ~ranks:(Allocation.total_procs to_alloc) in
  let duration = delay +. Float.max 1e-3 useful_s in
  install_overlay t j ~allocation:to_alloc ~app ~duration;
  (match j.state with
  | Running { started_at; _ } ->
    j.state <- Running { started_at; nodes = Allocation.node_ids to_alloc }
  | _ -> ());
  j.alloc <- Some to_alloc;
  j.seg_started_at <- now;
  j.seg_duration_s <- duration;
  j.seg_delay_s <- delay;
  j.reconfigs <- j.reconfigs + 1;
  arm_completion t sim j ~delay:duration

(* One reconfiguration point: evaluate at most one directive. Shrinking
   to admit a blocked queue head takes priority over growing into idle
   capacity. The fast exits draw no randomness and take no snapshot, so
   a schedule whose jobs are all rigid (min = pref = max) is
   bit-identical to one scheduled with [malleable = None]. *)
and negotiate t sim ~queue_blocked =
  match t.config.malleable with
  | None -> ()
  | Some mc ->
    let now = Sim.now sim in
    if now >= t.last_negotiation +. mc.Malleable.negotiation_period_s then begin
      let running_malleable =
        List.filter_map
          (fun id ->
            let j = job t id in
            match (j.state, j.alloc, j.malleable) with
            | Running _, Some alloc, Some spec -> Some (j, alloc, spec)
            | _ -> None)
          t.queue
      in
      if queue_blocked && mc.Malleable.shrink_to_admit then
        negotiate_shrink_admit t ~now mc running_malleable
      else if (not queue_blocked) && queued t = [] && mc.Malleable.grow_when_idle
      then negotiate_grow t sim ~now mc running_malleable
    end

(* Expand the first growable job onto nodes it does not already occupy,
   if the width gain beats the redistribution delay by the margin. *)
and negotiate_grow t sim ~now mc running_malleable =
  match
    List.find_opt
      (fun (_, alloc, spec) ->
        Allocation.total_procs alloc < spec.Malleable.max_procs)
      running_malleable
  with
  | None -> ()
  | Some (j, cur, spec) ->
    t.last_negotiation <- now;
    let cur_procs = Allocation.total_procs cur in
    let delta =
      min (spec.Malleable.max_procs - cur_procs) mc.Malleable.max_grow_step
    in
    let request =
      Request.make ?ppn:j.request.Request.ppn ~alpha:j.request.Request.alpha
        ~procs:delta ()
    in
    let snapshot =
      let s = System.snapshot t.monitor ~time:now in
      let exclude =
        Allocation.node_ids cur
        @ (if t.config.exclusive then busy_nodes t else [])
      in
      Rm_monitor.Snapshot.restrict s ~exclude
    in
    let reject why =
      log_directive t ~now
        {
          Malleable.time = now;
          job = j.name;
          kind = Malleable.Grow;
          from_procs = cur_procs;
          to_procs = cur_procs + delta;
          moved_mb = 0.0;
          delay_s = 0.0;
          gain_s = 0.0;
          verdict = Malleable.Rejected why;
        }
    in
    (match
       Policies.allocate ~starts:t.config.broker.Broker.starts
         ~policy:t.config.broker.Broker.policy ~snapshot
         ~weights:t.config.broker.Broker.weights ~request ~rng:t.rng ()
     with
    | Error e -> reject (Format.asprintf "%a" Allocation.pp_error e)
    | Ok extra ->
      let merged = Malleable.merge ~base:cur ~extra in
      let moved = Malleable.moved_procs ~from_:cur ~to_:merged in
      let moved_mb = Malleable.redistribution_mb spec ~moved_procs:moved in
      let delay =
        Executor.redistribution_delay_s ~world:t.world ~from_alloc:cur
          ~to_alloc:merged ~data_mb_per_proc:spec.Malleable.data_mb_per_proc
          ~overhead_s:mc.Malleable.reconfig_overhead_s ()
      in
      let old_app = j.app_of ~ranks:cur_procs in
      let new_app = j.app_of ~ranks:(Allocation.total_procs merged) in
      let e_old =
        Float.max 1e-9
          (Executor.estimate_duration_s ~world:t.world ~allocation:cur
             ~app:old_app ())
      in
      let e_new =
        Executor.estimate_duration_s ~world:t.world ~allocation:merged
          ~app:new_app ()
      in
      let frac_left = seg_frac_left j ~now in
      let seg_work = j.seg_duration_s -. j.seg_delay_s in
      let useful_s = frac_left *. seg_work *. (e_new /. e_old) in
      let gain =
        Malleable.net_gain_s
          ~remaining_old_s:(seg_remaining_s j ~now)
          ~remaining_new_s:useful_s ~delay_s:delay
      in
      let record verdict delay_s =
        {
          Malleable.time = now;
          job = j.name;
          kind = Malleable.Grow;
          from_procs = cur_procs;
          to_procs = Allocation.total_procs merged;
          moved_mb;
          delay_s;
          gain_s = gain;
          verdict;
        }
      in
      if gain > mc.Malleable.min_gain_s then begin
        log_directive t ~now (record Malleable.Accepted delay);
        apply_reconfig t sim j ~to_alloc:merged ~delay ~useful_s
      end
      else
        log_directive t ~now
          (record
             (Malleable.Rejected
                (Printf.sprintf "gain %.1fs below margin %.1fs" gain
                   mc.Malleable.min_gain_s))
             0.0))

(* Shrink the first shrinkable running job toward its floor to free
   capacity for the blocked queue head. The victim's slowdown (its new
   remaining time plus the redistribution delay, minus what it had
   left) is weighed against how long the head has already waited. *)
and negotiate_shrink_admit t ~now mc running_malleable =
  match queued t with
  | [] -> ()
  | head_id :: _ -> (
    let head = job t head_id in
    match
      List.find_opt
        (fun (_, alloc, spec) ->
          Allocation.total_procs alloc > spec.Malleable.min_procs)
        running_malleable
    with
    | None -> ()
    | Some (j, cur, spec) ->
      t.last_negotiation <- now;
      let cur_procs = Allocation.total_procs cur in
      let target =
        max spec.Malleable.min_procs (cur_procs - head.request.Request.procs)
      in
      (match Malleable.shrink_to cur ~target_procs:target with
      | None -> ()
      | Some small ->
        let moved = Malleable.moved_procs ~from_:cur ~to_:small in
        let moved_mb = Malleable.redistribution_mb spec ~moved_procs:moved in
        let delay =
          Executor.redistribution_delay_s ~world:t.world ~from_alloc:cur
            ~to_alloc:small ~data_mb_per_proc:spec.Malleable.data_mb_per_proc
            ~overhead_s:mc.Malleable.reconfig_overhead_s ()
        in
        let old_app = j.app_of ~ranks:cur_procs in
        let new_app = j.app_of ~ranks:target in
        let e_old =
          Float.max 1e-9
            (Executor.estimate_duration_s ~world:t.world ~allocation:cur
               ~app:old_app ())
        in
        let e_new =
          Executor.estimate_duration_s ~world:t.world ~allocation:small
            ~app:new_app ()
        in
        let frac_left = seg_frac_left j ~now in
        let seg_work = j.seg_duration_s -. j.seg_delay_s in
        let useful_s = frac_left *. seg_work *. (e_new /. e_old) in
        let victim_cost =
          delay +. useful_s -. seg_remaining_s j ~now
        in
        let head_wait = now -. head.submitted_at in
        let gain = head_wait -. victim_cost in
        let record verdict delay_s =
          {
            Malleable.time = now;
            job = j.name;
            kind = Malleable.Shrink_admit;
            from_procs = cur_procs;
            to_procs = target;
            moved_mb;
            delay_s;
            gain_s = gain;
            verdict;
          }
        in
        if gain > mc.Malleable.min_gain_s then begin
          log_directive t ~now (record Malleable.Accepted delay);
          apply_reconfig t t.sim j ~to_alloc:small ~delay ~useful_s;
          (* Freed capacity may admit the head. *)
          schedule_retry t ~delay:0.0
        end
        else
          log_directive t ~now
            (record
               (Malleable.Rejected
                  (Printf.sprintf
                     "victim cost %.1fs not justified by head wait %.1fs"
                     victim_cost head_wait))
               0.0)))

(* A running job lost a node. Try a shrink-recovery first (drop the
   dead node's ranks and keep going on the survivors) when malleability
   allows it and the cost model favors it over the requeue path; else
   account the work lost since the last virtual checkpoint and either
   requeue with capped exponential backoff or give up after
   [max_requeues] attempts. *)
and fail_job t sim j ~reason =
  match j.state with
  | Queued | Failed _ | Finished _ | Rejected _ -> ()
  | Running { started_at; nodes } ->
    let now = Sim.now sim in
    let elapsed = Float.max 0.0 (now -. started_at) in
    let preserved_delta =
      match t.config.checkpoint_interval_s with
      | Some c when c > 0.0 -> Float.of_int (int_of_float (elapsed /. c)) *. c
      | _ -> 0.0
    in
    if shrink_recover t sim j ~now ~preserved_delta then ()
    else begin
      (match j.overlay with
      | Some handle ->
        World.release_job t.world handle;
        j.overlay <- None
      | None -> ());
      (match j.completion with
      | Some handle ->
        Sim.cancel t.sim handle;
        j.completion <- None
      | None -> ());
      (match j.span with
      | Some span ->
        Telemetry.Trace.span_end ~time:now span;
        j.span <- None
      | None -> ());
      let lost_node_s =
        (elapsed -. preserved_delta) *. float_of_int (List.length nodes)
      in
      j.preserved_s <- j.preserved_s +. preserved_delta;
      t.wasted_node_s <- t.wasted_node_s +. lost_node_s;
      j.requeues <- j.requeues + 1;
      j.alloc <- None;
      Telemetry.Metrics.incr m_failed;
      if Telemetry.Runtime.is_enabled () then begin
        Telemetry.Metrics.add m_wasted lost_node_s;
        Telemetry.Trace.instant ~time:now
          ~attrs:[ ("job", j.name); ("reason", reason) ]
          "sched.job_failed"
      end;
      (* Boundary semantics: [max_requeues = N] permits exactly N
         requeues. [j.requeues] was just incremented for THIS failure, so
         the strict [>] rejects only on failure N+1 — a job may fail and
         re-enter the queue N times and still finish on attempt N+1
         (test: "requeue boundary" in test_sched.ml; docs/RESILIENCE.md). *)
      if j.requeues > t.config.max_requeues then begin
        j.state <-
          Rejected
            (Printf.sprintf "%s; gave up after %d requeues" reason
               t.config.max_requeues);
        sync_queue_gauge t
      end
      else begin
        j.state <- Failed { at = now; reason; requeues = j.requeues };
        let backoff =
          Float.min t.config.backoff_cap_s
            (t.config.backoff_base_s *. (2.0 ** float_of_int (j.requeues - 1)))
        in
        j.requeue_event <-
          Some
            (Sim.schedule_after t.sim ~delay:backoff (fun sim ->
                 j.requeue_event <- None;
                 j.state <- Queued;
                 t.requeues_total <- t.requeues_total + 1;
                 Telemetry.Metrics.incr m_requeues;
                 sync_queue_gauge t;
                 (* Record the re-entry before the dispatch attempt, so the
                    requeue shows in the depth series even when the job is
                    re-placed within the same tick. *)
                 sample_queue_depth t ~now:(Sim.now sim);
                 try_dispatch t sim))
      end
    end

(* Shrink-recovery at a failure: when the surviving entries still
   satisfy the job's floor, compare finishing on the survivors (pay the
   redistribution, run the remaining work proportionally slower) with
   the requeue path (backoff + restart overhead + redo the
   un-checkpointed work + the remaining work). Scaling is by proc
   count, not a fresh estimate: the dead node's world state is exactly
   what an estimate must not depend on. Only the dead node's elapsed
   work is wasted — the survivors keep theirs — which is where the
   goodput advantage over requeue comes from. *)
and shrink_recover t sim j ~now ~preserved_delta =
  match (t.config.malleable, j.malleable, j.alloc, j.state) with
  | Some mc, Some spec, Some cur, Running { started_at; nodes }
    when mc.Malleable.shrink_on_failure -> (
    let dead = List.filter (fun n -> not (World.is_up t.world ~node:n)) nodes in
    if dead = [] then false
    else
      match Malleable.drop_nodes cur ~dead with
      | None -> false
      | Some surv when Allocation.total_procs surv < spec.Malleable.min_procs
        ->
        log_directive t ~now
          {
            Malleable.time = now;
            job = j.name;
            kind = Malleable.Shrink_failure;
            from_procs = Allocation.total_procs cur;
            to_procs = Allocation.total_procs surv;
            moved_mb = 0.0;
            delay_s = 0.0;
            gain_s = 0.0;
            verdict = Malleable.Rejected "survivors below min_procs";
          };
        false
      | Some surv ->
        let cur_procs = Allocation.total_procs cur in
        let surv_procs = Allocation.total_procs surv in
        let moved = Malleable.moved_procs ~from_:cur ~to_:surv in
        let moved_mb = Malleable.redistribution_mb spec ~moved_procs:moved in
        let delay =
          Executor.redistribution_delay_s ~world:t.world ~from_alloc:cur
            ~to_alloc:surv ~data_mb_per_proc:spec.Malleable.data_mb_per_proc
            ~overhead_s:mc.Malleable.reconfig_overhead_s ()
        in
        let remaining = seg_remaining_s j ~now in
        let useful_s =
          remaining *. float_of_int cur_procs /. float_of_int surv_procs
        in
        let elapsed = Float.max 0.0 (now -. started_at) in
        let backoff_next =
          Float.min t.config.backoff_cap_s
            (t.config.backoff_base_s *. (2.0 ** float_of_int j.requeues))
        in
        let requeue_total =
          backoff_next +. t.config.restart_overhead_s
          +. (elapsed -. preserved_delta)
          +. remaining
        in
        let shrink_total = delay +. useful_s in
        let gain = requeue_total -. shrink_total in
        let record verdict delay_s =
          {
            Malleable.time = now;
            job = j.name;
            kind = Malleable.Shrink_failure;
            from_procs = cur_procs;
            to_procs = surv_procs;
            moved_mb;
            delay_s;
            gain_s = gain;
            verdict;
          }
        in
        if gain > 0.0 then begin
          (* Only the dead nodes' un-checkpointed work is lost; the
             survivors carry theirs across the reconfiguration. *)
          let lost_node_s =
            (elapsed -. preserved_delta) *. float_of_int (List.length dead)
          in
          t.wasted_node_s <- t.wasted_node_s +. lost_node_s;
          if Telemetry.Runtime.is_enabled () then
            Telemetry.Metrics.add m_wasted lost_node_s;
          log_directive t ~now (record Malleable.Accepted delay);
          apply_reconfig t sim j ~to_alloc:surv ~delay ~useful_s;
          true
        end
        else begin
          log_directive t ~now
            (record (Malleable.Rejected "requeue path is cheaper") 0.0);
          false
        end)
  | _ -> false

(* Poll allocated-node liveness for every running job — reads only
   [World.is_up], never advances the world or draws randomness, so a
   run without faults is bit-identical with or without the check. *)
and check_failures t sim =
  List.iter
    (fun id ->
      let j = job t id in
      match j.state with
      | Running { nodes; _ } -> (
        match
          List.find_opt (fun n -> not (World.is_up t.world ~node:n)) nodes
        with
        | Some node ->
          fail_job t sim j ~reason:(Printf.sprintf "node %d died" node)
        | None -> ())
      | Queued | Failed _ | Finished _ | Rejected _ -> ())
    t.queue

let create ~sim ~world ~monitor ?(config = default_config) ~rng ~horizon () =
  let t =
    {
      sim;
      world;
      monitor;
      config;
      rng = Rng.split rng;
      horizon;
      jobs = Hashtbl.create 32;
      queue = [];
      finished_log = [];
      last_dispatch = neg_infinity;
      retry_pending = false;
      next_id = 0;
      wasted_node_s = 0.0;
      requeues_total = 0;
      last_snapshot = None;
      last_negotiation = neg_infinity;
      malleable_log = [];
      depth_series = Rm_stats.Timeseries.create ~name:"sched.queue_depth" ();
    }
  in
  (match config.node_check_period_s with
  | Some period ->
    Sim.every sim ~period ~until:horizon (fun sim -> check_failures t sim)
  | None -> ());
  (* Periodic reconfiguration points, so grow directives fire even when
     the queue is empty and no dispatch tick is pending. The callback
     never advances the world and fast-exits without touching the rng
     when no running job can move, so it cannot perturb a rigid run. *)
  (match config.malleable with
  | Some mc ->
    Sim.every sim ~period:mc.Malleable.negotiation_period_s ~until:horizon
      (fun sim -> negotiate t sim ~queue_blocked:(queued t <> []))
  | None -> ());
  t

let submit t ~name ~at ?(priority = 0) ?malleable ~request ~app_of () =
  if at < Sim.now t.sim then invalid_arg "Scheduler.submit: time in the past";
  (match malleable with
  | Some (s : Malleable.spec) ->
    if
      s.Malleable.min_procs > request.Request.procs
      || s.Malleable.max_procs < request.Request.procs
    then
      invalid_arg
        "Scheduler.submit: preferred procs outside the malleable band"
  | None -> ());
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  ignore
    (Sim.schedule_at t.sim ~time:at (fun sim ->
         let j =
           { id; name; priority; request; app_of; submitted_at = at;
             malleable; state = Queued; alloc = None; overlay = None;
             completion = None; requeue_event = None; span = None;
             requeues = 0; preserved_s = 0.0; seg_started_at = 0.0;
             seg_duration_s = 0.0; seg_delay_s = 0.0; reconfigs = 0 }
         in
         Hashtbl.replace t.jobs id j;
         t.queue <- t.queue @ [ id ];
         Telemetry.Metrics.incr m_submitted;
         try_dispatch t sim));
  id

let cancel t id =
  let j = job t id in
  match j.state with
  | Finished _ | Rejected _ -> ()
  | Queued ->
    j.state <- Rejected "cancelled";
    Telemetry.Metrics.incr m_cancelled;
    sync_queue_gauge t
  | Failed _ ->
    (match j.requeue_event with
    | Some handle ->
      Sim.cancel t.sim handle;
      j.requeue_event <- None
    | None -> ());
    j.state <- Rejected "cancelled";
    Telemetry.Metrics.incr m_cancelled
  | Running _ ->
    (match j.overlay with
    | Some handle ->
      World.release_job t.world handle;
      j.overlay <- None
    | None -> ());
    (match j.completion with
    | Some handle ->
      Sim.cancel t.sim handle;
      j.completion <- None
    | None -> ());
    (match j.span with
    | Some span ->
      Telemetry.Trace.span_end ~time:(Sim.now t.sim) span;
      j.span <- None
    | None -> ());
    j.state <- Rejected "cancelled";
    j.alloc <- None;
    Telemetry.Metrics.incr m_cancelled;
    (* Freed nodes may unblock the queue. *)
    schedule_retry t ~delay:0.0

type summary = {
  jobs_finished : int;
  mean_wait_s : float;
  max_wait_s : float;
  mean_turnaround_s : float;
}

let render_timeline t ?(width = 60) () =
  match finished t with
  | [] -> ""
  | outcomes ->
    let t0 =
      List.fold_left (fun acc (o : outcome) -> Float.min acc o.submitted_at) infinity outcomes
    in
    let t1 =
      List.fold_left (fun acc (o : outcome) -> Float.max acc o.finished_at) 0.0 outcomes
    in
    let span = Float.max 1e-9 (t1 -. t0) in
    let col time =
      int_of_float (float_of_int (width - 1) *. (time -. t0) /. span)
    in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf "timeline: %.0fs .. %.0fs ('.' queued, '#' running)
" t0 t1);
    List.iter
      (fun (o : outcome) ->
        let row = Bytes.make width ' ' in
        for c = col o.submitted_at to col o.started_at - 1 do
          Bytes.set row c '.'
        done;
        for c = col o.started_at to col o.finished_at do
          Bytes.set row c '#'
        done;
        Buffer.add_string buf
          (Printf.sprintf "%-12s|%s|
" o.name (Bytes.to_string row)))
      outcomes;
    Buffer.contents buf

let summary t =
  let outcomes = finished t in
  if outcomes = [] then invalid_arg "Scheduler.summary: nothing finished";
  let waits = List.map (fun o -> o.started_at -. o.submitted_at) outcomes in
  let turnarounds = List.map (fun o -> o.finished_at -. o.submitted_at) outcomes in
  {
    jobs_finished = List.length outcomes;
    mean_wait_s = Rm_stats.Descriptive.mean_list waits;
    max_wait_s = List.fold_left Float.max 0.0 waits;
    mean_turnaround_s = Rm_stats.Descriptive.mean_list turnarounds;
  }
