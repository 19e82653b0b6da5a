module Snapshot = Rm_monitor.Snapshot
module Telemetry = Rm_telemetry

type config = {
  weights : Weights.t;
  policy : Policies.policy;
  wait_threshold : float option;
  max_staleness_s : float;
  starts : Dense_alloc.starts;
}

let default_config =
  {
    weights = Weights.paper_default;
    policy = Policies.Network_load_aware;
    wait_threshold = None;
    max_staleness_s = infinity;
    starts = Dense_alloc.All;
  }

type decision =
  | Allocated of Allocation.t
  | Wait of { mean_load_per_core : float; threshold : float }

(* Reads Compute_load through Model_cache: when a wait threshold is set,
   the subsequent Policies.allocate for the same snapshot reuses the
   model instead of rebuilding it (previously two full Eq. 1 builds per
   decision). *)
let mean_load_per_core snapshot ~weights =
  let loads = Model_cache.loads (Model_cache.get snapshot ~weights) in
  let ids = Compute_load.dense_ids loads in
  let load_1m = Compute_load.dense_load_1m loads in
  let total_load = ref 0.0 and total_cores = ref 0 in
  Array.iteri
    (fun i node ->
      let info =
        match Snapshot.node_info snapshot node with
        | Some i -> i
        | None -> assert false
      in
      total_load := !total_load +. load_1m.(i);
      total_cores := !total_cores + info.Snapshot.static.Rm_cluster.Node.cores)
    ids;
  if !total_cores = 0 then 0.0
  else !total_load /. float_of_int !total_cores

let m_wait = Telemetry.Metrics.counter "core.broker.wait"
let m_allocated = Telemetry.Metrics.counter "core.broker.allocated"
let m_errors = Telemetry.Metrics.counter "core.broker.errors"
let m_stale = Telemetry.Metrics.counter "core.broker.stale_excluded"

(* Nodes whose record is older than the gate allows: dead-daemon hosts,
   store-outage victims — anything the monitor has stopped refreshing. *)
let stale_nodes snapshot ~max_staleness_s =
  if max_staleness_s = infinity then []
  else
    List.filter
      (fun node ->
        match Snapshot.node_info snapshot node with
        | None -> false
        | Some info ->
          snapshot.Snapshot.time -. info.Snapshot.written_at > max_staleness_s)
      (Snapshot.usable snapshot)

let decide ~config ~snapshot ~request ~rng =
  let stale = stale_nodes snapshot ~max_staleness_s:config.max_staleness_s in
  let snapshot =
    if stale = [] then snapshot else Snapshot.restrict snapshot ~exclude:stale
  in
  if stale <> [] && Telemetry.Runtime.is_enabled () then
    Telemetry.Metrics.add m_stale (float_of_int (List.length stale));
  let overloaded =
    match config.wait_threshold with
    | None -> None
    | Some threshold ->
      let m = mean_load_per_core snapshot ~weights:config.weights in
      if m > threshold then Some (m, threshold) else None
  in
  match overloaded with
  | Some (mean_load_per_core, threshold) ->
    if Telemetry.Runtime.is_enabled () then begin
      Telemetry.Metrics.incr m_wait;
      Telemetry.Audit.record
        {
          Telemetry.Audit.time = snapshot.Snapshot.time;
          policy = Policies.name config.policy;
          procs = request.Request.procs;
          ppn = request.Request.ppn;
          alpha = request.Request.alpha;
          beta = request.Request.beta;
          staleness_s = Snapshot.max_staleness snapshot;
          usable = List.length (Snapshot.usable snapshot);
          stale_excluded = stale;
          nodes = [];
          candidates = [];
          chosen = None;
          decision = Telemetry.Audit.Wait { mean_load_per_core; threshold };
        }
    end;
    Ok (Wait { mean_load_per_core; threshold })
  | None ->
    let result =
      Result.map
        (fun allocation -> Allocated allocation)
        (Policies.allocate_audited ~starts:config.starts ~stale_excluded:stale
           ~policy:config.policy ~snapshot ~weights:config.weights ~request
           ~rng ())
    in
    (match result with
    | Ok (Allocated _) -> Telemetry.Metrics.incr m_allocated
    | Ok (Wait _) -> ()
    | Error _ -> Telemetry.Metrics.incr m_errors);
    result

let pp_decision ppf = function
  | Allocated a -> Allocation.pp ppf a
  | Wait { mean_load_per_core; threshold } ->
    Format.fprintf ppf
      "wait (cluster mean load/core %.2f exceeds threshold %.2f)"
      mean_load_per_core threshold
