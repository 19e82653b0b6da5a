module Snapshot = Rm_monitor.Snapshot
module Rng = Rm_stats.Rng
module Telemetry = Rm_telemetry

type policy =
  | Random
  | Sequential
  | Load_aware
  | Network_load_aware
  | Hierarchical

let name = function
  | Random -> "random"
  | Sequential -> "sequential"
  | Load_aware -> "load-aware"
  | Network_load_aware -> "network-load-aware"
  | Hierarchical -> "hierarchical"

let all = [ Random; Sequential; Load_aware; Network_load_aware ]

let of_name = function
  | "random" -> Some Random
  | "sequential" -> Some Sequential
  | "load-aware" -> Some Load_aware
  | "network-load-aware" -> Some Network_load_aware
  | "hierarchical" -> Some Hierarchical
  | _ -> None

(* Above this many usable nodes the network-and-load-aware policy
   runs through the two-level Hierarchical.allocate: the flat sweep's
   O(V²) work per decision stops being interactive around a few
   thousand nodes (BENCH_allocator.json: 0.3 allocs/s flat vs 9.6
   grouped at V=4096), while the grouped path stays O(G²) at the top
   level. *)
let hierarchical_threshold = 2048

(* Fill an ordered node list with processes: each node takes up to its
   capacity; leftover demand is dealt round-robin (matching Algorithm 1's
   overflow behaviour so all policies remain comparable). *)
let fill ~ordered ~capacity ~procs =
  let rec take acc allocated = function
    | [] -> (List.rev acc, allocated)
    | u :: rest ->
      if allocated >= procs then (List.rev acc, allocated)
      else begin
        let cap = max 1 (capacity u) in
        let p = min cap (procs - allocated) in
        take ((u, p) :: acc) (allocated + p) rest
      end
  in
  let assignment, allocated = take [] 0 ordered in
  if allocated >= procs then assignment
  else begin
    let arr = Array.of_list assignment in
    let k = Array.length arr in
    let remaining = ref (procs - allocated) in
    let i = ref 0 in
    while !remaining > 0 do
      let node, p = arr.(!i) in
      arr.(!i) <- (node, p + 1);
      decr remaining;
      i := (!i + 1) mod k
    done;
    Array.to_list arr
  end

let to_allocation ~policy assignment =
  Allocation.make ~policy:(name policy)
    ~entries:(List.map (fun (node, procs) -> { Allocation.node; procs }) assignment)

(* --- instrumentation (active only under Rm_telemetry.Runtime) --------- *)

let m_errors = Telemetry.Metrics.counter "core.allocate.errors"
let m_wall_s = Telemetry.Metrics.histogram "core.allocate.wall_s"
let m_staleness = Telemetry.Metrics.histogram "core.snapshot.staleness_s"
let m_candidates = Telemetry.Metrics.counter "core.candidates.generated"

let audit_candidate ~loads ~net ~request (s : Select.scored) =
  let c = s.Select.candidate in
  {
    Telemetry.Audit.start = c.Candidate.start;
    steps =
      List.map
        (fun (node, procs) ->
          {
            Telemetry.Audit.node;
            procs;
            cost =
              Candidate.addition_cost ~loads ~net ~request
                ~start:c.Candidate.start node;
          })
        c.Candidate.assignment;
    compute_cost = s.Select.compute_cost;
    network_cost = s.Select.network_cost;
    total = s.Select.total;
  }

let record_audit ~snapshot ~policy ~request ~loads ~pc ~scored ~chosen ~result
    ~stale_excluded =
  let module A = Telemetry.Audit in
  let nodes =
    List.map
      (fun node ->
        {
          A.node;
          cl = Compute_load.get loads ~node;
          pc = Effective_procs.get pc ~node;
          load_1m = Compute_load.cpu_load_1m loads ~node;
        })
      (Compute_load.usable loads)
  in
  let decision =
    match result with
    | Ok (a : Allocation.t) ->
      A.Allocated
        (List.map
           (fun (e : Allocation.entry) -> (e.Allocation.node, e.Allocation.procs))
           a.Allocation.entries)
    | Error e -> A.Rejected (Format.asprintf "%a" Allocation.pp_error e)
  in
  A.record
    {
      A.time = snapshot.Snapshot.time;
      policy = name policy;
      procs = request.Request.procs;
      ppn = request.Request.ppn;
      alpha = request.Request.alpha;
      beta = request.Request.beta;
      staleness_s = Snapshot.max_staleness snapshot;
      usable = List.length nodes;
      stale_excluded;
      nodes;
      candidates = scored;
      chosen;
      decision;
    }

let allocate_impl ?(stale_excluded = []) ?starts ~dense ~policy ~snapshot
    ~weights ~request ~rng () =
  let instrumented = Telemetry.Runtime.is_enabled () in
  let wall0 = if instrumented then Unix.gettimeofday () else 0.0 in
  let models = if dense then Some (Model_cache.get snapshot ~weights) else None in
  let loads =
    match models with
    | Some m -> Model_cache.loads m
    | None -> Compute_load.of_snapshot snapshot ~weights
  in
  let usable = Compute_load.usable loads in
  if usable = [] then begin
    Telemetry.Metrics.incr m_errors;
    Error Allocation.No_usable_nodes
  end
  else begin
    let pc =
      match models with
      | Some m -> Model_cache.pc m
      | None -> Effective_procs.of_snapshot snapshot ~loads
    in
    let capacity node =
      Request.capacity_of request ~effective:(Effective_procs.get pc ~node)
    in
    let procs = request.Request.procs in
    let result, scored, chosen =
      match policy with
      | Random ->
        let arr = Array.of_list usable in
        Rng.shuffle rng arr;
        ( Ok (to_allocation ~policy (fill ~ordered:(Array.to_list arr) ~capacity ~procs)),
          [], None )
      | Sequential ->
        (* Random start, then ids in ascending order with wrap-around:
           hostname numbering tracks physical proximity (§1). *)
        let arr = Array.of_list usable in
        let k = Array.length arr in
        let start = Rng.int rng k in
        let ordered = List.init k (fun i -> arr.((start + i) mod k)) in
        (Ok (to_allocation ~policy (fill ~ordered ~capacity ~procs)), [], None)
      | Load_aware ->
        let ordered =
          List.sort
            (fun a b ->
              match
                Float.compare (Compute_load.get loads ~node:a)
                  (Compute_load.get loads ~node:b)
              with
              | 0 -> compare a b
              | c -> c)
            usable
        in
        (Ok (to_allocation ~policy (fill ~ordered ~capacity ~procs)), [], None)
      | Network_load_aware
        when dense && List.length usable > hierarchical_threshold ->
        (* Large clusters route through the two-level allocator, under
           the requesting policy's label (the naive reference never
           reroutes, so equivalence properties compare like with
           like). No flat candidate sweep runs, so there is no scored
           table to audit. *)
        ( Hierarchical.allocate ~dense ?starts ~policy_label:(name policy)
            ~snapshot ~weights ~request (),
          [],
          None )
      | Network_load_aware ->
        let net =
          match models with
          | Some m -> Model_cache.net m
          | None -> Network_load.of_snapshot snapshot ~weights
        in
        let scored =
          if dense then
            Dense_alloc.scored_all ?starts ~loads ~net ~capacity ~request ()
          else
            let candidates =
              Candidate.generate_all ~loads ~net ~capacity ~request
            in
            Select.score ~candidates ~loads ~net ~request
        in
        let best = Select.best_scored scored in
        let audit_scored =
          if instrumented then
            List.map (audit_candidate ~loads ~net ~request) scored
          else []
        in
        ( Ok (to_allocation ~policy best.Select.candidate.Candidate.assignment),
          audit_scored,
          Some best.Select.candidate.Candidate.start )
      | Hierarchical ->
        ( Hierarchical.allocate ~dense ?starts ~snapshot ~weights ~request (),
          [],
          None )
    in
    if instrumented then begin
      Telemetry.Metrics.incr
        (Telemetry.Metrics.counter "core.allocations"
           ~labels:[ ("policy", name policy) ]);
      Telemetry.Metrics.add m_candidates (float_of_int (List.length scored));
      Telemetry.Metrics.observe m_staleness (Snapshot.max_staleness snapshot);
      (match result with
      | Error _ -> Telemetry.Metrics.incr m_errors
      | Ok _ -> ());
      record_audit ~snapshot ~policy ~request ~loads ~pc ~scored ~chosen ~result
        ~stale_excluded;
      Telemetry.Metrics.observe m_wall_s (Unix.gettimeofday () -. wall0)
    end;
    result
  end

let allocate_audited ?starts ~stale_excluded ~policy ~snapshot ~weights
    ~request ~rng () =
  allocate_impl ~stale_excluded ?starts ~dense:true ~policy ~snapshot ~weights
    ~request ~rng ()

let allocate ?starts ~policy ~snapshot ~weights ~request ~rng () =
  allocate_impl ?starts ~dense:true ~policy ~snapshot ~weights ~request ~rng ()

let allocate_naive ~policy ~snapshot ~weights ~request ~rng =
  allocate_impl ~dense:false ~policy ~snapshot ~weights ~request ~rng ()
