module Sim = Rm_engine.Sim
module Rng = Rm_stats.Rng
module Cluster = Rm_cluster.Cluster
module World = Rm_workload.World
module Scenario = Rm_workload.Scenario
module System = Rm_monitor.System
module Snapshot = Rm_monitor.Snapshot
module Policies = Rm_core.Policies
module Broker = Rm_core.Broker
module Request = Rm_core.Request
module Weights = Rm_core.Weights
module Scheduler = Rm_sched.Scheduler
module Slo = Rm_sched.Slo
module Malleable = Rm_malleable.Malleable
module Injector = Rm_faults.Injector
module Json = Rm_telemetry.Json
module Metrics = Rm_telemetry.Metrics

(* --- spec ------------------------------------------------------------- *)

type family =
  | Background of Scenario.t
  | Replay of { hours : float; period_s : float }
  | Chaos of Chaos_study.intensity
  | Malleable_family of Scenario.t

let family_names =
  [
    "uniform"; "hotspot"; "diurnal"; "trace-replay"; "chaos-off";
    "chaos-light"; "chaos-heavy"; "malleable";
  ]

let family_of_name = function
  | "uniform" -> Some (Background Scenario.normal)
  | "hotspot" -> Some (Background (Scenario.hotspot ~switch:0))
  | "diurnal" -> Some (Background Scenario.nightly)
  | "trace-replay" -> Some (Replay { hours = 2.0; period_s = 60.0 })
  | "chaos-off" -> Some (Chaos Chaos_study.Off)
  | "chaos-light" -> Some (Chaos Chaos_study.Light)
  | "chaos-heavy" -> Some (Chaos Chaos_study.Heavy)
  | "malleable" -> Some (Malleable_family Scenario.normal)
  | other -> Option.map (fun sc -> Background sc) (Scenario.by_name other)

type engine = Naive | Dense | Hier

let engine_name = function
  | Naive -> "naive"
  | Dense -> "dense"
  | Hier -> "hierarchical"

let engine_of_name = function
  | "naive" -> Some Naive
  | "dense" -> Some Dense
  | "hierarchical" -> Some Hier
  | _ -> None

type budget = { alloc_budget_s : float; job_count : int }
type rule_action = Skip of string | Budget of budget

type rule = {
  on_scenario : string option;
  on_policy : string option;
  on_engine : string option;
  action : rule_action;
}

type spec = {
  spec_name : string;
  seed : int;
  scenarios : string list;
  policies : string list;
  engines : string list;
  budget : budget;
  rules : rule list;
}

let quick_spec =
  {
    spec_name = "quick";
    seed = 83;
    scenarios = [ "uniform"; "hotspot"; "chaos-heavy"; "malleable" ];
    policies = [ "random"; "load-aware"; "network-load-aware" ];
    engines = [ "naive"; "dense"; "hierarchical" ];
    budget = { alloc_budget_s = 0.05; job_count = 3 };
    rules = [];
  }

let full_spec =
  {
    spec_name = "full";
    seed = 83;
    scenarios =
      [
        "uniform"; "hotspot"; "diurnal"; "trace-replay"; "chaos-heavy";
        "malleable";
      ];
    policies = [ "random"; "load-aware"; "network-load-aware" ];
    engines = [ "naive"; "dense"; "hierarchical" ];
    budget = { alloc_budget_s = 0.5; job_count = 10 };
    rules = [];
  }

let validate_budget b =
  if b.job_count < 1 then Error "budget job_count must be >= 1"
  else if not (b.alloc_budget_s >= 0.0) then
    Error "budget alloc_budget_s must be >= 0"
  else Ok ()

let validate_spec spec =
  let ( let* ) = Result.bind in
  let check what resolve names =
    if names = [] then Error (Printf.sprintf "spec has no %ss" what)
    else
      List.fold_left
        (fun acc n ->
          let* () = acc in
          match resolve n with
          | Some _ -> Ok ()
          | None -> Error (Printf.sprintf "unknown %s %S" what n))
        (Ok ()) names
  in
  let* () = check "scenario" family_of_name spec.scenarios in
  let* () = check "policy" Policies.of_name spec.policies in
  let* () = check "engine" engine_of_name spec.engines in
  let* () = validate_budget spec.budget in
  List.fold_left
    (fun acc r ->
      let* () = acc in
      match r.action with Budget b -> validate_budget b | Skip _ -> Ok ())
    (Ok ()) spec.rules

(* --- deterministic seeding -------------------------------------------- *)

let fnv1a s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x01000193 land 0xFFFFFFFF)
    s;
  !h

let cell_seed ~seed ~scenario ~policy ~engine =
  (seed + fnv1a (scenario ^ "|" ^ policy ^ "|" ^ engine)) land 0x3FFFFFFF

(* --- results ---------------------------------------------------------- *)

type slo_summary = {
  wait_p50 : float;
  wait_p90 : float;
  wait_p99 : float;
  mean_wait_s : float;
  max_queue_depth : int;
  mean_queue_depth : float;
}

type sched_result = {
  jobs_finished : int;
  rejected : int;
  requeues : int;
  faults_injected : int;
  makespan_s : float;
  goodput : float;
  mean_turnaround_s : float;
  slo : slo_summary option;
  counters : (string * float) list;
}

type status = Ran | Skipped of string

type cell = {
  scenario : string;
  policy : string;
  engine : string;
  status : status;
  allocs_per_sec : float option;
  reps : int;
  sched : sched_result option;
}

type artifact = { schema : string; spec : spec; cores : int; cells : cell list }

let schema_version = "rm-matrix/v1"

let selected_counters =
  [
    "core.allocations"; "core.broker.allocated"; "core.broker.wait";
    "core.broker.stale_excluded"; "sched.jobs_dispatched"; "sched.requeues";
    "sched.backfill_hits"; "sched.malleable.grows"; "sched.malleable.shrinks";
    "sched.malleable.rejected"; "sched.malleable.shrink_recoveries";
    "faults.injected"; "faults.recovered"; "core.model_cache.hits";
    "core.model_cache.misses";
  ]

(* --- rule application ------------------------------------------------- *)

let rule_matches r ~scenario ~policy ~engine =
  let ok sel v = match sel with None -> true | Some x -> x = v in
  ok r.on_scenario scenario && ok r.on_policy policy && ok r.on_engine engine

let skip_of spec ~scenario ~policy ~engine =
  List.find_map
    (fun r ->
      if rule_matches r ~scenario ~policy ~engine then
        match r.action with Skip reason -> Some reason | Budget _ -> None
      else None)
    spec.rules

let budget_of spec ~scenario ~policy ~engine =
  Option.value ~default:spec.budget
    (List.find_map
       (fun r ->
         if rule_matches r ~scenario ~policy ~engine then
           match r.action with Budget b -> Some b | Skip _ -> None
         else None)
       spec.rules)

(* The scheduler run is shared across the engine axis, so its job_count
   must not depend on the engine: only engine-agnostic budget rules
   apply. *)
let sched_budget_of spec ~scenario ~policy =
  Option.value ~default:spec.budget
    (List.find_map
       (fun r ->
         if r.on_engine = None && rule_matches r ~scenario ~policy ~engine:""
         then match r.action with Budget b -> Some b | Skip _ -> None
         else None)
       spec.rules)

(* --- scheduler-level measurement -------------------------------------- *)

let warm_s () = System.warm_up_s System.default_cadence

let world_of_family ~family ~cluster ~seed =
  match family with
  | Background sc | Malleable_family sc -> World.create ~cluster ~scenario:sc ~seed
  | Chaos _ -> World.create ~cluster ~scenario:Scenario.normal ~seed
  | Replay { hours; period_s } ->
    let source = World.create ~cluster ~scenario:Scenario.normal ~seed in
    let traces = World.record_traces source ~hours ~period_s in
    World.create_replay ~cluster ~traces ~seed ()

let counter_sum views name =
  List.fold_left
    (fun acc (v : Metrics.view) ->
      if v.Metrics.name = name then acc +. v.Metrics.value else acc)
    0.0 views

(* One (scenario, policy) scheduler run: the Queue_study job mix through
   the batch scheduler on the family's world, chaos plans injected when
   the family asks for them. Runs inside its own telemetry window
   (enabled + reset) so the captured counters belong to this cell
   alone. *)
let run_sched_cell ~family ~policy ~seed ~job_count =
  Rm_telemetry.Runtime.with_enabled @@ fun () ->
  Metrics.reset ();
  Rm_core.Model_cache.clear ();
  let cluster = Cluster.iitk_reference () in
  let horizon = 100_000.0 in
  let sim = Sim.create () in
  let world = world_of_family ~family ~cluster ~seed in
  let rng = Rng.create (seed + 5) in
  let monitor = System.start ~sim ~world ~rng ~until:horizon () in
  let warm = warm_s () in
  let config =
    match family with
    | Chaos _ -> Chaos_study.resilient_config policy
    | Background _ | Replay _ ->
      {
        Scheduler.default_config with
        Scheduler.broker = { Broker.default_config with Broker.policy };
      }
    | Malleable_family _ ->
      {
        Scheduler.default_config with
        Scheduler.broker = { Broker.default_config with Broker.policy };
        malleable = Some Malleable.default_config;
      }
  in
  let sched = Scheduler.create ~sim ~world ~monitor ~config ~rng ~horizon () in
  let injector =
    match family with
    | Chaos intensity ->
      Option.map
        (fun plan ->
          Injector.inject ~sim ~world ~system:monitor ~until:horizon plan)
        (Chaos_study.plan_of_intensity ~cluster ~first_after_s:warm ~seed
           intensity)
    | Background _ | Replay _ | Malleable_family _ -> None
  in
  let malleable_spec procs =
    match family with
    | Malleable_family _ ->
      Some
        (Malleable.spec
           ~min_procs:(max 4 (procs / 2))
           ~max_procs:(procs * 2) ())
    | Background _ | Replay _ | Chaos _ -> None
  in
  let ids =
    List.map
      (fun (name, kind, procs, at) ->
        Scheduler.submit sched ~name ~at
          ?malleable:(malleable_spec procs)
          ~request:(Request.make ~ppn:4 ~alpha:0.35 ~procs ())
          ~app_of:(Queue_study.app_of_kind kind) ())
      (Queue_study.job_mix ~job_count ~warm)
  in
  let terminal id =
    match Scheduler.state sched id with
    | exception Invalid_argument _ -> false
    | Scheduler.Finished _ | Scheduler.Rejected _ -> true
    | Scheduler.Queued | Scheduler.Running _ | Scheduler.Failed _ -> false
  in
  let rec drain () =
    if (not (List.for_all terminal ids)) && Sim.now sim < horizon then begin
      Sim.run_until sim (Sim.now sim +. 600.0);
      drain ()
    end
  in
  drain ();
  let outcomes = Scheduler.finished sched in
  let useful_node_s =
    List.fold_left
      (fun acc (o : Scheduler.outcome) ->
        acc
        +. (o.Scheduler.finished_at -. o.Scheduler.started_at)
           *. float_of_int (List.length o.Scheduler.nodes))
      0.0 outcomes
  in
  let wasted = Scheduler.wasted_node_seconds sched in
  let slo =
    match Slo.report ~sched ~policy:(Policies.name policy) with
    | Ok (r : Slo.report) ->
      Some
        {
          wait_p50 = r.Slo.wait.Slo.p50;
          wait_p90 = r.Slo.wait.Slo.p90;
          wait_p99 = r.Slo.wait.Slo.p99;
          mean_wait_s = r.Slo.mean_wait_s;
          max_queue_depth = r.Slo.max_queue_depth;
          mean_queue_depth = r.Slo.mean_queue_depth;
        }
    | Error `No_wait_data -> None
  in
  let views = Metrics.snapshot () in
  {
    jobs_finished = List.length outcomes;
    rejected = List.length (Scheduler.rejected sched);
    requeues = Scheduler.requeue_count sched;
    faults_injected =
      (match injector with Some i -> Injector.injected i | None -> 0);
    makespan_s =
      (if outcomes = [] then 0.0
       else
         List.fold_left
           (fun acc (o : Scheduler.outcome) ->
             Float.max acc o.Scheduler.finished_at)
           0.0 outcomes
         -. warm);
    goodput =
      (if useful_node_s +. wasted <= 0.0 then 1.0
       else useful_node_s /. (useful_node_s +. wasted));
    mean_turnaround_s =
      (if outcomes = [] then 0.0
       else
         List.fold_left
           (fun acc (o : Scheduler.outcome) ->
             acc +. (o.Scheduler.finished_at -. o.Scheduler.submitted_at))
           0.0 outcomes
         /. float_of_int (List.length outcomes));
    slo;
    counters = List.map (fun n -> (n, counter_sum views n)) selected_counters;
  }

(* --- allocator-throughput measurement --------------------------------- *)

(* An oracle snapshot of the family's world one virtual hour in — the
   allocator input every engine of the scenario's row scores against. *)
let snapshot_of_family ~family ~seed =
  let cluster = Cluster.iitk_reference () in
  let world = world_of_family ~family ~cluster ~seed in
  let time = 3600.0 in
  World.advance world ~now:time;
  Snapshot.of_truth ~time ~world

let allocate_with ~engine ~policy ~snapshot ~weights ~request ~rng =
  match engine with
  | Naive -> Policies.allocate_naive ~policy ~snapshot ~weights ~request ~rng
  | Dense -> Policies.allocate ~policy ~snapshot ~weights ~request ~rng ()
  | Hier ->
    (* The grouped allocator only replaces the network-load-aware
       sweep; the other policies run as under [Dense]. *)
    let policy =
      if policy = Policies.Network_load_aware then Policies.Hierarchical
      else policy
    in
    Policies.allocate ~policy ~snapshot ~weights ~request ~rng ()

let rep_cap = 200_000

let measure_rate ~snapshot ~policy ~engine ~budget_s =
  if budget_s <= 0.0 then (None, 0)
  else begin
    Rm_core.Model_cache.clear ();
    let rng = Rng.create 42 in
    let weights = Weights.paper_default in
    let request = Request.make ~ppn:4 ~alpha:0.5 ~procs:16 () in
    let call () =
      ignore (allocate_with ~engine ~policy ~snapshot ~weights ~request ~rng)
    in
    (* one warm-up call primes the model cache so the loop measures the
       steady state, like bench scale's warm rows *)
    call ();
    let t0 = Unix.gettimeofday () in
    let rec loop reps =
      call ();
      let reps = reps + 1 in
      if Unix.gettimeofday () -. t0 >= budget_s || reps >= rep_cap then reps
      else loop reps
    in
    let reps = loop 0 in
    let elapsed = Float.max (Unix.gettimeofday () -. t0) 1e-9 in
    (Some (float_of_int reps /. elapsed), reps)
  end

(* --- run -------------------------------------------------------------- *)

let run spec =
  (match validate_spec spec with
  | Ok () -> ()
  | Error m -> invalid_arg (Printf.sprintf "Matrix.run: %s" m));
  let sched_memo : (string * string, sched_result) Hashtbl.t =
    Hashtbl.create 16
  in
  let snap_memo : (string, Snapshot.t) Hashtbl.t = Hashtbl.create 8 in
  let cells =
    List.concat_map
      (fun scenario ->
        let family = Option.get (family_of_name scenario) in
        List.concat_map
          (fun pname ->
            let policy = Option.get (Policies.of_name pname) in
            List.map
              (fun ename ->
                let engine = Option.get (engine_of_name ename) in
                match skip_of spec ~scenario ~policy:pname ~engine:ename with
                | Some reason ->
                  {
                    scenario;
                    policy = pname;
                    engine = ename;
                    status = Skipped reason;
                    allocs_per_sec = None;
                    reps = 0;
                    sched = None;
                  }
                | None ->
                  let sched =
                    match Hashtbl.find_opt sched_memo (scenario, pname) with
                    | Some r -> r
                    | None ->
                      let seed =
                        cell_seed ~seed:spec.seed ~scenario ~policy:pname
                          ~engine:"sched"
                      in
                      let job_count =
                        (sched_budget_of spec ~scenario ~policy:pname)
                          .job_count
                      in
                      let r = run_sched_cell ~family ~policy ~seed ~job_count in
                      Hashtbl.add sched_memo (scenario, pname) r;
                      r
                  in
                  let snapshot =
                    match Hashtbl.find_opt snap_memo scenario with
                    | Some s -> s
                    | None ->
                      let seed =
                        cell_seed ~seed:spec.seed ~scenario ~policy:"*"
                          ~engine:"snapshot"
                      in
                      let s = snapshot_of_family ~family ~seed in
                      Hashtbl.add snap_memo scenario s;
                      s
                  in
                  let budget =
                    budget_of spec ~scenario ~policy:pname ~engine:ename
                  in
                  let rate, reps =
                    measure_rate ~snapshot ~policy ~engine
                      ~budget_s:budget.alloc_budget_s
                  in
                  {
                    scenario;
                    policy = pname;
                    engine = ename;
                    status = Ran;
                    allocs_per_sec = rate;
                    reps;
                    sched = Some sched;
                  })
              spec.engines)
          spec.policies)
      spec.scenarios
  in
  {
    schema = schema_version;
    spec;
    cores = Domain.recommended_domain_count ();
    cells;
  }

(* --- codec ------------------------------------------------------------ *)

let num_i n = Json.Num (float_of_int n)
let strs l = Json.Arr (List.map (fun s -> Json.Str s) l)

let budget_to_json b =
  Json.Obj
    [
      ("alloc_budget_s", Json.Num b.alloc_budget_s);
      ("job_count", num_i b.job_count);
    ]

let budget_of_json j =
  {
    alloc_budget_s = Json.to_float (Json.member "alloc_budget_s" j);
    job_count = Json.to_int (Json.member "job_count" j);
  }

let rule_to_json r =
  let sel name = function
    | None -> []
    | Some v -> [ (name, Json.Str v) ]
  in
  Json.Obj
    (sel "scenario" r.on_scenario
    @ sel "policy" r.on_policy
    @ sel "engine" r.on_engine
    @
    match r.action with
    | Skip reason -> [ ("action", Json.Str "skip"); ("reason", Json.Str reason) ]
    | Budget b -> [ ("action", Json.Str "budget"); ("budget", budget_to_json b) ]
    )

let opt_member name j =
  match Json.member name j with Json.Null -> None | v -> Some v

let rule_of_json j =
  {
    on_scenario = Option.map Json.to_str (opt_member "scenario" j);
    on_policy = Option.map Json.to_str (opt_member "policy" j);
    on_engine = Option.map Json.to_str (opt_member "engine" j);
    action =
      (match Json.to_str (Json.member "action" j) with
      | "skip" -> Skip (Json.to_str (Json.member "reason" j))
      | "budget" -> Budget (budget_of_json (Json.member "budget" j))
      | other -> failwith (Printf.sprintf "Matrix: unknown rule action %S" other));
  }

let spec_to_json spec =
  Json.Obj
    [
      ("name", Json.Str spec.spec_name);
      ("seed", num_i spec.seed);
      ("scenarios", strs spec.scenarios);
      ("policies", strs spec.policies);
      ("engines", strs spec.engines);
      ("budget", budget_to_json spec.budget);
      ("rules", Json.Arr (List.map rule_to_json spec.rules));
    ]

let spec_of_json j =
  {
    spec_name = Json.to_str (Json.member "name" j);
    seed = Json.to_int (Json.member "seed" j);
    scenarios = List.map Json.to_str (Json.to_list (Json.member "scenarios" j));
    policies = List.map Json.to_str (Json.to_list (Json.member "policies" j));
    engines = List.map Json.to_str (Json.to_list (Json.member "engines" j));
    budget = budget_of_json (Json.member "budget" j);
    rules = List.map rule_of_json (Json.to_list (Json.member "rules" j));
  }

let slo_to_json s =
  Json.Obj
    [
      ("wait_p50", Json.Num s.wait_p50);
      ("wait_p90", Json.Num s.wait_p90);
      ("wait_p99", Json.Num s.wait_p99);
      ("mean_wait_s", Json.Num s.mean_wait_s);
      ("max_queue_depth", num_i s.max_queue_depth);
      ("mean_queue_depth", Json.Num s.mean_queue_depth);
    ]

let slo_of_json j =
  {
    wait_p50 = Json.to_float (Json.member "wait_p50" j);
    wait_p90 = Json.to_float (Json.member "wait_p90" j);
    wait_p99 = Json.to_float (Json.member "wait_p99" j);
    mean_wait_s = Json.to_float (Json.member "mean_wait_s" j);
    max_queue_depth = Json.to_int (Json.member "max_queue_depth" j);
    mean_queue_depth = Json.to_float (Json.member "mean_queue_depth" j);
  }

let sched_to_json s =
  Json.Obj
    [
      ("jobs_finished", num_i s.jobs_finished);
      ("rejected", num_i s.rejected);
      ("requeues", num_i s.requeues);
      ("faults_injected", num_i s.faults_injected);
      ("makespan_s", Json.Num s.makespan_s);
      ("goodput", Json.Num s.goodput);
      ("mean_turnaround_s", Json.Num s.mean_turnaround_s);
      ("slo", match s.slo with None -> Json.Null | Some s -> slo_to_json s);
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) s.counters) );
    ]

let sched_of_json j =
  {
    jobs_finished = Json.to_int (Json.member "jobs_finished" j);
    rejected = Json.to_int (Json.member "rejected" j);
    requeues = Json.to_int (Json.member "requeues" j);
    faults_injected = Json.to_int (Json.member "faults_injected" j);
    makespan_s = Json.to_float (Json.member "makespan_s" j);
    goodput = Json.to_float (Json.member "goodput" j);
    mean_turnaround_s = Json.to_float (Json.member "mean_turnaround_s" j);
    slo = Option.map slo_of_json (opt_member "slo" j);
    counters =
      (match Json.member "counters" j with
      | Json.Obj fields -> List.map (fun (k, v) -> (k, Json.to_float v)) fields
      | _ -> failwith "Matrix: counters is not an object");
  }

let cell_to_json c =
  Json.Obj
    ([
       ("scenario", Json.Str c.scenario);
       ("policy", Json.Str c.policy);
       ("engine", Json.Str c.engine);
     ]
    @ (match c.status with
      | Ran -> [ ("status", Json.Str "ran") ]
      | Skipped reason ->
        [ ("status", Json.Str "skipped"); ("skip_reason", Json.Str reason) ])
    @ [
        ( "allocs_per_sec",
          match c.allocs_per_sec with None -> Json.Null | Some r -> Json.Num r
        );
        ("reps", num_i c.reps);
        ("sched", match c.sched with None -> Json.Null | Some s -> sched_to_json s);
      ])

let cell_of_json j =
  {
    scenario = Json.to_str (Json.member "scenario" j);
    policy = Json.to_str (Json.member "policy" j);
    engine = Json.to_str (Json.member "engine" j);
    status =
      (match Json.to_str (Json.member "status" j) with
      | "ran" -> Ran
      | "skipped" -> Skipped (Json.to_str (Json.member "skip_reason" j))
      | other -> failwith (Printf.sprintf "Matrix: unknown status %S" other));
    allocs_per_sec =
      Option.map Json.to_float (opt_member "allocs_per_sec" j);
    reps = Json.to_int (Json.member "reps" j);
    sched = Option.map sched_of_json (opt_member "sched" j);
  }

let to_json a =
  Json.Obj
    [
      ("schema", Json.Str a.schema);
      ("spec", spec_to_json a.spec);
      ("cores", num_i a.cores);
      ("cells", Json.Arr (List.map cell_to_json a.cells));
    ]

let to_string a = Json.to_string (to_json a)

let of_json j =
  match
    let schema = Json.to_str (Json.member "schema" j) in
    if schema <> schema_version then
      failwith
        (Printf.sprintf "Matrix: schema %S, want %S" schema schema_version);
    {
      schema;
      spec = spec_of_json (Json.member "spec" j);
      cores = Json.to_int (Json.member "cores" j);
      cells = List.map cell_of_json (Json.to_list (Json.member "cells" j));
    }
  with
  | a -> Ok a
  | exception Failure m -> Error m

let of_string s =
  match Json.of_string s with
  | exception Failure m -> Error m
  | j -> of_json j

(* --- baseline gate ---------------------------------------------------- *)

type verdict = Pass | Fail of string | Skip_gate of string

type gated = {
  g_scenario : string;
  g_policy : string;
  g_engine : string;
  verdict : verdict;
}

let gate ?(ratio = 2.0) ~baseline ~current () =
  let cores_match = baseline.cores = current.cores in
  let find (bc : cell) =
    List.find_opt
      (fun (cc : cell) ->
        cc.scenario = bc.scenario && cc.policy = bc.policy
        && cc.engine = bc.engine)
      current.cells
  in
  List.filter_map
    (fun (bc : cell) ->
      match bc.status with
      | Skipped _ -> None
      | Ran ->
        let verdict =
          match find bc with
          | None -> Skip_gate "cell absent from this run"
          | Some cc -> (
            match cc.status with
            | Skipped reason -> Skip_gate ("skipped in this run: " ^ reason)
            | Ran ->
              let fails = ref [] in
              let fail fmt = Printf.ksprintf (fun m -> fails := m :: !fails) fmt in
              (match (bc.sched, cc.sched) with
              | Some bs, Some cs ->
                if cs.jobs_finished < bs.jobs_finished then
                  fail "finished %d < baseline %d" cs.jobs_finished
                    bs.jobs_finished;
                if cs.goodput < bs.goodput -. 0.1 then
                  fail "goodput %.3f < baseline %.3f - 0.1" cs.goodput
                    bs.goodput
              | _ -> ());
              (match (bc.allocs_per_sec, cc.allocs_per_sec) with
              | Some br, Some cr
                when cores_match && br > 0.0 && cr < br /. ratio ->
                fail "%.0f allocs/s < baseline %.0f / %.1f" cr br ratio
              | _ -> ());
              if !fails = [] then Pass
              else Fail (String.concat "; " (List.rev !fails)))
        in
        Some
          {
            g_scenario = bc.scenario;
            g_policy = bc.policy;
            g_engine = bc.engine;
            verdict;
          })
    baseline.cells

let gate_ok gated =
  List.for_all (fun g -> match g.verdict with Fail _ -> false | _ -> true) gated

let render_gate gated =
  let buf = Buffer.create 256 in
  let pass = ref 0 and fail = ref 0 and skip = ref 0 in
  List.iter
    (fun g ->
      let cellname =
        Printf.sprintf "%s/%s/%s" g.g_scenario g.g_policy g.g_engine
      in
      match g.verdict with
      | Pass -> incr pass
      | Fail m ->
        incr fail;
        Buffer.add_string buf (Printf.sprintf "FAIL %s: %s\n" cellname m)
      | Skip_gate m ->
        incr skip;
        Buffer.add_string buf (Printf.sprintf "skip %s: %s\n" cellname m))
    gated;
  Buffer.add_string buf
    (Printf.sprintf "matrix gate: %d pass, %d fail, %d skipped\n" !pass !fail
       !skip);
  Buffer.contents buf
