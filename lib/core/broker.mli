(** The resource broker façade: snapshot in, decision out.

    Wraps {!Policies.allocate} with the §6 extension: "if the overall
    load on the cluster is extremely high … our tool should recommend
    waiting rather than allocating right away". The broker computes the
    cluster-wide mean 1-minute load per logical core and declines when
    it exceeds the configured threshold. *)

type config = {
  weights : Weights.t;
  policy : Policies.policy;
  wait_threshold : float option;
      (** mean load per core above which the broker recommends waiting;
          [None] (default) always allocates, like the paper's evaluation *)
  max_staleness_s : float;
      (** drop usable nodes whose store record is older than this before
          deciding — a node the monitor stopped refreshing is probably
          dead or partitioned. Excluded nodes are counted in
          [core.broker.stale_excluded] and listed in the audit record.
          [infinity] (default) keeps the historical behavior *)
  starts : Dense_alloc.starts;
      (** candidate-start pruning mode forwarded to
          {!Policies.allocate_audited}; [All] (default) is the
          exhaustive sweep *)
}

val default_config : config
(** Paper-default weights, network-and-load-aware policy, no waiting. *)

type decision =
  | Allocated of Allocation.t
  | Wait of { mean_load_per_core : float; threshold : float }

val mean_load_per_core : Rm_monitor.Snapshot.t -> weights:Weights.t -> float
(** Σ 1-minute loads / Σ logical cores over usable nodes; 0 when no
    node is usable. *)

val decide :
  config:config ->
  snapshot:Rm_monitor.Snapshot.t ->
  request:Request.t ->
  rng:Rm_stats.Rng.t ->
  (decision, Allocation.error) result

val pp_decision : Format.formatter -> decision -> unit
