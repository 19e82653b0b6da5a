(** The allocator-facing view of monitored data.

    A snapshot is what the Node Allocator reads at request time: the
    latest livehosts list, per-node attribute records (with 1/5/15-min
    running means) and the measured P2P bandwidth/latency matrices.
    Pairs never probed fall back to topology-derived defaults (peak
    bandwidth / base latency), and nodes without a record are excluded
    from {!usable}. *)

type node_info = {
  static : Rm_cluster.Node.t;
  users : int;
  load : Rm_stats.Running_means.view;
  util_pct : Rm_stats.Running_means.view;
  nic_mb_s : Rm_stats.Running_means.view;
  mem_avail_gb : Rm_stats.Running_means.view;
  written_at : float;
}

type t = {
  time : float;
  cluster : Rm_cluster.Cluster.t;
  live : int list;
  nodes : node_info option array;
  bw_mb_s : Rm_stats.Matrix.t;  (** measured available bandwidth *)
  peak_bw_mb_s : Rm_stats.Matrix.t;
      (** path capacity (for Eq. 2's complement). Read-only: {!capture}
          and {!of_truth} build it once per cluster and every snapshot
          of that cluster shares the one matrix, so callers must never
          mutate it in place, even though [Matrix.set] and friends are
          public. [bw_mb_s] and [lat_us] are per-snapshot copies. *)
  lat_us : Rm_stats.Matrix.t;
}

val capture :
  time:float -> cluster:Rm_cluster.Cluster.t -> store:Store.t -> t

val usable : t -> int list
(** Live nodes with a node record — the allocator's vertex set 𝒱. *)

val restrict : t -> exclude:int list -> t
(** The same snapshot with the given nodes removed from the live set —
    how a scheduler keeps already-occupied nodes away from the
    allocator in exclusive mode. *)

val node_info : t -> int -> node_info option

val max_staleness : t -> float
(** Age of the oldest usable node record — used by the staleness
    ablation. 0 when nothing is usable. *)

val of_truth :
  time:float -> world:Rm_workload.World.t -> t
(** An oracle snapshot taken directly from ground truth (no daemons, no
    noise, running means collapsed to the instantaneous value). Used by
    tests and by the monitor-fidelity ablation. *)
