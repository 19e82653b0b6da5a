(** Background network traffic generator.

    A birth–death population of flows: arrivals are Poisson over the
    whole cluster, each flow picks a random source node, goes either to
    another node or out of the cluster, demands a heavy-tailed rate, and
    lives for an exponential duration (with a slow "elephant" class for
    backups / video sessions). The live population is handed to
    {!Rm_netsim.Network} as the contention the paper attributes to
    "other network-intensive jobs". *)

type params = {
  arrival_rate_per_s : float;  (** cluster-wide flow arrivals *)
  p_external : float;  (** probability a flow leaves the cluster *)
  p_same_switch : float;
      (** probability an internal flow stays on its source's switch
          (lab-local traffic) *)
  demand_pareto_shape : float;
  demand_pareto_scale_mb_s : float;
  demand_cap_mb_s : float;
  p_elephant : float;
  short_mean_duration_s : float;
  elephant_mean_duration_s : float;
  hotspot : (int * float) option;
      (** [(switch, boost)]: fraction [boost] of arrivals are forced onto
          nodes of [switch], creating the dark patches of Fig. 2a. *)
}

val default : params
(** A moderately busy teaching cluster. *)

type t

val create : rng:Rm_stats.Rng.t -> node_count:int -> params:params -> t
(** Requires at least 2 nodes. *)

val advance : t -> now:float -> switch_of_node:(int -> int) -> unit
(** Process arrivals/expiries up to absolute time [now] (non-decreasing).
    [switch_of_node] is needed for hotspot targeting. Before
    {!next_change} this only moves the clock. *)

val next_change : t -> float
(** Earliest time at which the live set can change: the next arrival or
    the earliest expiry of a live flow. An [advance] to a time before it
    leaves {!active_flows} as it is. *)

val active_flows : t -> Rm_netsim.Flow.t list
val active_count : t -> int
