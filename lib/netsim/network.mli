(** The network state: topology + current flow population, answering the
    questions the paper's monitor asks — available P2P bandwidth, P2P
    latency, and per-node data flow rate.

    All answers derive from a max-min fair allocation of the current
    flows over the topology's links ({!Fairshare}), recomputed lazily
    when the flow set or a link capacity changes. Within one such flow
    epoch, latency and NIC readings are table lookups built with the
    solution, and {!available_bandwidth_mb_s} is memoized per ordered
    (src, dst); every answer is bit-identical to evaluating its formula
    afresh. *)

type t

val create : Rm_cluster.Topology.t -> t
val topology : t -> Rm_cluster.Topology.t

val set_capacity_scale : t -> link_id:int -> float -> unit
(** Degrade (or restore) a link: effective capacity becomes
    [nominal × scale], [scale ∈ [0, 1]]. Used by fault injection to
    model flaky NICs and congested uplinks; [1.0] restores the nominal
    capacity. Invalidates the fair-share cache. *)

val capacity_scale : t -> link_id:int -> float
(** Current degradation scale of the link (1.0 when healthy). *)

val set_flows : t -> Flow.t list -> unit
(** Replace the flow population. A list element-wise physically equal
    ([==]) to the current one keeps the cached fair-share solution, so a
    caller may push an unchanged population every tick for free; any
    other list invalidates it. *)

val flows : t -> Flow.t list
val flow_count : t -> int

val available_bandwidth_mb_s : t -> src:int -> dst:int -> float
(** Rate a new greedy flow between the nodes would obtain right now
    (the ground truth a bandwidth probe estimates). [infinity] when
    [src = dst]. *)

val latency_us : t -> src:int -> dst:int -> float
(** One-way latency: unloaded base plus an M/M/1-style queueing penalty
    on each loaded link of the path. 0 when [src = dst]. *)

val nic_rate_mb_s : t -> node:int -> float
(** Sum of allocated rates of flows entering or leaving the node — the
    paper's "node data flow rate". *)

val link_utilization : t -> link_id:int -> float
(** Allocated fraction of the link's capacity, in [0, 1]. *)

val peak_bandwidth_mb_s : t -> src:int -> dst:int -> float
(** Capacity bound of the path with no competing traffic (the "peak
    bandwidth" whose complement Eq. 2 uses). *)

val rates_with_extra : t -> extra:(int * int) array -> float array
(** Fair rates that greedy node-to-node flows on the given (src, dst)
    pairs would obtain when *all added simultaneously* on top of the
    background population — unlike {!available_bandwidth_mb_s}, the extra
    flows contend with each other (concurrent MPI messages; a probe round
    of n/2 disjoint pairs). Pairs with [src = dst] get [infinity]. *)
