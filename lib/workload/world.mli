(** The simulated shared cluster: ground truth for everything dynamic.

    Owns a {!Node_model} per node and a {!Flow_gen} population, pushes
    the live flow set into a {!Rm_netsim.Network}, and advances them in
    virtual time — either explicitly with {!advance} or on a
    {!Rm_engine.Sim} via {!attach}. The monitor daemons sample this
    truth (with noise); the MPI executor consumes it directly.

    {b Reads mutate.} {!advance} moves the clock, the flow population and
    the network's flow set only. Each node's model is brought up to the
    world clock when one of its attributes is read ({!cpu_load},
    {!cpu_util_pct}, {!mem_used_gb}, {!users}), in exact steps over the
    whole gap since that node's last read ({!Node_model.advance}). A
    tick therefore costs O(1) in the node count, and the node processes'
    random draws depend on when each node is read, which is
    deterministic in the seed under the simulation. A world is not safe
    to read from two threads at once (brokerd reads it under its state
    mutex). Spike levels, flows, NIC rates and bandwidths do not depend
    on the read times. *)

type t

val create :
  cluster:Rm_cluster.Cluster.t -> scenario:Scenario.t -> seed:int -> t
(** Raises [Invalid_argument] when the scenario targets a hotspot
    switch the topology does not have. *)

val create_replay :
  ?flow_params:Flow_gen.params ->
  cluster:Rm_cluster.Cluster.t ->
  traces:Trace_replay.node_trace list ->
  seed:int ->
  unit ->
  t
(** A world whose node attributes replay recorded traces (one per node,
    in node order) while network traffic stays stochastic under
    [flow_params] (default: {!Flow_gen.default}; the [seed] drives only
    the traffic). Raises [Invalid_argument] on a trace-count mismatch. *)

val record_traces :
  t -> hours:float -> period_s:float -> Trace_replay.node_trace list
(** Advance this world from its current time and sample every node's
    attributes each [period_s] — a recorded scenario that
    {!create_replay} can replay bit-identically at the sample points. *)

val cluster : t -> Rm_cluster.Cluster.t
val network : t -> Rm_netsim.Network.t
val scenario_name : t -> string
val now : t -> float

val advance : t -> now:float -> unit
(** Advance ground truth to absolute time [now]: the clock, the
    background flows and the network's flow set (node models follow
    lazily, on read). Calls with [now] at or before the current world
    time are no-ops, so callers on different clocks (monitor sim vs. MPI
    executor) can interleave safely. Before the next flow birth or
    expiry ({!Flow_gen.next_change}) only the clock moves, and the
    network keeps its flow epoch. *)

val attach : t -> sim:Rm_engine.Sim.t -> period:float -> until:float -> unit
(** Schedule periodic {!advance} ticks on the simulation. *)

(** {2 Ground-truth accessors (post-[advance])}

    The node-attribute readers first advance that node's model to
    {!now}; see the note on mutation above. *)

val cpu_load : t -> node:int -> float
val cpu_util_pct : t -> node:int -> float
val mem_used_gb : t -> node:int -> float
val users : t -> node:int -> int
val nic_rate_mb_s : t -> node:int -> float
val background_flow_count : t -> int

(** {2 Running-job overlay}

    A running MPI job occupies cores and produces traffic that the rest
    of the cluster (and the monitor daemons) must see. The scheduler
    registers each running job here; its load adds to {!cpu_load} and
    its flows join the background population in the network. *)

type job_handle

val register_job :
  t ->
  load:(int * float) list ->
  flows:(int * Rm_netsim.Flow.endpoint * float) list ->
  job_handle
(** [load] is (node, runnable processes); [flows] is
    (src, dst, demand MB/s). Takes effect immediately. *)

val release_job : t -> job_handle -> unit
(** Idempotent. *)

val job_count : t -> int

(** {2 Node liveness (for LivehostsD and failure injection)} *)

val is_up : t -> node:int -> bool
val set_down : t -> node:int -> unit
val set_up : t -> node:int -> unit
val up_nodes : t -> int list

val set_nic_scale : t -> node:int -> float -> unit
(** Degrade (or restore, with [1.0]) the node's access-link capacity to
    [scale × nominal] — the flaky-NIC fault. Probes and the fair-share
    model see the reduced capacity immediately. *)

val nic_scale : t -> node:int -> float
