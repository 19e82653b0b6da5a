(** The four allocation policies of the evaluation (§5).

    - {e Random}: the required number of nodes drawn uniformly from the
      usable set (a user picking hosts blindly).
    - {e Sequential}: a random start node, then topologically consecutive
      hostnames ("users often tend to select consecutive nodes").
    - {e Load-aware}: the usable nodes with minimal compute load CL.
    - {e Network-and-load-aware}: the paper's contribution —
      Algorithm 1 candidates scored by Algorithm 2.

    Every policy fills nodes up to their per-node capacity ({!Request.capacity_of})
    and falls back to round-robin oversubscription when the whole
    cluster cannot cover the request, so results stay comparable. *)

type policy =
  | Random
  | Sequential
  | Load_aware
  | Network_load_aware
  | Hierarchical
      (** the §3.3.2/§6 two-level variant; not part of the paper's
          evaluated four (see {!all}) but selectable everywhere *)

val name : policy -> string
val all : policy list
(** The paper's four, in its reporting order: random, sequential,
    load-aware, network-and-load-aware. [Hierarchical] is deliberately
    not included so the reproduction tables stay faithful. *)

val of_name : string -> policy option

val hierarchical_threshold : int
(** 2048: usable-node count above which {!allocate} runs the
    network-and-load-aware policy through {!Hierarchical.allocate},
    under the ["network-load-aware"] label. At that size the flat
    sweep's O(V²) work per decision stops being interactive. *)

val allocate :
  ?starts:Dense_alloc.starts ->
  policy:policy ->
  snapshot:Rm_monitor.Snapshot.t ->
  weights:Weights.t ->
  request:Request.t ->
  rng:Rm_stats.Rng.t ->
  unit ->
  (Allocation.t, Allocation.error) result
(** [Error No_usable_nodes] when the snapshot has no usable node;
    otherwise always succeeds (oversubscribing if needed). Randomized
    policies draw from [rng]; the two aware policies are deterministic
    given the snapshot.

    Models (Eq. 1/2/3) come from {!Model_cache} — repeated calls
    against the same snapshot and weights share one build — and the
    network-and-load-aware policy runs on the {!Dense_alloc} kernels,
    sweeping its per-start candidate loop across one OCaml domain per
    host core. Up to {!hierarchical_threshold} usable nodes the output
    is byte-identical to {!allocate_naive} whatever the core count.

    [starts] (default [All]) prunes the candidate-start sweep of the
    network-and-load-aware and hierarchical policies. Above
    {!hierarchical_threshold} usable nodes the network-and-load-aware
    policy routes through {!Hierarchical.allocate}. *)

val allocate_audited :
  ?starts:Dense_alloc.starts ->
  stale_excluded:int list ->
  policy:policy ->
  snapshot:Rm_monitor.Snapshot.t ->
  weights:Weights.t ->
  request:Request.t ->
  rng:Rm_stats.Rng.t ->
  unit ->
  (Allocation.t, Allocation.error) result
(** {!allocate}, with the audit record annotated: when the broker has
    already dropped stale nodes from the snapshot it passes their ids
    here so [rmctl explain] can say why they are missing. *)

val allocate_naive :
  policy:policy ->
  snapshot:Rm_monitor.Snapshot.t ->
  weights:Weights.t ->
  request:Request.t ->
  rng:Rm_stats.Rng.t ->
  (Allocation.t, Allocation.error) result
(** The pre-fast-path reference implementation: models rebuilt from the
    snapshot on every call, Algorithm 1/2 via [Candidate.generate_all]
    and [Select.score]. Retained for the equivalence property test and
    the before/after rows of [bench scale]; allocations are identical
    to {!allocate} by construction (and by test). *)
