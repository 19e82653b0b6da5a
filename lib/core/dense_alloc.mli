(** Dense-array fast path for Algorithm 1 + Algorithm 2.

    Produces exactly what [Select.score] over [Candidate.generate_all]
    produces — same candidates in the same (ascending start id) order,
    bit-identical costs and Eq. 4 totals, hence the identical chosen
    allocation — but from flat float arrays: the α·CL vector and
    per-node capacities are computed once and shared across all V
    starts, each start's ranking uses heap-based partial selection (only
    the prefix covering the request is popped) and Eq. 4 totals read the
    dense NL matrix directly instead of going through two hashtable
    lookups per pair. O(V·(V + k log V)) instead of O(V² log V), with
    far smaller constants.

    The V starts are independent (Algorithm 1 grows one candidate per
    start over read-only models), so they are additionally swept in
    parallel across OCaml domains, one per host core: the workers of a
    reusable {!Domain_pool} claim small blocks of starts from a shared
    counter, each with private scratch buffers, and per-start results
    merge in ascending start order — output is
    bit-identical for every domain count. Below {!par_v_threshold}
    usable nodes the sweep always runs sequentially (the pool hand-off
    costs more than the sweep itself at small V).

    [~starts:(Top_k k)] additionally prunes the start sweep: candidate
    starts are ranked by a cheap O(V) α·CL + β·mean-NL-degree proxy and
    only the best [k] expand (sequentially — k is small). Each
    surviving candidate's raw Eq. 4 costs are bit-identical to its
    exhaustive counterpart; only the per-candidate-set normalization
    sees fewer candidates, so the chosen start can differ — the qcheck
    regret property in test_core.ml bounds how much. The pruned path
    reads NL in factored form and never materializes the O(V²) matrix.

    The naive pipeline is retained as the reference implementation;
    qcheck properties in test_core.ml assert equivalence across random
    snapshots, weights and requests, and across ndomains ∈ {1, 2, 4}. *)

type starts =
  | All  (** exhaustive sweep: every usable node starts a candidate *)
  | Top_k of int
      (** expand only the [k] best starts by the O(V) proxy score;
          [k >= V] degenerates to [All] *)

val parse_starts : string -> (starts, string) result
(** ["all"] (case-insensitive) or a positive integer. *)

val starts_label : starts -> string
(** ["all"] or the candidate count — stable, parseable by
    {!parse_starts}; used in bench baseline keys and CLI printers. *)

val par_v_threshold : int
(** Usable-node count below which the start sweep ignores [ndomains]
    and runs sequentially — at small V the domain-pool hand-off costs
    more than the whole sweep (a 4-domain sweep measured slower than
    the sequential one at V=60). *)

val domains_for : v:int -> requested:int -> int
(** The worker count the exhaustive sweep will actually use for [v]
    usable nodes: 1 below {!par_v_threshold}, else [min requested v]
    (the pool may clamp further). Raises [Invalid_argument] when
    [requested < 1]. Exposed so tests can pin the fallback. *)

val scored_all :
  ?ndomains:int ->
  ?starts:starts ->
  loads:Compute_load.t ->
  net:Network_load.t ->
  capacity:(int -> int) ->
  request:Request.t ->
  unit ->
  Select.scored list
(** [loads] and [net] must come from the same snapshot (their usable
    sets must coincide). [ndomains] defaults to the host's
    [Domain.recommended_domain_count ()], is capped at the number of
    usable nodes and at {!Domain_pool.max_workers}, and only applies
    to the exhaustive path ({!domains_for}); output is bit-identical
    for every value, so callers other than tests leave it unset.
    [starts] defaults to [All]; with [Top_k k < V] the
    result lists only the [k] expanded candidates (still in ascending
    start-id order). Raises [Invalid_argument] when no node is usable,
    the models disagree, [ndomains < 1], [Top_k k < 1], the request's
    process count is not positive, or any CL/NL model value consulted
    is non-finite (a NaN cost would silently corrupt the heap order
    and diverge from the naive compare-based sort). *)

val best :
  ?starts:starts ->
  loads:Compute_load.t ->
  net:Network_load.t ->
  capacity:(int -> int) ->
  request:Request.t ->
  unit ->
  Select.scored
(** [Select.best_scored] over {!scored_all}. *)
