(** A small reusable pool of OCaml 5 domains for data-parallel sweeps
    over flat arrays (the per-start candidate loop in {!Dense_alloc}).

    Workers are spawned once and parked between jobs, so a [run] costs
    two condition-variable handshakes instead of domain spawns. Pools
    are memoized per size and joined by an [at_exit] hook.

    Contract: issue one [run] at a time per pool, from the main domain.
    The job must confine its writes to caller-provided buffers at
    worker-disjoint indices; the completion handshake makes those
    writes visible to the caller. *)

type t

val max_workers : int
(** Hard ceiling on pool parallelism; [get] and [create] clamp
    requests above it. Callers that
    partition work by a requested domain count must re-read the actual
    count from {!size} (or compare against this ceiling) — the clamp is
    silent. *)

val get : int -> t
(** Memoized pool with the given total parallelism (calling domain
    included, so [get 1] spawns nothing and [run] degenerates to a
    plain call). Values are clamped to \[1, {!max_workers}\]. *)

val size : t -> int

val run : t -> (int -> unit) -> unit
(** [run t f] invokes [f w] once per worker index [w] in
    [0 .. size t - 1]; the caller executes [f 0] itself while the
    spawned domains run the rest, and [run] returns only when every
    invocation has finished. If any invocation raises, the first
    exception observed is re-raised after all workers are done. *)

val shutdown : t -> unit
(** Join the pool's domains. Only needed for pools built with
    {!create}; memoized pools are shut down at exit. *)

val create : int -> t
(** A private (non-memoized) pool; the caller owns its lifetime and
    must call {!shutdown} before the process exits. *)
