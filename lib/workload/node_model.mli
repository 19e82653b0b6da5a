(** Ground-truth dynamic state of a single shared-cluster node.

    Combines a mean-reverting baseline, Poisson spike sessions and an
    optional diurnal swing into the CPU load; derives CPU utilization
    (coupled to load plus independent interactive activity), memory
    usage and logged-in user count. This is the truth the paper's
    NodeStateD daemon samples. *)

type profile = {
  load_mu : float;  (** baseline CPU load (runnable processes) *)
  load_tau : float;  (** load reversion time constant, seconds *)
  load_sigma : float;
  spike_rate_per_s : float;
  spike_magnitude_lo : float;
  spike_magnitude_hi : float;
  spike_mean_duration_s : float;
  diurnal_amplitude : float;  (** fraction of [load_mu], 0 = flat *)
  diurnal_phase_s : float;
  util_base_pct : float;  (** interactive-use utilization floor *)
  util_sigma_pct : float;
  mem_used_frac_mu : float;  (** mean used fraction of total memory *)
  users_mu : float;
}

type t

val create :
  rng:Rm_stats.Rng.t -> node:Rm_cluster.Node.t -> profile:profile -> t

val create_replay : node:Rm_cluster.Node.t -> trace:Trace_replay.node_trace -> t
(** A model driven by recorded data instead of the stochastic
    generators: {!advance} just moves the clock and reads the trace
    (clamped to the node's physical limits where applicable). *)

val node : t -> Rm_cluster.Node.t

val diurnal_mu : profile -> now:float -> float
(** The baseline load's mean at absolute time [now]: [load_mu] swung by
    [diurnal_amplitude] over a day, floored at 0. *)

val advance : t -> now:float -> unit
(** Move ground truth to absolute time [now] (non-decreasing; a call at
    the current time is a no-op). One call covers any gap: the four OU
    processes take exact steps of at most a tenth of their time constant
    ({!Ou_process.catch_up}), the baseline load against the diurnal mean
    at each step's end, and the spike train replays every arrival up to
    [now]. So a model read every few seconds takes one step per read,
    whatever the tick rate of the caller, and its spike level is
    bit-identical to one advanced at a finer tick. *)

val cpu_load : t -> float
(** Current load (runnable process count), >= 0, continuous. *)

val cpu_util_pct : t -> float
(** Current CPU utilization in [0, 100]. *)

val mem_used_gb : t -> float
val users : t -> int

val pp : Format.formatter -> t -> unit
