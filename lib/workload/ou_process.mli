(** Mean-reverting Ornstein–Uhlenbeck process with a time-varying mean.

    The workhorse behind every slowly-varying node attribute (baseline
    CPU load, CPU utilization, memory usage): values wander around a
    mean, revert with time constant [tau], and can be stepped with
    irregular time increments (exact discretization, so step size does
    not change the distribution of an unbounded process).

    A bounded process is reflected back into [[lo, hi]] rather than
    clamped. Clamping piles a point mass on the bound that grows about
    as the square root of the step; reflection is the small-step limit
    of the clamp, so a node model sampled lazily every few seconds
    matches one stepped at a fine tick in distribution. *)

type t

val create :
  rng:Rm_stats.Rng.t ->
  mu:float ->
  tau:float ->
  sigma:float ->
  ?lo:float ->
  ?hi:float ->
  ?init:float ->
  unit ->
  t
(** [mu] stationary mean, [tau] reversion time constant in seconds,
    [sigma] stationary standard deviation, [lo]/[hi] clamps (defaults
    -inf/+inf), [init] starting value (defaults to a draw around [mu]).
    Requires [tau > 0] and [sigma >= 0]. *)

val value : t -> float

val step : t -> dt:float -> ?mu:float -> unit -> float
(** One exact transition over [dt] seconds (>= 0), optionally
    overriding the mean for this step (diurnal modulation), reflected
    into [[lo, hi]]; returns the new value. Values strictly inside the
    bounds are bit-identical to the unbounded transition. *)

val catch_up :
  t -> from:float -> until:float -> ?mu_at:(float -> float) -> unit -> unit
(** Advance from absolute time [from] to [until] in equal exact steps of
    at most [tau /. 10] seconds, each against the mean [mu_at s] at its
    end time [s] (default: the constant [mu]). A gap of at most
    [tau /. 10] is one {!step}; a longer one is split so the value lags
    a moving mean as frequent small steps would. Raises
    [Invalid_argument] when [until < from]. *)
