(** Health/SLO plane: rolling latency windows with per-class p95 SLO
    targets and error budgets, plus a cost-model drift detector that
    compares roofline-predicted stage times against simulator-measured
    ones and raises a structured [model_drift] warning through {!Log}
    when the ratio leaves the tolerance band.

    All state is process-global (like the default {!Metrics} registry)
    and mutex-guarded; callers update it at job-completion frequency. *)

(** {1 Outcome windows} *)

val observe : cls:string -> ok:bool -> latency_ms:float -> unit
(** Records one outcome for [cls].  The latency joins a rolling window
    (most recent {!window_capacity} samples); [ok=false] consumes error
    budget. *)

val set_slo : cls:string -> p95_ms:float -> unit
(** Sets the p95 latency target for [cls].  Raises [Invalid_argument]
    unless positive and finite. *)

val set_error_budget : cls:string -> float -> unit
(** Sets the tolerated failed fraction of outcomes for [cls], in
    [(0,1\]] — e.g. [0.05] allows one failure in twenty; a tiny positive
    fraction tolerates no failures.  Raises [Invalid_argument] outside
    that range (including on [0.0]). *)

val window_capacity : int
(** Maximum samples retained per class window. *)

type class_status = {
  cls : string;
  window : int;  (** samples currently in the rolling window *)
  p95_ms : float option;  (** [None] when the window is empty *)
  slo_ms : float option;  (** configured target, if any *)
  slo_ok : bool;  (** true when no target is set or p95 is within it *)
  total : int;  (** outcomes observed since reset *)
  failures : int;
  budget : float option;  (** configured failed-fraction budget, if any *)
  budget_used : float;  (** fraction of the budget consumed; 0 when unset *)
  budget_ok : bool;
}

val status : unit -> class_status list
(** Per-class status, sorted by class name. *)

(** {1 Cost-model drift} *)

val observe_model : stage:string -> predicted_ms:float -> measured_ms:float -> unit
(** Accumulates one (predicted, measured) pair for [stage].  When the
    cumulative measured/predicted ratio leaves the tolerance band this
    logs a [model_drift] warning — once per stage per excursion.
    Non-finite or negative inputs are ignored. *)

val set_drift_tolerance : float -> unit
(** Sets the allowed relative deviation of measured from predicted
    (default [0.25], i.e. ±25%).  Raises [Invalid_argument] unless
    positive and finite. *)

val drift_tolerance : unit -> float

type stage_drift = {
  stage : string;
  predicted_ms : float;  (** cumulative predicted time *)
  measured_ms : float;  (** cumulative measured time *)
  ratio : float;  (** measured / predicted; 1.0 when predicted is 0 *)
  samples : int;
  drifted : bool;  (** true when the ratio is outside the band *)
}

val drift : unit -> stage_drift list
(** Per-stage drift state, sorted by stage name. *)

val reset : unit -> unit
(** Clears windows, SLO/budget targets, and drift accumulators;
    restores the default tolerance.  Intended for tests and bench
    isolation. *)
