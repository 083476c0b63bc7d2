(** The unified experiment report: one record for every experiment
    {!Runners.run} runs (QR, back substitution, least squares solve).

    A report always carries the per-stage kernel breakdown — since
    schema 2 each stage row also records its launch count and operation
    tally — and the four aggregate figures of the paper's tables;
    composite experiments (the solver) additionally expose their phases
    as {!Part.t} values, numerically executed runs attach a
    {!residual}, and metered runs can embed an {!Obs.Metrics} snapshot.

    Reports serialize to a versioned JSON schema ({!schema_version},
    stored under the ["schema"] key) and round-trip exactly through
    {!to_json} / {!of_json}: floats are printed with 17 significant
    digits, so [of_json (to_json r) = r] structurally.  Every figure of
    a report comes from one run: the plan, or (since schema 5) the
    executed run of an executed request. *)

(** One timed phase of a composite experiment (e.g. the "QR" and "BS"
    phases of the solver, timed apart as in Table 10). *)
module Part : sig
  type t = {
    name : string;
    kernel_ms : float;
    wall_ms : float;
    kernel_gflops : float;
    wall_gflops : float;
  }
end

(** One stage of the per-stage kernel breakdown. *)
module Row : sig
  type t = {
    stage : string;
    ms : float;  (** accumulated kernel milliseconds *)
    launches : int;
    ops : Gpusim.Counter.ops;  (** accumulated operation tallies *)
  }

  val of_profile : Gpusim.Profile.row -> t
end

(** The outcome of a numerically executed verification, in units of the
    working precision's eps. *)
type residual = {
  what : string;
  residual : float;  (** relative, in units of [eps] *)
  eps : float;
  ok : bool;
}

(** The fault story of one run under an armed [Fault.Plan]: injection,
    detection and recovery counts, plus whether the refinement fallback
    had to repair the solution.  Absent ([None]) on fault-free runs —
    their reports are byte-identical to schema-2-era output modulo the
    version stamp. *)
type faults = {
  bitflips : int;
  launch_fails : int;
  transfer_faults : int;
  detected : int;
  relaunches : int;
  retransfers : int;
  replays : int;
  escalations : int;
  refined : bool;
}

val faults_of_tally : ?refined:bool -> Fault.Plan.tally -> faults
val faults_injected : faults -> int

(** The iterative-engine story of one run (schema 4): which engine
    solved it and how the refinement ladder went — inner iteration
    totals, per-rung counts, the residual-norm trajectory at the target
    precision, the ladder's starting rung (and the double-precision
    condition estimate that picked it, when automatic), and whether the
    final certification bound held.  Absent ([None]) on direct QR runs —
    their reports are byte-identical to schema-3-era output modulo the
    version stamp. *)
type solver = {
  method_ : Lsq_core.Solver.method_;
  iterations : int;
  residual_history : float list;
  ladder : (Multidouble.Precision.tag * int) list;
  ladder_start : Multidouble.Precision.tag;
  cond_estimate : float option;
  converged : bool;
}

val solver_of_iter : Lsq_core.Solver.method_ -> Lsq_core.Solver.iter_info -> solver
(** Lift an engine's {!Lsq_core.Solver.iter_info} into the report form. *)

type t = {
  label : string;  (** what ran: experiment, precision, device, shape *)
  stages : Row.t list;  (** per-stage kernel breakdown *)
  parts : Part.t list;  (** phase breakdown; [[]] for single-phase runs *)
  kernel_ms : float;
  wall_ms : float;
  kernel_gflops : float;
  wall_gflops : float;
  launches : int;
  residual : residual option;
  metrics : Obs.Metrics.snapshot option;
      (** attached by metered runs; [None] otherwise *)
  faults : faults option;  (** attached by fault-armed runs *)
  solver : solver option;  (** attached by iterative-engine runs *)
}

val schema_version : int
(** The version stamped into (and required of) the JSON form. *)

val part : t -> string -> Part.t
(** [part t name] is the named phase; raises [Not_found]. *)

val part_opt : t -> string -> Part.t option

val stage_ms : t -> (string * float) list
(** The schema-1 view of {!field-stages}: stage names paired with their
    kernel milliseconds. *)

val to_json : t -> Json.t
val of_json : Json.t -> t
(** Raises [Json.Error] on a malformed document or a schema-version
    mismatch. *)

val to_json_string : t -> string
val of_json_string : string -> t
