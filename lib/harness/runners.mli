(** Uniform entry points the table generators, the CLI and the batch
    scheduler share: run one experiment at a given precision (real or
    complex) on a given device and return the unified {!Report.t}.

    Tables are generated in planning mode (cost accounting without
    numeric execution); the [verify_*] functions execute the same code
    paths numerically at moderate dimensions and report residuals. *)

val qr :
  ?complex:bool ->
  ?rows:int ->
  ?fault:Fault.Plan.config ->
  Multidouble.Precision.tag ->
  Gpusim.Device.t ->
  n:int ->
  tile:int ->
  Report.t
(** Blocked Householder QR (Algorithm 2), cost accounting only.  An
    armed [?fault] plan attaches the fault tally to the report. *)

val bs :
  ?complex:bool ->
  ?fault:Fault.Plan.config ->
  Multidouble.Precision.tag ->
  Gpusim.Device.t ->
  dim:int ->
  tile:int ->
  Report.t
(** Tiled back substitution (Algorithm 1), cost accounting only. *)

val qr_part : string
(** The part name of the solver's factorization phase ("QR"). *)

val bs_part : string
(** The part name of the solver's back substitution phase ("BS"). *)

val solve :
  ?complex:bool ->
  ?fault:Fault.Plan.config ->
  ?method_:Lsq_core.Solver.method_ ->
  ?rows:int ->
  ?iterations:int ->
  Multidouble.Precision.tag ->
  Gpusim.Device.t ->
  n:int ->
  tile:int ->
  Report.t
(** The least squares solve behind the pluggable engine seam, cost
    accounting only.  The default [Qr_direct] engine plans QR then back
    substitution — the two phases appear as the {!qr_part} and
    {!bs_part} parts of the report, and its output is unchanged from
    before the seam existed.  [Cg_normal] / [Lsqr] plan one modeled
    rung of [?iterations] iterative sweeps
    (default {!Lsq_core.Solver.planned_iterations}) and attach the
    schema-4 solver record.  [?rows] makes the system tall
    (default [n], i.e. square). *)

val solve_ft :
  ?complex:bool ->
  ?fault:Fault.Plan.config ->
  ?method_:Lsq_core.Solver.method_ ->
  Multidouble.Precision.tag ->
  Gpusim.Device.t ->
  n:int ->
  tile:int ->
  Report.t
(** Numerically executed fault-tolerant solve on a seeded random
    system with the chosen engine: the top rung of the recovery ladder.
    Escalations from the solver ([Fault.Plan.Injected]) — including the
    iterative engines' failed final certification under an armed plan —
    replay the whole solve under a decorrelated seed; an escaped
    corruption caught by the final forward-error check triggers a
    fault-free mixed-precision refinement pass at the next precision up
    the D/DD/QD/OD ladder (flagged [refined] in the report's fault
    record).  Never raises; [residual.ok] carries the final verdict. *)

val log_ladder_start :
  ?complex:bool -> Multidouble.Precision.tag -> Report.solver -> unit
(** Emit the [solver.ladder_start] structured log record for an
    executed iterative run: the engine, the target precision, the
    ladder rung the condition estimate (or explicit override) chose,
    the estimate itself when automatic, and how the run went.  Gated on
    [Obs.Log.enabled Info]; the executed runners call it themselves. *)

val qr_roofline :
  ?complex:bool ->
  ?rows:int ->
  Multidouble.Precision.tag ->
  Gpusim.Device.t ->
  n:int ->
  tile:int ->
  Obs.Roofline.stage list
(** Per-stage roofline diagnostics of the QR plan, in
    {!Lsq_core.Stage.qr_stages} order. *)

val bs_roofline :
  ?complex:bool ->
  Multidouble.Precision.tag ->
  Gpusim.Device.t ->
  dim:int ->
  tile:int ->
  Obs.Roofline.stage list
(** Per-stage roofline diagnostics of the back substitution plan. *)

val solve_roofline :
  ?complex:bool ->
  ?method_:Lsq_core.Solver.method_ ->
  ?rows:int ->
  Multidouble.Precision.tag ->
  Gpusim.Device.t ->
  n:int ->
  tile:int ->
  Obs.Roofline.stage list
(** Per-stage roofline diagnostics of the chosen engine's plan: QR
    stages followed by back substitution stages for the direct engine;
    the matvec / BLAS-1 stages — memory-bound at every precision — for
    the iterative ones. *)

val verify_qr :
  ?complex:bool ->
  ?fault:Fault.Plan.config ->
  Multidouble.Precision.tag ->
  Gpusim.Device.t ->
  n:int ->
  tile:int ->
  Report.residual

val verify_solve :
  ?complex:bool ->
  ?fault:Fault.Plan.config ->
  ?method_:Lsq_core.Solver.method_ ->
  ?rows:int ->
  Multidouble.Precision.tag ->
  Gpusim.Device.t ->
  n:int ->
  tile:int ->
  Report.residual
(** Numerically executed solve with the chosen engine on a seeded
    random system ([?rows] by [n], default square) with a known
    solution, reporting the forward error in units of eps. *)

val verify_bs :
  ?complex:bool ->
  ?fault:Fault.Plan.config ->
  Multidouble.Precision.tag ->
  Gpusim.Device.t ->
  dim:int ->
  tile:int ->
  Report.residual
