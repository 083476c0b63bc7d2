(** The one runner the table generators, the CLI, the batch scheduler
    and the tests share: describe one experiment as a {!request} — the
    paper's blocked QR (Tables 3–6), tiled back substitution (Tables
    7–9) or least squares solve (Table 10), at a given precision (real
    or complex) on a given device — and {!run} it into the unified
    {!Report.t}.

    Tables run in planning mode (cost accounting without numeric
    execution); an executed request instead runs the same code paths
    numerically on a seeded random system and reports that run with its
    residual. *)

type kind = Qr | Backsub | Solve

type request = {
  kind : kind;
  prec : Multidouble.Precision.tag;
  complex : bool;
  device : Gpusim.Device.t;
  dim : int;  (** columns (QR, solve) or dimension (back substitution) *)
  rows : int option;
      (** QR and solve: row count ([None]: square).  A tall solve runs
          the economy factorization, or the overdetermined system the
          iterative engines are built for. *)
  tile : int;
  solver : Lsq_core.Solver.method_;  (** solve: the engine *)
  fault : Fault.Plan.config option;  (** an armed simulator fault plane *)
  execute : bool;  (** execute numerically and attach the residual *)
}

val request :
  ?complex:bool ->
  ?rows:int ->
  ?solver:Lsq_core.Solver.method_ ->
  ?fault:Fault.Plan.config ->
  ?execute:bool ->
  kind:kind ->
  prec:Multidouble.Precision.tag ->
  device:Gpusim.Device.t ->
  dim:int ->
  tile:int ->
  unit ->
  request
(** Defaults: real data, square, direct QR engine, no fault plane, plan
    only. *)

val validate : request -> (unit, string) result
(** The shape checks: a positive dimension, a tile dividing it, at
    least as many rows as columns, rows only on QR and solve, iterative
    engines only on solve. *)

val run : request -> Report.t
(** Runs the request:
    - plan only: the cost plan, under the fault plane if one is armed
      (its tally lands in the report's fault record);
    - executed, fault-armed solve: the fault-tolerant solve.  An
      escalation ([Fault.Plan.Injected]) replays the whole solve under
      a decorrelated seed; an escaped corruption caught by the final
      forward-error check is repaired by a fault-free mixed-precision
      refinement at the next precision up the D/DD/QD/OD ladder (a
      clean re-solve at OD or on a tall system), flagged [refined].
      Never raises an injected fault;
    - any other executed run: one numeric run under the fault plane,
      and its report: cost figures, fault tally when armed, ladder of an
      iterative solve, residual.  An escalation out of that run raises
      [Fault.Plan.Injected].

    A direct solve reports its phases as the ["QR"] and ["BS"] parts;
    an iterative one its ladder rungs, plus the solver record.
    @raise Invalid_argument when {!validate} fails. *)

val campaign : request -> runs:int -> Report.t list
(** A seeded fault campaign: [runs] executed runs of the request, the
    [i]-th with its fault plan's seed advanced by [i] (an executed solve
    takes the fault-tolerant path).  Tally it with
    {!Report.Campaign.of_reports}. *)

val roofline : request -> Obs.Roofline.stage list
(** Per-stage roofline diagnostics of the fault-free plan ([fault] and
    [execute] are ignored): the QR stages, the back substitution stages,
    both in turn for a direct solve, or the iterative engines' matvec
    and BLAS-1 stages.
    @raise Invalid_argument when {!validate} fails. *)

val qr :
  Multidouble.Precision.tag -> Gpusim.Device.t -> n:int -> tile:int -> Report.t
(** [run] of a square plan-only QR request.  A shorthand kept because
    the performance ledger (perfbench/model.ml) calls it. *)

val bs :
  Multidouble.Precision.tag -> Gpusim.Device.t -> dim:int -> tile:int ->
  Report.t
(** [run] of a plan-only back substitution request.  A shorthand kept
    because the performance ledger (perfbench/model.ml) calls it. *)
