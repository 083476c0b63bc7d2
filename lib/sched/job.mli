(** One least-squares job of a batch: which experiment, on which
    simulated device, at which precision and shape, planned (cost
    accounting only) or executed numerically.

    Jobs serialize to the same versioned JSON schema as the scheduler's
    outcome records ({!Engine.schema_version}); a jobs file is either
    a JSON array of job objects or one job object per line. *)

type kind = Qr | Backsub | Solve

type t = {
  id : string;  (** unique within the batch; used in the result records *)
  kind : kind;
  device : string;
      (** device name, resolved via {!Gpusim.Device.by_name}, or
          {!auto_device} to let the fleet's roofline placement pick the
          class (memory-bound work to bandwidth-rich devices,
          compute-bound to compute-rich ones) *)
  prec : Multidouble.Precision.tag;
  complex : bool;
  dim : int;
  rows : int option;
      (** QR and solve jobs: row count (default: square).  A tall solve
          runs the economy factorization — or, with an iterative
          [solver], the overdetermined system the iterative engines are
          built for. *)
  tile : int;
  solver : Lsq_core.Solver.method_;
      (** solve jobs: the engine behind the pluggable solve path —
          direct QR (the default), CG on the normal equations, or LSQR.
          Iterative engines are rejected by {!validate} on other
          kinds. *)
  execute : bool;
      (** run the kernels numerically and attach a residual (keep the
          dimension moderate); default is cost accounting only *)
  timeout_ms : float option;
      (** per-job wall-clock budget across all attempts.  The check is
          cooperative: it runs between attempts and when an attempt
          completes, so a running attempt is never interrupted — its
          result is discarded when it lands past the deadline. *)
  retries : int;  (** additional attempts allowed after a failed one *)
  inject_failures : int;
      (** testing hook: this many leading attempts fail artificially
          ("injected failure"), exercising retry and degradation paths *)
  fault_rate : float;
      (** per-launch strike probability of the simulator's fault plane;
          0 (the default) leaves the plane disarmed and the job
          bit-identical to a fault-free build *)
  fault_seed : int;  (** campaign seed; same seed + job => same faults *)
  fault_kinds : Fault.Plan.kind list;  (** armed kinds (default: all) *)
}

val make :
  ?complex:bool ->
  ?rows:int ->
  ?solver:Lsq_core.Solver.method_ ->
  ?execute:bool ->
  ?timeout_ms:float ->
  ?retries:int ->
  ?inject_failures:int ->
  ?fault_rate:float ->
  ?fault_seed:int ->
  ?fault_kinds:Fault.Plan.kind list ->
  id:string ->
  kind:kind ->
  device:string ->
  prec:Multidouble.Precision.tag ->
  dim:int ->
  tile:int ->
  unit ->
  t
(** Defaults: real data, square, direct QR engine, plan only, no
    timeout, [retries = 1], no injected failures, fault plane
    disarmed. *)

val auto_device : string
(** The placement wildcard ["auto"]: valid for submission to a fleet,
    which resolves it to a concrete device class; not runnable
    directly.  A job JSON without a ["device"] member defaults to
    it. *)

val is_auto : t -> bool
(** The job leaves device selection to the fleet. *)

val fault_config : t -> Fault.Plan.config option
(** The armed fault plan of the job ([None] when [fault_rate] is 0).
    Validate first: an out-of-range rate raises [Invalid_argument]. *)

val with_defaults :
  ?solver:Lsq_core.Solver.method_ -> ?fault:Fault.Plan.config -> t -> t
(** Service-wide defaults for jobs that did not choose for themselves:
    [solver] rewires a solve job left on the direct QR engine (the JSON
    default), [fault] arms a job whose fault plane is disarmed
    ([fault_rate = 0]) with the plan's rate, seed and kinds.  Any other
    job is returned unchanged. *)

val string_of_kind : kind -> string
val kind_of_string : string -> kind
(** Raises [Invalid_argument] on unknown kinds. *)

val validate : t -> (unit, string) result
(** Checks the job is runnable before any attempt is made: known device,
    positive dimensions, tile dividing the dimension, sane retry and
    timeout bounds (NaN timeouts rejected), fault rate inside [0, 1]
    with at least one kind armed.  A failing validation is permanent —
    the scheduler records the error without retrying. *)

val to_json : t -> Obs.Json.t
val of_json : Obs.Json.t -> t
(** Raises [Obs.Json.Error] on malformed documents.  Optional fields
    ([complex], [rows], [solver], [execute], [timeout_ms], [retries],
    [inject_failures], [fault_rate], [fault_seed], [fault_kinds]) take
    the {!make} defaults when absent; a missing [device] defaults to
    {!auto_device}. *)

val load_file : string -> t list
(** Reads a jobs file: a JSON array of job objects, or one job object
    per non-empty line (JSON lines).  Raises [Obs.Json.Error] or
    [Sys_error]. *)
