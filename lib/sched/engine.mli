(** The per-job execution engine behind the {!Fleet} service: one job's
    full lifecycle — validation, bounded retry with exponential backoff,
    cooperative timeout — settling into a structured {!outcome}, plus
    the versioned JSON-lines outcome codec (schema {!schema_version}). *)

type failure = {
  message : string;
  timed_out : bool;  (** the job exhausted its [timeout_ms] budget *)
  retryable : bool;
      (** how the error was classified: transient faults (the injection
          hook, escaped {!Fault.Plan.Injected} escalations) retry with
          backoff; validation errors and deterministic failures settle
          on the first attempt without burning retries *)
}

type status =
  | Completed of Harness.Report.t
  | Failed of failure

(** Where one job's wall clock went. *)
type timing = {
  queue_wait_ms : float;
      (** from admission to a worker claiming the job *)
  attempt_ms : float list;
      (** run time of each attempt, in attempt order; its length is
          [attempts] *)
  backoff_ms : float;  (** total backoff sleep between attempts *)
}

(** Where the fleet put the job. *)
type placement = {
  device_id : string;
      (** fleet instance that executed the job, e.g. ["v100#1"] *)
  admitted_to : string;
      (** instance whose queue admitted it; differs from [device_id]
          exactly when the job was stolen *)
  steals : int;  (** queue hops by work stealing (0 or 1) *)
  queue_depth : int;  (** depth of the admitted queue at admission *)
  migrations : string list;
      (** instances the job was reclaimed from (crashed or hung),
          oldest first; [[]] for an undisturbed job *)
}

type outcome = {
  job : Job.t;
      (** the job as executed — for auto-placed jobs the [device] field
          carries the class the fleet chose *)
  index : int;  (** admission order (the fleet ticket) *)
  order : int;  (** completion rank (0 = finished first) *)
  attempts : int;  (** run attempts made; 0 when validation rejected it *)
  elapsed_ms : float;  (** wall clock across all attempts and backoffs *)
  timing : timing;
  placement : placement option;
      (** [None] for outcomes produced outside a fleet *)
  status : status;
}

val schema_version : int
(** Version stamped into (and required of) every serialized outcome:
    8 (the embedded report is schema 5: executed runs report
    themselves; v7 the placement record lost its duplicate-execution
    flag; v6 the solver-engine seam — jobs carry an optional solver
    method and completed reports embed a solver record;
    v5 the migration trail in the placement record, v4 fleet placement,
    v3 the retryable classification, v2 per-attempt timing). *)

exception Injected_failure
(** The testing hook raised by the [inject_failures] leading attempts;
    classified retryable. *)

val classify : exn -> string * bool
(** [(message, retryable)] of an attempt's exception. *)

val now_ms : unit -> float
(** The engine's wall clock (Unix epoch milliseconds). *)

val run_job : Job.t -> Harness.Report.t
(** Runs one job synchronously (no retry, timeout or failure injection):
    {!Harness.Runners.run} of {!Job.request}.  That plans the job, or
    with [job.execute] runs it numerically and reports that run with
    its residual; an executed solve under an armed fault plane
    ({!Job.fault_config}) takes the fault-tolerant path, whose report
    carries the fault tally and refinement flag.  Raises whatever the
    runner raises — including [Fault.Plan.Injected] on an escalated
    fault, which {!settle} classifies as retryable — and
    [Invalid_argument] on an unresolved {!Job.auto_device}. *)

val backoff_pause_ms : backoff_ms:float -> Job.t -> attempt:int -> float
(** The jittered pause (in ms) {!settle} sleeps after the [attempt]-th
    failed attempt: [backoff_ms * 2^(attempt-1) * (1 + u)] with [u]
    uniform in [0, 1) drawn from a stream seeded by the job's id and
    fault seed.  Deterministic per [(job, attempt)], different across
    jobs — synchronized retries cannot stampede a recovering device. *)

val settle :
  backoff_ms:float ->
  queued_at:float ->
  Job.t ->
  int * float * timing * status
(** [settle ~backoff_ms ~queued_at job] is the full lifecycle of one
    job: [(attempts, elapsed_ms, timing, status)].  Validation failures
    (including an unplaced {!Job.auto_device}) settle with 0 attempts;
    otherwise up to [1 + retries] attempts run under the cooperative
    wall-clock budget with seeded-jitter exponential backoff
    ({!backoff_pause_ms}).  Never raises. *)

val outcome_to_json : outcome -> Obs.Json.t
val outcome_of_json : Obs.Json.t -> outcome
(** Raises [Obs.Json.Error] on malformed documents or a
    schema-version mismatch. *)

val write_jsonl : out_channel -> outcome list -> unit
(** One outcome object per line. *)

val read_jsonl : in_channel -> outcome list
(** Reads outcome lines until end of input, skipping blank lines. *)
