(** The fleet service: a long-running pool of simulated devices behind a
    submission API.

    A fleet owns a heterogeneous pool of {e instances} — modeled
    devices, each one bounded work queue with a class and a health
    state, several instances per device class (C2050 / P100 / V100 /
    RTX 2080 profiles from {!Gpusim.Device}) — served by up to one
    worker domain per core.  Submissions pass admission control
    synchronously: jobs naming {!Job.auto_device} are routed by the
    roofline policy (memory-bound work — double double in the paper's
    regime — to bandwidth-rich classes by descending
    {!Gpusim.Device.bytes_per_flop}; compute-bound work — octo double —
    to compute-rich classes by descending DP peak), landing on the
    shortest queue of the best class with room and spilling to the next
    class when that one is full.  A submission finding every candidate
    queue at [max_queue_depth] is {e rejected} — backpressure the
    caller observes immediately.  An idle instance steals the oldest
    entry from the deepest queue of a busy one.

    {2 The resilience plane}

    All of it opt-in through {!Config}; an undisturbed fleet behaves
    exactly as before.

    - {e Device chaos} ([Config.chaos]): a seeded {!Fault.Chaos}
      campaign deals each instance at most one fate — crash or hang
      (the instance is never served again; the worker that found it
      struck serves the others), or brownout (kernels cost
      [Chaos.config.brownout_factor] slower) — striking after a drawn
      number of executed jobs.
    - {e Recovery}: jobs stranded on a crashed or hung instance — its
      claimed job and its queue — are handed back at strike time and re-placed through the same roofline policy,
      never silently dropped; each hop is recorded in the outcome's
      [placement.migrations] trail.  A job migrated more than
      [Config.max_migrations] times is {e quarantined}: settled as a
      permanent (non-retryable) failure carrying its trail.

    Outcomes are {!Engine.outcome} records whose [placement] field
    carries the executing instance, the admitting instance, the steal
    count, the queue depth seen at admission and the migration trail
    (outcome schema 8).  The fleet also feeds the
    default {!Obs.Metrics} registry
    ([fleet.submitted/rejected/completed/failed/steals/attempts]
    counters, [fleet.latency_ms.<class>] histograms on
    {!Obs.Metrics.latency_buckets} with per-class p50/p95/p99 in the
    snapshot, [fleet.queue_depth.<id>] and [fleet.util.<id>] gauges,
    and — from the resilience plane —
    [fleet.chaos.crashes/hangs/brownouts/migrations/quarantined]
    counters) and the tracer
    ([admit]/[steal]/[reject] instants).

    Callers with a whole batch use {!run}, a thin wrapper over this
    service; callers serving a stream of JSON job lines (with a journal,
    rejection lines and SIGTERM drain) use {!Service.run}. *)

module Config : sig
  type t = {
    pool : (Gpusim.Device.t option * int) list;
        (** device classes and instance counts; [None] is a {e generic}
            instance — plain capacity honoring whatever device each job
            names (auto jobs execute on the pool's compute flagship) *)
    max_queue_depth : int;
        (** admission bound per queue; must be positive — pass
            {!unbounded} for no bound *)
    backoff_ms : float;  (** base retry backoff, doubling per attempt *)
    steal : bool;  (** let idle instances steal from busy ones' queues *)
    retain_outcomes : bool;
        (** keep settled outcomes for {!await}/{!drain}; switch off for
            long-running serve loops that stream outcomes via
            [on_outcome] and must not grow memory *)
    chaos : Fault.Chaos.config option;
        (** arm a seeded device-chaos campaign; [None] (the default)
            leaves every instance healthy *)
    max_migrations : int;
        (** reclaim hops before a job is quarantined (default 3) *)
  }

  val unbounded : int
  (** Sentinel ([max_int]) for [max_queue_depth]: no admission bound. *)

  val default : t
  (** Two instances each of C2050, P100, V100 and RTX 2080, queue depth
      64, 1 ms base backoff, stealing on, outcomes retained, resilience
      plane off. *)

  val batch : ?parallel:int -> ?backoff_ms:float -> unit -> t
  (** The batch-mode pool: [parallel] (default 4, floored at 1) generic
      instances, unbounded queues.  With [parallel:1] the fleet is one
      FIFO queue — submission order is execution order. *)

  val pool_of_string : string -> (Gpusim.Device.t option * int) list
  (** Parses a pool spec like ["v100=2,rtx2080=1"] (["v100,p100"] gives
      one instance each).  Raises [Invalid_argument] on unknown devices
      or bad counts. *)

  val validate : t -> (unit, string) result
  (** Structured validation: rejects an empty pool, non-positive pool
      counts, non-positive [max_queue_depth] (use {!unbounded}),
      negative or NaN [backoff_ms] (zero stays legal: retry without
      sleeping) and negative [max_migrations]. *)
end

type t

type reject =
  | Queue_full of { device_id : string; queue_depth : int }
      (** every candidate queue was at [max_queue_depth]; the id and
          depth are the instance the placement would have preferred *)
  | Draining  (** the fleet is shutting down *)

val reject_message : reject -> string

type ticket = int
(** Admission handle, also the outcome's [index]: tickets number
    admissions from 0 in submission order. *)

val create :
  ?on_outcome:(Engine.outcome -> unit) ->
  ?autostart:bool ->
  ?workers:int ->
  Config.t ->
  t
(** Builds the fleet and (unless [autostart:false]) spawns its worker
    domains: [min instances workers] of them, [workers] defaulting to
    [Domain.recommended_domain_count ()].  Instances are data, not
    domains; any worker serves any instance, one job per instance at a
    time, and a job's launches run on the shared default domain pool.
    [on_outcome] is called from the worker domain that settled the job,
    as each job finishes; the worker serves on when it raises, and
    {!shutdown} re-raises the first such exception.  With
    [autostart:false] submissions queue but nothing executes until
    {!start} — useful for deterministic placement tests.  Raises
    [Invalid_argument] when {!Config.validate} rejects the config. *)

val start : t -> unit
(** Spawns the worker domains (idempotent). *)

val submit : t -> Job.t -> (ticket, reject) result
(** Admission control: places the job on a queue and returns its ticket
    without blocking.  Invalid jobs are admitted and settle as failed
    outcomes (so a batch keeps its one-outcome-per-job shape). *)

val submit_blocking : t -> Job.t -> ticket
(** Like {!submit}, but treats [Queue_full] as backpressure: waits for
    queue space instead of rejecting.  Raises [Invalid_argument] when
    the fleet is draining. *)

val await : t -> ticket -> Engine.outcome
(** Blocks until the ticket's job settles.  Raises [Invalid_argument]
    on a ticket the fleet never issued, or when the config does not
    retain outcomes. *)

val quiesce : t -> unit
(** Blocks until every admitted job has settled.  The workers keep
    running; only useful once {!start} has been called. *)

val drain : t -> Engine.outcome list
(** {!quiesce}, then all retained outcomes in admission order. *)

val shutdown : t -> unit
(** Stops admissions, lets the workers finish every queued job, joins
    them.  Idempotent; a never-started fleet just stops.  Crashed and
    hung instances hold no work: theirs was migrated when the strike
    came.  Re-raises the first exception an [on_outcome] call raised. *)

val run :
  ?on_outcome:(Engine.outcome -> unit) ->
  Config.t ->
  Job.t list ->
  Engine.outcome list
(** [run config jobs] runs a batch over a fresh fleet built from
    [config]: one outcome per job, in submission order, a failing job
    never aborting the batch.  Backpressure from bounded queues blocks
    the submitter instead of rejecting (a batch has no client to
    answer); [retain_outcomes] is forced on.  [on_outcome] is called as
    each job settles, from the worker domain that ran it — it must be
    thread-safe.  Never raises on job failures; once every job has
    settled, re-raises the first exception [on_outcome] raised. *)

(** A point-in-time view of one instance. *)
type stats = {
  id : string;  (** e.g. ["v100#0"] *)
  device : Gpusim.Device.t option;
  executed : int;  (** jobs this instance settled *)
  stolen : int;  (** of those, claimed from foreign queues *)
  queue_depth : int;
  busy_ms : float;  (** wall clock spent executing (attempts + backoff) *)
  utilization : float;  (** busy fraction of the fleet's lifetime, 0..1 *)
  state : string;
      (** chaos state: ["ok"], ["browned"], ["hung"] or ["crashed"] *)
}

val stats : t -> stats list
(** One entry per instance, in pool order. *)

val steals : t -> int
(** Total jobs executed by a different instance than admitted them. *)

val size : t -> int
(** Number of instances. *)

val config : t -> Config.t

val classify_job : Job.t -> Obs.Roofline.bound
(** The placement verdict for a job's shape: compute- vs memory-bound
    on the fixed V100 reference (memoized).  Unplannable shapes
    classify as [Memory]; the job would settle as a validation failure
    anyway. *)

val reject_to_json : Job.t -> reject -> Obs.Json.t
(** The schema-stamped [{"status": "rejected"}] line serve mode emits
    for a refused submission: not an outcome (the job never entered a
    queue), but it lets a client tell backpressure from silence. *)
