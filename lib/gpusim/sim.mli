(** The simulated accelerator.

    Kernel launches execute their data-parallel body on a domain pool
    (blocks in parallel, the threads of one block sequentially), while
    the cost model accounts the milliseconds the same launch takes on the
    chosen physical device.  With [execute = false] a launch is costed
    without running its body, so the paper's largest dimensions are timed
    without executing trillions of host flops.

    Observability: when [Obs.Tracer] is recording, every launch emits a
    kernel span (grid/block dims, stage, modeled ms, op tally) and
    samples the simulated device clock onto a counter track; transfers
    emit instant events.  The process-wide [Obs.Metrics] registry always
    tallies ["sim.launches"], ["sim.transfers"] and the ["sim.kernel_ms"]
    histogram.

    Fault injection: arming a [Fault.Plan.config] at {!create} makes the
    simulator draw one potential fault per launch and per transfer from
    the plan's seeded stream.  Launch failures cost a relaunch (the cost
    model is charged again) up to the plan's budget, then escalate by
    raising [Fault.Plan.Injected]; transfer corruption retransfers the
    same way; bit-flips run the kernel and then corrupt live data
    through the {!set_corruptor} hook, to be caught (or not) by the
    solvers' detectors.  An unarmed simulator takes none of these paths
    — zero overhead when faults are disabled. *)

type clock
(** Transfer, host-launch and peak-footprint accumulators behind
    {!wall_ms}, and the running device clock of the trace's counter
    track. *)

type meter
(** The creating domain and its shards of the [sim.launches] and
    [sim.kernel_ms] metrics, taken at {!create}. *)

type t = {
  device : Device.t;
  prec : Multidouble.Precision.tag;
  pool : Dompool.Domain_pool.t;
  mutable execute : bool;
  profile : Profile.t;
  clock : clock;
  memo : Cost.memo;  (** the device's occupancy term per launch shape *)
  meter : meter;
  fault : Fault.Plan.t option;
  mutable corruptor : (Dompool.Prng.t -> string) option;
  metered : bool;
      (** launches and transfers count in the [sim.*] metrics: false
          exactly for a simulator created inside {!what_if} *)
}

val create :
  ?execute:bool ->
  ?pool:Dompool.Domain_pool.t ->
  ?fault:Fault.Plan.config ->
  ?fault_salt:int ->
  device:Device.t ->
  prec:Multidouble.Precision.tag ->
  unit ->
  t
(** [fault] arms fault injection on this simulator; [fault_salt]
    decorrelates the fault streams of several simulators sharing one
    campaign seed (e.g. the QR and back-substitution sims of a solve). *)

val with_slowdown : float -> (unit -> 'a) -> 'a
(** [with_slowdown factor f] runs [f] with every kernel and transfer
    costed [factor] times slower — the brownout model for a degraded
    device.  Domain-local and multiplicative under nesting; the cost is
    read at accounting time on the launching domain, so concurrent jobs
    on healthy instances are unaffected.
    @raise Invalid_argument when [factor] is NaN or < 1. *)

val ambient_slowdown : unit -> float
(** The slowdown factor currently in effect on this domain (1.0 when
    none). *)

val what_if : (unit -> 'a) -> 'a
(** [what_if f] runs [f] as a what-if, such as a placement plan: the
    simulators it creates accrue their launches and transfers as always
    but count them in no [sim.*] metric, and this domain records no
    trace event while [f] runs ({!Obs.Tracer.muted}). *)

val fault_plan : t -> Fault.Plan.t option
val fault_tally : t -> Fault.Plan.tally option

val set_corruptor : t -> (Dompool.Prng.t -> string) option -> unit
(** Registers the solver-side bit-flip hook: called after a launch the
    plan marked [Bitflip] (executing sims only), it should corrupt one
    limb of the live data and return a description for the trace. *)

val reset : t -> unit
(** Clears the profile, transfers and host-side accounting. *)

val launch :
  ?protected:bool ->
  t ->
  stage:string ->
  cost:Cost.launch ->
  (int -> unit) ->
  unit
(** [launch t ~stage ~cost body] accounts one kernel under [stage] and,
    when executing, runs [body block] for every block of the grid, blocks
    in parallel on the pool.  [protected] launches (ABFT check kernels)
    are exempt from fault injection. *)

val transfer : t -> float -> unit
(** Stages that many bytes between host and device (wall clock only). *)

val kernel_ms : t -> float
(** Sum of the times spent by the kernels. *)

val wall_ms : t -> float
(** Kernels + transfers + host-side per-launch costs + host RAM
    pressure. *)

val launches : t -> int

val breakdown : t -> Profile.row list
(** Per-stage rows (kernel ms, launch counts, op tallies, traffic), in
    first-recorded order.  Profiles are per-simulator state: concurrent
    jobs that each create their own simulators (even on one shared pool)
    never mix. *)

val roofline : t -> Obs.Roofline.stage list
(** Per-stage roofline diagnostics against this simulator's device:
    flops from the Table 1 multipliers, bytes and compute/memory time
    terms straight from the cost model's accounting. *)

val kernel_gflops : t -> float
(** Total double precision flops over the kernel time. *)

val wall_gflops : t -> float
(** Same over the wall clock. *)
