(** Deterministic, seeded fault-injection plans for the GPU simulator.

    A {!config} describes a fault campaign: which fault kinds are armed,
    the per-launch (and per-transfer) strike probability, and how many
    low-level recovery attempts each layer of the recovery ladder may
    spend before escalating.  Arming a config ({!arm}) produces a
    mutable plan [t] that a simulator consults on every launch and
    transfer.  All randomness — both where faults strike and where the
    detectors probe — flows from two splitmix64 streams split off the
    campaign seed, so a campaign replays bit-identically from
    [(seed, config)] alone.

    The plan also keeps the campaign's running tally (faults injected
    per kind, detections, relaunches, replays, escalations) and mirrors
    every event into [Obs.Metrics] counters and [Obs.Tracer] instants,
    so fault activity is visible in metric snapshots and Perfetto
    traces. *)

type kind =
  | Bitflip  (** a limb bit-flip in device-resident data *)
  | Launch_fail  (** a kernel launch that errors out and must rerun *)
  | Transfer_corrupt  (** corruption of a host<->device transfer *)

val all_kinds : kind list
val kind_name : kind -> string

val kind_of_string : string -> kind
(** Inverse of {!kind_name} (also accepts a few aliases).
    @raise Invalid_argument on unknown names. *)

exception Injected of kind * string
(** Raised when a layer of the recovery ladder exhausts its budget and
    escalates; the string names the site (stage label). *)

type config = {
  seed : int;  (** campaign seed; same seed + config => same faults *)
  rate : float;  (** per-launch / per-transfer strike probability *)
  kinds : kind list;  (** which fault kinds are armed *)
  max_relaunches : int;  (** kernel relaunch / retransfer budget *)
  max_replays : int;  (** stage (panel / tile) replay budget *)
}

val config :
  ?kinds:kind list ->
  ?max_relaunches:int ->
  ?max_replays:int ->
  seed:int ->
  rate:float ->
  unit ->
  config
(** Smart constructor.  Defaults: all kinds, 2 relaunches, 2 replays.
    @raise Invalid_argument when [rate] is NaN or outside [0, 1], when
    [kinds] is empty, or when a budget is negative. *)

(** {1 Armed plans} *)

type t

val arm : ?salt:int -> config -> t
(** Arms a config.  [salt] perturbs the seed so several sims inside one
    job (e.g. the QR sim and the back-substitution sim) draw independent
    fault streams from one campaign seed. *)

val max_relaunches : t -> int

val aux_rng : t -> Dompool.Prng.t
(** The auxiliary stream used for corruption sites and detector probes;
    separate from the injection stream so that detection never changes
    where faults strike. *)

(** {1 Drawing faults}

    Called by the simulator once per launch / transfer.  Advancing the
    injection stream exactly once per site keeps campaigns replayable. *)

val draw_launch : t -> can_corrupt:bool -> kind option
(** A fault for one kernel launch: [Launch_fail], or [Bitflip] when
    armed and [can_corrupt] (the sim executes and has a registered
    corruptor).  [None] when the draw does not strike. *)

val draw_transfer : t -> kind option
(** A fault for one transfer: [Transfer_corrupt] or [None]. *)

(** {1 Recording events}

    Each [note_*] updates the plan's tally and mirrors the event into
    metrics counters ([faults.injected], [faults.detected],
    [faults.recovered], [faults.escaped]) and tracer instants. *)

val note_launch_fail : t -> stage:string -> unit
(** Injected launch failure; counts as detected too (the driver always
    observes a failed launch). *)

val note_bitflip : t -> stage:string -> unit
val note_transfer_fault : t -> unit
(** Injected transfer corruption; counts as detected too (staged limb
    planes carry checksums verified at unpack). *)

val note_corruption : t -> stage:string -> what:string -> unit
(** Tracer-only breadcrumb describing what a bitflip corrupted. *)

val note_detected : t -> stage:string -> unit
(** A solver-level detector (probe, recompute, checksum, guard) caught
    corrupted data. *)

val note_relaunch : t -> stage:string -> unit
val note_retransfer : t -> unit
val note_replay : t -> stage:string -> unit
val note_escalation : t -> stage:string -> unit

(** {1 The stage-level recovery ladder}

    A solver stage (a QR panel, a back-substitution tile or update, a
    run of CG or LSQR iterations) owns its detector and its snapshot;
    what happens to the device state and to the plan when the detector
    fires is written once, here. *)

type region = string * int * (int -> int -> (float -> float) -> unit)
(** [(name, size, flip)]: a device-resident array of [size] elements.
    [flip i limb f] rewrites limb word [limb] of element [i] with [f]
    applied to it. *)

val strike :
  limbs:int -> raw:bool -> region list -> Dompool.Prng.t -> string
(** The bit-flip corruptor over a device state: draws an element
    weighted by region size, then one of its [limbs] limb words, then
    one of 64 bits, in that order, flips it and describes the strike
    ("R[81] plane 0 bit 38", with " (raw)" when [raw]: the words are
    staged limb-plane words, not a scalar's limbs).  With nothing
    resident it draws nothing and says so. *)

type cause =
  | Detected  (** the stage's detector caught corrupted data *)
  | Escalated of exn
      (** a launch inside the stage escalated past its relaunch budget
          (the simulator already noted the failure and the escalation) *)

val rung : ?budget:int -> t -> stage:string -> replays:int -> cause -> unit
(** One rung of the ladder for [stage], which has been replayed
    [replays] times: notes a detection, then, while [replays < budget]
    (by default the plan's replay budget), notes a replay and returns —
    the caller restores its snapshot and reruns the stage.  Past the
    budget a detection notes the escalation and raises
    [Injected (Bitflip, stage)]; an escalated launch re-raises its
    exception. *)

(** {1 Tallies} *)

type tally = {
  bitflips : int;
  launch_fails : int;
  transfer_faults : int;
  detected : int;
  relaunches : int;
  retransfers : int;
  replays : int;
  escalations : int;
}

val zero_tally : tally
val snapshot : t -> tally
val merge : tally -> tally -> tally

val injected : tally -> int
(** [bitflips + launch_fails + transfer_faults]. *)

val recovered : tally -> int
(** Low-level recovery events: [relaunches + retransfers + replays]. *)

val pp_tally : Format.formatter -> tally -> unit

(** {1 Corruption helper} *)

val flip_bit : float -> int -> float
(** [flip_bit x bit] flips one bit ([0..63]) of the IEEE-754
    representation of [x] — the model of a single-event upset in one
    limb word. *)

