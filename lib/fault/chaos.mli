(** Seeded device-chaos plans for the fleet.

    Where {!Plan} injects faults *inside* a solve (bitflips, launch
    errors, transfer corruption), a chaos plan injects *instance-level*
    failures into a running fleet: an instance that crashes or hangs
    and is never served again (its work migrates), or a device that
    browns out and runs every kernel slower by a constant factor.

    A {!config} describes the campaign; {!draw} is a pure function of
    [(config, instance index)], so a campaign replays bit-identically
    from the seed alone and the fleet can be restarted mid-campaign
    without changing which instances fail.  The fleet records every
    triggered event through the [note_*] helpers, which mirror into
    [fleet.chaos.*] metrics counters. *)

type kind =
  | Crash  (** the instance dies; its claimed job and queue migrate *)
  | Hang  (** the instance freezes; recovered exactly as a crash *)
  | Brownout  (** every kernel on the device runs [factor] times slower *)

val all_kinds : kind list
val kind_name : kind -> string

val kind_of_string : string -> kind
(** Inverse of {!kind_name} (also accepts a few aliases).
    @raise Invalid_argument on unknown names. *)

type config = {
  seed : int;  (** campaign seed; same seed + config => same events *)
  rate : float;  (** per-instance strike probability *)
  kinds : kind list;  (** which chaos kinds are armed *)
  after_jobs : int * int;
      (** inclusive range of executed-job counts after which a struck
          instance fails *)
  brownout_factor : float;  (** slowdown factor for [Brownout], > 1 *)
}

val config :
  ?kinds:kind list ->
  ?after_jobs:int * int ->
  ?brownout_factor:float ->
  seed:int ->
  rate:float ->
  unit ->
  config
(** Smart constructor.  Defaults: all kinds, strike after 1..4 executed
    jobs, brownout factor 4.
    @raise Invalid_argument when [rate] is NaN or outside [0, 1], when
    [kinds] is empty, when the [after_jobs] range is negative or
    inverted, or when [brownout_factor] is not > 1. *)

type event = {
  kind : kind;
  after : int;  (** executed jobs on the instance before the strike *)
  factor : float;  (** slowdown for [Brownout]; 1.0 otherwise *)
}

val draw : config -> instance:int -> event option
(** The chaos event (if any) destined for fleet instance [instance].
    Pure: every call with the same [(config, instance)] returns the
    same answer. *)

(** {1 Recording events}

    Called by the fleet when a drawn event actually triggers.  Each
    mirrors into a [fleet.chaos.*] counter and an [Obs.Log] record. *)

val note_triggered : kind -> instance:string -> unit
val note_migration : instance:string -> jobs:int -> unit
val note_quarantine : job:string -> unit

(** {1 Tallies} *)

type tally = { crashes : int; hangs : int; brownouts : int }

val tally_of_events : event option list -> tally
(** Aggregate the events a campaign will deal to a pool of instances
    ([draw] applied to each index). *)
