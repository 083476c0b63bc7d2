(** The event tracer: lock-free per-domain span/instant/counter sinks
    with a Chrome trace-event JSON exporter (opens in Perfetto or
    chrome://tracing).

    Recording costs one atomic load when tracing is off; when on, each
    domain appends to its own cell of a {!Domain_buffer} (the registry
    mutex is taken only for a domain's first event of a trace).  Timestamps are
    microseconds of the host clock relative to {!start}; the simulated
    device clock is published by the simulator as a counter track.

    [export] is meant to be called after the traced work has completed
    (there is no synchronization against domains still recording). *)

(** Span/instant arguments: JSON values, rendered into the event's
    ["args"] object (a non-finite float as [0], see {!Json.finite}). *)
type arg = Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of arg list
  | Obj of (string * arg) list

val start : unit -> unit
(** Starts a fresh trace: drops all previously recorded events, zeroes
    the clock and enables recording. *)

val stop : unit -> unit
(** Disables recording; the events stay available to {!export}. *)

val enabled : unit -> bool
(** Whether this domain records: one atomic load when tracing is off.
    Use it to skip argument construction on hot paths. *)

val muted : (unit -> 'a) -> 'a
(** [muted f] runs [f ()] with this domain's recording off (also
    through {!enabled}), for work that is not part of what the trace
    shows, such as a what-if plan; other domains record on. *)

val span : ?cat:string -> ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()] and records a complete ("ph":"X") event
    covering its duration — also when [f] raises.  Transparent when
    tracing is off. *)

val instant : ?cat:string -> ?args:(string * arg) list -> string -> unit
(** A point event ("ph":"i"). *)

val counter : string -> float -> unit
(** A counter-track sample ("ph":"C"), e.g. the simulated device clock. *)

val event_count : unit -> int
(** Events recorded since the last {!start}, across all domains. *)

val export : unit -> string
(** The whole trace as one Chrome trace-event JSON document:
    [{"displayTimeUnit":"ms","traceEvents":[...]}], events sorted by
    timestamp, every event carrying [name]/[cat]/[ph]/[ts]/[pid]/[tid]. *)

val export_file : string -> unit
(** {!export} into a file (with a trailing newline). *)
