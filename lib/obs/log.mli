(** Structured leveled logging for the fleet service.

    One process-wide logger with an atomic level gate and three sink
    modes.  [Off] (the default) makes every call a single atomic load;
    [Channel] writes JSON lines immediately (the [serve] stderr mode);
    [Buffered] pushes onto a lock-free {!Domain_buffer} — the one the
    {!Tracer} also records into — for a drainer (the telemetry exporter)
    to collect. *)

type level = Debug | Info | Warn | Error

val level_name : level -> string
(** ["debug"], ["info"], ["warn"], ["error"]. *)

val level_of_string : string -> level
(** Inverse of {!level_name} (also accepts ["warning"]); raises
    [Invalid_argument] on unknown names. *)

(** Field values are JSON values; a non-finite float is written as [0]
    (see {!Json.finite}). *)
type field = Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of field list
  | Obj of (string * field) list

type record = {
  ts_ms : float;  (** epoch milliseconds *)
  level : level;
  domain : int;  (** emitting domain id *)
  event : string;
  fields : (string * field) list;
}

type sink = Off | Buffered | Channel of out_channel

val set_level : level -> unit
val level : unit -> level

val enabled : level -> bool
(** [enabled l] is true when records at [l] pass the current gate.  Use
    it to skip expensive argument construction. *)

val set_sink : sink -> unit
(** Switching to [Buffered] starts a fresh stream: previously buffered
    records are discarded and the drop counter resets. *)

val sink : unit -> sink

val log : level -> ?fields:(string * field) list -> string -> unit
val debug : ?fields:(string * field) list -> string -> unit
val info : ?fields:(string * field) list -> string -> unit
val warn : ?fields:(string * field) list -> string -> unit
val error : ?fields:(string * field) list -> string -> unit

val drain : unit -> record list
(** Takes every buffered record (all domains), sorted by timestamp.
    Only meaningful under the [Buffered] sink. *)

val buffered : unit -> int
(** Records currently awaiting {!drain}. *)

val dropped : unit -> int
(** Records discarded because the buffer cap was reached. *)

(** {2 JSON codec} *)

val to_json : record -> Json.t
(** [{"type":"log","ts_ms":…,"level":…,"domain":…,"event":…,"fields":{…}}]. *)

val to_json_line : record -> string
(** {!to_json} on one line, non-finite floats written as [0]: never
    raises. *)

val of_json : Json.t -> record
(** Inverse of {!to_json} for finite records.  Raises {!Json.Error} on
    missing or mistyped keys and [Invalid_argument] on an unknown level
    name. *)
