(** A minimal JSON value with a printer and a parser: the one codec for
    every JSON document the process writes or reads — reports, job and
    outcome lines, Chrome traces, log and telemetry lines (no external
    dependency is available in the build environment).

    Floats are printed with 17 significant digits, so every finite float
    round-trips bit for bit through {!to_string} and {!of_string};
    non-finite floats are not representable in JSON and raise (see
    {!finite}). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string
(** Raised by the parser and by the typed accessors. *)

val to_string : t -> string
(** Compact one-line rendering (no insignificant whitespace). *)

val finite : t -> t
(** [finite v] is [v] with every non-finite [Float] (NaN, ±∞) replaced
    by [Float 0.0].  The trace, log and telemetry writers pass their
    documents through it before {!to_string}: they run inside logging
    calls and on the telemetry ticker domain, where a NaN gauge must not
    raise.  Reports and outcome lines do not, so a non-finite value
    there still fails loudly. *)

val of_string : string -> t
(** Parses one JSON value; raises {!Error} on malformed input or on
    trailing garbage.  Numbers with a fraction or exponent parse as
    [Float], others as [Int]. *)

(** {2 Typed accessors} — all raise {!Error} on a kind mismatch. *)

val member : string -> t -> t
(** [member key obj] is the value bound to [key], or [Null] when the key
    is absent; raises {!Error} when the value is not an object. *)

val get_string : t -> string
val get_bool : t -> bool
val get_int : t -> int

val get_float : t -> float
(** Accepts both [Float] and [Int] payloads. *)

val get_list : t -> t list

val to_option : (t -> 'a) -> t -> 'a option
(** [to_option get v] is [None] on [Null], [Some (get v)] otherwise. *)
