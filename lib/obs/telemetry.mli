(** Continuous telemetry: a ticker thread that periodically snapshots a
    {!Metrics} registry, folds in the {!Health} plane and any buffered
    {!Log} records, and exports JSON lines plus Prometheus text
    exposition.

    The first tick fires immediately at {!start} and a final tick fires
    inside {!stop}, so every run produces at least two snapshots. *)

type target =
  | File of string  (** opened (truncating) at start, closed at stop *)
  | Chan of out_channel  (** written through, flushed but never closed *)

type t

val start :
  ?interval_ms:float -> ?registry:Metrics.t -> ?prom:target -> target -> t
(** [start jsonl] spawns the ticker.  Each tick appends one
    [{"type":"snapshot",...}] JSON line (preceded by any drained
    [{"type":"log",...}] lines when the {!Log} sink is [Buffered]) to
    [jsonl], and — when [?prom] is given — renders the full Prometheus
    exposition there (a [File] target is rewritten in place each tick so
    it always holds one complete scrape; a [Chan] target is appended
    to).  [interval_ms] defaults to 1000; [registry] defaults to
    {!Metrics.default}.  Raises [Invalid_argument] unless the interval
    is positive and finite. *)

val stop : t -> unit
(** Signals the ticker, joins it (within ~50 ms), emits the final tick,
    and closes any [File] targets.  Idempotent. *)

val ticks : t -> int
(** Snapshots emitted so far. *)

val prometheus_of_snapshot : ?prefix:string -> Metrics.snapshot -> string
(** Renders a snapshot in Prometheus text exposition format.  Dotted
    names with three or more segments keep their first two segments as
    the metric family and carry the rest as an [instance] label (so
    [fleet.util.v100#0] becomes [mdls_fleet_util{instance="v100#0"}]);
    counters gain the [_total] suffix; histograms expand to cumulative
    [_bucket{le=...}] series plus [_sum]/[_count].  [prefix] defaults to
    ["mdls_"]. *)

(** {2 The JSON-lines stream}

    The codec of the stream {!start} writes and [lsq_cli monitor] tails:
    one [{"type":"snapshot",...}] object per tick, with
    [{"type":"log",...}] records ({!Log.to_json}) interleaved. *)

type snapshot = {
  seq : int;
  ts_ms : float;
  metrics : Metrics.snapshot;  (** in {!Metrics.to_json} form *)
  health : Health.class_status list;
  drift : Health.stage_drift list;
}

type line = Snapshot of snapshot | Log_line of Log.record

val line_to_string : line -> string
(** One line, without the newline; non-finite floats are written as [0]
    ({!Json.finite}), so this never raises. *)

val line_of_string : string -> line
(** Inverse of {!line_to_string} for finite values.  Raises
    {!Json.Error} — and only [Json.Error] — on any malformed line,
    including truncated documents and torn tail-follow reads that would
    otherwise surface as [Invalid_argument]/[Failure] from the field
    accessors.  Callers skip-and-count on it. *)
