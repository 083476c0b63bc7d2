(** The metrics registry: named counters, gauges and fixed-bucket
    histograms, safe under concurrent update from many domains.

    The registry mutex is taken only to get-or-create a metric by name.
    Counters and histograms keep one shard per domain
    ({!Domain_buffer.Cells}): an update is plain stores to the calling
    domain's shard, and a read sums every domain's shards, so
    concurrent hammering stays exact once the updating calls have
    returned.  Gauges are one atomic.  Handles returned by
    {!counter}/{!gauge}/{!histogram} stay valid across {!reset} (which
    zeroes values in place). *)

module Counter : sig
  type t

  val incr : t -> unit

  val add : t -> int -> unit
  (** [add t n] adds [n]. *)

  val value : t -> int
  (** The sum over every domain's shard. *)
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val value : t -> float
end

module Histogram : sig
  type t

  val observe : t -> float -> unit
  (** Tallies [v] into the first bucket with [v <= bound] (the last
      bucket is unbounded) and adds it to the running sum. *)

  val count : t -> int
  val sum : t -> float
  val bounds : t -> float array
  val bucket_counts : t -> int array
  (** One count per bucket; length is [Array.length bounds + 1] (the
      trailing overflow bucket). *)

  val quantile : t -> float -> float
  (** [quantile t q] estimates the [q]-quantile ([0 <= q <= 1]) of the
      observed distribution — see the top-level {!quantile}. *)
end

type t

val create : unit -> t

val default : unit -> t
(** The process-wide registry the instrumented libraries record into. *)

val default_buckets : float array
(** Millisecond-oriented bounds used when [?buckets] is omitted. *)

val latency_buckets : float array
(** A finer 1-2.5-5 millisecond ladder (10 us .. 10 s) for latency
    histograms whose p50/p95/p99 will be read off the snapshot. *)

val quantile : bounds:float array -> counts:int array -> float -> float
(** [quantile ~bounds ~counts q] estimates the [q]-quantile of a
    bucketed distribution by linear interpolation inside the bucket
    holding the [q*count]-th observation.  Bucket counts are exact
    once concurrent {!Histogram.observe}s have returned (each domain
    counts in its own shard), so the estimate is deterministic in the
    observations; the resolution is
    the bucket ladder.  Ranks landing in the overflow bucket clamp to
    the largest finite bound; an empty distribution estimates 0. *)

val counter : t -> string -> Counter.t
(** Get-or-create; raises [Invalid_argument] when the name is already
    registered as another kind (same for {!gauge} and {!histogram}). *)

val gauge : t -> string -> Gauge.t
val histogram : ?buckets:float array -> t -> string -> Histogram.t

val once : (unit -> 'a) -> unit -> 'a
(** Domain-safe lazy resolution for instrumentation handles: [once f]
    is a thunk that calls [f] on first use and caches the result behind
    an atomic.  Unlike an OCaml [lazy] (which raises [Undefined] under
    a concurrent force), a race at first use just resolves [f] twice —
    harmless for the idempotent get-or-create registrations above. *)

val reset : t -> unit
(** Zeroes every registered metric in place, every domain's shard of
    it; cached handles stay valid.  For a quiescent registry: an update
    racing the reset may survive it. *)

(** An immutable point-in-time copy of one metric's state. *)
type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      bounds : float array;
      counts : int array;  (** per bucket, overflow last *)
      count : int;
      sum : float;
      p50 : float;  (** median estimate — see {!quantile} *)
      p95 : float;
      p99 : float;
    }

type snapshot = (string * value) list
(** Sorted by metric name. *)

val snapshot : t -> snapshot

(** {2 JSON codec} — the one metric encoder: reports carry a snapshot
    through it and every telemetry line embeds one. *)

val to_json : snapshot -> Json.t
(** A list of [{"name":…,"kind":…,…}] objects.  Zero-count histograms
    omit their [p50]/[p95]/[p99] keys — the quantiles of an empty
    distribution are undefined, and emitting [0.0] would be
    indistinguishable from a measured zero latency. *)

val of_json : Json.t -> snapshot
(** Inverse of {!to_json}; raises {!Json.Error} on malformed documents.
    Histogram percentile fields are recomputed from the bucket counts
    when absent (zero-count histograms, or documents predating the
    fields). *)
