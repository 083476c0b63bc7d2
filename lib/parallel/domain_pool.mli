(** A fixed pool of worker domains with one dispatch, {!parallel_for}.

    The GPU simulator maps thread blocks onto these workers; create the
    pool once and reuse it — spawning domains costs far more than a
    simulated kernel launch.  A call never waits on a worker that took
    no work: idle workers spin briefly after each task, then park, and
    a caller that finds them parked does the chunks itself. *)

type t

val create : int -> t
(** [create n] spawns a pool of [n] workers ([n - 1] new domains; the
    calling domain participates in {!parallel_for}). *)

val size : t -> int

val shutdown : t -> unit
(** Joins all worker domains.  The pool must not be used afterwards. *)

val parallel_for : ?chunk:int -> t -> int -> int -> (int -> unit) -> unit
(** [parallel_for pool lo hi f] applies [f i] for [lo <= i < hi] across
    the pool, in chunks of [chunk] (default: range / 4·workers).  The
    calling domain and up to [size - 1] helper tasks claim chunks from a
    shared atomic counter, so no chunk takes a lock; the call returns
    once every claimed chunk has finished.  Every chunk is attempted: an
    [f i] that raises ends its own chunk only.  The first exception is
    re-raised on the calling domain, with its backtrace, after all
    chunks have finished.  Nested calls from inside a chunk, single-chunk
    ranges and pools of size 1 run inline on the calling domain, where an
    exception propagates at once.  Any number of domains may call it on
    one pool concurrently. *)

val get_default : unit -> t
(** A lazily created pool of [Domain.recommended_domain_count ()]
    workers: one domain per core the process may use. *)
