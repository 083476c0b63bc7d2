(** Per-stage accumulation of kernel times, operation tallies, launch
    counts, memory traffic and roofline time terms, used to print the
    stage-by-stage breakdowns of the paper's tables and to feed the
    per-stage roofline diagnostics.

    Recording a launch allocates nothing once its stage exists: the sums
    are unboxed, and a stage is looked up first by physical equality
    with the strings that created the first stages, then by content. *)

(** An immutable copy of one stage's accumulated state. *)
type row = {
  stage : string;
  ms : float;
  ops : Counter.ops;
  launches : int;
  cold_bytes : float;
  thread_bytes : float;
  compute_ms : float;  (** summed compute terms of the model *)
  memory_ms : float;  (** summed max(DRAM, cache) terms *)
}

type t

val create : unit -> t

val reset : t -> unit
(** Forgets every stage. *)

val record :
  t -> stage:string -> slowdown:float -> Cost.launch -> Cost.eval -> unit
(** [record t ~stage ~slowdown cost eval] adds one launch record
    ([cost.count] concurrent launches) to [stage]: its modeled ms and
    time terms from [eval], each scaled by [slowdown], and its op tally
    and traffic from [cost].  Stages are keyed by content. *)

val stages : t -> string list
(** In first-recorded order. *)

val row : t -> string -> row
(** The accumulated state of one stage (a zero row when the stage never
    recorded). *)

val rows : t -> row list
(** One row per stage, in first-recorded order. *)

val stage_ms : t -> string -> float
val stage_ops : t -> string -> Counter.ops
val stage_launches : t -> string -> int
val total_ms : t -> float
val total_ops : t -> Counter.ops
val total_launches : t -> int

val roofline :
  Device.t -> Multidouble.Precision.tag -> row list -> Obs.Roofline.stage list
(** Per-stage roofline diagnostics of [rows] at a precision on a device:
    flops from the Table 1 multipliers, bytes and compute/memory time
    terms straight from the cost model's accounting. *)
