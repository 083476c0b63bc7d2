(** The kernel timing model: a roofline with occupancy, latency-hiding,
    wave-quantization and cache-spill terms, calibrated against the
    measurements in the paper.

    kernel time = count · launch overhead
                + max(flops / (peak · eff · occupancy),
                      cold_bytes / DRAM bandwidth,
                      thread_bytes / cache bandwidth) *)

(** One kernel launch, as seen by the model. *)
type launch = {
  blocks : int;
  threads : int;  (** per block *)
  count : int;
      (** kernel launches this record stands for (Algorithm 1 issues the
          i-1 right-hand-side updates of one step concurrently) *)
  ops : Counter.ops;  (** true tally over all threads *)
  padded : Counter.ops option;
      (** timing tally when thread work is imbalanced; default [ops] *)
  cold_bytes : float;
      (** unique global traffic (block-shared data counted once) *)
  thread_bytes : float;
      (** traffic as issued per thread, before reuse *)
  working_set : float;
      (** per-plane bytes of the shared input panel the threads re-read
          (the staggered layout streams each plane separately) *)
  strided : bool;
      (** the re-read panel has a large pitch (e.g. trailing columns
          inside R): once it spills the L2 the accesses waste most of
          each DRAM transaction *)
}

val launch :
  ?count:int ->
  ?padded:Counter.ops ->
  ?cold_bytes:float ->
  ?thread_bytes:float ->
  ?working_set:float ->
  ?strided:bool ->
  blocks:int ->
  threads:int ->
  Counter.ops ->
  launch

(** {2 Launch builders for the iterative engines' vector kernels}

    CG and LSQR are thin loops over a matrix-vector product and a few
    BLAS-1 kernels; their Table-1 tallies and traffic are fixed by the
    shapes alone, so the builders live here and every engine shares one
    accounting.  [sb] is the byte size of one scalar in the staggered
    representation.  The matrix-vector product performs O(1) flops per
    element moved, which pins these kernels to the memory side of the
    roofline at every multiple double precision. *)

val gemv :
  ?trans:bool ->
  ?complex:bool ->
  sb:float ->
  rows:int ->
  cols:int ->
  threads:int ->
  unit ->
  launch
(** [y := A x] ([rows] outputs), or [y := A^H x] ([cols] outputs,
    strided column walk) with [trans]. *)

val dot : ?complex:bool -> sb:float -> n:int -> threads:int -> unit -> launch
val axpy : ?complex:bool -> sb:float -> n:int -> threads:int -> unit -> launch

val scal : ?complex:bool -> sb:float -> n:int -> threads:int -> unit -> launch
(** [y := alpha x]. *)

val arithmetic_efficiency : float
(** Fraction of the double precision peak a fully occupied multiple
    double kernel sustains (the Table 1 mix is dominated by dependent
    non-fused additions); calibrated on the paper's V100/P100 octo
    double measurements. *)

val warps_to_hide_latency : float
val scatter_efficiency : float
val l2_reach : float

val occupancy : Device.t -> blocks:int -> threads:int -> float
(** Achieved fraction of peak issue rate in (0, 1]: wave quantization
    across SMs, warp rounding inside blocks, resident-warp latency
    hiding. *)

(** One roofline evaluation of a launch: the modeled milliseconds and the
    three time terms (seconds) whose maximum they add to the launch
    overhead.  Flat floats: building it is one small allocation. *)
type eval = { ms : float; compute_s : float; dram_s : float; cache_s : float }

val evaluate : Device.t -> Multidouble.Precision.tag -> launch -> eval
(** The model, evaluated once; {!kernel_ms} and {!terms} are views of
    it. *)

type memo
(** One device's {!occupancy} term, memoized on [(blocks, threads)] in a
    small direct-mapped table (a few hundred words).  Mutable and
    unsynchronized: use a memo from one domain at a time. *)

val memo : Device.t -> memo

val evaluate_memo : memo -> Multidouble.Precision.tag -> launch -> eval
(** [evaluate_memo (memo d) p l] equals [evaluate d p l] bit for bit:
    the same roofline body, at the occupancy the table holds for the
    launch's shape or computes on a miss. *)

val kernel_ms : Device.t -> Multidouble.Precision.tag -> launch -> float
(** Modeled milliseconds of one launch. *)

val transfer_ms : Device.t -> float -> float
(** Host <-> device staging time for that many bytes (wall clock only). *)

val host_launch_ms : Device.t -> float
(** Host-side cost of issuing one kernel. *)

val host_pressure_ms : Device.t -> float -> float
(** Swap penalty when the staged footprint exceeds the host RAM's reach
    (the paper's 84-second octo double anomaly at dimension 20,480). *)

(** Which roofline term binds a launch. *)
type binding = Compute | Dram | Cache | Spill

val terms :
  Device.t ->
  Multidouble.Precision.tag ->
  launch ->
  float * float * float * binding
(** [(compute_ms, dram_ms, cache_ms, binding)] of one launch. *)

val binding_name : binding -> string

val intensity : Multidouble.Precision.tag -> launch -> float
(** Arithmetic intensity in flops per byte. *)

val ridge : Device.t -> float
(** Device ridge point (flops/byte where compute catches memory). *)
