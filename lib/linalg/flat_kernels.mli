(** Allocation-free limb-planar ("flat") kernels on staggered planes.

    Executes the simulator's hot kernels directly on the staggered
    [float array] planes, through the limb-generic
    [Multidouble.Nd_flat.plan] record resolved once per scalar from its
    limb count — the single dispatch point.  The plan's engines replay
    the boxed operation sequences floating point operation for floating
    point operation, so the flat kernels are limb for limb identical to
    the generic [Scalar.S] path at every supported width (plain double,
    double double, quad double, octo double, and any future Expansion
    precision);
    consumers switch paths on {!Make.available} with no numerical
    consequences.

    Block-level entry points take the same block index as the generic
    [Sim.launch] bodies and write disjoint index ranges, so they are
    safe under [Domain_pool.parallel_for] without further locking. *)

val enabled : bool ref
(** Global switch, for benchmarks and the equivalence tests; the
    solvers consult it through {!Make.available}. *)

type tile = {
  mr : int;  (** output rows per micro-tile *)
  nr : int;  (** output columns per micro-tile (lanes) *)
  kc : int;  (** inner-dimension chunk per cache block *)
  flops : float;  (** double precision flops of one full tile *)
  bytes : float;  (** bytes moved by one full tile (A, B panels + C spill) *)
}
(** The register-tile geometry of the matrix product microkernel and its
    per-tile operation/traffic counts, for roofline classification
    (computed here because [Obs] deliberately knows nothing about
    precisions). *)

module Make (K : Scalar.S) : sig
  type planes = { rows : int; cols : int; p : Multidouble.Nd_flat.planes }
  (** A staged operand: [K.width] limb planes of [rows * cols] float64
      words, row-major — the layout of [Staggered], held in flat
      [Bigarray] storage.  Concrete so the kernel loops inline. *)

  val available : unit -> bool
  (** The flat plane covers every real uninstrumented width with an
      [Nd_flat] plan (plain double and every multiple double
      precision); complex and instrumented scalars keep the generic
      path. *)

  val tile : tile
  (** The microkernel tile resolved for this scalar: NR = 8 column lanes
      (a 64-byte line of each B limb plane), KC sized so a
      double-buffered B panel fits a 32 KiB L1 slice — 256 for plain
      double, 128 for double double, 64 for quad double, 32 for octo
      double. *)

  val alloc : rows:int -> cols:int -> planes

  val stage : rows:int -> cols:int -> get:(int -> int -> K.t) -> planes
  (** Staging costs O(elements) conversions, amortized by kernels doing
      O(elements * inner) work on the staged operand. *)

  val unstage : planes -> store:(int -> int -> K.t -> unit) -> unit
  val stage_vec : n:int -> get:(int -> K.t) -> planes
  val unstage_vec : planes -> store:(int -> K.t -> unit) -> unit

  val matmul_block : threads:int -> planes -> planes -> planes -> int -> unit
  (** The register-loading matrix product, one [Sim.launch] block:
      output elements [blk*threads, (blk+1)*threads), each a dot product
      of a row of the first operand with a column of the second.
      Executes as the {!tile}-shaped cache-blocked microkernel; each
      lane replays the untiled per-element operation sequence exactly,
      so the result is bit-identical to the generic loop. *)

  val matmul :
    execute:bool ->
    threads:int ->
    rows_o:int ->
    cols_o:int ->
    inner:int ->
    geta:(int -> int -> K.t) ->
    getb:(int -> int -> K.t) ->
    store:(int -> int -> K.t -> unit) ->
    launch:((int -> unit) -> unit) ->
    unit
  (** The solver-facing matrix product: one entry point, both paths.
      The caller computes the modeled device cost (identical on both
      paths) and passes the launch as a closure; this function picks the
      path — staged flat kernels when [execute] and {!available}, the
      boxed accessor loop otherwise.  Results are bit-identical. *)

  val bs_xi_block :
    dim:int -> r0:int -> n:int -> planes -> planes -> planes -> unit
  (** [bs_xi_block ~dim ~r0 ~n v bd x]: x_i := U_i^{-1} b_i on the tile
      at diagonal offset [r0] of the staged [dim]-by-[dim] matrix [v]
      with inverted diagonal tiles. *)

  val bs_update_block :
    dim:int -> r0:int -> rj:int -> n:int -> planes -> planes -> planes -> unit
  (** [bs_update_block ~dim ~r0 ~rj ~n v x bd]: b_j := b_j - A_(j,i) x_i
      for the block at row offset [rj]. *)

  val dot : n:int -> planes -> planes -> planes -> int -> unit
  (** [dot ~n a b out oidx]: out[oidx] := sum over [n] elements of
      a[i] * b[i]. *)

  val axpy : n:int -> planes -> planes -> planes -> unit
  (** [axpy ~n alpha x y]: y[i] := y[i] + alpha * x[i]; [alpha] is a
      staged single element. *)

  val gemv_block : threads:int -> planes -> planes -> planes -> int -> unit
  (** [gemv_block ~threads a x y blk]: y[i] := sum_k a[i, k] * x[k] for
      the output rows of one launch block.  Per element the untiled
      clear / ascending multiply-accumulate / store sequence, so the
      flat path is bit-identical to the boxed accumulator loop. *)

  val gemv_t_block : threads:int -> planes -> planes -> planes -> int -> unit
  (** The transposed product y[j] := sum_i a[i, j] * x[i] (strided
      column walk). *)

  val xpay : n:int -> planes -> planes -> planes -> unit
  (** [xpay ~n alpha x y]: y[i] := x[i] + alpha * y[i] — the CG
      direction update; [alpha] is a staged single element. *)

  val scal : n:int -> planes -> planes -> planes -> unit
  (** [scal ~n alpha x y]: y[i] := alpha * x[i]; in-place is safe. *)

  val rank1_sub : planes -> planes -> planes -> unit
  (** [rank1_sub a x y]: a[i, j] := a[i, j] - x[i] * y[j], the
      Householder panel update. *)

  val ewadd : planes -> planes -> unit
  (** dst[i] := dst[i] + src[i] elementwise over whole planes (kept on
      the generic path in the solvers; here for tests and bench). *)

  (** The back substitution device state, both paths behind one type:
      the staged-planes arm when flat execution is on, the boxed host
      arrays otherwise.  [Tiled_back_sub] is written once against this
      module; the fault plane closures ([flip], [check]) are passed in
      by the solver so this library does not depend on [Fault]. *)
  module Bs : sig
    type t

    type b_snapshot
    (** A saved prefix of the right-hand side, for update replays. *)

    val create :
      execute:bool ->
      dim:int ->
      v:K.t array ->
      bd:K.t array ->
      x:K.t array ->
      t
    (** [create ~execute ~dim ~v ~bd ~x] captures the device state for
        one stage-2 sweep: [v] the row-major [dim*dim] matrix with
        inverted diagonal tiles, [bd] the evolving right-hand side, [x]
        the solution sink.  Stages all three into limb planes when
        [execute] and {!available}. *)

    val xi_block : t -> r0:int -> n:int -> unit
    (** x_i := U_i^{-1} b_i on the tile at diagonal offset [r0]. *)

    val update_block : t -> r0:int -> rj:int -> n:int -> unit
    (** b_j := b_j - A_(j,i) x_i for the block at row offset [rj]. *)

    val x_at : t -> int -> K.t
    val b_at : t -> int -> K.t

    val x_limbs_ok : t -> check:(float array -> bool) -> int -> bool
    (** On the flat arm, run [check] (a raw-limb validator) on the limb
        expansion of x[i]; trivially true on the boxed arm, which
        renormalizes on read. *)

    val iter_u_limbs : t -> (float -> unit) -> unit
    (** Feed every limb word of the matrix to the callback, in the arm's
        own storage order — digest fodder for ABFT checksums. *)

    val corrupt : t -> Dompool.Prng.t -> flip:(float -> int -> float) -> string
    (** Flip one [flip]-selected bit of one size-weighted element of the
        resident state: raw plane words on the flat arm, a scalar limb
        round-trip on the boxed arm.  Returns a description. *)

    val b_finite_below : t -> r0:int -> bool
    val snapshot_b : t -> upto:int -> b_snapshot
    val restore_b : t -> b_snapshot -> unit

    val unstage_x : t -> unit
    (** Write the staged solution back into the host array (identity on
        the boxed arm, which solved in place). *)
  end
end
