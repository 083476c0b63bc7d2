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

  val flip_word : planes -> int -> int -> (float -> float) -> unit
  (** [flip_word t i limb f] rewrites limb plane word [limb] of element
      [i] in place with [f] applied to it: a fault strike on the staged
      device layout. *)

  val flip_limb : K.t array -> int -> int -> (float -> float) -> unit
  (** The same strike on a boxed element, through its limb round-trip. *)

  type view = {
    vp : Multidouble.Nd_flat.planes;
    off : int;
    pitch : int;
    step : int;
  }
  (** A strided operand of {!view_block}: element (r, c) is word
      [off + r*pitch + c*step] of [vp] — a transposed operand swaps the
      pitches, a block inside a larger matrix takes an offset and the
      parent's row pitch. *)

  val view : planes -> view
  (** The whole of a row-major staged operand. *)

  val view_block :
    threads:int -> inner:int -> view -> view -> planes -> int -> unit
  (** [view_block ~threads ~inner a b c blk]: the register-loading matrix
      product on strided views, one [Sim.launch] block: output elements
      [blk*threads, (blk+1)*threads) of the contiguous [c], each the dot
      product over [inner] of a row of [a] with a column of [b].
      Executes as the {!tile}-shaped cache-blocked microkernel; each
      lane replays the untiled per-element operation sequence exactly,
      so the result is bit-identical to {!boxed_matmul_block}. *)

  val matmul_block : threads:int -> planes -> planes -> planes -> int -> unit
  (** {!view_block} on contiguous operands: [a] rows-by-inner, [b]
      inner-by-cols. *)

  val boxed_matmul_block :
    threads:int ->
    rows_o:int ->
    cols_o:int ->
    inner:int ->
    geta:(int -> int -> K.t) ->
    getb:(int -> int -> K.t) ->
    store:(int -> int -> K.t -> unit) ->
    int ->
    unit
  (** The boxed accessor loop the flat product replays, one launch
      block: [store i j (sum_k geta i k * getb k j)] accumulated from
      [K.zero] in ascending [k] — the generic path and the oracle. *)

  val dot : n:int -> planes -> planes -> planes -> int -> unit
  (** [dot ~n a b out oidx]: out[oidx] := sum over [n] elements of
      a[i] * b[i]. *)

  val axpy : n:int -> planes -> planes -> planes -> unit
  (** [axpy ~n alpha x y]: y[i] := y[i] + alpha * x[i]; [alpha] is a
      staged single element. *)

  val gemv_block : threads:int -> planes -> planes -> planes -> int -> unit
  (** [gemv_block ~threads a x y blk]: y[i] := sum_k a[i, k] * x[k] for
      the output rows of one launch block, up to [nr] rows at a time
      as the lanes of one [lanes] call.  Per element the untiled
      clear / ascending multiply-accumulate / store sequence, so the
      flat path is bit-identical to the boxed accumulator loop. *)

  val gemv_t_block : threads:int -> planes -> planes -> planes -> int -> unit
  (** The transposed product y[j] := sum_i a[i, j] * x[i], the same
      way: up to [nr] adjacent columns as lanes, so A is read along its
      rows. *)

  val xpay : n:int -> planes -> planes -> planes -> unit
  (** [xpay ~n alpha x y]: y[i] := x[i] + alpha * y[i] — the CG
      direction update; [alpha] is a staged single element. *)

  val scal : n:int -> planes -> planes -> planes -> unit
  (** [scal ~n alpha x y]: y[i] := alpha * x[i]; in-place is safe. *)

  val rank1_sub : planes -> planes -> planes -> unit
  (** [rank1_sub a x y]: a[i, j] := a[i, j] - x[i] * y[j], the
      Householder panel update. *)

  val ewadd : planes -> planes -> unit
  (** dst[i] := dst[i] + src[i] elementwise over whole planes. *)

  (** The back substitution device state, both paths behind one type:
      staged planes on the flat arm, the boxed host arrays otherwise.
      [Tiled_back_sub] is written once against this module; the fault
      plane closures ([flip], [check]) are passed in by the solver so
      this library does not depend on [Fault]. *)
  module Bs : sig
    type t

    (** Where the system comes from, adopted as it lies (the solve
        inverts U's diagonal tiles and updates b in place): the leading
        [dim*dim] words of U (row-major, pitch [dim]) and the leading
        [dim] words of b, as staged planes — a factorization's R and
        Q^H b ({!Qr.thin_source}, {!Qr.square_source}) or a staged host
        system ({!of_host}) — or as the boxed arm's host arrays. *)
    type source =
      | Staged of { u : planes; b : planes }
      | Host of { u : K.t array; b : K.t array }

    type b_snapshot
    (** A saved prefix of the right-hand side, for update replays. *)

    val create : dim:int -> source -> t
    (** The device state of one solve: [source] and a solution sink. *)

    val of_host : dim:int -> u:K.t array -> b:K.t array -> source
    (** A host system ([u] row-major): staged once when {!available},
        copied otherwise; [u] and [b] are not modified. *)

    val u_at : t -> int -> int -> K.t
    val set_u : t -> int -> int -> K.t -> unit
    (** Element (i, j) of U, for the tile inversion. *)

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

    val staged : t -> bool
    (** The state lives on limb planes (the flat arm). *)

    val regions :
      t -> (string * int * (int -> int -> (float -> float) -> unit)) list
    (** The resident state a fault strike picks from — U, b and x with
        their sizes and per-word flips ({!flip_word} on the flat arm,
        {!flip_limb} on the boxed one) — in the shape of
        [Fault.Plan.region]. *)

    val b_finite_below : t -> r0:int -> bool
    val snapshot_b : t -> upto:int -> b_snapshot
    val restore_b : t -> b_snapshot -> unit

    val unstage_x : t -> K.t array
    (** Device -> host: the solution (the boxed arm's own array). *)
  end

  (** The blocked Householder QR device state, both paths behind one
      type: [Blocked_qr] computes the modeled costs and issues the
      launches, and every launch body comes from here.

      The flat arm stages R (from A), Q (the identity, only when Q is
      accumulated) and the thin path's right-hand side once at
      {!Qr.create} and runs every stage of every panel on the staged
      planes (Y, W, YWT and the product outputs are planes too).  The
      direct solve hands R and Q^H b to the back substitution where they
      lie ({!Qr.thin_source}, {!Qr.square_source}); boxed R, Q and b
      exist only when {!Qr.unstage} is asked for them.  The boxed arm
      factors host arrays in place; it serves complex and instrumented
      scalars.  The
      fault plane's operations ({!Qr.regions}, {!Qr.probe_norms},
      {!Qr.finite_from}, {!Qr.snapshot}) act on either arm's storage,
      so a fault-armed factorization runs flat too.  Both arms replay
      one operation sequence, so the results are limb for limb
      identical, struck or not. *)
  module Qr : sig
    type t

    type panel
    (** The per-panel device state: Y, W, YWT, the product outputs and
        the column scratch. *)

    val create :
      execute:bool ->
      fault_armed:bool ->
      accumulate_q:bool ->
      mrows:int ->
      ncols:int ->
      tile:int ->
      a:K.t array ->
      b:K.t array option ->
      t
    (** [create ~execute ~fault_armed ~accumulate_q ~mrows ~ncols ~tile
        ~a ~b]: the device state of one factorization of the row-major
        [mrows]-by-[ncols] [a] (not modified), with the thin path's
        right-hand side [b] (not modified; the state holds Q^H b by the
        end).  Flat when [execute] and {!available}, with no host array;
        allocates nothing when not [execute].  [fault_armed] turns off
        the flat first panel's identity shortcut in "Q*WY^T", which
        assumes that nothing wrote Q before it (under an armed plan a
        strike may have), and makes the hand-off renormalize
        ({!thin_source}). *)

    val panel : t -> c0:int -> panel

    val beta_v : panel -> l:int -> int -> unit
    val save_v : panel -> l:int -> unit
    (** Host side, after the [beta_v] launch: v into column [l] of Y.
        Until then v lives apart from Y, and the launches after it read
        it there, so a strike on Y during the launch never reaches v. *)

    val rtv : panel -> l:int -> int -> unit
    val update_r : panel -> l:int -> int -> unit
    val w_u : panel -> l:int -> int -> unit
    val w_z : panel -> l:int -> int -> unit
    val ywt : panel -> int -> unit
    val qwy : panel -> int -> unit
    val q_add : panel -> int -> unit
    val apply_u : panel -> int -> unit
    val apply_y : panel -> int -> unit
    val ywtc : panel -> int -> unit
    val r_add : panel -> int -> unit
    (** The launch bodies of the stages, each taking the block index:
        "beta, v", "beta*R^T*v", "update R", the u and z launches of
        "compute W", "Y*W^T", "Q*WY^T", "Q + QWY", the two launches of
        the thin path's Q^H b, "YWT*C" and "R + YWTC". *)

    val staged : t -> bool
    (** The state lives on limb planes (the flat arm). *)

    val regions :
      panel -> (string * int * (int -> int -> (float -> float) -> unit)) list
    (** The resident state a fault strike picks from, in the shape of
        [Fault.Plan.region]: R, Q, the panel's Y and W and the thin
        path's b, with their sizes and per-word flips ({!flip_word} on
        the flat arm, {!flip_limb} on the boxed one).  Q counts
        mrows * mrows words even when it is not accumulated (a strike
        there changes nothing), as the boxed arm's Q does. *)

    val probe_norms : panel -> K.t array -> float * float
    (** [probe_norms p u] is (|u|, |u + W (Y^H u)|) for a probe vector
        [u] of the panel's row count: the ABFT probe through the
        aggregated reflectors, with the boxed operation sequence on
        either arm (on the planes of Y and W on the flat one). *)

    val finite_from : t -> c0:int -> bool
    (** Every limb word a panel at column [c0] wrote is finite: R from
        (c0, c0) on, Q's columns from c0 on when accumulated, and the
        thin path's b from c0 on. *)

    type snapshot

    val snapshot : t -> snapshot
    (** A copy of R, Q and b, taken before a panel. *)

    val restore : t -> snapshot -> unit
    (** Put a {!snapshot} back, for a panel replay. *)

    val unstage : t -> K.t array * K.t array * K.t array
    (** Device -> host, on request: [(q, r, b)] row-major, with R's
        strictly lower part zero; [q] is empty unless Q is accumulated
        and [b] unless the path is thin.  Fresh arrays on the flat arm,
        the state's own on the boxed arm.  Only for an executed
        factorization. *)

    val thin_source : t -> Bs.source
    (** The thin path's hand-off to the back substitution: R's leading
        [ncols]-by-[ncols] block, its strictly lower part zeroed, and
        the resident Q^H b, adopted where they lie.  After a fault-armed
        factorization every adopted word is renormalized, as an
        {!unstage} and restage would. *)

    val square_source :
      t -> b:K.t array -> threads:int -> (int -> unit) * Bs.source
    (** The square path's hand-off: the body of the Q^H b launch over
        blocks of [threads] outputs, on the resident Q (renormalized
        after a fault-armed factorization, as {!thin_source}), and the
        source it fills: R's leading block and that Q^H b. *)
  end
end
