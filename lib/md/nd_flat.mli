(** Limb-generic flat kernel plane.

    Allocation-free multiple double arithmetic computed directly on
    staggered limb planes for any limb count [m >= 1], behind one
    first-class dispatch record.  A plane is a [Bigarray.Array1] of
    float64 ({!fa}): flat 8-byte words outside the OCaml heap, accessed
    without bounds checks in the kernel loops (set [MDLS_FLAT_BOUNDS=1]
    in the environment to turn every access back into a checked one).

    Every operation replays the exact floating point sequence of the
    boxed module registered for that limb count, so results are
    bit-identical limb for limb: [m = 1] runs the plain double
    operations of [Float_double] (no fused multiply-add), [m = 2] the
    unrolled QDlib double-double sequences, [m = 4] the QDlib
    quad-double sequences,
    [m = 8] a specialized straight-line octo double engine (the
    [Expansion.Pre] sequences hand-unrolled), and every other [m >= 3]
    an allocation-free replay of [Expansion.Pre] (merge + renormalize
    addition, truncated partial-product multiplication) — which is what
    keeps triple double and hexa double on flat execution without
    hand-written kernels.  The expansion engines order their product
    buffers with the checked insertion sort the boxed products run
    ({!Renorm.sort_prefix_by_magnitude}); the octo double engine sorts
    and distills only the nonzero terms of a product buffer. *)

type fa = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** One limb plane: a flat array of float64 words. *)

type planes = fa array
(** A staged operand: one plane per limb, most significant first. *)

val bounds_checked : bool
(** True when MDLS_FLAT_BOUNDS requested the checked debug path; every
    {!get}/{!set} (and hence every engine plane access) then bounds
    checks. *)

val make_plane : int -> fa
(** [make_plane n] allocates a zero-filled plane of [n] words
    ([Bigarray.Array1.create] alone does not zero its storage). *)

val make_planes : limbs:int -> int -> planes
(** [make_planes ~limbs n] allocates [limbs] zero-filled planes of [n]
    words each. *)

val plane_dim : fa -> int
(** Number of words in a plane. *)

val get : planes -> int -> int -> float
(** [get p limb i] reads word [i] of plane [limb]; unchecked unless
    {!bounds_checked}. *)

val set : planes -> int -> int -> float -> unit
(** [set p limb i v] writes word [i] of plane [limb]; unchecked unless
    {!bounds_checked}. *)

type ctx
(** Mutable per-block scratch.  Allocate one per launch block (or test
    loop) with {!field:plan.make_ctx} and reuse it across elements; a
    [ctx] must not be shared between domains. *)

(** The kernel-ops record resolved once per limb count.  All operations
    read operands from / write results to staggered planes, with the
    running value held inside the [ctx]:

    - [clear c] — acc := 0
    - [load c p i] — acc := p\[i\]
    - [store c p i] — p\[i\] := acc
    - [add c p i] — acc := acc + p\[i\] (boxed [K.add acc x])
    - [mul_set c a ia b ib] — acc := a\[ia\] * b\[ib\]
    - [mul_add c a ia b ib] — acc := acc + a\[ia\] * b\[ib\]
      (boxed [K.add acc (K.mul a b)])
    - [sub_from c p i] — p\[i\] := p\[i\] - acc (boxed [K.sub x acc])

    and two loop-level operations, each exactly a loop of [mul_add]:

    - [dot c a ia sa b ib sb n] — for [t] from 0 to [n-1] in ascending
      order, acc := acc + a\[ia + t*sa\] * b\[ib + t*sb\]
    - [lanes cs a ia sa ka b ib sb kb nl kn] — for [k] from 0 to
      [kn-1] in ascending order and every lane [l < nl], cs.(l)'s
      acc := acc + a\[ia + l*sa + k*ka\] * b\[ib + l*sb + k*kb\]:
      the whole k loop of a register tile

    so [dot] is the one-lane case of [lanes].  Strides may be 0 (a
    broadcast operand).  The [m = 1] and [m = 2] engines hand-write the
    loop, with the planes hoisted and the arithmetic inlined, because
    there a call per element costs as much as the arithmetic: [lanes]
    keeps the accumulators of four lanes at a time in local floats for
    the whole k loop (each loaded from and stored to its [ctx] once per
    call) and runs the lanes left over through [dot].  The wider engines
    derive both from their own [mul_add].  Either way every accumulator
    is bit-identical to its per-element loop. *)
type plan = {
  limbs : int;
  make_ctx : unit -> ctx;
  clear : ctx -> unit;
  load : ctx -> planes -> int -> unit;
  store : ctx -> planes -> int -> unit;
  add : ctx -> planes -> int -> unit;
  mul_set : ctx -> planes -> int -> planes -> int -> unit;
  mul_add : ctx -> planes -> int -> planes -> int -> unit;
  sub_from : ctx -> planes -> int -> unit;
  dot : ctx -> planes -> int -> int -> planes -> int -> int -> int -> unit;
  lanes :
    ctx array ->
    planes -> int -> int -> int ->
    planes -> int -> int -> int ->
    int -> int -> unit;
}

val supported : int -> bool
(** [supported m] is [true] iff a flat plan exists for limb count [m],
    i.e. [m >= 1]. *)

val plan : limbs:int -> plan option
(** [plan ~limbs] resolves the flat kernel-ops record for a limb count.
    [None] exactly when [not (supported limbs)].  This is the single
    dispatch point: precision selection happens here, once, and
    everything downstream is written against the returned record —
    [m = 8] resolves to the specialized octo double engine, other
    non-QDlib widths to the generic expansion replay. *)
