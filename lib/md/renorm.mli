(** Renormalization of floating-point expansions.

    A multiple double number with [m] limbs is an unevaluated sum
    [x0 + x1 + ... + x(m-1)] with the limbs sorted by decreasing
    magnitude and pairwise non-overlapping; these functions compress raw
    sequences of doubles back into that normal form, generalizing
    QDlib's renorm to any number of limbs. *)

val renormalize : ?passes:int -> m:int -> float array -> float array
(** [renormalize ~m src] compresses the limbs of [src] (roughly
    decreasing magnitude) into a fresh normalized array of [m] limbs.
    [passes] (default 1) repeats the backward distillation ladder, needed
    when the input holds many overlapping terms of similar magnitude. *)

val renormalize_into : m:int -> float array -> float array -> int -> unit
(** [renormalize_into ~m src dst off] writes the normalized limbs at
    offsets [off .. off+m-1] of [dst]. *)

val grow : float array -> float -> float
(** [grow e x] exactly adds the double [x] to the expansion [e] in place
    (most significant limb first) and returns the carry falling off the
    least significant end. *)

val sort_prefix_by_magnitude : float array -> int -> bool
(** [sort_prefix_by_magnitude a n] insertion-sorts [a.(0 .. n-1)] in
    place by decreasing absolute value and returns [true] when the order
    among them can reach the renormalized bits: a NaN, or a nonzero value
    next to its negation (x and -x, or +-inf).  Then the sorted prefix
    must be discarded and the input sorted by {!heapsort_by_magnitude}.
    Otherwise [renormalize] of the prefix, followed by any zeros, is
    bit-identical to [renormalize] of the stdlib order.  Allocates
    nothing.  The one checked insertion sort of the multiple double
    code: {!sort_by_magnitude} and the flat octo double engine both run
    it.  A one-element prefix is never reported, even when it is NaN. *)

val heapsort_by_magnitude : float array -> unit
(** [heapsort_by_magnitude a] sorts all of [a] in place into exactly the
    permutation of the stdlib [Array.sort] with
    [fun x y -> compare (Float.abs y) (Float.abs x)], ties and NaNs
    included — the order the products are defined by.  A float-specialized
    replica of the stdlib heapsort that allocates nothing. *)

val sort_by_magnitude : saved:float array -> float array -> unit
(** [sort_by_magnitude ~saved a] sorts [a] in place by decreasing
    absolute value, to order partial products before distillation;
    [saved] is clobbered scratch of length at least [Array.length a].

    Contract: the order among the zeros, and among bit-identical values,
    is unspecified; everything else is the permutation of the stdlib
    [Array.sort] with [fun x y -> compare (Float.abs y) (Float.abs x)],
    so [renormalize] of the result is bit-identical to [renormalize] of
    that reference.  {!sort_prefix_by_magnitude} does the work over the
    whole array; when it reports that the order matters, the saved input
    is restored and sorted by {!heapsort_by_magnitude} instead. *)

val merge_by_magnitude : float array -> float array -> float array
(** Merges two arrays already sorted by decreasing absolute value (as
    normalized expansions are) into a fresh decreasing array — the O(m)
    fast path of expansion addition. *)
