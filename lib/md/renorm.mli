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

val sort_by_magnitude : saved:float array -> float array -> unit
(** [sort_by_magnitude ~saved a] sorts [a] in place by decreasing
    absolute value, to order partial products before distillation;
    [saved] is clobbered scratch of length at least [Array.length a]
    (the flat engines pass a preallocated buffer, so the sort allocates
    nothing).  The one magnitude sort of the multiple double code.

    Contract: the order among the zeros, and among bit-identical values,
    is unspecified; everything else is the permutation of the stdlib
    [Array.sort] with [fun x y -> compare (Float.abs y) (Float.abs x)],
    so [renormalize] of the result is bit-identical to [renormalize] of
    that reference.  A stable insertion sort does the work (the buffers
    arrive nearly sorted); when the input holds a NaN or a nonzero value
    next to its negation (x and -x, or +-inf), whose order reaches the
    renormalized bits, the saved input is restored and sorted by a
    float-specialized replica of the stdlib heapsort instead. *)

val merge_by_magnitude : float array -> float array -> float array
(** Merges two arrays already sorted by decreasing absolute value (as
    normalized expansions are) into a fresh decreasing array — the O(m)
    fast path of expansion addition. *)
