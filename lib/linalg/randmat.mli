(** Test problems.  The random ones follow §4.1 of the paper: general
    matrices have uniform random entries; standalone upper triangular
    systems take the U factor of an LU factorization of a random dense
    matrix, since directly random triangular matrices are almost surely
    exponentially ill-conditioned (Viswanath-Trefethen).  The graded
    families (Hilbert, Vandermonde) step outside that regime. *)

module Make (K : Scalar.S) : sig
  val vector : Dompool.Prng.t -> int -> Vec.Make(K).t
  val matrix : Dompool.Prng.t -> int -> int -> Mat.Make(K).t

  val shifted : Dompool.Prng.t -> int -> shift:float -> Mat.Make(K).t
  (** [shifted rng n ~shift] is [matrix rng n n] with [shift] added to
      each diagonal entry: a safely nonsingular random system. *)

  val hilbert : int -> Mat.Make(K).t
  (** The n-by-n Hilbert matrix, entries [1/(i+j+1)]: κ grows like
      e^{3.5n}. *)

  val vandermonde : int -> int -> Mat.Make(K).t
  (** [vandermonde rows cols]: row [i] holds the powers [0 .. cols-1] of
      the point [(i+1)/rows] — a polynomial fit on [(0, 1]], whose
      condition grows exponentially with [cols]. *)

  val raw_upper : Dompool.Prng.t -> int -> Mat.Make(K).t
  (** A directly random upper triangular matrix — the ill-conditioned
      counterexample the conditioning tests measure. *)

  val upper : Dompool.Prng.t -> int -> Mat.Make(K).t
  (** Well-conditioned random upper triangular matrix via LU. *)

  val rhs_for :
    Dompool.Prng.t -> Mat.Make(K).t -> Vec.Make(K).t * Vec.Make(K).t
  (** [rhs_for rng m] is [(b, x)] with [m x = b] up to working
      precision — a system with a known solution. *)
end
