(** Condition numbers — the quantity that decides how many limbs a
    computation needs (cf. the exponential conditioning of random
    triangular matrices behind the paper's §4.1 generation choice). *)

module Make (K : Scalar.S) : sig
  module Lu : module type of Lu.Make (K)
  (** The factorization backend; its [Singular] exception escapes the
      functions below on singular input. *)

  val one_norm : Mat.Make(K).t -> K.R.t
  (** Maximum absolute column sum. *)

  val inf_norm : Mat.Make(K).t -> K.R.t
  (** Maximum absolute row sum. *)

  val inverse : Mat.Make(K).t -> Mat.Make(K).t
  (** Explicit inverse through one LU factorization and n solves. *)

  val cond1 : Mat.Make(K).t -> K.R.t
  (** [||A||_1 ||A^-1||_1]. *)

  val cond_inf : Mat.Make(K).t -> K.R.t

  val digits_at_risk : Mat.Make(K).t -> float
  (** [log10 (cond1 a)]: decimal digits a residual-exact solve can
      lose. *)
end

val cond1_float : n:int -> float array -> float
(** [cond1_float ~n a] is [Make (Scalar.D).cond1] of the row-major
    [n]-by-[n] matrix [a], computed on unboxed floats with the same
    operation sequence, so bit-identical; [infinity] where that raises
    [Lu.Singular] (a zero or NaN pivot magnitude). *)
