(** Lower triangular block Toeplitz systems — the linear algebra core of
    the power series path tracker, the place the paper's least squares
    solver is consumed ([3] in its bibliography). *)

module Make (K : Mdlinalg.Scalar.S) : sig
  module M : module type of Mdlinalg.Mat.Make (K)
  module V : module type of Mdlinalg.Vec.Make (K)

  type mat_series = M.t array
  (** The blocks J_0, J_1, ..., J_d of a matrix power series. *)

  type vec_series = V.t array
  (** Stacked right-hand sides, one block per series order. *)

  val block_dim : mat_series -> int

  val apply : mat_series -> vec_series -> vec_series
  (** Truncated product J(t) x(t), for verifying solutions. *)

  val solve_recursive : mat_series -> vec_series -> vec_series
  (** Order-by-order host solve against one LU factorization of J_0 —
      the reference. *)

  val flatten : mat_series -> degree:int -> M.t
  (** The (d+1)n-square block lower Toeplitz matrix. *)

  val block_reversed : n:int -> M.t -> M.t
  (** Reversing the block order (layout inside blocks kept) turns block
      lower Toeplitz into block upper Toeplitz with the same diagonal
      blocks. *)

  val solve_flat :
    Gpusim.Sim.t -> ?tile:int -> mat_series -> vec_series -> vec_series
  (** Solve the flat reversed system with Algorithm 1 on the simulator
      (tile default: the block dimension); requires upper triangular
      J_0 ([Invalid_argument] otherwise) — e.g. after {!solve_device}'s
      QR preprocessing. *)

  val solve_device :
    qr:Gpusim.Sim.t ->
    bs:Gpusim.Sim.t ->
    ?tile:int ->
    mat_series ->
    vec_series ->
    vec_series
  (** The paper's pipeline for a general diagonal block: factor
      J_0 = Q R once with Algorithm 2 on [qr], premultiply the system by
      Q^H, then run the flat Algorithm-1 path on [bs]; each simulator
      holds its phase's timings. *)

  val newton :
    degree:int ->
    residual:(vec_series -> vec_series) ->
    jacobian:(vec_series -> mat_series) ->
    x0:V.t ->
    iterations:int ->
    vec_series
  (** Series Newton: doubles the correct orders per iteration starting
      from a regular order-zero solution [x0]. *)
end
