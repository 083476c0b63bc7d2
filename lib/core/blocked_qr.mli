(** Algorithm 2 of the paper: blocked accelerated Householder QR in the
    WY representation (Bischof-Van Loan).

    Per panel of [tile] columns: the Householder vectors and the panel
    update ("beta, v" / "beta*R^T*v" / "update R"), the aggregation into
    W and Y with the product Y*W^H ("compute W" / "Y*W^T"), the Q update
    ("Q*WY^T" / "Q + QWY") and the trailing update ("YWT*C" /
    "R + YWTC") — the stage names of the paper's tables.  On complex
    data every transpose is the Hermitian transpose.

    Under an armed fault plan (a simulator created with [?fault]) every
    panel is verified by an ABFT probe — a random vector pushed through
    I + W Y^H, which is unitary and must preserve its norm — plus
    finiteness sweeps over the regions the panel wrote; a detected
    corruption (or a launch failure that exhausted its relaunch budget)
    restores the pre-panel snapshot of R/Q/b and replays the panel, up
    to the plan's replay budget, then escalates with
    [Fault.Plan.Injected]. *)

module Make (K : Mdlinalg.Scalar.S) : sig
  val factor_resident :
    Gpusim.Sim.t ->
    Mdlinalg.Mat.Make(K).t ->
    rhs:Mdlinalg.Vec.Make(K).t option ->
    tile:int ->
    Mdlinalg.Flat_kernels.Make(K).Qr.t
  (** [factor_resident sim a ~rhs ~tile] factors [a] on [sim] and hands
      over the device state as it lies, for the back substitution to
      adopt ({!Mdlinalg.Flat_kernels.Make.Qr.thin_source},
      [square_source]): the full factorization (Q accumulated) for
      [rhs = None], the economy one with Q^H [rhs] resident for
      [Some rhs] ([rhs] is not modified).  Needs rows >= cols and the
      column count a multiple of [tile] ([Invalid_argument]
      otherwise). *)

  val factor :
    Gpusim.Sim.t ->
    Mdlinalg.Mat.Make(K).t ->
    tile:int ->
    Mdlinalg.Mat.Make(K).t * Mdlinalg.Mat.Make(K).t
  (** [factor sim a ~tile] is [(q, r)] with [a = q r], [q] unitary
      M-by-M, [r] upper triangular, unstaged from {!factor_resident}'s
      state. *)

  val factor_thin :
    Gpusim.Sim.t ->
    Mdlinalg.Mat.Make(K).t ->
    b:Mdlinalg.Vec.Make(K).t ->
    tile:int ->
    Mdlinalg.Mat.Make(K).t
  (** Economy factorization: returns R and overwrites [b] with Q^H b,
      never forming Q (the LAPACK xGELS shape). *)

  val plan : Gpusim.Sim.t -> rows:int -> cols:int -> tile:int -> unit
  (** Cost accounting only: no data is touched or allocated. *)

  val plan_thin : Gpusim.Sim.t -> rows:int -> cols:int -> tile:int -> unit
end
