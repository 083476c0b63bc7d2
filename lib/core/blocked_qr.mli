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
  type result = {
    q : Mdlinalg.Mat.Make(K).t;
    r : Mdlinalg.Mat.Make(K).t;
    kernel_ms : float;
    wall_ms : float;
    kernel_gflops : float;
    wall_gflops : float;
    stages : Gpusim.Profile.row list;  (** in {!Stage.qr_stages} order *)
    launches : int;
    faults : Fault.Plan.tally option;  (** when the sim armed a plan *)
  }

  val factor :
    Gpusim.Sim.t ->
    Mdlinalg.Mat.Make(K).t ->
    tile:int ->
    Mdlinalg.Mat.Make(K).t * Mdlinalg.Mat.Make(K).t
  (** [factor sim a ~tile] is [(q, r)] with [a = q r], [q] unitary
      M-by-M, [r] upper triangular; needs rows >= cols and the column
      count a multiple of [tile] ([Invalid_argument] otherwise). *)

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

  val run :
    ?fault:Fault.Plan.config ->
    device:Gpusim.Device.t ->
    a:Mdlinalg.Mat.Make(K).t ->
    tile:int ->
    unit ->
    result
end
