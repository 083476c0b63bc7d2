(** Algorithm 1 of the paper: tiled accelerated back substitution.

    The upper triangular Nn-by-Nn matrix is cut into N diagonal tiles of
    size n; stage 1 inverts all diagonal tiles at once (thread k of each
    block solves U v = e_k), stage 2 alternates multiplications with the
    inverses and simultaneous right-hand-side updates.  Replacing the
    final division by a multiplication with a precomputed inverse is what
    exposes enough data parallelism; the launch count is 1 + N(N+1)/2.

    Under an armed fault plan every solved tile is ABFT-verified against
    a host recompute (plus finiteness and, on the flat path, raw-limb
    renorm-invariant checks), the constant U planes are convicted by a
    running checksum, and the in-place right-hand-side updates snapshot
    their prefix so a detected corruption replays the launch; exhausted
    budgets (or a corrupted U) escalate with [Fault.Plan.Injected]. *)

module Make (K : Mdlinalg.Scalar.S) : sig
  type result = {
    x : Mdlinalg.Vec.Make(K).t;
    kernel_ms : float;
    wall_ms : float;
    kernel_gflops : float;
    wall_gflops : float;
    stages : Gpusim.Profile.row list;  (** in {!Stage.bs_stages} order *)
    launches : int;
    faults : Fault.Plan.tally option;  (** when the sim armed a plan *)
  }

  val solve :
    Gpusim.Sim.t ->
    Mdlinalg.Mat.Make(K).t ->
    Mdlinalg.Vec.Make(K).t ->
    tile:int ->
    Mdlinalg.Vec.Make(K).t
  (** [solve sim u b ~tile] solves U x = b for upper triangular [u] on
      the simulator; [tile] must divide the dimension
      ([Invalid_argument] otherwise). *)

  val plan : Gpusim.Sim.t -> dim:int -> tile:int -> unit
  (** Cost accounting only: no data is touched or allocated. *)

  val run :
    ?fault:Fault.Plan.config ->
    device:Gpusim.Device.t ->
    u:Mdlinalg.Mat.Make(K).t ->
    b:Mdlinalg.Vec.Make(K).t ->
    tile:int ->
    unit ->
    result
  (** One-call wrapper: fresh simulator, solve, collect the timings. *)

  val run_plan :
    device:Gpusim.Device.t ->
    dim:int ->
    tile:int ->
    unit ->
    result
  (** Timing-only run from the dimensions alone ([x] is empty). *)
end
