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
  val solve :
    Gpusim.Sim.t ->
    Mdlinalg.Mat.Make(K).t ->
    Mdlinalg.Vec.Make(K).t ->
    tile:int ->
    Mdlinalg.Vec.Make(K).t
  (** [solve sim u b ~tile] solves U x = b for upper triangular [u] on
      the simulator, staging [u] and [b] first (neither is modified);
      [tile] must divide the dimension ([Invalid_argument]
      otherwise). *)

  val solve_resident :
    Gpusim.Sim.t ->
    Mdlinalg.Flat_kernels.Make(K).Bs.source ->
    dim:int ->
    tile:int ->
    Mdlinalg.Vec.Make(K).t
  (** [solve_resident sim source ~dim ~tile] solves the [dim]-by-[dim]
      system on the device state [source] gives, adopted as it lies
      (the direct solve's hand-off from the QR); only x is unstaged. *)

  val plan : Gpusim.Sim.t -> dim:int -> tile:int -> unit
  (** Cost accounting only: no data is touched or allocated. *)
end
