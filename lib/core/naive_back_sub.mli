(** The classic back substitution on the device, without the tile
    inversion idea of Algorithm 1 — the ablation baseline quantifying
    what the paper's design buys (2·dim launches, a dependency chain of
    length dim, sub-warp kernels). *)

module Make (K : Mdlinalg.Scalar.S) : sig
  val solve :
    Gpusim.Sim.t ->
    Mdlinalg.Mat.Make(K).t ->
    Mdlinalg.Vec.Make(K).t ->
    Mdlinalg.Vec.Make(K).t
  (** [solve sim u b] solves U x = b for upper triangular [u] on the
      simulator ([b] is not modified). *)

  val plan : Gpusim.Sim.t -> dim:int -> unit
  (** Cost accounting only: no data is touched or allocated. *)
end
