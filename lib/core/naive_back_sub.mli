(** The classic back substitution on the device, without the tile
    inversion idea of Algorithm 1 — the ablation baseline quantifying
    what the paper's design buys (2·dim launches, a dependency chain of
    length dim, sub-warp kernels). *)

module Make (K : Mdlinalg.Scalar.S) : sig
  type result = {
    x : Mdlinalg.Vec.Make(K).t;
    kernel_ms : float;
    wall_ms : float;
    kernel_gflops : float;
    launches : int;
  }

  val run :
    ?threads:int ->
    device:Gpusim.Device.t ->
    u:Mdlinalg.Mat.Make(K).t ->
    b:Mdlinalg.Vec.Make(K).t ->
    unit ->
    result

  val run_plan :
    ?threads:int -> device:Gpusim.Device.t -> dim:int -> unit -> result
end
