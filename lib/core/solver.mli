(** The solver-engine abstraction: one pluggable solve path, three
    engines behind it.

    [Qr_direct] is the paper's solver: blocked Householder QR
    ([Blocked_qr], Algorithm 2) followed by the tiled back substitution
    ([Tiled_back_sub], Algorithm 1) on R x = Q^H b, the two phases timed
    apart as in Table 10 — the compute-bound direct factorization.
    [Cg_normal] (conjugate gradient on the normal equations) and [Lsqr]
    are iterative engines: thin loops over a staged matrix-vector
    product and BLAS-1 kernels — memory-bound at double precision and
    double double, drifting compute-bound as the Table 1 multipliers
    grow — wrapped in a D -> DD -> QD -> OD refinement ladder that
    reuses [Refine]'s limb-plane promote / demote seams.  All three return the same
    {!Make.result}, so everything downstream (reports, scheduler,
    fleet placement, CLI) dispatches on the method value alone. *)

type method_ = Qr_direct | Cg_normal | Lsqr

val all_methods : method_ list

val method_name : method_ -> string
(** ["qr"], ["cg"], ["lsqr"] — the wire names used by reports, job
    files and the command line. *)

val method_names : string list

val method_of_string : string -> method_
(** Inverse of {!method_name} (also accepts a few aliases:
    ["qr_direct"], ["direct"], ["cgnr"], ["cg_normal"]).
    @raise Invalid_argument on unknown names. *)

val is_iterative : method_ -> bool

val qr_part : string
(** ["QR"]: the direct engine's factorization phase, timed apart from
    the back substitution as in Table 10. *)

val bs_part : string
(** ["BS"]: the direct engine's back substitution phase. *)

val scalar_of :
  ?complex:bool -> Multidouble.Precision.tag -> (module Mdlinalg.Scalar.S)
(** The scalar instance of a (precision, realness) pair — the dispatch
    the precision ladder climbs through. *)

type iter_info = {
  iterations : int;  (** inner iterations summed over the ladder *)
  residual_history : float list;
      (** true least-squares residual 2-norms at the target precision:
          one before each rung plus the final one (empty for planning
          runs) *)
  ladder : (Multidouble.Precision.tag * int) list;
      (** per-rung inner iteration counts, in climb order *)
  ladder_start : Multidouble.Precision.tag;
  cond_estimate : float option;
      (** cond1 of the double-precision normal matrix, when the ladder
          start was chosen automatically *)
  converged : bool;
      (** the normal-equations residual met the forward-error bound at
          the target precision (always [false] for planning runs) *)
}

val planned_iterations : cols:int -> int
(** The inner iteration count a planning run charges when none is
    given: min(n, 200) — CG reaches the exact solution in at most n
    steps in exact arithmetic. *)

module Make (K : Mdlinalg.Scalar.S) : sig
  type part = {
    name : string;  (** ["QR"] / ["BS"], or ["CG@2d"]-style rung labels *)
    kernel_ms : float;
    wall_ms : float;
    kernel_gflops : float;
    wall_gflops : float;
  }

  type result = {
    x : Mdlinalg.Vec.Make(K).t;
    method_ : method_;
    parts : part list;
    stages : Gpusim.Profile.row list;
        (** per-kernel rows: the QR phase's then the BS phase's for
            [Qr_direct], merged across the ladder's simulators for the
            iterative engines *)
    kernel_ms : float;
    wall_ms : float;
    kernel_gflops : float;
    wall_gflops : float;
    launches : int;
    faults : Fault.Plan.tally option;
    iter : iter_info option;  (** [None] exactly for [Qr_direct] *)
  }

  val solve :
    method_:method_ ->
    ?fault:Fault.Plan.config ->
    ?ladder_start:Multidouble.Precision.tag ->
    ?max_iterations:int ->
    device:Gpusim.Device.t ->
    a:Mdlinalg.Mat.Make(K).t ->
    b:Mdlinalg.Vec.Make(K).t ->
    tile:int ->
    unit ->
    result
  (** Minimize ||b - a x||_2 with the chosen engine.  [Qr_direct] runs
      the economy (thin) factorization when the system is tall and the
      full one when square, and needs a column count that is a multiple
      of [tile]; an armed [fault] plan strikes both of its phases under
      distinct salts.  The iterative engines run the refinement
      ladder from [ladder_start] (default: chosen from a double
      precision condition estimate of the normal matrix) up to [K]'s
      precision; [max_iterations] caps the inner iterations per rung
      (default 4n).  {!plan} is the cost-accounting-only counterpart.
      @raise Invalid_argument when the matrix has more columns than
      rows or the right-hand side length mismatches. *)

  val plan :
    method_:method_ ->
    ?fault:Fault.Plan.config ->
    ?iterations:int ->
    device:Gpusim.Device.t ->
    rows:int ->
    cols:int ->
    tile:int ->
    unit ->
    result
  (** Cost accounting only, from the dimensions: the direct engine's
      plan, or one modeled rung of [iterations] (default
      {!planned_iterations}) iterative sweeps at [K]'s precision. *)
end
