(* Mixed-precision iterative refinement on top of the accelerated solver.

   The classic consumer of multiple double arithmetic: factor the matrix
   once in the *working* precision on the (simulated) device, then refine
   the solution with residuals computed in a *higher* precision, gaining
   roughly the working precision's digits per sweep as long as the
   conditioning permits.  This is the pattern the paper's motivation
   points at (guaranteed accuracy along a homotopy path, [22]): most of
   the flops stay in the cheap precision, the expensive precision only
   touches vectors.

   Promotion and demotion act on the limb planes, so real and complex
   scalars both work (the two scalars must agree on realness). *)

open Mdlinalg

module Make_scalar (KL : Scalar.S) (KH : Scalar.S) = struct
  module ML = Mat.Make (KL)
  module VL = Vec.Make (KL)
  module MH = Mat.Make (KH)
  module VH = Vec.Make (KH)
  module Qr = Blocked_qr.Make (KL)
  module Tri = Host_tri.Make (KL)

  let () =
    if KL.is_complex <> KH.is_complex then
      invalid_arg "Refine: mixed real/complex precision pair"

  let parts = if KL.is_complex then 2 else 1

  (* Per-component limb copy between the two widths: zero-padding embeds
     the low precision exactly, truncation rounds the high one. *)
  let convert ~from_width ~to_width planes =
    let fw = from_width / parts and w = to_width / parts in
    let out = Array.make to_width 0.0 in
    for p = 0 to parts - 1 do
      for i = 0 to min w fw - 1 do
        out.((p * w) + i) <- planes.((p * fw) + i)
      done
    done;
    out

  let promote (x : KL.t) : KH.t =
    KH.of_planes
      (convert ~from_width:KL.width ~to_width:KH.width (KL.to_planes x))

  let demote (x : KH.t) : KL.t =
    KL.of_planes
      (convert ~from_width:KH.width ~to_width:KL.width (KH.to_planes x))

  let demote_mat (m : MH.t) : ML.t =
    ML.init (MH.rows m) (MH.cols m) (fun i j -> demote (MH.get m i j))

  type result = {
    x : VH.t;
    iterations : int;
    residual_history : float list; (* infinity norms, most recent last *)
    qr_kernel_ms : float;
  }

  (* [solve ~device ~a ~b ~tile ()] solves the square system a x = b given
     in the high precision: one blocked QR factorization in the working
     precision on the device, then refinement sweeps until the residual
     stops improving or [max_iterations] is reached. *)
  let solve ?(device = Gpusim.Device.v100) ?(max_iterations = 20) ~(a : MH.t)
      ~(b : VH.t) ~tile () =
    let n = MH.rows a in
    if n <> MH.cols a then invalid_arg "Refine.solve: square matrix required";
    let a_lo = demote_mat a in
    let sim = Gpusim.Sim.create ~device ~prec:KL.prec () in
    let q, r = Qr.factor sim a_lo ~tile in
    let q_adj = ML.adjoint q in
    let rn = ML.sub_matrix r ~r0:0 ~r1:n ~c0:0 ~c1:n in
    (* One working-precision solve against the cached factorization. *)
    let solve_lo (rhs : VL.t) : VL.t =
      Tri.back_substitute rn (ML.matvec q_adj rhs)
    in
    let x = ref (VH.create n) in
    let residual_norm = ref Float.infinity in
    let history = ref [] in
    let iterations = ref 0 in
    (* Converged once the residual reaches the high-precision noise floor
       of the data. *)
    let floor_ =
      4.0 *. KH.R.eps *. float_of_int n
      *. KH.R.to_float (VH.inf_norm b)
    in
    (try
       for _ = 1 to max_iterations do
         (* r = b - a x, in high precision. *)
         let r = VH.sub b (MH.matvec a !x) in
         let rn_inf = KH.R.to_float (VH.inf_norm r) in
         history := rn_inf :: !history;
         if rn_inf <= floor_ || rn_inf >= !residual_norm *. 0.5 then
           raise Exit;
         residual_norm := rn_inf;
         incr iterations;
         let dx = solve_lo (Array.map demote r) in
         x := VH.add !x (Array.map promote dx)
       done
     with Exit -> ());
    {
      x = !x;
      iterations = !iterations;
      residual_history = List.rev !history;
      qr_kernel_ms = Gpusim.Sim.kernel_ms sim;
    }
end

(* The original real-precision entry point, now a thin instantiation. *)
module Make (Lo : Multidouble.Md_sig.S) (Hi : Multidouble.Md_sig.S) = struct
  module KL = Scalar.Real (Lo)
  module KH = Scalar.Real (Hi)
  include Make_scalar (KL) (KH)
end
