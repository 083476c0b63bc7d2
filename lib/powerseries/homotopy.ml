(* Predictor-corrector path tracking for polynomial homotopies — the
   application the paper's least squares solver serves ([21], [22]).

   Given h(x, t) with a known solution of h(., 0), the tracker walks t
   from 0 to 1: an (optional Euler) predictor extrapolates the point, and
   Newton's corrector pulls it back onto the path, solving one linear
   system in the least squares sense per iteration with the accelerated
   solver.  The step size adapts: steps whose corrector fails to converge
   are rejected and halved, and quickly converging steps let the step
   grow back — the robustness recipe of [21] in miniature. *)

open Mdlinalg

module Make (K : Scalar.S) = struct
  module M = Mat.Make (K)
  module V = Vec.Make (K)
  module Solver = Lsq_core.Solver.Make (K)

  (* One Newton correction or Euler predictor step: the least squares
     solve of j d = rhs on the direct solver, its QR and back
     substitution kernel times added to [device_ms] in that order. *)
  let solve_step ~device device_ms j rhs ~tile =
    let res =
      Solver.solve ~method_:Lsq_core.Solver.Qr_direct ~device ~a:j ~b:rhs
        ~tile ()
    in
    device_ms :=
      List.fold_left
        (fun acc (p : Solver.part) -> acc +. p.Solver.kernel_ms)
        !device_ms res.Solver.parts;
    res.Solver.x

  type system = {
    dim : int;
    h : K.t -> V.t -> V.t; (* residual at (t, x) *)
    jac : K.t -> V.t -> M.t; (* Jacobian wrt x *)
    ht : (K.t -> V.t -> V.t) option; (* dh/dt, enables the Euler predictor *)
  }

  type options = {
    start_step : float;
    min_step : float;
    max_step : float;
    newton_iterations : int;
    tolerance : float; (* corrector success: |h|_inf below this *)
    max_steps : int;
  }

  let default_options =
    {
      start_step = 1.0 /. 32.0;
      min_step = 1e-8;
      max_step = 0.125;
      newton_iterations = 6;
      tolerance = 1e-8;
      max_steps = 10_000;
    }

  type stats = {
    steps : int;
    rejections : int;
    newton_solves : int;
    device_kernel_ms : float;
        (* accumulated simulated kernel time of all the least squares
           solves along the path *)
  }

  type outcome = Tracked of V.t * stats | Stuck of { at_t : float; stats : stats }

  let residual_inf sys t x =
    let r = sys.h t x in
    K.R.to_float (V.inf_norm r)

  (* Newton corrector at fixed t; returns the corrected point and whether
     the tolerance was met. *)
  let correct ?(device = Gpusim.Device.v100) sys opts t x solves device_ms =
    let p = ref (V.copy x) in
    let converged = ref false in
    (try
       for _ = 1 to opts.newton_iterations do
         let r = sys.h t !p in
         if K.R.to_float (V.inf_norm r) < opts.tolerance then begin
           converged := true;
           raise Exit
         end;
         let j = sys.jac t !p in
         incr solves;
         p := V.add !p (solve_step ~device device_ms j (V.neg r) ~tile:sys.dim)
       done;
       if residual_inf sys t !p < opts.tolerance then converged := true
     with Exit -> ());
    (!p, !converged)

  (* [track sys ~start] follows the path from (start, t=0) to t = 1. *)
  let track ?(device = Gpusim.Device.v100) ?(options = default_options) sys
      ~(start : V.t) =
    let opts = options in
    let x = ref (V.copy start) in
    let t = ref 0.0 in
    let dt = ref opts.start_step in
    let steps = ref 0 and rejections = ref 0 and solves = ref 0 in
    let device_ms = ref 0.0 in
    let stats () =
      { steps = !steps; rejections = !rejections; newton_solves = !solves;
        device_kernel_ms = !device_ms }
    in
    let result = ref None in
    while !result = None do
      if !t >= 1.0 then result := Some (Tracked (V.copy !x, stats ()))
      else if !steps >= opts.max_steps || !dt < opts.min_step then
        result := Some (Stuck { at_t = !t; stats = stats () })
      else begin
        incr steps;
        let t' = Float.min 1.0 (!t +. !dt) in
        let tt' = K.of_float t' in
        (* Predictor: Euler along the path tangent when dh/dt is given,
           otherwise the previous point. *)
        let guess =
          match sys.ht with
          | None -> V.copy !x
          | Some ht ->
            let j = sys.jac (K.of_float !t) !x in
            let rhs = V.neg (ht (K.of_float !t) !x) in
            incr solves;
            let d = solve_step ~device device_ms j rhs ~tile:sys.dim in
            V.add !x (V.scale d (K.R.of_float (t' -. !t)))
        in
        let corrected, ok =
          correct ~device sys opts tt' guess solves device_ms
        in
        if ok then begin
          x := corrected;
          t := t';
          dt := Float.min opts.max_step (!dt *. 1.5)
        end
        else begin
          incr rejections;
          dt := !dt /. 2.0
        end
      end
    done;
    Option.get !result
end
