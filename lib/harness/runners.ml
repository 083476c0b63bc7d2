(* The one runner: a request names the experiment (QR, back substitution
   or the least squares solve), its precision, shape and device, and
   whether to execute it numerically; [run] turns it into the unified
   [Report.t].

   Tables are generated in planning mode (cost accounting without numeric
   execution), which is what lets the paper's largest dimensions run in
   seconds; executed requests run the same code paths numerically at
   smaller dimensions, once, and report that run with its residual. *)

open Mdlinalg
open Lsq_core
module P = Multidouble.Precision

type kind = Qr | Backsub | Solve

type request = {
  kind : kind;
  prec : P.tag;
  complex : bool;
  device : Gpusim.Device.t;
  dim : int;
  rows : int option;
  tile : int;
  solver : Solver.method_;
  fault : Fault.Plan.config option;
  execute : bool;
}

let request ?(complex = false) ?rows ?(solver = Solver.Qr_direct) ?fault
    ?(execute = false) ~kind ~prec ~device ~dim ~tile () =
  { kind; prec; complex; device; dim; rows; tile; solver; fault; execute }

let rows_of r = Option.value r.rows ~default:r.dim

let validate r =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if r.dim <= 0 then err "dimension %d <= 0" r.dim
  else if r.tile <= 0 || r.dim mod r.tile <> 0 then
    err "tile %d does not divide dimension %d" r.tile r.dim
  else if rows_of r < r.dim then err "rows < cols"
  else if r.rows <> None && r.kind = Backsub then
    err "rows only applies to qr and solve jobs"
  else if Solver.is_iterative r.solver && r.kind <> Solve then
    err "solver '%s' only applies to solve jobs" (Solver.method_name r.solver)
  else Ok ()

let check r = Result.iter_error invalid_arg (validate r)

(* ---- names ---- *)

(* "<what> <prec>[ complex] <shape>": report labels and residual names. *)
let describe r what shape =
  Printf.sprintf "%s %s%s %s" what (P.label r.prec)
    (if r.complex then " complex" else "")
    shape

(* The engine-qualified solve name: the direct engine keeps the bare
   name ("solve", "solve-ft"), the iterative engines tag theirs. *)
let engine r what =
  match r.solver with
  | Solver.Qr_direct -> what
  | m -> Printf.sprintf "%s[%s]" what (Solver.method_name m)

let plan_shape r =
  match r.kind with
  | Backsub -> Printf.sprintf "dim=%d tile=%d" r.dim r.tile
  | Qr | Solve -> Printf.sprintf "%dx%d tile=%d" (rows_of r) r.dim r.tile

(* Executed square systems are named by their order, tall ones by both
   dimensions. *)
let verify_shape r =
  if r.kind <> Backsub && rows_of r = r.dim then
    Printf.sprintf "n=%d tile=%d" r.dim r.tile
  else plan_shape r

(* When an executed iterative run chose its ladder start (from
   [Mdlinalg.Cond]'s double-precision estimate or an explicit override),
   surface its report's record of the choice as a structured log record.
   Lives here: [lsq_core] deliberately has no [Obs] dependency. *)
let log_ladder_start r (rep : Report.t) =
  if Obs.Log.enabled Obs.Log.Info then
    Option.iter
      (fun (s : Report.solver) ->
        let fields =
          [
            ("method", Obs.Log.Str (Solver.method_name s.Report.method_));
            ("target", Obs.Log.Str (P.label r.prec));
            ("start", Obs.Log.Str (P.label s.Report.ladder_start));
            ("iterations", Obs.Log.Int s.Report.iterations);
            ("converged", Obs.Log.Bool s.Report.converged);
            ("complex", Obs.Log.Bool r.complex);
          ]
          @
          match s.Report.cond_estimate with
          | Some c -> [ ("cond", Obs.Log.Float c) ]
          | None -> []
        in
        Obs.Log.info ~fields "solver.ladder_start")
      rep.Report.solver

(* The fault-tolerant solve's ladder: the next precision up, if any. *)
let next_tag = function
  | P.D -> Some P.DD
  | P.DD -> Some P.QD
  | P.QD -> Some P.OD
  | P.OD -> None

let salted (cfg : Fault.Plan.config) =
  { cfg with Fault.Plan.seed = cfg.Fault.Plan.seed + 0x5bd1e995 }

module Make (K : Scalar.S) = struct
  module S = Solver.Make (K)
  module Q = Blocked_qr.Make (K)
  module B = Tiled_back_sub.Make (K)
  module M = Mat.Make (K)
  module V = Vec.Make (K)
  module Rand = Randmat.Make (K)
  module Sim = Gpusim.Sim

  (* The plan of a QR (of a solve's shape, too) or a back substitution
     on a fresh simulator. *)
  let plan_sim ?fault r =
    let sim =
      Sim.create ~execute:false ?fault ~device:r.device ~prec:K.prec ()
    in
    (match r.kind with
    | Backsub -> B.plan sim ~dim:r.dim ~tile:r.tile
    | Qr | Solve -> Q.plan sim ~rows:(rows_of r) ~cols:r.dim ~tile:r.tile);
    sim

  (* A QR or back substitution simulator, planned or executed, in the
     solver's result shape. *)
  let result_of_sim r sim =
    let stages = if r.kind = Qr then Stage.qr_stages else Stage.bs_stages in
    {
      S.x = [||];
      method_ = r.solver;
      parts = [];
      stages = List.map (Gpusim.Profile.row sim.Sim.profile) stages;
      kernel_ms = Sim.kernel_ms sim;
      wall_ms = Sim.wall_ms sim;
      kernel_gflops = Sim.kernel_gflops sim;
      wall_gflops = Sim.wall_gflops sim;
      launches = Sim.launches sim;
      faults = Sim.fault_tally sim;
      iter = None;
    }

  (* Cost accounting only, in the solver's result shape. *)
  let plan r =
    match r.kind with
    | Solve ->
      S.plan ~method_:r.solver ?fault:r.fault ~device:r.device
        ~rows:(rows_of r) ~cols:r.dim ~tile:r.tile ()
    | Qr | Backsub -> result_of_sim r (plan_sim ?fault:r.fault r)

  let report ?(refined = false) ?residual r what (x : S.result) =
    {
      Report.label =
        describe r what (plan_shape r) ^ " " ^ r.device.Gpusim.Device.name;
      stages = List.map Report.Row.of_profile x.S.stages;
      parts =
        List.map
          (fun (p : S.part) ->
            {
              Report.Part.name = p.S.name;
              kernel_ms = p.S.kernel_ms;
              wall_ms = p.S.wall_ms;
              kernel_gflops = p.S.kernel_gflops;
              wall_gflops = p.S.wall_gflops;
            })
          x.S.parts;
      kernel_ms = x.S.kernel_ms;
      wall_ms = x.S.wall_ms;
      kernel_gflops = x.S.kernel_gflops;
      wall_gflops = x.S.wall_gflops;
      launches = x.S.launches;
      residual;
      metrics = None;
      faults = Option.map (Report.faults_of_tally ~refined) x.S.faults;
      solver = Option.map (Report.solver_of_iter r.solver) x.S.iter;
    }

  let plan_name r =
    match r.kind with
    | Qr -> "qr"
    | Backsub -> "backsub"
    | Solve -> engine r "solve"

  (* A relative error (or residual) in units of eps against [bound]. *)
  let residual what ~bound err =
    {
      Report.what;
      residual = err /. K.R.eps;
      eps = K.R.eps;
      ok = err < bound *. K.R.eps;
    }

  let rel_err x x_true =
    K.R.to_float (V.norm (V.sub x x_true)) /. K.R.to_float (V.norm x_true)

  (* The executed run on a seeded random system, with its residual: the
     orthogonality defect and factorization residual of the QR, the back
     substitution's residual, or the solve's forward error against a
     known solution. *)
  let verify r =
    let fault = r.fault and device = r.device and tile = r.tile in
    let what name = describe r name (verify_shape r) in
    let on_sim name run =
      let sim = Sim.create ?fault ~device ~prec:K.prec () in
      let err = run sim in
      (result_of_sim r sim, residual (what name) ~bound:1e6 err)
    in
    match r.kind with
    | Qr ->
      let module H = Host_qr.Make (K) in
      let a = Rand.matrix (Dompool.Prng.create 4242) (rows_of r) r.dim in
      on_sim "QR" (fun sim ->
          let q, rf = Q.factor sim a ~tile in
          Float.max
            (K.R.to_float (H.orthogonality_defect q))
            (K.R.to_float (H.factorization_residual a q rf)))
    | Backsub ->
      let module Tri = Host_tri.Make (K) in
      let rng = Dompool.Prng.create 3434 in
      let u = Rand.upper rng r.dim in
      let b, _ = Rand.rhs_for rng u in
      on_sim "back substitution" (fun sim ->
          K.R.to_float (Tri.residual u (B.solve sim u b ~tile) b))
    | Solve ->
      let rng = Dompool.Prng.create 2424 in
      let a = Rand.matrix rng (rows_of r) r.dim in
      let b, x_true = Rand.rhs_for rng a in
      let s = S.solve ~method_:r.solver ?fault ~device ~a ~b ~tile () in
      ( s,
        residual
          (what (engine r "least squares"))
          ~bound:1e10 (rel_err s.S.x x_true) )

  (* Fault-tolerant executed solve: the top rung of the recovery ladder.
     The solver-level rungs (relaunch, panel/tile replay) act underneath;
     what reaches this level is either an escalation (budgets exhausted,
     [Fault.Plan.Injected]) or a silent corruption that slipped past the
     ABFT probes and only shows in the final forward error.  Escalations
     replay the whole solve under a decorrelated seed; a bad forward
     error falls back to a fault-free mixed-precision refinement pass at
     the next precision up (a clean re-solve at the top of the ladder or
     on a tall system, which [Refine] does not take).  A fully escalated
     attempt dies before its simulator tally can be read back, so those
     strikes go uncounted: the campaign still sees them as a [refined]
     report with a zero tally. *)
  let solve_ft r =
    let device = r.device and tile = r.tile in
    let rows = rows_of r and n = r.dim in
    let rng = Dompool.Prng.create 6060 in
    let a = Rand.matrix rng rows n in
    let b, x_true = Rand.rhs_for rng a in
    let solve ?fault () =
      S.solve ~method_:r.solver ?fault ~device ~a:(M.copy a) ~b:(V.copy b)
        ~tile ()
    in
    let rec attempt retries cfg =
      match solve ?fault:cfg () with
      | s -> s
      | exception Fault.Plan.Injected _ when retries > 0 ->
        attempt (retries - 1) (Option.map salted cfg)
      | exception Fault.Plan.Injected _ -> solve ()
    in
    let refined_solve () =
      match next_tag r.prec with
      | Some hi when rows = n ->
        let (module KH) = Solver.scalar_of ~complex:r.complex hi in
        let module Rf = Refine.Make_scalar (K) (KH) in
        let ah = Rf.MH.init n n (fun i j -> Rf.promote (M.get a i j)) in
        let bh = Array.map Rf.promote b in
        let res = Rf.solve ~device ~a:ah ~b:bh ~tile () in
        Array.map Rf.demote res.Rf.x
      | _ -> (solve ()).S.x
    in
    let s = attempt 1 r.fault in
    let first_err = rel_err s.S.x x_true in
    let refined = not (first_err < 1e10 *. K.R.eps) in
    let err =
      if refined then rel_err (refined_solve ()) x_true else first_err
    in
    let what = engine r "solve-ft" in
    (* This residual's name omits the complex flag: outcome lines of
       complex fault-tolerant solves keep their bytes. *)
    let residual =
      residual
        (describe { r with complex = false } what (plan_shape r))
        ~bound:1e10 err
    in
    report ~refined ~residual r what
      {
        s with
        S.faults =
          Some (Option.value s.S.faults ~default:Fault.Plan.zero_tally);
      }

  let run r =
    let rep =
      match r with
      | { execute = false; _ } -> report r (plan_name r) (plan r)
      | { kind = Solve; fault = Some _; _ } -> solve_ft r
      | _ ->
        let x, residual = verify r in
        report ~residual r (plan_name r) x
    in
    if r.execute then log_ladder_start r rep;
    rep

  (* Per-stage roofline diagnostics (the paper's CGMA analysis, §4.1),
     classified from the accumulated cost-model terms of the plan. *)
  let roofline r =
    match (r.kind, r.solver) with
    | (Qr | Backsub), _ -> Sim.roofline (plan_sim r)
    | Solve, Solver.Qr_direct ->
      Sim.roofline (plan_sim r)
      @ Sim.roofline (plan_sim { r with kind = Backsub; rows = None })
    | Solve, m ->
      (* The iterative engines' stages classify from the same cost
         terms: the O(1) flops-per-byte BLAS-1/2 kernels come out
         memory-bound at double double (routing those jobs to
         bandwidth-rich device classes) and drift compute-bound as the
         Table 1 multipliers grow. *)
      let p =
        S.plan ~method_:m ~device:r.device ~rows:(rows_of r) ~cols:r.dim
          ~tile:r.tile ()
      in
      Gpusim.Profile.roofline r.device K.prec p.S.stages
end

let run r =
  check r;
  let (module K) = Solver.scalar_of ~complex:r.complex r.prec in
  let module X = Make (K) in
  X.run r

let campaign r ~runs =
  List.init runs (fun i ->
      let fault =
        Option.map
          (fun (c : Fault.Plan.config) ->
            { c with Fault.Plan.seed = c.Fault.Plan.seed + i })
          r.fault
      in
      run { r with fault; execute = true })

let roofline r =
  check r;
  let (module K) = Solver.scalar_of ~complex:r.complex r.prec in
  let module X = Make (K) in
  X.roofline r

let qr prec device ~n ~tile =
  run (request ~kind:Qr ~prec ~device ~dim:n ~tile ())

let bs prec device ~dim ~tile =
  run (request ~kind:Backsub ~prec ~device ~dim ~tile ())
