(* Uniform entry points the table generators, the CLI and the batch
   scheduler call: run one experiment at a given precision (real or
   complex) on a given device and return the unified [Report.t].

   Tables are generated in planning mode (cost accounting without numeric
   execution), which is what lets the paper's largest dimensions run in
   seconds; the verification section executes the same code paths
   numerically at smaller dimensions. *)

open Mdlinalg
open Lsq_core
module P = Multidouble.Precision

let describe what ?(complex = false) tag device shape =
  Printf.sprintf "%s %s%s %s %s" what (P.label tag)
    (if complex then " complex" else "")
    shape device.Gpusim.Device.name

(* Blocked Householder QR (Algorithm 2), cost accounting only. *)
let qr ?complex ?rows ?fault tag device ~n ~tile =
  let (module K) = Solver.scalar_of ?complex tag in
  let module Q = Blocked_qr.Make (K) in
  let rows = Option.value rows ~default:n in
  let r = Q.run_plan ?fault ~device ~rows ~cols:n ~tile () in
  {
    Report.label =
      describe "qr" ?complex tag device
        (Printf.sprintf "%dx%d tile=%d" rows n tile);
    stages = List.map Report.Row.of_profile r.Q.stages;
    parts = [];
    kernel_ms = r.Q.kernel_ms;
    wall_ms = r.Q.wall_ms;
    kernel_gflops = r.Q.kernel_gflops;
    wall_gflops = r.Q.wall_gflops;
    launches = r.Q.launches;
    residual = None;
    metrics = None;
    faults = Option.map Report.faults_of_tally r.Q.faults;
    solver = None;
  }

(* Tiled back substitution (Algorithm 1), cost accounting only. *)
let bs ?complex ?fault tag device ~dim ~tile =
  let (module K) = Solver.scalar_of ?complex tag in
  let module B = Tiled_back_sub.Make (K) in
  let r = B.run_plan ?fault ~device ~dim ~tile () in
  {
    Report.label =
      describe "backsub" ?complex tag device
        (Printf.sprintf "dim=%d tile=%d" dim tile);
    stages = List.map Report.Row.of_profile r.B.stages;
    parts = [];
    kernel_ms = r.B.kernel_ms;
    wall_ms = r.B.wall_ms;
    kernel_gflops = r.B.kernel_gflops;
    wall_gflops = r.B.wall_gflops;
    launches = r.B.launches;
    residual = None;
    metrics = None;
    faults = Option.map Report.faults_of_tally r.B.faults;
    solver = None;
  }

let qr_part = "QR"
let bs_part = "BS"

(* The engine-qualified experiment name: the default direct engine keeps
   the historical bare names ("solve", "solve-ft"), so every pre-existing
   label is unchanged; the iterative engines tag theirs. *)
let method_what what (method_ : Solver.method_) =
  match method_ with
  | Solver.Qr_direct -> what
  | m -> Printf.sprintf "%s[%s]" what (Solver.method_name m)

(* [Solver.Make] plus its phase split — "QR"/"BS", or the iterative
   ladder's rungs — as report parts. *)
module Solver_of (K : Scalar.S) = struct
  include Solver.Make (K)

  let report_parts =
    List.map (fun (p : part) ->
        {
          Report.Part.name = p.name;
          kernel_ms = p.kernel_ms;
          wall_ms = p.wall_ms;
          kernel_gflops = p.kernel_gflops;
          wall_gflops = p.wall_gflops;
        })
end

(* Least squares solve behind the pluggable engine seam (cost accounting
   only): the direct QR + BS plan — the two phases appear as the "QR"
   and "BS" parts, timed apart as in Table 10 — or one modeled rung of
   an iterative engine (CG on the normal equations, LSQR), whose rung
   appears as its part and whose report carries the schema-4 solver
   record. *)
let solve ?complex ?fault ?(method_ = Solver.Qr_direct) ?rows ?iterations tag
    device ~n ~tile =
  let (module K) = Solver.scalar_of ?complex tag in
  let module S = Solver_of (K) in
  let rows = Option.value rows ~default:n in
  let r = S.plan ~method_ ?fault ?iterations ~device ~rows ~cols:n ~tile () in
  {
    Report.label =
      describe (method_what "solve" method_) ?complex tag device
        (Printf.sprintf "%dx%d tile=%d" rows n tile);
    stages = List.map Report.Row.of_profile r.S.stages;
    parts = S.report_parts r.S.parts;
    kernel_ms = r.S.kernel_ms;
    wall_ms = r.S.wall_ms;
    kernel_gflops = r.S.kernel_gflops;
    wall_gflops = r.S.wall_gflops;
    launches = r.S.launches;
    residual = None;
    metrics = None;
    faults = Option.map Report.faults_of_tally r.S.faults;
    solver = Option.map (Report.solver_of_iter method_) r.S.iter;
  }

(* Per-stage roofline diagnostics (the paper's CGMA analysis, §4.1):
   plan the experiment on a throw-away simulator and classify every
   stage from the accumulated cost-model terms. *)

let qr_roofline ?complex ?rows tag device ~n ~tile =
  let (module K) = Solver.scalar_of ?complex tag in
  let module Q = Blocked_qr.Make (K) in
  let rows = Option.value rows ~default:n in
  let sim = Gpusim.Sim.create ~execute:false ~device ~prec:K.prec () in
  Q.plan sim ~rows ~cols:n ~tile;
  Gpusim.Sim.roofline sim

let bs_roofline ?complex tag device ~dim ~tile =
  let (module K) = Solver.scalar_of ?complex tag in
  let module B = Tiled_back_sub.Make (K) in
  let sim = Gpusim.Sim.create ~execute:false ~device ~prec:K.prec () in
  B.plan sim ~dim ~tile;
  Gpusim.Sim.roofline sim

let solve_roofline ?complex ?(method_ = Solver.Qr_direct) ?rows tag device ~n
    ~tile =
  match method_ with
  | Solver.Qr_direct ->
      qr_roofline ?complex ?rows tag device ~n ~tile
      @ bs_roofline ?complex tag device ~dim:n ~tile
  | (Solver.Cg_normal | Solver.Lsqr) as m ->
      (* The iterative engines' stages classify from the same cost
         terms as the direct ones: the O(1) flops-per-byte BLAS-1/2
         kernels come out memory-bound at double double (routing those
         jobs to bandwidth-rich device classes) and drift compute-bound
         as the Table 1 multipliers grow. *)
      let (module K) = Solver.scalar_of ?complex tag in
      let module S = Solver.Make (K) in
      let rows = Option.value rows ~default:n in
      let r = S.plan ~method_:m ~device ~rows ~cols:n ~tile () in
      List.map
        (fun (row : Gpusim.Profile.row) ->
          Obs.Roofline.classify ~stage:row.Gpusim.Profile.stage
            ~ms:row.Gpusim.Profile.ms ~launches:row.Gpusim.Profile.launches
            ~flops:(Gpusim.Counter.flops K.prec row.Gpusim.Profile.ops)
            ~bytes:
              (row.Gpusim.Profile.cold_bytes
              +. row.Gpusim.Profile.thread_bytes)
            ~compute_ms:row.Gpusim.Profile.compute_ms
            ~memory_ms:row.Gpusim.Profile.memory_ms
            ~peak_gflops:device.Gpusim.Device.dp_peak_gflops)
        r.S.stages

(* Satellite of the engine seam: when an executed iterative run chose
   its ladder start (from [Mdlinalg.Cond]'s double-precision estimate or
   an explicit override), surface the choice as a structured log record.
   Lives here rather than in [lsq_core], which deliberately has no [Obs]
   dependency. *)
let log_ladder_start ?(complex = false) tag (s : Report.solver) =
  if Obs.Log.enabled Obs.Log.Info then
    let fields =
      [
        ("method", Obs.Log.Str (Solver.method_name s.Report.method_));
        ("target", Obs.Log.Str (P.label tag));
        ("start", Obs.Log.Str (P.label s.Report.ladder_start));
        ("iterations", Obs.Log.Int s.Report.iterations);
        ("converged", Obs.Log.Bool s.Report.converged);
        ("complex", Obs.Log.Bool complex);
      ]
      @
      match s.Report.cond_estimate with
      | Some c -> [ ("cond", Obs.Log.Float c) ]
      | None -> []
    in
    Obs.Log.info ~fields "solver.ladder_start"

(* Numerically executed verification: factor, solve and report residuals
   (forward error against a known solution, orthogonality defect and
   factorization residual), exercising the very code the tables cost. *)

let verify_qr ?complex ?fault tag device ~n ~tile =
  let (module K) = Solver.scalar_of ?complex tag in
  let module Q = Blocked_qr.Make (K) in
  let module H = Host_qr.Make (K) in
  let module Rand = Randmat.Make (K) in
  let rng = Dompool.Prng.create 4242 in
  let a = Rand.matrix rng n n in
  let r = Q.run ?fault ~device ~a ~tile () in
  let defect = K.R.to_float (H.orthogonality_defect r.Q.q) in
  let resid = K.R.to_float (H.factorization_residual a r.Q.q r.Q.r) in
  let worst = Float.max defect resid in
  {
    Report.what =
      Printf.sprintf "QR %s%s n=%d tile=%d" (P.label tag)
        (if Option.value complex ~default:false then " complex" else "")
        n tile;
    residual = worst /. K.R.eps;
    eps = K.R.eps;
    ok = worst < 1e6 *. K.R.eps;
  }

let verify_solve ?complex ?fault ?(method_ = Solver.Qr_direct) ?rows tag
    device ~n ~tile =
  let (module K) = Solver.scalar_of ?complex tag in
  let module S = Solver.Make (K) in
  let module Rand = Randmat.Make (K) in
  let module V = Vec.Make (K) in
  let rng = Dompool.Prng.create 2424 in
  let rows = Option.value rows ~default:n in
  let a = Rand.matrix rng rows n in
  let b, x_true = Rand.rhs_for rng a in
  let r = S.solve ~method_ ?fault ~device ~a ~b ~tile () in
  Option.iter
    (fun it -> log_ladder_start ?complex tag (Report.solver_of_iter method_ it))
    r.S.iter;
  let err =
    K.R.to_float (V.norm (V.sub r.S.x x_true))
    /. K.R.to_float (V.norm x_true)
  in
  let shape =
    if rows = n then Printf.sprintf "n=%d" n
    else Printf.sprintf "%dx%d" rows n
  in
  {
    Report.what =
      Printf.sprintf "%s %s%s %s tile=%d"
        (method_what "least squares" method_)
        (P.label tag)
        (if Option.value complex ~default:false then " complex" else "")
        shape tile;
    residual = err /. K.R.eps;
    eps = K.R.eps;
    ok = err < 1e10 *. K.R.eps;
  }

let verify_bs ?complex ?fault tag device ~dim ~tile =
  let (module K) = Solver.scalar_of ?complex tag in
  let module B = Tiled_back_sub.Make (K) in
  let module Rand = Randmat.Make (K) in
  let module Tri = Host_tri.Make (K) in
  let rng = Dompool.Prng.create 3434 in
  let u = Rand.upper rng dim in
  let b, _ = Rand.rhs_for rng u in
  let r = B.run ?fault ~device ~u ~b ~tile () in
  let resid = K.R.to_float (Tri.residual u r.B.x b) in
  {
    Report.what =
      Printf.sprintf "back substitution %s%s dim=%d tile=%d" (P.label tag)
        (if Option.value complex ~default:false then " complex" else "")
        dim tile;
    residual = resid /. K.R.eps;
    eps = K.R.eps;
    ok = resid < 1e6 *. K.R.eps;
  }

(* Fault-tolerant executed solve: the top rung of the recovery ladder.
   The solver-level rungs (relaunch, panel/tile replay) act underneath;
   what reaches this level is either an escalation (budgets exhausted,
   [Fault.Plan.Injected]) or a silent corruption that slipped past the
   ABFT probes and only shows in the final forward error.  Escalations
   replay the whole solve under a decorrelated seed; a bad residual
   falls back to a fault-free mixed-precision refinement pass at the
   next precision up the D -> DD -> QD -> OD ladder (a plain clean
   re-solve at the top).  Never raises: [residual.ok] carries the final
   verdict, and the report's fault record is flagged [refined] when the
   fallback ran.  A fully escalated attempt dies before its simulator
   tally can be read back, so those strikes go uncounted — the campaign
   still sees them as a [refined] report with a zero tally. *)

let next_tag = function
  | P.D -> Some P.DD
  | P.DD -> Some P.QD
  | P.QD -> Some P.OD
  | P.OD -> None

let salted (cfg : Fault.Plan.config) =
  Fault.Plan.config ~kinds:cfg.Fault.Plan.kinds
    ~max_relaunches:cfg.Fault.Plan.max_relaunches
    ~max_replays:cfg.Fault.Plan.max_replays
    ~seed:(cfg.Fault.Plan.seed + 0x5bd1e995)
    ~rate:cfg.Fault.Plan.rate ()

let solve_ft ?(complex = false) ?fault ?(method_ = Solver.Qr_direct) tag
    device ~n ~tile =
  let (module K) = Solver.scalar_of ~complex tag in
  let module S = Solver_of (K) in
  let module M = Mat.Make (K) in
  let module V = Vec.Make (K) in
  let module Rand = Randmat.Make (K) in
  let rng = Dompool.Prng.create 6060 in
  let a = Rand.matrix rng n n in
  let b, x_true = Rand.rhs_for rng a in
  let err_of x =
    K.R.to_float (V.norm (V.sub x x_true)) /. K.R.to_float (V.norm x_true)
  in
  let clean () =
    S.solve ~method_ ~device ~a:(M.copy a) ~b:(V.copy b) ~tile ()
  in
  let rec attempt retries cfg =
    match
      S.solve ~method_ ?fault:cfg ~device ~a:(M.copy a) ~b:(V.copy b) ~tile ()
    with
    | r -> r
    | exception Fault.Plan.Injected _ when retries > 0 ->
        attempt (retries - 1) (Option.map salted cfg)
    | exception Fault.Plan.Injected _ -> clean ()
  in
  (* Fault-free refinement at the next precision up; at the top of the
     ladder a clean re-solve is all that is left. *)
  let refined_solve () =
    match next_tag tag with
    | None -> (clean ()).S.x
    | Some hi ->
        let (module KH) = Solver.scalar_of ~complex hi in
        let module Rf = Refine.Make_scalar (K) (KH) in
        let ah = Rf.MH.init n n (fun i j -> Rf.promote (M.get a i j)) in
        let bh = Array.map Rf.promote b in
        let res = Rf.solve ~device ~a:ah ~b:bh ~tile () in
        Array.map Rf.demote res.Rf.x
  in
  let threshold = 1e10 *. K.R.eps in
  let r = attempt 1 fault in
  Option.iter
    (fun it -> log_ladder_start ~complex tag (Report.solver_of_iter method_ it))
    r.S.iter;
  let first_err = err_of r.S.x in
  let refined = Float.is_nan first_err || first_err >= threshold in
  let err = if refined then err_of (refined_solve ()) else first_err in
  let faults =
    match fault with
    | None -> Option.map (Report.faults_of_tally ~refined) r.S.faults
    | Some _ ->
        Some
          (Report.faults_of_tally ~refined
             (Option.value r.S.faults ~default:Fault.Plan.zero_tally))
  in
  let shape = Printf.sprintf "%dx%d tile=%d" n n tile in
  let what = method_what "solve-ft" method_ in
  {
    Report.label = describe what ~complex tag device shape;
    stages = List.map Report.Row.of_profile r.S.stages;
    parts = S.report_parts r.S.parts;
    kernel_ms = r.S.kernel_ms;
    wall_ms = r.S.wall_ms;
    kernel_gflops = r.S.kernel_gflops;
    wall_gflops = r.S.wall_gflops;
    launches = r.S.launches;
    residual =
      Some
        {
          Report.what = Printf.sprintf "%s %s %s" what (P.label tag) shape;
          residual = err /. K.R.eps;
          eps = K.R.eps;
          ok = (not (Float.is_nan err)) && err < threshold;
        };
    metrics = None;
    faults;
    solver = Option.map (Report.solver_of_iter method_) r.S.iter;
  }
