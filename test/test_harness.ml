(* Tests for the experiment harness (the runners the CLI and the bench
   share) and for the multicore host kernels. *)

open Mdlinalg
module P = Multidouble.Precision
module R = Harness.Runners
module Rep = Harness.Report

let check = Alcotest.(check bool)

let run ?complex ?rows ?solver ?execute kind p ~dim ~tile =
  R.run
    (R.request ?complex ?rows ?solver ?execute ~kind ~prec:p
       ~device:Gpusim.Device.v100 ~dim ~tile ())

let residual_of (r : Rep.t) = Option.get r.Rep.residual

let test_qr_runner_all_precisions () =
  List.iter
    (fun p ->
      List.iter
        (fun complex ->
          let r = run ~complex R.Qr p ~dim:256 ~tile:64 in
          check "kernel time positive" true (r.Rep.kernel_ms > 0.0);
          check "wall >= kernels" true (r.Rep.wall_ms >= r.Rep.kernel_ms);
          check "stages labeled" true
            (List.map fst (Rep.stage_ms r) = Lsq_core.Stage.qr_stages);
          check "kernel ms is stage sum" true
            (Float.abs
               (List.fold_left (fun a (_, m) -> a +. m) 0.0 (Rep.stage_ms r)
               -. r.Rep.kernel_ms)
            < 1e-6 *. r.Rep.kernel_ms);
          check "stage launches positive" true
            (List.for_all
               (fun (s : Rep.Row.t) -> s.Rep.Row.launches > 0)
               r.Rep.stages);
          check "launches is stage sum" true
            (List.fold_left
               (fun a (s : Rep.Row.t) -> a + s.Rep.Row.launches)
               0 r.Rep.stages
            = r.Rep.launches);
          check "stage ops recorded" true
            (List.exists
               (fun (s : Rep.Row.t) ->
                 Gpusim.Counter.total s.Rep.Row.ops > 0.0)
               r.Rep.stages);
          (* complex costs more than real at the same shape *)
          if complex then begin
            let real = R.qr p Gpusim.Device.v100 ~n:256 ~tile:64 in
            check "complex dearer" true (r.Rep.kernel_ms > real.Rep.kernel_ms)
          end)
        [ false; true ])
    P.all

let test_bs_runner () =
  List.iter
    (fun p ->
      let r = R.bs p Gpusim.Device.v100 ~dim:2560 ~tile:32 in
      check "stages labeled" true
        (List.map fst (Rep.stage_ms r) = Lsq_core.Stage.bs_stages);
      Alcotest.(check int) "1 + N(N+1)/2" (1 + (80 * 81 / 2)) r.Rep.launches)
    P.all

let test_solve_runner () =
  let r = run R.Solve P.QD ~dim:1024 ~tile:128 in
  let qr = Rep.part r Lsq_core.Solver.qr_part
  and bs = Rep.part r Lsq_core.Solver.bs_part in
  check "qr dominates bs" true
    (qr.Rep.Part.kernel_ms > 10.0 *. bs.Rep.Part.kernel_ms);
  check "total between parts" true
    (r.Rep.kernel_gflops <= qr.Rep.Part.kernel_gflops +. 1.0);
  check "kernel ms is part sum" true
    (Float.abs (r.Rep.kernel_ms -. qr.Rep.Part.kernel_ms -. bs.Rep.Part.kernel_ms)
    < 1e-6 *. r.Rep.kernel_ms)

let test_report_json_roundtrip () =
  let exact = Alcotest.(check bool) in
  (* A single-phase report: stage list, no parts, no residual. *)
  let qr = R.qr P.DD Gpusim.Device.v100 ~n:256 ~tile:64 in
  exact "qr report round-trips" true (Rep.of_json (Rep.to_json qr) = qr);
  exact "qr report string round-trips" true
    (Rep.of_json_string (Rep.to_json_string qr) = qr);
  (* A composite report with parts, a residual and a metrics snapshot
     attached. *)
  let solve = run R.Solve P.QD ~dim:64 ~tile:16 in
  let metrics =
    let reg = Obs.Metrics.create () in
    Obs.Metrics.Counter.add (Obs.Metrics.counter reg "test.count") 7;
    Obs.Metrics.Gauge.set (Obs.Metrics.gauge reg "test.level") 2.5;
    Obs.Metrics.Histogram.observe (Obs.Metrics.histogram reg "test.hist") 0.4;
    Obs.Metrics.snapshot reg
  in
  let solve =
    {
      solve with
      Rep.residual =
        (run ~execute:true R.Solve P.QD ~dim:16 ~tile:8).Rep.residual;
      metrics = Some metrics;
    }
  in
  exact "solve report round-trips" true
    (Rep.of_json_string (Rep.to_json_string solve) = solve);
  (* Schema violations are rejected, not silently misread: an unknown
     version, and schema 4, whose executed figures came from a plan. *)
  (match Rep.of_json_string "{\"schema\": 999}" with
  | exception Harness.Json.Error _ -> ()
  | _ -> Alcotest.fail "wrong schema version accepted");
  (match Rep.to_json qr with
  | Harness.Json.Obj fields -> (
    let v4 =
      Harness.Json.Obj
        (List.map
           (function "schema", _ -> ("schema", Harness.Json.Int 4) | f -> f)
           fields)
    in
    match Rep.of_json v4 with
    | exception Harness.Json.Error _ -> ()
    | _ -> Alcotest.fail "schema-4 report accepted")
  | _ -> Alcotest.fail "report must serialize to an object");
  match Rep.of_json_string "[1, 2]" with
  | exception Harness.Json.Error _ -> ()
  | _ -> Alcotest.fail "non-object report accepted"

let test_rates_scale_with_device () =
  (* Faster device, same work: more gigaflops at full occupancy. *)
  let v = R.qr P.OD Gpusim.Device.v100 ~n:1024 ~tile:128 in
  let c = R.qr P.OD Gpusim.Device.c2050 ~n:1024 ~tile:128 in
  check "v100 beats c2050" true (v.Rep.kernel_gflops > 4.0 *. c.Rep.kernel_gflops)

let test_verifiers () =
  let ok ?complex ?rows kind p ~dim ~tile =
    (residual_of (run ?complex ?rows ~execute:true kind p ~dim ~tile)).Rep.ok
  in
  check "qr ok" true (ok R.Qr P.DD ~dim:32 ~tile:8);
  check "bs ok" true (ok R.Backsub P.QD ~dim:32 ~tile:8);
  check "solve ok" true (ok R.Solve P.DD ~dim:16 ~tile:8);
  check "complex qr ok" true (ok ~complex:true R.Qr P.DD ~dim:16 ~tile:8);
  check "tall qr ok" true (ok ~rows:64 R.Qr P.DD ~dim:16 ~tile:8)

(* An executed report is the report of the run that executed it.  The
   reference runs below rebuild the runner's seeded systems (seeds 2424,
   4242 and 3434) and run them directly. *)
module Dd = struct
  module S = Lsq_core.Solver.Make (Scalar.Dd)
  module Q = Lsq_core.Blocked_qr.Make (Scalar.Dd)
  module B = Lsq_core.Tiled_back_sub.Make (Scalar.Dd)
  module Rand = Randmat.Make (Scalar.Dd)
end

let device = Gpusim.Device.v100

let test_executed_iterative_reports () =
  List.iter
    (fun solver ->
      let r =
        run ~rows:256 ~solver ~execute:true R.Solve P.DD ~dim:16 ~tile:16
      in
      let rng = Dompool.Prng.create 2424 in
      let a = Dd.Rand.matrix rng 256 16 in
      let b, _ = Dd.Rand.rhs_for rng a in
      let s = Dd.S.solve ~method_:solver ~device ~a ~b ~tile:16 () in
      let it = Option.get s.Dd.S.iter and rs = Option.get r.Rep.solver in
      let name = Lsq_core.Solver.method_name solver in
      check (name ^ " ladder") true (rs.Rep.ladder = it.Lsq_core.Solver.ladder);
      Alcotest.(check int)
        (name ^ " iterations") it.Lsq_core.Solver.iterations rs.Rep.iterations;
      check (name ^ " ladder start") true
        (rs.Rep.ladder_start = it.Lsq_core.Solver.ladder_start);
      check (name ^ " cond estimate") true
        (rs.Rep.cond_estimate = it.Lsq_core.Solver.cond_estimate);
      check (name ^ " converged") true
        (rs.Rep.converged = it.Lsq_core.Solver.converged);
      check (name ^ " climbed a rung and converged") true
        (List.length rs.Rep.ladder > 1 && rs.Rep.converged);
      check (name ^ " kernel ms of the executed run") true
        (Int64.equal
           (Int64.bits_of_float r.Rep.kernel_ms)
           (Int64.bits_of_float s.Dd.S.kernel_ms)))
    [ Lsq_core.Solver.Cg_normal; Lsq_core.Solver.Lsqr ]

let test_executed_fault_tally () =
  let fault = Fault.Plan.config ~seed:11 ~rate:0.03 () in
  let executed kind sim_run =
    let r =
      R.run
        (R.request ~fault ~execute:true ~kind ~prec:P.DD ~device ~dim:32
           ~tile:8 ())
    in
    let sim = Gpusim.Sim.create ~fault ~device ~prec:P.DD () in
    sim_run sim;
    let tally = Rep.faults_of_tally (Option.get (Gpusim.Sim.fault_tally sim)) in
    check "faults struck" true (Rep.faults_injected tally > 0);
    check "report carries the executed tally" true (r.Rep.faults = Some tally);
    Alcotest.(check int) "launches of the executed run"
      (Gpusim.Sim.launches sim) r.Rep.launches
  in
  executed R.Qr (fun sim ->
      let a = Dd.Rand.matrix (Dompool.Prng.create 4242) 32 32 in
      ignore (Dd.Q.factor sim a ~tile:8));
  executed R.Backsub (fun sim ->
      let rng = Dompool.Prng.create 3434 in
      let u = Dd.Rand.upper rng 32 in
      let b, _ = Dd.Rand.rhs_for rng u in
      ignore (Dd.B.solve sim u b ~tile:8))

(* The runner validates its own requests: [validate] names the bad
   shape, [run] and [roofline] refuse it with the same message. *)
let test_validate () =
  let bad ?rows ?solver kind ~dim ~tile msg =
    let req =
      R.request ?rows ?solver ~kind ~prec:P.DD ~device:Gpusim.Device.v100
        ~dim ~tile ()
    in
    Alcotest.(check (result unit string)) msg (Error msg) (R.validate req);
    (match R.run req with
    | exception Invalid_argument m -> Alcotest.(check string) "run" msg m
    | _ -> Alcotest.failf "run accepted: %s" msg);
    match R.roofline req with
    | exception Invalid_argument m -> Alcotest.(check string) "roofline" msg m
    | _ -> Alcotest.failf "roofline accepted: %s" msg
  in
  bad R.Qr ~dim:0 ~tile:8 "dimension 0 <= 0";
  bad R.Qr ~dim:64 ~tile:24 "tile 24 does not divide dimension 64";
  bad R.Qr ~rows:16 ~dim:64 ~tile:16 "rows < cols";
  bad R.Solve ~rows:16 ~dim:64 ~tile:16 "rows < cols";
  bad R.Backsub ~rows:128 ~dim:64 ~tile:16
    "rows only applies to qr and solve jobs";
  bad R.Qr ~solver:Lsq_core.Solver.Lsqr ~dim:64 ~tile:16
    "solver 'lsqr' only applies to solve jobs";
  check "tall iterative solve accepted" true
    (R.validate
       (R.request ~rows:512 ~solver:Lsq_core.Solver.Cg_normal ~kind:R.Solve
          ~prec:P.DD ~device:Gpusim.Device.v100 ~dim:64 ~tile:16 ())
    = Ok ())

(* ---- multicore host kernels ---- *)

module Pb (K : Scalar.S) = struct
  module B = Par_blas.Make (K)
  module M = Mat.Make (K)
  module V = Vec.Make (K)
  module H = Host_qr.Make (K)
  module Rand = Randmat.Make (K)

  let small r = K.R.compare r (K.R.of_float (1e6 *. K.R.eps)) <= 0

  let run () =
    let rng = Dompool.Prng.create 777 in
    let a = Rand.matrix rng 33 21 and b = Rand.matrix rng 21 17 in
    let v = Rand.vector rng 21 in
    (* parallel results equal the serial reference *)
    check "matvec" true
      (small
         (K.R.div
            (V.norm (V.sub (B.matvec a v) (M.matvec a v)))
            (K.R.add_float (V.norm v) 1.0)));
    check "matmul" true
      (small (M.rel_distance (B.matmul a b) (M.matmul a b)));
    let sq = Rand.matrix rng 28 28 in
    let q, r = B.qr_factor sq in
    check "orthogonal" true (small (H.orthogonality_defect q));
    check "reconstructs" true (small (H.factorization_residual sq q r));
    (* upper triangular *)
    let ok = ref true in
    for i = 0 to 27 do
      for j = 0 to i - 1 do
        if not (K.is_zero (M.get r i j)) then ok := false
      done
    done;
    check "R upper" true !ok
end

module Pb_dd = Pb (Scalar.Dd)
module Pb_qd = Pb (Scalar.Qd)
module Pb_zdd = Pb (Scalar.Zdd)

let () =
  Alcotest.run "harness"
    [
      ( "runners",
        [
          Alcotest.test_case "qr all precisions" `Quick
            test_qr_runner_all_precisions;
          Alcotest.test_case "back substitution" `Quick test_bs_runner;
          Alcotest.test_case "solver" `Quick test_solve_runner;
          Alcotest.test_case "device scaling" `Quick
            test_rates_scale_with_device;
          Alcotest.test_case "verifiers" `Quick test_verifiers;
          Alcotest.test_case "request validation" `Quick test_validate;
          Alcotest.test_case "report json round-trip" `Quick
            test_report_json_roundtrip;
          Alcotest.test_case "executed iterative reports" `Quick
            test_executed_iterative_reports;
          Alcotest.test_case "executed fault tally" `Quick
            test_executed_fault_tally;
        ] );
      ( "multicore host",
        [
          Alcotest.test_case "double double" `Quick Pb_dd.run;
          Alcotest.test_case "quad double" `Quick Pb_qd.run;
          Alcotest.test_case "complex double double" `Quick Pb_zdd.run;
        ] );
    ]
