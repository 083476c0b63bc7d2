(* Calibration regression tests: the cost model's headline outputs are
   pinned to ranges bracketing the paper's measurements, so future
   changes to the model cannot silently destroy the reproduction
   (EXPERIMENTS.md documents the exact paper-vs-measured values). *)

module P = Multidouble.Precision
module R = Harness.Runners
module Rep = Harness.Report

let check = Alcotest.(check bool)
let v100 = Gpusim.Device.v100

let in_range what lo hi x =
  if not (x >= lo && x <= hi) then
    Alcotest.failf "%s: %g outside [%g, %g]" what x lo hi

(* ---- Table 3/4: QR at 1,024 ---- *)

let qr1024 p = R.qr p v100 ~n:1024 ~tile:128

let test_qr_teraflop () =
  (* The headline: teraflop performance at dimension 1,024 (paper: 2304
     GF at dd, 3214 at qd, 4100 at od on the V100). *)
  in_range "dd kernel flops" 1800.0 3200.0 (qr1024 P.DD).Rep.kernel_gflops;
  in_range "qd kernel flops" 2500.0 4200.0 (qr1024 P.QD).Rep.kernel_gflops;
  in_range "od kernel flops" 2500.0 4800.0 (qr1024 P.OD).Rep.kernel_gflops;
  (* performance increases with the precision (the CGMA argument) *)
  check "monotone in precision" true
    ((qr1024 P.D).Rep.kernel_gflops < (qr1024 P.DD).Rep.kernel_gflops
    && (qr1024 P.DD).Rep.kernel_gflops < (qr1024 P.QD).Rep.kernel_gflops)

let test_overhead_factors () =
  (* Paper: 7.1x and 3.7x on the V100, both under the predicted 11.7 and
     5.4 (the paper's central claim). *)
  let dd = (qr1024 P.DD).Rep.kernel_ms in
  let qd = (qr1024 P.QD).Rep.kernel_ms in
  let od = (qr1024 P.OD).Rep.kernel_ms in
  in_range "dd->qd overhead" 6.0 10.5 (qd /. dd);
  in_range "qd->od overhead" 3.5 5.4 (od /. qd);
  check "below predictions" true
    (qd /. dd < P.predicted_overhead ~lo:P.DD ~hi:P.QD
    && od /. qd < P.predicted_overhead ~lo:P.QD ~hi:P.OD)

let test_device_ordering () =
  (* Table 3's ordering: V100 < P100 << RTX 2080 < K20C < C2050. *)
  let t d = (R.qr P.DD d ~n:1024 ~tile:128).Rep.kernel_ms in
  let open Gpusim.Device in
  check "ordering" true
    (t v100 < t p100
    && t p100 < t rtx2080
    && t rtx2080 < t k20c
    && t k20c < t c2050);
  (* YWT*C dominates the small-cache C2050 (paper: 6068 of 8888 ms). *)
  let r = R.qr P.DD c2050 ~n:1024 ~tile:128 in
  let ywtc = List.assoc Lsq_core.Stage.ywtc (Rep.stage_ms r) in
  check "C2050 ywtc dominates" true (ywtc > 0.5 *. r.Rep.kernel_ms)

(* ---- Table 6: the double double collapse at 2,048 ---- *)

let test_dd_collapse () =
  let at p n = (R.qr p v100 ~n ~tile:128).Rep.kernel_ms in
  let dd_ratio = at P.DD 2048 /. at P.DD 1024 in
  let qd_ratio = at P.QD 2048 /. at P.QD 1024 in
  (* cubic growth alone is 8x; the paper sees ~113x for dd, ~11x for qd *)
  check "dd collapses" true (dd_ratio > 50.0);
  check "qd stays near-cubic" true (qd_ratio < 50.0);
  check "dd is the anomaly" true (dd_ratio > 2.0 *. qd_ratio)

let test_compute_w_dominates_small () =
  (* Paper §4.5: at dimension 512 the computation of W dominates. *)
  let r = R.qr P.QD v100 ~n:512 ~tile:128 in
  let w = List.assoc Lsq_core.Stage.compute_w (Rep.stage_ms r) in
  check "W dominates at 512" true (w > 0.4 *. r.Rep.kernel_ms);
  (* ... and no longer at 2,048 (the matrix products take over). *)
  let r = R.qr P.QD v100 ~n:2048 ~tile:128 in
  let w = List.assoc Lsq_core.Stage.compute_w (Rep.stage_ms r) in
  check "W recedes at 2048" true (w < 0.2 *. r.Rep.kernel_ms)

(* ---- Tables 7-9: back substitution ---- *)

let test_bs_teraflop_threshold () =
  (* Paper Table 8: ~1026 GF at n=224 (dimension 17,920), 1116 at 256. *)
  let at n = (R.bs P.QD v100 ~dim:(80 * n) ~tile:n).Rep.kernel_gflops in
  in_range "n=224" 800.0 1300.0 (at 224);
  in_range "n=256" 900.0 1500.0 (at 256);
  check "teraflops needs huge n" true (at 32 < 200.0 && at 224 > 800.0)

let test_bs_wall_dominated_by_transfers () =
  let r = R.bs P.QD v100 ~dim:20480 ~tile:256 in
  check "wall >> kernels" true (r.Rep.wall_ms > 5.0 *. r.Rep.kernel_ms)

let test_od_ram_anomaly () =
  (* Paper Table 7: the od wall clock explodes at 20,480 on the 32 GB
     host (84 s vs the 1.4 s trend). *)
  let small = (R.bs P.OD v100 ~dim:10240 ~tile:128).Rep.wall_ms in
  let big = (R.bs P.OD v100 ~dim:20480 ~tile:128).Rep.wall_ms in
  check "anomaly" true (big > 20.0 *. small);
  (* no anomaly on the 256 GB P100 host *)
  let p_small = (R.bs P.OD Gpusim.Device.p100 ~dim:10240 ~tile:128).Rep.wall_ms in
  let p_big = (R.bs P.OD Gpusim.Device.p100 ~dim:20480 ~tile:128).Rep.wall_ms in
  check "p100 host fine" true (p_big < 8.0 *. p_small)

let test_table9_wall_trend () =
  (* Bigger tiles: better wall clock at fixed dimension 20,480. *)
  let wall n = (R.bs P.QD v100 ~dim:20480 ~tile:n).Rep.wall_ms in
  check "wall decreasing" true (wall 64 > wall 128 && wall 128 > wall 256)

(* ---- Table 10: the solver ---- *)

let test_solver_ratio () =
  let r =
    R.run
      (R.request ~kind:R.Solve ~prec:P.QD ~device:v100 ~dim:1024 ~tile:128 ())
  in
  let qr = Rep.part r Lsq_core.Solver.qr_part
  and bs = Rep.part r Lsq_core.Solver.bs_part in
  let ratio = qr.Rep.Part.kernel_ms /. bs.Rep.Part.kernel_ms in
  (* two orders of magnitude, not three (paper: ~108) *)
  in_range "QR/BS ratio" 15.0 300.0 ratio;
  in_range "solver kernel flops" 2500.0 4200.0 r.Rep.kernel_gflops

(* ---- structural invariants ---- *)

let test_qr_launch_count () =
  (* Per tile: 3 panel kernels per column, 2n-1 compute-W launches, the
     YWT product, 2 Q-update launches, and 2 trailing-update launches for
     all but the last tile. *)
  let n = 64 and tile = 16 in
  let nt = n / tile in
  let expected = (nt * ((3 * tile) + ((2 * tile) - 1) + 3)) + (2 * (nt - 1)) in
  let r = R.qr P.QD v100 ~n ~tile in
  Alcotest.(check int) "qr launches" expected r.Rep.launches

let () =
  Alcotest.run "cost model calibration"
    [
      ( "qr",
        [
          Alcotest.test_case "teraflop at 1024" `Quick test_qr_teraflop;
          Alcotest.test_case "overhead factors" `Quick test_overhead_factors;
          Alcotest.test_case "device ordering" `Quick test_device_ordering;
          Alcotest.test_case "dd collapse at 2048" `Quick test_dd_collapse;
          Alcotest.test_case "compute W dominance" `Quick
            test_compute_w_dominates_small;
          Alcotest.test_case "launch count" `Quick test_qr_launch_count;
        ] );
      ( "back substitution",
        [
          Alcotest.test_case "teraflop threshold" `Quick
            test_bs_teraflop_threshold;
          Alcotest.test_case "transfers dominate wall" `Quick
            test_bs_wall_dominated_by_transfers;
          Alcotest.test_case "od host-RAM anomaly" `Quick test_od_ram_anomaly;
          Alcotest.test_case "table 9 wall trend" `Quick
            test_table9_wall_trend;
        ] );
      ( "solver",
        [ Alcotest.test_case "qr/bs ratio and flops" `Quick test_solver_ratio ]
      );
    ]
