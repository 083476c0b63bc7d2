(* Tests for the accelerated algorithms: the tiled back substitution
   (Algorithm 1) and the blocked Householder QR (Algorithm 2) are checked
   against the host baselines at several precisions, real and complex;
   the analytic per-kernel operation tallies are checked against a
   dynamically instrumented run; the launch count of Algorithm 1 matches
   the paper's 1 + N(N+1)/2. *)

open Mdlinalg
open Lsq_core

let check = Alcotest.(check bool)
let device = Gpusim.Device.v100

module Generic (K : Scalar.S) = struct
  module M = Mat.Make (K)
  module V = Vec.Make (K)
  module Tri = Host_tri.Make (K)
  module Hqr = Host_qr.Make (K)
  module Rand = Randmat.Make (K)
  module Bs = Tiled_back_sub.Make (K)
  module Nbs = Naive_back_sub.Make (K)
  module Qr = Blocked_qr.Make (K)
  module Ls = Solver.Make (K)

  let tol factor = K.R.of_float (factor *. K.R.eps)

  let below msg x bound =
    if K.R.compare x bound > 0 then
      Alcotest.failf "%s: %s > %s" msg (K.R.to_string x) (K.R.to_string bound)

  let test_back_sub_matches_host () =
    let rng = Dompool.Prng.create 100 in
    List.iter
      (fun (dim, tile) ->
        let u = Rand.upper rng dim in
        let b, x_true = Rand.rhs_for rng u in
        let res = Bs.run ~device ~u ~b ~tile () in
        let x_host = Tri.back_substitute u b in
        below
          (Printf.sprintf "accelerated vs host (%d/%d)" dim tile)
          (V.norm (V.sub res.Bs.x x_host))
          (K.R.mul (V.norm x_host) (tol 1e8));
        below "residual" (Tri.residual u res.Bs.x b) (tol 1e6);
        below "vs known solution"
          (V.norm (V.sub res.Bs.x x_true))
          (K.R.mul (V.norm x_true) (tol 1e10)))
      [ (8, 4); (16, 4); (12, 3); (24, 8); (32, 8) ]

  let test_back_sub_launches () =
    let rng = Dompool.Prng.create 101 in
    List.iter
      (fun (dim, tile) ->
        let nt = dim / tile in
        let u = Rand.upper rng dim in
        let b = Rand.vector rng dim in
        let res = Bs.run ~device ~u ~b ~tile () in
        (* Algorithm 1 executes 1 + N(N+1)/2 kernel launches. *)
        Alcotest.(check int)
          (Printf.sprintf "launches at N=%d" nt)
          (1 + (nt * (nt + 1) / 2))
          res.Bs.launches)
      [ (8, 4); (24, 4); (40, 8) ]

  let test_back_sub_single_tile () =
    let rng = Dompool.Prng.create 102 in
    let u = Rand.upper rng 6 in
    let b, _ = Rand.rhs_for rng u in
    let res = Bs.run ~device ~u ~b ~tile:6 () in
    below "single tile" (Tri.residual u res.Bs.x b) (tol 1e6)

  let test_naive_back_sub () =
    let rng = Dompool.Prng.create 110 in
    let dim = 24 in
    let u = Rand.upper rng dim in
    let b, _ = Rand.rhs_for rng u in
    let naive = Nbs.run ~device ~u ~b () in
    let tiled = Bs.run ~device ~u ~b ~tile:8 () in
    below "naive matches tiled"
      (V.norm (V.sub naive.Nbs.x tiled.Bs.x))
      (K.R.mul (V.norm tiled.Bs.x) (tol 1e8));
    below "naive residual" (Tri.residual u naive.Nbs.x b) (tol 1e6);
    (* the classic algorithm needs ~2 dim launches *)
    Alcotest.(check int) "naive launches" ((2 * dim) - 1)
      naive.Nbs.launches;
    (* and at a realistic dimension the simulated device charges the
       classic algorithm more time (at dim 24 everything is overhead) *)
    let tiled_big = Bs.run_plan ~device ~dim:2560 ~tile:32 () in
    let naive_big = Nbs.run_plan ~device ~dim:2560 () in
    check "tiled is cheaper" true
      (tiled_big.Bs.kernel_ms < naive_big.Nbs.kernel_ms)

  let test_back_sub_bad_args () =
    let rng = Dompool.Prng.create 103 in
    let u = Rand.upper rng 8 in
    let b = Rand.vector rng 8 in
    (try
       ignore (Bs.run ~device ~u ~b ~tile:3 ());
       Alcotest.fail "tile must divide dimension"
     with Invalid_argument _ -> ())

  let qr_properties name a tile =
    let res = Qr.run ~device ~a ~tile () in
    let q = res.Qr.q and r = res.Qr.r in
    below (name ^ ": orthogonality") (Hqr.orthogonality_defect q) (tol 1e6);
    below (name ^ ": A = QR") (Hqr.factorization_residual a q r) (tol 1e6);
    let ok = ref true in
    for j = 0 to M.cols r - 1 do
      for i = j + 1 to M.rows r - 1 do
        if not (K.is_zero (M.get r i j)) then ok := false
      done
    done;
    check (name ^ ": R upper") true !ok

  let test_qr_square () =
    let rng = Dompool.Prng.create 104 in
    List.iter
      (fun (n, tile) ->
        let a = Rand.matrix rng n n in
        qr_properties (Printf.sprintf "square %d/%d" n tile) a tile)
      [ (8, 4); (16, 4); (16, 8); (24, 8); (32, 16) ]

  let test_qr_rectangular () =
    let rng = Dompool.Prng.create 105 in
    List.iter
      (fun (m, n, tile) ->
        let a = Rand.matrix rng m n in
        qr_properties (Printf.sprintf "rect %dx%d/%d" m n tile) a tile)
      [ (24, 16, 8); (40, 16, 8); (20, 8, 4) ]

  let test_qr_single_panel () =
    let rng = Dompool.Prng.create 106 in
    let a = Rand.matrix rng 12 4 in
    qr_properties "single panel" a 4

  let test_qr_matches_host_r () =
    (* R is unique up to the unit phases of its rows; compare the moduli. *)
    let rng = Dompool.Prng.create 107 in
    let n = 16 in
    let a = Rand.matrix rng n n in
    let res = Qr.run ~device ~a ~tile:4 () in
    let _, r_host = Hqr.factor a in
    let d = ref K.R.zero in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let e =
          K.R.abs
            (K.R.sub (K.abs (M.get res.Qr.r i j)) (K.abs (M.get r_host i j)))
        in
        if K.R.compare e !d > 0 then d := e
      done
    done;
    below "|R| matches host" !d (K.R.mul (M.max_abs a) (tol 1e8))

  let solve a b = Ls.solve ~method_:Solver.Qr_direct ~device ~a ~b ~tile:4 ()

  (* The direct solve [Solver] does not select for a shape, from the two
     phases on one simulator: the full-Q factorization with Q^H b formed
     on the host, or the economy one applying the reflectors to b. *)
  let back_substitute sim r qtb ~n =
    Bs.solve sim (M.sub_matrix r ~r0:0 ~r1:n ~c0:0 ~c1:n) (Array.sub qtb 0 n)
      ~tile:4

  let solve_full a b =
    let sim = Gpusim.Sim.create ~device ~prec:K.prec () in
    let q, r = Qr.factor sim a ~tile:4 in
    back_substitute sim r (M.matvec (M.adjoint q) b) ~n:(M.cols a)

  let solve_thin a b =
    let sim = Gpusim.Sim.create ~device ~prec:K.prec () in
    let qtb = V.copy b in
    let r = Qr.factor_thin sim a ~b:qtb ~tile:4 in
    back_substitute sim r qtb ~n:(M.cols a)

  let test_least_squares () =
    let rng = Dompool.Prng.create 108 in
    (* Square system with known solution. *)
    let n = 16 in
    let a = Rand.matrix rng n n in
    let b, x_true = Rand.rhs_for rng a in
    let res = solve a b in
    below "square solve"
      (V.norm (V.sub res.Ls.x x_true))
      (K.R.mul (V.norm x_true) (tol 1e10));
    (* Overdetermined inconsistent system: normal equations hold. *)
    let m = 24 and n = 8 in
    let a = Rand.matrix rng m n in
    let b = Rand.vector rng m in
    let res = solve a b in
    let g = M.matvec (M.adjoint a) (V.sub b (M.matvec a res.Ls.x)) in
    below "normal equations" (V.norm g) (K.R.mul (V.norm b) (tol 1e10));
    (* And it agrees with the host least squares. *)
    let x_host = Hqr.least_squares a b in
    below "matches host LS"
      (V.norm (V.sub res.Ls.x x_host))
      (K.R.mul (V.norm x_host) (tol 1e10))

  let test_thin_solver () =
    let rng = Dompool.Prng.create 112 in
    (* Square and overdetermined systems: the economy path must agree
       with the full-Q solver to working precision.  [Solver] takes the
       full path on the square system and the thin one on the tall. *)
    List.iter
      (fun (m, n) ->
        let a = Rand.matrix rng m n in
        let b = Rand.vector rng m in
        let x = (solve a b).Ls.x in
        let full = if m > n then solve_full a b else x in
        let thin = if m > n then x else solve_thin a b in
        below
          (Printf.sprintf "thin matches full (%dx%d)" m n)
          (V.norm (V.sub thin full))
          (K.R.mul (K.R.add_float (V.norm full) 1.0) (tol 1e10)))
      [ (16, 16); (24, 12) ];
    (* and it saves the dominant Q update: strictly cheaper kernels *)
    let full =
      let res =
        Ls.plan ~method_:Solver.Qr_direct ~device ~rows:1024 ~cols:1024
          ~tile:128 ()
      in
      (List.find (fun (p : Ls.part) -> p.Ls.name = Solver.qr_part) res.Ls.parts)
        .Ls.kernel_ms
    in
    let thin =
      let sim = Gpusim.Sim.create ~execute:false ~device ~prec:K.prec () in
      Qr.plan_thin sim ~rows:1024 ~cols:1024 ~tile:128;
      Gpusim.Sim.kernel_ms sim
    in
    check "thin is cheaper" true (thin < 0.8 *. full)

  let test_bitwise_determinism () =
    (* The simulated kernels parallelize over blocks writing disjoint
       outputs, so the numerical results must be bit-identical no matter
       how many domains execute them. *)
    let rng = Dompool.Prng.create 111 in
    let a = Rand.matrix rng 24 16 in
    let u = Rand.upper rng 24 in
    let b = Rand.vector rng 24 in
    let with_pool workers f =
      let pool = Dompool.Domain_pool.create workers in
      let sim =
        Gpusim.Sim.create ~pool ~device ~prec:K.prec ()
      in
      let r = f sim in
      Dompool.Domain_pool.shutdown pool;
      r
    in
    let q1, r1 = with_pool 1 (fun sim -> Qr.factor sim a ~tile:8) in
    let q4, r4 = with_pool 4 (fun sim -> Qr.factor sim a ~tile:8) in
    check "Q bitwise equal" true (M.equal q1 q4);
    check "R bitwise equal" true (M.equal r1 r4);
    let x1 = with_pool 1 (fun sim -> Bs.solve sim u b ~tile:8) in
    let x4 = with_pool 4 (fun sim -> Bs.solve sim u b ~tile:8) in
    check "x bitwise equal" true (V.equal x1 x4)

  (* Every figure a report carries, bit for bit ([%h] prints a float
     exactly): the stage rows (with their traffic and roofline terms),
     the parts, kernel and wall ms and gflops, and the launch count. *)
  let row_figures (r : Gpusim.Profile.row) =
    let o = r.Gpusim.Profile.ops in
    Printf.sprintf
      "%s: ms %h launches %d ops %h %h %h %h bytes %h %h terms %h %h"
      r.Gpusim.Profile.stage r.Gpusim.Profile.ms r.Gpusim.Profile.launches
      o.Gpusim.Counter.adds o.Gpusim.Counter.muls o.Gpusim.Counter.divs
      o.Gpusim.Counter.sqrts r.Gpusim.Profile.cold_bytes
      r.Gpusim.Profile.thread_bytes r.Gpusim.Profile.compute_ms
      r.Gpusim.Profile.memory_ms

  let totals name ~kernel_ms ~wall_ms ~kernel_gflops ~wall_gflops =
    Printf.sprintf "%s: kernel %h ms wall %h ms gflops %h %h" name kernel_ms
      wall_ms kernel_gflops wall_gflops

  let sim_figures stages sim =
    let module Sim = Gpusim.Sim in
    List.map
      (fun st -> row_figures (Gpusim.Profile.row sim.Sim.profile st))
      stages
    @ [
        totals "total" ~kernel_ms:(Sim.kernel_ms sim) ~wall_ms:(Sim.wall_ms sim)
          ~kernel_gflops:(Sim.kernel_gflops sim)
          ~wall_gflops:(Sim.wall_gflops sim);
        Printf.sprintf "launches %d" (Sim.launches sim);
      ]

  let result_figures (x : Ls.result) =
    List.map row_figures x.Ls.stages
    @ List.map
        (fun (p : Ls.part) ->
          totals p.Ls.name ~kernel_ms:p.Ls.kernel_ms ~wall_ms:p.Ls.wall_ms
            ~kernel_gflops:p.Ls.kernel_gflops ~wall_gflops:p.Ls.wall_gflops)
        x.Ls.parts
    @ [
        totals "total" ~kernel_ms:x.Ls.kernel_ms ~wall_ms:x.Ls.wall_ms
          ~kernel_gflops:x.Ls.kernel_gflops ~wall_gflops:x.Ls.wall_gflops;
        Printf.sprintf "launches %d" x.Ls.launches;
      ]

  let test_timing_independent_of_execution () =
    (* The plan prices exactly what the executed run prices: that is what
       lets the benches time dimensions too big to execute, and what lets
       an executed report stand for the plan of the same shape. *)
    let same what = Alcotest.(check (list string)) what in
    let sim execute = Gpusim.Sim.create ~execute ~device ~prec:K.prec () in
    let rng = Dompool.Prng.create 109 in
    let a = Rand.matrix rng 16 16 in
    let run = sim true and plan = sim false in
    ignore (Qr.factor run a ~tile:4);
    Qr.plan plan ~rows:16 ~cols:16 ~tile:4;
    same "qr" (sim_figures Stage.qr_stages plan)
      (sim_figures Stage.qr_stages run);
    let tall = Rand.matrix rng 32 16 in
    let run = sim true and plan = sim false in
    ignore (Qr.factor_thin run tall ~b:(Rand.vector rng 32) ~tile:4);
    Qr.plan_thin plan ~rows:32 ~cols:16 ~tile:4;
    same "thin qr" (sim_figures Stage.qr_stages plan)
      (sim_figures Stage.qr_stages run);
    let u = Rand.upper rng 16 in
    let run = sim true and plan = sim false in
    ignore (Bs.solve run u (Rand.vector rng 16) ~tile:4);
    Bs.plan plan ~dim:16 ~tile:4;
    same "back substitution" (sim_figures Stage.bs_stages plan)
      (sim_figures Stage.bs_stages run);
    List.iter
      (fun (m, n) ->
        let a = Rand.matrix rng m n and b = Rand.vector rng m in
        same
          (Printf.sprintf "direct solve %dx%d" m n)
          (result_figures
             (Ls.plan ~method_:Solver.Qr_direct ~device ~rows:m ~cols:n
                ~tile:4 ()))
          (result_figures (solve a b)))
      [ (16, 16); (32, 16) ]

  let suite name =
    let t n f = Alcotest.test_case n `Quick f in
    ( name,
      [
        t "back substitution matches host" test_back_sub_matches_host;
        t "back substitution launch count" test_back_sub_launches;
        t "back substitution single tile" test_back_sub_single_tile;
        t "naive back substitution baseline" test_naive_back_sub;
        t "back substitution bad args" test_back_sub_bad_args;
        t "qr square" test_qr_square;
        t "qr rectangular" test_qr_rectangular;
        t "qr single panel" test_qr_single_panel;
        t "qr matches host R" test_qr_matches_host_r;
        t "least squares" test_least_squares;
        t "thin (economy) solver" test_thin_solver;
        t "bitwise determinism across pools" test_bitwise_determinism;
        t "timing independent of execution" test_timing_independent_of_execution;
      ] )
end

module Td = Generic (Scalar.D)
module Tdd = Generic (Scalar.Dd)
module Tqd = Generic (Scalar.Qd)
module Tod = Generic (Scalar.Od)
module Tzdd = Generic (Scalar.Zdd)
module Tzqd = Generic (Scalar.Zqd)

(* ------------------------------------------------------------------ *)
(* Analytic flop descriptors vs dynamically counted operations         *)
(* ------------------------------------------------------------------ *)

module Counted_qd = Multidouble.Counted.Make (Multidouble.Quad_double)
module Kc = Scalar.Real (Counted_qd)
module Bsc = Tiled_back_sub.Make (Kc)
module Qrc = Blocked_qr.Make (Kc)
module Randc = Randmat.Make (Kc)
module Mc = Mat.Make (Kc)

let count_with f =
  (* Single-worker pool so the shared counters see every operation. *)
  let pool = Dompool.Domain_pool.create 1 in
  let sim =
    Gpusim.Sim.create ~pool ~device ~prec:Multidouble.Precision.QD ()
  in
  Counted_qd.reset ();
  f sim;
  let dyn = Counted_qd.snapshot () in
  let analytic = Gpusim.Profile.total_ops sim.Gpusim.Sim.profile in
  Dompool.Domain_pool.shutdown pool;
  (Gpusim.Counter.of_tally dyn, analytic)

let ops_close msg (dyn : Gpusim.Counter.ops) (ana : Gpusim.Counter.ops) =
  let close a b =
    Float.abs (a -. b) <= 1e-9 +. (0.001 *. Float.max a b)
  in
  if
    not
      (close dyn.Gpusim.Counter.adds ana.Gpusim.Counter.adds
      && close dyn.Gpusim.Counter.muls ana.Gpusim.Counter.muls
      && close dyn.Gpusim.Counter.divs ana.Gpusim.Counter.divs
      && close dyn.Gpusim.Counter.sqrts ana.Gpusim.Counter.sqrts)
  then
    Alcotest.failf "%s: dynamic %a vs analytic %a" msg Gpusim.Counter.pp dyn
      Gpusim.Counter.pp ana

let test_back_sub_flops () =
  let rng = Dompool.Prng.create 200 in
  let dim = 24 and tile = 4 in
  let u = Randc.upper rng dim in
  let b = Randc.vector rng dim in
  Counted_qd.reset ();
  let dyn, ana = count_with (fun sim -> ignore (Bsc.solve sim u b ~tile)) in
  ops_close "back substitution" dyn ana

let test_qr_flops () =
  let rng = Dompool.Prng.create 201 in
  let a = Randc.matrix rng 16 12 in
  let dyn, ana = count_with (fun sim -> ignore (Qrc.factor sim a ~tile:4)) in
  ops_close "blocked qr" dyn ana

(* The thin path prices its last panel's Y*W^T like every other panel's;
   the boxed arm (which [Counted] scalars take) executes it, so the
   counted operations match the priced ones. *)
let test_thin_qr_flops () =
  let rng = Dompool.Prng.create 202 in
  List.iter
    (fun (rows, cols, tile) ->
      let a = Randc.matrix rng rows cols in
      let b = Randc.vector rng rows in
      let dyn, ana =
        count_with (fun sim -> ignore (Qrc.factor_thin sim a ~b ~tile))
      in
      ops_close (Printf.sprintf "thin qr %dx%d/%d" rows cols tile) dyn ana)
    [ (20, 8, 4); (20, 4, 4) ]

(* ------------------------------------------------------------------ *)
(* Host cost of a plan-only launch                                      *)
(* ------------------------------------------------------------------ *)

(* A plan-only launch pays for its roofline evaluation and its profile
   update: the Table 10 double double solve plans 5,188 of them.
   Planning runs on the calling domain and does no pool work, so the
   words it allocates repeat exactly from one plan to the next. *)
module Sdd = Solver.Make (Scalar.Dd)

let test_plan_launch_words () =
  let plan () =
    Sdd.plan ~method_:Solver.Qr_direct ~device ~rows:1024 ~cols:1024
      ~tile:128 ()
  in
  (* The first plan resolves the metric handles and this domain's
     registry shards. *)
  ignore (plan () : Sdd.result);
  let before = Gc.minor_words () in
  let r = plan () in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "launches" 5188 r.Sdd.launches;
  let per_launch = words /. float_of_int r.Sdd.launches in
  if per_launch > 40.0 then
    Alcotest.failf "%.1f minor words per plan-only launch, budget 40"
      per_launch

(* A fault-armed factorization runs on the limb planes as an unarmed
   one does: its strikes, ABFT probe, finiteness sweeps and panel
   snapshots act on the planes, so arming the plan must not bring back
   the boxed arm's per-operation allocation (tens of millions of words
   for this factorization).  A one-domain pool keeps every launch on
   this domain, whose words [Gc.minor_words] counts. *)
module Qdd = Blocked_qr.Make (Scalar.Dd)
module Rdd = Randmat.Make (Scalar.Dd)

let test_armed_qr_words () =
  let a = Rdd.matrix (Dompool.Prng.create 4242) 64 64 in
  let pool = Dompool.Domain_pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Dompool.Domain_pool.shutdown pool)
    (fun () ->
      let sim =
        Gpusim.Sim.create ~pool
          ~fault:(Fault.Plan.config ~seed:1 ~rate:0.05 ())
          ~device ~prec:Scalar.Dd.prec ()
      in
      let before = Gc.minor_words () in
      ignore (Qdd.factor sim a ~tile:16);
      let words = Gc.minor_words () -. before in
      let tally : Fault.Plan.tally = Option.get (Gpusim.Sim.fault_tally sim) in
      Alcotest.(check bool) "bit flips struck" true (tally.bitflips > 0);
      (* About 0.47M words over fault seeds 1-10, 0.58M at the most:
         only the ABFT probe's draws are boxed. *)
      if words > 8e5 then
        Alcotest.failf "%.0f minor words for an armed 64x64 factorization, \
                        budget 0.8M" words)

let () =
  Alcotest.run "lsq_core"
    [
      Td.suite "double";
      Tdd.suite "double double";
      Tqd.suite "quad double";
      Tod.suite "octo double";
      Tzdd.suite "complex double double";
      Tzqd.suite "complex quad double";
      ( "flop accounting",
        [
          Alcotest.test_case "back substitution" `Quick test_back_sub_flops;
          Alcotest.test_case "blocked qr" `Quick test_qr_flops;
          Alcotest.test_case "thin blocked qr" `Quick test_thin_qr_flops;
        ] );
      ( "plan-only launches",
        [
          Alcotest.test_case "allocation budget" `Quick
            test_plan_launch_words;
        ] );
      ( "fault-armed qr",
        [ Alcotest.test_case "allocation budget" `Quick test_armed_qr_words ] );
    ]
