(* Iterative-engine smoke: gates the solver-engine seam and writes
   BENCH_iter.json.

   Three checks, one per claim of the engine abstraction:

   - Pareto: on the tall-skinny planning shape (16384 x 64, the
     tallskinny sweep's larger point) both iterative engines must beat
     the direct QR engine on simulated kernel time, at double double
     and quad double — the m >> n regime is their home turf.
   - Roofline: at double double both matrix-vector stages of the
     iterative plan must classify memory-bound (the O(1) flops-per-byte
     CGMA ratio that routes these jobs to bandwidth-rich device
     classes), while the direct engine's QR stays compute-bound at quad
     double.
   - Execution: on a small executed problem (2048 x 32, double double)
     all three engines must reach the known solution to the certified
     forward-error bound, the iterative engines must report
     convergence, and re-running an iterative engine must be
     bit-deterministic: identical iteration counts, ladders and
     solution limbs.

   Part of the @bench-smoke regression gate; exits 1 on any mismatch. *)

module P = Multidouble.Precision
module Json = Obs.Json
module Solver = Lsq_core.Solver

let pf = Printf.printf

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline m;
      exit 1)
    fmt

let device = Gpusim.Device.v100

(* ---- planning: simulated time on the tall-skinny shape ---- *)

type planned = {
  prec : P.tag;
  method_ : Solver.method_;
  kernel_ms : float;
  wall_ms : float;
  iterations : int;
}

let plan_point prec method_ ~rows ~cols ~tile =
  let (module K) = Solver.scalar_of prec in
  let module S = Solver.Make (K) in
  let r = S.plan ~method_ ~device ~rows ~cols ~tile () in
  {
    prec;
    method_;
    kernel_ms = r.S.kernel_ms;
    wall_ms = r.S.wall_ms;
    iterations =
      (match r.S.iter with Some it -> it.Solver.iterations | None -> 0);
  }

let json_of_planned ~rows ~cols p =
  Json.Obj
    [
      ("prec", Json.Str (P.label p.prec));
      ("method", Json.Str (Solver.method_name p.method_));
      ("rows", Json.Int rows);
      ("cols", Json.Int cols);
      ("kernel_ms", Json.Float p.kernel_ms);
      ("wall_ms", Json.Float p.wall_ms);
      ("iterations", Json.Int p.iterations);
    ]

(* ---- execution: agreement and determinism ---- *)

type executed = {
  e_method : Solver.method_;
  forward_err_eps : float;
  e_iterations : int;
  converged : bool;
  ladder : (P.tag * int) list;
}

let executed_runs ~rows ~cols ~tile =
  let (module K) = Solver.scalar_of P.DD in
  let module S = Solver.Make (K) in
  let module M = Mdlinalg.Mat.Make (K) in
  let module V = Mdlinalg.Vec.Make (K) in
  let module Rand = Mdlinalg.Randmat.Make (K) in
  let rng = Dompool.Prng.create 4242 in
  let a = Rand.matrix rng rows cols in
  let b, x_true = Rand.rhs_for rng a in
  let solve method_ =
    S.solve ~method_ ~device ~a:(M.copy a) ~b:(V.copy b) ~tile ()
  in
  let err_of x =
    K.R.to_float (V.norm (V.sub x x_true)) /. K.R.to_float (V.norm x_true)
  in
  let point method_ =
    let r = solve method_ in
    ( r,
      {
        e_method = method_;
        forward_err_eps = err_of r.S.x /. K.R.eps;
        e_iterations =
          (match r.S.iter with Some it -> it.Solver.iterations | None -> 0);
        converged =
          (match r.S.iter with
          | Some it -> it.Solver.converged
          | None -> true);
        ladder =
          (match r.S.iter with Some it -> it.Solver.ladder | None -> []);
      } )
  in
  let runs = List.map point Solver.all_methods in
  (* Bit-determinism: a second run of each iterative engine must match
     the first in every limb and every ladder step. *)
  List.iter
    (fun (r1, e) ->
      if Solver.is_iterative e.e_method then begin
        let r2, e2 = point e.e_method in
        if r1.S.x <> r2.S.x then
          fail "iter-smoke: %s is not bit-deterministic"
            (Solver.method_name e.e_method);
        if e.e_iterations <> e2.e_iterations || e.ladder <> e2.ladder then
          fail "iter-smoke: %s iteration counts drift between runs"
            (Solver.method_name e.e_method)
      end)
    runs;
  List.map snd runs

let json_of_executed e =
  Json.Obj
    [
      ("method", Json.Str (Solver.method_name e.e_method));
      ("forward_err_eps", Json.Float e.forward_err_eps);
      ("iterations", Json.Int e.e_iterations);
      ("converged", Json.Bool e.converged);
      ( "ladder",
        Json.Arr
          (List.map
             (fun (t, i) ->
               Json.Obj
                 [
                   ("prec", Json.Str (P.label t));
                   ("iterations", Json.Int i);
                 ])
             e.ladder) );
    ]

let smoke () =
  pf "\n%s\nIterative-engine smoke: CG/LSQR vs direct QR on tall-skinny\n%s\n"
    (String.make 100 '-') (String.make 100 '-');
  let rows = 16384 and cols = 64 and tile = 64 in
  (* Pareto on simulated time, per precision. *)
  let planned =
    List.concat_map
      (fun prec ->
        List.map
          (fun m -> plan_point prec m ~rows ~cols ~tile)
          Solver.all_methods)
      [ P.DD; P.QD ]
  in
  List.iter
    (fun prec ->
      let of_m m =
        List.find (fun p -> p.prec = prec && p.method_ = m) planned
      in
      let qr = of_m Solver.Qr_direct in
      List.iter
        (fun m ->
          let p = of_m m in
          if p.kernel_ms >= qr.kernel_ms then
            fail
              "iter-smoke: %s (%s) kernel %.3f ms does not beat direct QR \
               %.3f ms on %dx%d"
              (Solver.method_name m) (P.label prec) p.kernel_ms qr.kernel_ms
              rows cols;
          pf "  %s %-5s %10.3f ms kernel (direct QR %10.3f ms, %5.1fx)\n"
            (P.label prec) (Solver.method_name m) p.kernel_ms qr.kernel_ms
            (qr.kernel_ms /. p.kernel_ms))
        [ Solver.Cg_normal; Solver.Lsqr ])
    [ P.DD; P.QD ];
  (* Roofline: at double double (the bandwidth-bound precision) the
     iterative matvec stages stream — memory-bound, the O(1)
     flops-per-byte CGMA ratio — while the Table 1 multipliers push the
     same kernels back toward compute at quad double, mirroring the
     paper's QR story.  The gate binds the dd classification; the qd
     rows ride along in the JSON. *)
  let matvec_stages =
    List.concat_map
      (fun prec ->
        let stages =
          Harness.Runners.solve_roofline ~method_:Solver.Lsqr ~rows prec
            device ~n:cols ~tile
        in
        List.filter_map
          (fun (s : Obs.Roofline.stage) ->
            if s.Obs.Roofline.stage = "A*v" || s.Obs.Roofline.stage = "A^T*v"
            then Some (prec, s)
            else None)
          stages)
      [ P.DD; P.QD ]
  in
  if List.length matvec_stages < 4 then
    fail "iter-smoke: expected both matvec stages at both precisions";
  List.iter
    (fun (prec, (s : Obs.Roofline.stage)) ->
      if prec = P.DD && s.Obs.Roofline.bound <> Obs.Roofline.Memory then
        fail "iter-smoke: %s %s classifies %s, want memory-bound"
          (P.label prec) s.Obs.Roofline.stage
          (Obs.Roofline.bound_name s.Obs.Roofline.bound);
      pf "  roofline %s %-6s %6.2f flops/byte  %s\n" (P.label prec)
        s.Obs.Roofline.stage s.Obs.Roofline.intensity
        (Obs.Roofline.bound_name s.Obs.Roofline.bound))
    matvec_stages;
  let qr_compute =
    Harness.Runners.qr_roofline P.QD device ~n:1024 ~tile:128
    |> List.exists (fun (s : Obs.Roofline.stage) ->
           s.Obs.Roofline.bound = Obs.Roofline.Compute)
  in
  if not qr_compute then
    fail "iter-smoke: quad double QR lost its compute-bound stages";
  (* Executed agreement + determinism on the small problem. *)
  let erows = 2048 and ecols = 32 and etile = 32 in
  let executed = executed_runs ~rows:erows ~cols:ecols ~tile:etile in
  List.iter
    (fun e ->
      if Float.is_nan e.forward_err_eps || e.forward_err_eps > 1e6 then
        fail "iter-smoke: %s forward error %.1f eps exceeds the bound"
          (Solver.method_name e.e_method) e.forward_err_eps;
      if not e.converged then
        fail "iter-smoke: %s did not certify convergence"
          (Solver.method_name e.e_method);
      pf "  executed %-5s %8.1f eps forward error, %d iterations%s\n"
        (Solver.method_name e.e_method) e.forward_err_eps e.e_iterations
        (if Solver.is_iterative e.e_method then ", bit-deterministic" else ""))
    executed;
  let doc =
    Json.Obj
      [
        ("bench", Json.Str "iter");
        ("device", Json.Str device.Gpusim.Device.name);
        ( "pareto",
          Json.Arr (List.map (json_of_planned ~rows ~cols) planned) );
        ( "executed",
          Json.Obj
            [
              ("rows", Json.Int erows);
              ("cols", Json.Int ecols);
              ("runs", Json.Arr (List.map json_of_executed executed));
            ] );
        ( "roofline",
          Json.Arr
            (List.map
               (fun (prec, (s : Obs.Roofline.stage)) ->
                 Json.Obj
                   [
                     ("prec", Json.Str (P.label prec));
                     ("stage", Json.Str s.Obs.Roofline.stage);
                     ("intensity", Json.Float s.Obs.Roofline.intensity);
                     ( "bound",
                       Json.Str (Obs.Roofline.bound_name s.Obs.Roofline.bound)
                     );
                   ])
               matvec_stages) );
      ]
  in
  let oc = open_out "BENCH_iter.json" in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  pf "  [json written to BENCH_iter.json]\n"
