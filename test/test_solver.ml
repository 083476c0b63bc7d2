(* The solver-engine seam: method dispatch and codecs, engine agreement
   on executed problems, determinism of the iterative ladder, the
   ladder's one flat staging of A against the boxed arm, the
   schema-5 report round-trip with the solver record, and the job-level
   solver field's validation and JSON codec. *)

module P = Multidouble.Precision
module Solver = Lsq_core.Solver
module Json = Harness.Json
module Report = Harness.Report
module Job = Sched.Job

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ---- method dispatch ---- *)

let test_method_names () =
  List.iter
    (fun m -> check "name round-trips" true
        (Solver.method_of_string (Solver.method_name m) = m))
    Solver.all_methods;
  check "qr_direct alias" true (Solver.method_of_string "qr_direct" = Solver.Qr_direct);
  check "direct alias" true (Solver.method_of_string "direct" = Solver.Qr_direct);
  check "cgnr alias" true (Solver.method_of_string "cgnr" = Solver.Cg_normal);
  check "cg_normal alias" true
    (Solver.method_of_string "cg_normal" = Solver.Cg_normal);
  check "case-insensitive" true (Solver.method_of_string "LSQR" = Solver.Lsqr);
  (match Solver.method_of_string "cholesky" with
  | _ -> Alcotest.fail "unknown engine must raise"
  | exception Invalid_argument _ -> ());
  check "qr is direct" false (Solver.is_iterative Solver.Qr_direct);
  check "cg is iterative" true (Solver.is_iterative Solver.Cg_normal);
  check "lsqr is iterative" true (Solver.is_iterative Solver.Lsqr)

(* ---- engine agreement and determinism (executed) ---- *)

module K = Mdlinalg.Scalar.Dd
module S = Solver.Make (K)
module M = Mdlinalg.Mat.Make (K)
module V = Mdlinalg.Vec.Make (K)
module Rand = Mdlinalg.Randmat.Make (K)

let agreement_problem () =
  let rng = Dompool.Prng.create 1717 in
  let rows = 512 and cols = 16 in
  let a = Rand.matrix rng rows cols in
  let b, x_true = Rand.rhs_for rng a in
  let solve m =
    S.solve ~method_:m ~device:Gpusim.Device.v100 ~a:(M.copy a)
      ~b:(V.copy b) ~tile:16 ()
  in
  let err x =
    K.R.to_float (V.norm (V.sub x x_true)) /. K.R.to_float (V.norm x_true)
  in
  (solve, err)

let test_engines_agree () =
  let solve, err = agreement_problem () in
  List.iter
    (fun m ->
      let r = solve m in
      let e = err r.x in
      check
        (Printf.sprintf "%s reaches the known solution" (Solver.method_name m))
        true
        (e < 1e6 *. Multidouble.Double_double.eps);
      match r.iter with
      | None -> check "direct engine has no iter record" true (m = Solver.Qr_direct)
      | Some it ->
        check "iterative engine converged" true it.Solver.converged;
        check "ladder reaches the target" true
          (it.Solver.ladder <> []
          && fst (List.nth it.Solver.ladder (List.length it.Solver.ladder - 1))
             = P.DD))
    Solver.all_methods

let test_deterministic () =
  let solve, _ = agreement_problem () in
  List.iter
    (fun m ->
      let r1 = solve m and r2 = solve m in
      check
        (Printf.sprintf "%s solution is bit-identical" (Solver.method_name m))
        true (r1.x = r2.x);
      match (r1.iter, r2.iter) with
      | Some i1, Some i2 ->
        check "iteration counts repeat" true
          (i1.Solver.iterations = i2.Solver.iterations
          && i1.Solver.ladder = i2.Solver.ladder
          && i1.Solver.residual_history = i2.Solver.residual_history)
      | None, None -> ()
      | _ -> Alcotest.fail "iter record flickered between runs")
    [ Solver.Cg_normal; Solver.Lsqr ]

(* ---- the ladder's flat staging against the boxed arm ----

   With a flat plan the ladder stages A once at the target precision and
   every rung, residual, certification and the condition estimate read
   limb-plane prefixes of it; with the flat layer switched off every
   consumer runs on boxed scalars.  The two arms must agree on
   everything a solve reports. *)

let with_flat on f =
  let prev = !Mdlinalg.Flat_kernels.enabled in
  Mdlinalg.Flat_kernels.enabled := on;
  Fun.protect ~finally:(fun () -> Mdlinalg.Flat_kernels.enabled := prev) f

let bits_eq x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let limbs_eq (a : V.t) (b : V.t) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Array.for_all2 bits_eq (K.to_planes x) (K.to_planes y))
       a b

let test_flat_matches_boxed () =
  let solve, _ = agreement_problem () in
  List.iter
    (fun m ->
      let name = Solver.method_name m in
      let flat = with_flat true (fun () -> solve m) in
      let boxed = with_flat false (fun () -> solve m) in
      let fi = Option.get flat.iter and bi = Option.get boxed.iter in
      check (name ^ ": the ladder starts below the target") true
        (List.map fst fi.Solver.ladder = [ P.D; P.DD ]);
      check (name ^ ": x limbs") true (limbs_eq flat.x boxed.x);
      checki (name ^ ": iterations") bi.Solver.iterations fi.Solver.iterations;
      check (name ^ ": ladder") true (fi.Solver.ladder = bi.Solver.ladder);
      check (name ^ ": cond estimate") true
        (match (fi.Solver.cond_estimate, bi.Solver.cond_estimate) with
        | Some c1, Some c2 -> bits_eq c1 c2
        | _ -> false);
      check (name ^ ": residual history") true
        (List.equal bits_eq fi.Solver.residual_history
           bi.Solver.residual_history);
      checki (name ^ ": launches") boxed.launches flat.launches;
      check (name ^ ": kernel ms") true (bits_eq flat.kernel_ms boxed.kernel_ms))
    [ Solver.Cg_normal; Solver.Lsqr ]

(* A bit flip in a rung's working planes is detected and replayed, and
   the restage comes from the shared staging, which no corruption
   reaches: the next rung and the certification still see the true A,
   so the solve lands on the known solution.  The seeds are pinned to
   campaigns that detect and replay without escalating. *)
let test_flat_fault_replay () =
  let rng = Dompool.Prng.create 2024 in
  let a = Rand.matrix rng 256 12 in
  let b, x_true = Rand.rhs_for rng a in
  List.iter
    (fun (m, seed) ->
      let name = Solver.method_name m in
      let fault =
        Fault.Plan.config ~kinds:[ Fault.Plan.Bitflip ] ~max_replays:4 ~seed
          ~rate:0.05 ()
      in
      let r =
        with_flat true (fun () ->
            S.solve ~method_:m ~fault ~device:Gpusim.Device.v100 ~a ~b
              ~tile:16 ())
      in
      let t = Option.get r.faults in
      check (name ^ ": a flip was detected") true (t.Fault.Plan.detected >= 1);
      check (name ^ ": and replayed") true (t.Fault.Plan.replays >= 1);
      check (name ^ ": certified") true (Option.get r.iter).Solver.converged;
      let err =
        K.R.to_float (V.norm (V.sub r.x x_true))
        /. K.R.to_float (V.norm x_true)
      in
      check (name ^ ": reaches the known solution") true
        (err < 1e6 *. Multidouble.Double_double.eps))
    [ (Solver.Cg_normal, 9); (Solver.Lsqr, 15) ]

(* A zero column makes the normal matrix exactly singular: the estimate
   is infinite and the ladder starts at the target, on both arms. *)
let test_singular_estimate () =
  let rng = Dompool.Prng.create 99 in
  let a = Rand.matrix rng 128 8 in
  for i = 0 to M.rows a - 1 do
    M.set a i 3 K.zero
  done;
  let b = Rand.vector rng 128 in
  List.iter
    (fun on ->
      let r =
        with_flat on (fun () ->
            S.solve ~method_:Solver.Cg_normal ~device:Gpusim.Device.v100 ~a ~b
              ~tile:16 ())
      in
      let it = Option.get r.iter in
      check "cond estimate is infinite" true
        (it.Solver.cond_estimate = Some Float.infinity);
      check "ladder starts at the target" true (it.Solver.ladder_start = P.DD);
      check "single rung" true (List.map fst it.Solver.ladder = [ P.DD ]))
    [ true; false ]

(* The one digits-for-cost rule behind the ladder start, [lsq_cli
   cond] and the choose_precision example: 16·limbs − less ≥ digits.
   At equality the rung qualifies; past octo double, and for NaN or
   infinite digits, nothing does, and [pick_start] keeps the target. *)
let test_precision_rule () =
  let pick less digits = P.cheapest ~less ~digits in
  check "16 - 6 = 10 is 1d" true (pick 6.0 10.0 = Some P.D);
  check "just past 1d is 2d" true (pick 6.0 (Float.succ 10.0) = Some P.DD);
  check "32 - 6 = 26 is 2d" true (pick 6.0 26.0 = Some P.DD);
  check "64 - 13.5 = 50.5 is 4d" true (pick 13.5 50.5 = Some P.QD);
  check "128 - 0 = 128 is 8d" true (pick 0.0 128.0 = Some P.OD);
  check "beyond octo double" true (pick 0.0 (Float.succ 128.0) = None);
  check "infinite digits" true (pick 6.0 Float.infinity = None);
  check "NaN digits" true (pick 6.0 Float.nan = None)

(* The staged ladder estimate runs [Cond.cond1_float]; it must give the
   boxed plain double [cond1]'s bits, with [Singular] read as infinity,
   on random, zero-column and NaN-bearing matrices. *)
module MD = Mdlinalg.Mat.Make (Mdlinalg.Scalar.D)
module CD = Mdlinalg.Cond.Make (Mdlinalg.Scalar.D)

let test_cond1_float () =
  let rng = Dompool.Prng.create 7 in
  let boxed n a =
    match CD.cond1 { MD.rows = n; cols = n; a = Array.copy a } with
    | c -> c
    | exception CD.Lu.Singular _ -> Float.infinity
  in
  let same n a =
    Int64.equal
      (Int64.bits_of_float (boxed n a))
      (Int64.bits_of_float (Mdlinalg.Cond.cond1_float ~n a))
  in
  let random n = Array.init (n * n) (fun _ -> Dompool.Prng.sym_float rng) in
  List.iter
    (fun n ->
      let a = random n in
      check "random" true (same n a);
      (* a normal matrix, as the ladder estimate sees it *)
      let ata = Array.make (n * n) 0.0 in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          for k = 0 to n - 1 do
            ata.((i * n) + j) <-
              ata.((i * n) + j) +. (a.((k * n) + i) *. a.((k * n) + j))
          done
        done
      done;
      check "normal" true (same n ata);
      let z = random n in
      for i = 0 to n - 1 do
        z.((i * n) + (n / 2)) <- 0.0
      done;
      check "zero column" true (same n z);
      check "zero column is infinite" true
        (Mdlinalg.Cond.cond1_float ~n z = Float.infinity);
      List.iter
        (fun (i, j) ->
          let x = random n in
          x.((i * n) + j) <- Float.nan;
          check "nan-bearing" true (same n x))
        [ (0, 0); (n - 1, 0); (n / 2, n - 1); (n - 1, n - 1) ])
    [ 1; 2; 5; 16; 64 ]

(* ---- report schema 5 ---- *)

let test_report_roundtrip () =
  checki "report schema is 5" 5 Report.schema_version;
  let r =
    Harness.Runners.(
      run
        (request ~solver:Solver.Lsqr ~rows:512 ~kind:Solve ~prec:P.DD
           ~device:Gpusim.Device.v100 ~dim:16 ~tile:16 ()))
  in
  check "iterative run attaches the solver record" true (r.Report.solver <> None);
  let r' = Report.of_json (Report.to_json r) in
  check "schema-5 report round-trips" true (r = r');
  (* A direct run keeps the solver field absent and round-trips too. *)
  let d =
    Harness.Runners.(
      run
        (request ~kind:Solve ~prec:P.DD ~device:Gpusim.Device.v100 ~dim:32
           ~tile:8 ()))
  in
  check "direct run has no solver record" true (d.Report.solver = None);
  check "direct report round-trips" true (d = Report.of_json (Report.to_json d));
  match Report.to_json r with
  | Json.Obj fields ->
    (match List.assoc "solver" fields with
    | Json.Obj sf ->
      checks "wire method name" "lsqr"
        (match List.assoc "method" sf with Json.Str s -> s | _ -> "?")
    | _ -> Alcotest.fail "solver field must be an object")
  | _ -> Alcotest.fail "report must serialize to an object"

(* ---- job codec and validation ---- *)

let job ?(solver = Solver.Qr_direct) ?(kind = Job.Solve) ?rows () =
  Job.make ~solver ?rows ~id:"j" ~kind ~device:"v100" ~prec:P.DD ~dim:64
    ~tile:16 ()

let test_job_codec () =
  let j = job ~solver:Solver.Lsqr ~rows:4096 () in
  let j' = Job.of_json (Job.to_json j) in
  check "job with solver round-trips" true (j = j');
  (* The default engine serializes exactly as before the seam: no
     "solver" key on the wire. *)
  (match Job.to_json (job ()) with
  | Json.Obj fields ->
    check "default engine stays off the wire" true
      (not (List.mem_assoc "solver" fields))
  | _ -> Alcotest.fail "job must serialize to an object");
  check "default engine round-trips" true
    (Job.of_json (Job.to_json (job ())) = job ());
  (* Unknown engine names are codec errors, not crashes. *)
  let forged =
    match Job.to_json (job ()) with
    | Json.Obj fields -> Json.Obj (("solver", Json.Str "cholesky") :: fields)
    | _ -> assert false
  in
  match Job.of_json forged with
  | _ -> Alcotest.fail "unknown solver must be a Json.Error"
  | exception Json.Error _ -> ()

let test_job_validation () =
  check "iterative solve job validates" true
    (Job.validate (job ~solver:Solver.Cg_normal ()) = Ok ());
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (match Job.validate (job ~solver:Solver.Lsqr ~kind:Job.Qr ()) with
  | Error m -> check "names the offender" true (contains m "solve")
  | Ok () -> Alcotest.fail "iterative solver on a qr job must be rejected");
  match Job.validate (job ~kind:Job.Backsub ~rows:128 ()) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "rows on a backsub job must be rejected"

let () =
  Alcotest.run "solver-engine"
    [
      ( "dispatch",
        [
          Alcotest.test_case "method names" `Quick test_method_names;
          Alcotest.test_case "precision rule" `Quick test_precision_rule;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "engines agree" `Slow test_engines_agree;
          Alcotest.test_case "bit-deterministic" `Slow test_deterministic;
        ] );
      ( "flat staging",
        [
          Alcotest.test_case "flat and boxed arms agree" `Slow
            test_flat_matches_boxed;
          Alcotest.test_case "armed flat run replays" `Slow
            test_flat_fault_replay;
          Alcotest.test_case "singular normal matrix" `Quick
            test_singular_estimate;
          Alcotest.test_case "unboxed cond1 matches boxed" `Quick
            test_cond1_float;
        ] );
      ( "codec",
        [
          Alcotest.test_case "report schema 5" `Quick test_report_roundtrip;
          Alcotest.test_case "job solver codec" `Quick test_job_codec;
          Alcotest.test_case "job validation" `Quick test_job_validation;
        ] );
    ]
