(* Tests for the batch scheduler: deterministic mixed batches, retry and
   degradation paths, cooperative timeouts, and the versioned JSON-lines
   outcome schema. *)

module P = Multidouble.Precision
module Job = Sched.Job
module S = Sched.Engine
module F = Sched.Fleet
module Report = Harness.Report
module Json = Harness.Json

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let qr ?complex ?execute ?retries ?inject_failures ?timeout_ms ~id ~dim ~tile
    () =
  Job.make ?complex ?execute ?retries ?inject_failures ?timeout_ms ~id
    ~kind:Job.Qr ~device:"v100" ~prec:P.DD ~dim ~tile ()

let completed o =
  match o.S.status with
  | S.Completed r -> r
  | S.Failed f -> Alcotest.failf "%s failed: %s" o.S.job.Job.id f.S.message

let failed o =
  match o.S.status with
  | S.Failed f -> f
  | S.Completed _ -> Alcotest.failf "%s unexpectedly completed" o.S.job.Job.id

(* ---- deterministic mixed batch ---- *)

let test_mixed_batch () =
  let jobs =
    [
      qr ~id:"plan-qr" ~dim:256 ~tile:32 ();
      Job.make ~id:"plan-bs" ~kind:Job.Backsub ~device:"p100" ~prec:P.QD
        ~dim:512 ~tile:64 ();
      Job.make ~id:"plan-solve" ~kind:Job.Solve ~device:"rtx2080" ~prec:P.OD
        ~dim:128 ~tile:32 ();
      qr ~id:"exec-qr" ~complex:true ~execute:true ~dim:32 ~tile:8 ();
      Job.make ~id:"exec-bs" ~kind:Job.Backsub ~device:"v100" ~prec:P.QD
        ~execute:true ~dim:32 ~tile:8 ();
    ]
  in
  (* One worker: jobs are claimed in submission order, so completion
     order is fully deterministic. *)
  let outcomes = F.run (F.Config.batch ~parallel:1 ~backoff_ms:0.0 ()) jobs in
  checki "one outcome per job" (List.length jobs) (List.length outcomes);
  List.iteri
    (fun i o ->
      checki "submission order preserved" i o.S.index;
      checki "sequential completion order" i o.S.order;
      check "first attempt succeeded" true (o.S.attempts = 1);
      check "elapsed accounted" true (o.S.elapsed_ms >= 0.0);
      checki "one attempt timed" 1 (List.length o.S.timing.S.attempt_ms);
      check "queue wait non-negative" true
        (o.S.timing.S.queue_wait_ms >= 0.0);
      check "no backoff slept" true (o.S.timing.S.backoff_ms = 0.0);
      check "attempt times non-negative" true
        (List.for_all (fun ms -> ms >= 0.0) o.S.timing.S.attempt_ms);
      let r = completed o in
      let job = List.nth jobs i in
      check "plan jobs carry no residual, executed jobs do" true
        (Option.is_some r.Report.residual = job.Job.execute);
      if job.Job.execute then
        check "executed residual ok" true
          (match r.Report.residual with Some v -> v.Report.ok | None -> false))
    outcomes;
  (* The solve job's report decomposes into the QR and BS parts. *)
  let solve = List.nth outcomes 2 in
  let r = completed solve in
  check "solve has both parts" true
    (Option.is_some (Report.part_opt r Lsq_core.Solver.qr_part)
    && Option.is_some (Report.part_opt r Lsq_core.Solver.bs_part))

let test_parallel_batch () =
  (* Four workers over eight mixed device x precision jobs on the shared
     pool: every job completes and the completion ranks are a
     permutation. *)
  let jobs =
    List.concat_map
      (fun device ->
        List.map
          (fun prec ->
            Job.make
              ~id:(Printf.sprintf "%s-%s" device (P.label prec))
              ~kind:Job.Qr ~device ~prec ~dim:128 ~tile:32 ())
          [ P.DD; P.QD ])
      [ "c2050"; "k20c"; "p100"; "v100" ]
  in
  let outcomes = F.run (F.Config.batch ~parallel:4 ~backoff_ms:0.0 ()) jobs in
  checki "all jobs settled" 8 (List.length outcomes);
  List.iteri (fun i o -> checki "in submission order" i o.S.index) outcomes;
  let orders = List.sort compare (List.map (fun o -> o.S.order) outcomes) in
  Alcotest.(check (list int)) "orders are a permutation" [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    orders;
  List.iter (fun o -> ignore (completed o)) outcomes

(* ---- retry, degradation, validation, timeout ---- *)

let test_retry_recovers () =
  let job =
    qr ~id:"flaky" ~dim:128 ~tile:32 ~retries:2 ~inject_failures:1 ()
  in
  match F.run (F.Config.batch ~parallel:1 ~backoff_ms:0.0 ()) [ job ] with
  | [ o ] ->
    ignore (completed o);
    checki "succeeded on the second attempt" 2 o.S.attempts;
    checki "every attempt timed" 2 (List.length o.S.timing.S.attempt_ms)
  | _ -> Alcotest.fail "expected one outcome"

let test_backoff_recorded () =
  (* One injected failure with a real backoff base: the retry sleeps
     once, and the slept time lands in the timing record. *)
  let job =
    qr ~id:"backoff" ~dim:64 ~tile:32 ~retries:2 ~inject_failures:1 ()
  in
  match F.run (F.Config.batch ~parallel:1 ~backoff_ms:2.0 ()) [ job ] with
  | [ o ] ->
    ignore (completed o);
    checki "two attempts" 2 o.S.attempts;
    check "backoff slept" true (o.S.timing.S.backoff_ms >= 2.0);
    check "elapsed covers the sleep" true
      (o.S.elapsed_ms >= o.S.timing.S.backoff_ms)
  | _ -> Alcotest.fail "expected one outcome"

let test_poisoned_degrades () =
  (* A job that fails every attempt becomes a structured error record;
     the rest of the batch still completes. *)
  let jobs =
    [
      qr ~id:"before" ~dim:128 ~tile:32 ();
      qr ~id:"poisoned" ~dim:128 ~tile:32 ~retries:2 ~inject_failures:99 ();
      qr ~id:"after" ~dim:128 ~tile:32 ();
    ]
  in
  let outcomes = F.run (F.Config.batch ~parallel:1 ~backoff_ms:0.0 ()) jobs in
  checki "batch continued" 3 (List.length outcomes);
  let o = List.nth outcomes 1 in
  let f = failed o in
  Alcotest.(check string) "structured message" "injected failure" f.S.message;
  check "not a timeout" false f.S.timed_out;
  checki "all attempts consumed" 3 o.S.attempts;
  ignore (completed (List.nth outcomes 0));
  ignore (completed (List.nth outcomes 2))

let test_validation_rejects () =
  let bad = qr ~id:"bad-tile" ~dim:100 ~tile:32 () in
  match F.run (F.Config.batch ~parallel:1 ~backoff_ms:1.0 ()) [ bad ] with
  | [ o ] ->
    let f = failed o in
    checki "never attempted" 0 o.S.attempts;
    check "no attempt timed" true (o.S.timing.S.attempt_ms = []);
    check "mentions the tile" true
      (String.length f.S.message > 0 && not f.S.timed_out)
  | _ -> Alcotest.fail "expected one outcome"

(* The shape checks are the runner's, behind the job's id. *)
let test_shape_messages () =
  let msg job =
    match Job.validate job with Error m -> m | Ok () -> "ok"
  in
  let job ?rows ?solver kind ~dim ~tile =
    Job.make ?rows ?solver ~id:"j" ~kind ~device:"v100" ~prec:P.DD ~dim ~tile
      ()
  in
  let is = Alcotest.(check string) in
  is "dim" "job 'j': dimension 0 <= 0" (msg (job Job.Qr ~dim:0 ~tile:8));
  is "tile" "job 'j': tile 32 does not divide dimension 100"
    (msg (job Job.Qr ~dim:100 ~tile:32));
  is "rows" "job 'j': rows < cols" (msg (job Job.Qr ~rows:16 ~dim:64 ~tile:16));
  is "rows on backsub" "job 'j': rows only applies to qr and solve jobs"
    (msg (job Job.Backsub ~rows:128 ~dim:64 ~tile:16));
  is "solver on qr" "job 'j': solver 'cg' only applies to solve jobs"
    (msg (job Job.Qr ~solver:Lsq_core.Solver.Cg_normal ~dim:64 ~tile:16));
  is "empty id" "job has an empty id"
    (msg { (job Job.Qr ~dim:0 ~tile:8) with Job.id = "" })

(* Executed tall jobs keep their row count all the way into the
   residual: the verification of a QR, and the fault-tolerant solve
   (whose refinement rung re-solves cleanly, as [Refine] is square
   only). *)
let tall ?fault_rate kind =
  Job.make ?fault_rate ~id:"tall" ~kind ~device:"v100" ~prec:P.DD ~dim:32
    ~rows:256 ~tile:8 ~execute:true ()

let check_tall (r : Report.t) ~label ~what =
  let v = Option.get r.Report.residual in
  Alcotest.(check string) "label" label r.Report.label;
  Alcotest.(check string) "residual" what v.Report.what;
  check (what ^ " ok") true v.Report.ok

let test_tall_qr () =
  check_tall (S.run_job (tall Job.Qr)) ~label:"qr 2d 256x32 tile=8 V100"
    ~what:"QR 2d 256x32 tile=8"

let test_tall_solve_ft () =
  let r = S.run_job (tall ~fault_rate:0.01 Job.Solve) in
  check_tall r ~label:"solve-ft 2d 256x32 tile=8 V100"
    ~what:"solve-ft 2d 256x32 tile=8";
  check "fault record attached" true (r.Report.faults <> None)

let test_timeout_is_cooperative () =
  (* First attempt fails (injected) almost instantly; the 5ms backoff
     then overruns the 1ms budget, so the deadline check fires before
     the retry and the job degrades to a timed-out failure. *)
  let job =
    qr ~id:"slowpoke" ~dim:128 ~tile:32 ~retries:5 ~inject_failures:99
      ~timeout_ms:1.0 ()
  in
  match F.run (F.Config.batch ~parallel:1 ~backoff_ms:5.0 ()) [ job ] with
  | [ o ] ->
    let f = failed o in
    check "timed out" true f.S.timed_out;
    check "gave up before exhausting retries" true (o.S.attempts < 6);
    checki "attempts and attempt times agree" o.S.attempts
      (List.length o.S.timing.S.attempt_ms)
  | _ -> Alcotest.fail "expected one outcome"

(* ---- serialization ---- *)

let roundtrip o =
  let line = Json.to_string (S.outcome_to_json o) in
  let o' = S.outcome_of_json (Json.of_string line) in
  check "outcome round-trips" true (o = o')

let test_outcome_roundtrip () =
  let jobs =
    [
      qr ~id:"ok" ~dim:128 ~tile:32 ();
      qr ~id:"exec" ~execute:true ~dim:32 ~tile:8 ();
      qr ~id:"doomed" ~dim:128 ~tile:32 ~retries:1 ~inject_failures:99 ();
      qr ~id:"invalid" ~dim:100 ~tile:32 ();
    ]
  in
  let outcomes = F.run (F.Config.batch ~parallel:1 ~backoff_ms:0.0 ()) jobs in
  List.iter roundtrip outcomes;
  (* A wrong schema version is rejected. *)
  let doctored =
    match S.outcome_to_json (List.hd outcomes) with
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (function
             | "schema", _ -> ("schema", Json.Int 999) | kv -> kv)
           fields)
    | _ -> Alcotest.fail "outcome is not an object"
  in
  match S.outcome_of_json doctored with
  | exception Json.Error _ -> ()
  | _ -> Alcotest.fail "wrong schema version accepted"

let test_jsonl_file_roundtrip () =
  let jobs =
    [
      qr ~id:"a" ~dim:128 ~tile:32 ();
      qr ~id:"b" ~dim:64 ~tile:32 ~retries:0 ~inject_failures:99 ();
    ]
  in
  let outcomes = F.run (F.Config.batch ~parallel:1 ~backoff_ms:0.0 ()) jobs in
  let path = Filename.temp_file "lsq_batch" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      S.write_jsonl oc outcomes;
      close_out oc;
      let ic = open_in path in
      let back = S.read_jsonl ic in
      close_in ic;
      check "file round-trips the batch" true (back = outcomes))

let test_job_json_defaults () =
  let j =
    Job.of_json
      (Json.of_string
         {|{"id": "mini", "kind": "qr", "device": "v100", "prec": "2d",
            "dim": 64, "tile": 16}|})
  in
  check "defaults applied" true
    ((not j.Job.complex) && (not j.Job.execute) && j.Job.rows = None
    && j.Job.timeout_ms = None && j.Job.retries = 1
    && j.Job.inject_failures = 0);
  check "job round-trips" true (Job.of_json (Job.to_json j) = j)

(* ---- sweeps ---- *)

let test_sweeps_validate () =
  List.iter
    (fun name ->
      let jobs = Sched.Sweep.jobs name in
      check (name ^ " non-empty") true (jobs <> []);
      let ids = List.map (fun j -> j.Job.id) jobs in
      checki (name ^ " ids unique")
        (List.length ids)
        (List.length (List.sort_uniq compare ids));
      List.iter
        (fun j ->
          match Job.validate j with
          | Ok () -> ()
          | Error m -> Alcotest.failf "%s: %s invalid: %s" name j.Job.id m)
        jobs)
    Sched.Sweep.names;
  checki "table4 covers 3 devices x 4 precisions" 12
    (List.length (Sched.Sweep.jobs "table4"));
  match Sched.Sweep.jobs "table99" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown sweep accepted"

(* ---- placement plans ---- *)

(* Auto placement plans each new job shape on the reference device and
   on the device it picked.  Those what-if plans are no launches of any
   job, so the launch counter rises by exactly the reports' launches.
   The plans are memoized per process, and no other test here places
   these shapes. *)
let test_plans_are_not_launches () =
  let launches () =
    Obs.Metrics.(Counter.value (counter (default ()) "sim.launches"))
  in
  let before = launches () in
  let outcomes =
    F.run F.Config.default
      [
        Job.make ~id:"plan-qr" ~kind:Job.Qr ~device:Job.auto_device
          ~prec:P.QD ~dim:640 ~tile:64 ();
        Job.make ~id:"plan-solve" ~kind:Job.Solve ~device:Job.auto_device
          ~prec:P.DD ~dim:704 ~tile:64 ();
      ]
  in
  let reported =
    List.fold_left
      (fun acc (o : S.outcome) ->
        match o.S.status with
        | S.Completed r -> acc + r.Report.launches
        | S.Failed _ -> Alcotest.failf "%s failed" o.S.job.Job.id)
      0 outcomes
  in
  checki "the reports' launches" 6868 reported;
  checki "sim.launches rose by the reports' launches" reported
    (launches () - before)

let () =
  Alcotest.run "sched"
    [
      ( "batch",
        [
          Alcotest.test_case "mixed plan/execute" `Quick test_mixed_batch;
          Alcotest.test_case "parallel workers" `Quick test_parallel_batch;
          Alcotest.test_case "retry recovers" `Quick test_retry_recovers;
          Alcotest.test_case "backoff recorded" `Quick test_backoff_recorded;
          Alcotest.test_case "poisoned job degrades" `Quick
            test_poisoned_degrades;
          Alcotest.test_case "validation rejects" `Quick
            test_validation_rejects;
          Alcotest.test_case "cooperative timeout" `Quick
            test_timeout_is_cooperative;
          Alcotest.test_case "shape messages" `Quick test_shape_messages;
          Alcotest.test_case "executed tall qr keeps its rows" `Quick
            test_tall_qr;
          Alcotest.test_case "fault-tolerant tall solve keeps its rows"
            `Quick test_tall_solve_ft;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "outcome round-trip" `Quick
            test_outcome_roundtrip;
          Alcotest.test_case "jsonl file round-trip" `Quick
            test_jsonl_file_roundtrip;
          Alcotest.test_case "job defaults" `Quick test_job_json_defaults;
        ] );
      ( "sweeps",
        [ Alcotest.test_case "all validate" `Quick test_sweeps_validate ] );
      ( "placement",
        [
          Alcotest.test_case "plans are not launches" `Quick
            test_plans_are_not_launches;
        ] );
    ]
