(* Batch scheduler smoke: runs a small mixed batch (devices x precisions
   x kinds, one executed job, one poisoned job) on the shared domain
   pool and checks the emitted JSON lines round-trip through
   [Sched.Engine.outcome_of_json] / [Harness.Report.of_json].  Part
   of the @bench-smoke regression gate; exits 1 on any mismatch. *)

module P = Multidouble.Precision
module Json = Obs.Json
module Report = Harness.Report
module Job = Sched.Job
module S = Sched.Engine
module F = Sched.Fleet

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let smoke () =
  Printf.printf "\n%s\nBatch scheduler smoke (4 mixed jobs + 1 poisoned)\n%s\n"
    (String.make 100 '-') (String.make 100 '-');
  let jobs =
    [
      Job.make ~id:"smoke-qr-v100-2d" ~kind:Job.Qr ~device:"v100" ~prec:P.DD
        ~dim:256 ~tile:32 ();
      Job.make ~id:"smoke-bs-p100-4d" ~kind:Job.Backsub ~device:"p100"
        ~prec:P.QD ~dim:512 ~tile:64 ();
      Job.make ~id:"smoke-solve-rtx-8d" ~kind:Job.Solve ~device:"rtx2080"
        ~prec:P.OD ~dim:128 ~tile:32 ();
      Job.make ~id:"smoke-qr-exec" ~kind:Job.Qr ~device:"v100" ~prec:P.DD
        ~complex:true ~dim:32 ~tile:8 ~execute:true ();
      (* Poisoned: fails more times than it may attempt, so the batch
         must degrade it to a structured error record and continue. *)
      Job.make ~id:"smoke-poisoned" ~kind:Job.Qr ~device:"v100" ~prec:P.DD
        ~dim:256 ~tile:32 ~retries:1 ~inject_failures:99 ();
    ]
  in
  let outcomes = F.run (F.Config.batch ~parallel:2 ~backoff_ms:0.0 ()) jobs in
  if List.length outcomes <> List.length jobs then
    fail "batch-smoke: %d outcomes for %d jobs" (List.length outcomes)
      (List.length jobs);
  let completed, failed =
    List.partition
      (fun o -> match o.S.status with S.Completed _ -> true | _ -> false)
      outcomes
  in
  if List.length failed <> 1 then
    fail "batch-smoke: expected exactly the poisoned job to fail, got %d"
      (List.length failed);
  (match failed with
  | [ o ] when o.S.job.Job.id = "smoke-poisoned" -> ()
  | _ -> fail "batch-smoke: the wrong job failed");
  (* The executed job must carry its residual in the report. *)
  (match
     List.find_opt (fun o -> o.S.job.Job.id = "smoke-qr-exec") completed
   with
  | Some { S.status = S.Completed r; _ } -> (
    match r.Report.residual with
    | Some v when v.Report.ok -> ()
    | Some _ -> fail "batch-smoke: executed job residual check FAILED"
    | None -> fail "batch-smoke: executed job has no residual")
  | _ -> fail "batch-smoke: executed job missing or failed");
  (* JSON-lines round trip: serialize every outcome, re-parse, compare. *)
  List.iter
    (fun o ->
      let line = Json.to_string (S.outcome_to_json o) in
      let o' = S.outcome_of_json (Json.of_string line) in
      if o' <> o then
        fail "batch-smoke: outcome for %s did not round-trip:\n  %s"
          o.S.job.Job.id line;
      match o.S.status with
      | S.Completed r ->
        if Report.of_json (Report.to_json r) <> r then
          fail "batch-smoke: report for %s did not round-trip" o.S.job.Job.id
      | S.Failed _ -> ())
    outcomes;
  Printf.printf
    "  %d jobs, %d completed, %d degraded to error records; all outcomes \
     round-tripped through the JSON schema (version %d)\n"
    (List.length outcomes) (List.length completed) (List.length failed)
    S.schema_version
