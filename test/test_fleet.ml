(* Tests for the fleet service: deterministic roofline placement,
   work-stealing steal-count invariants, bounded-queue backpressure, the
   schema-8 outcome codec with its placement record, and what served
   jobs feed the cost-model drift detector. *)

module P = Multidouble.Precision
module D = Gpusim.Device
module Job = Sched.Job
module F = Sched.Fleet
module S = Sched.Engine
module Json = Harness.Json

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let solve ?(device = Job.auto_device) ?inject_failures ?retries ~id ~prec ()
    =
  Job.make ?inject_failures ?retries ~id ~kind:Job.Solve ~device ~prec
    ~dim:1024 ~tile:128 ()

let class_of_instance id =
  match String.index_opt id '#' with
  | Some i -> String.sub id 0 i
  | None -> id

let placement (o : S.outcome) =
  match o.S.placement with
  | Some p -> p
  | None -> Alcotest.failf "%s has no placement record" o.S.job.Job.id

(* ---- roofline placement ---- *)

(* dd solve at n=1024 is memory-bound, od compute-bound; the policy must
   route them to the bandwidth-rich RTX 2080 and the compute-rich V100
   classes respectively.  Admission happens synchronously at submit, so
   holding the workers back (autostart:false) makes the queue layout —
   and with it the whole test — deterministic. *)
let test_placement () =
  check "dd is memory-bound" true
    (F.classify_job (solve ~id:"c" ~prec:P.DD ()) = Obs.Roofline.Memory);
  check "od is compute-bound" true
    (F.classify_job (solve ~id:"c" ~prec:P.OD ()) = Obs.Roofline.Compute);
  let fleet = F.create ~autostart:false F.Config.default in
  let jobs =
    [
      solve ~id:"dd-0" ~prec:P.DD ();
      solve ~id:"dd-1" ~prec:P.DD ();
      solve ~id:"od-0" ~prec:P.OD ();
      solve ~id:"od-1" ~prec:P.OD ();
    ]
  in
  List.iteri
    (fun i job ->
      match F.submit fleet job with
      | Ok ticket -> checki "tickets number admissions" i ticket
      | Error r -> Alcotest.failf "%s rejected: %s" job.Job.id (F.reject_message r))
    jobs;
  (* Before any worker runs: both dd jobs sit on the two RTX 2080
     queues (shortest-queue within the class), both od jobs on the two
     V100 queues; everything else is empty. *)
  List.iter
    (fun (s : F.stats) ->
      let expected =
        match s.F.device with
        | Some d when D.slug d = "rtx2080" || D.slug d = "v100" -> 1
        | _ -> 0
      in
      checki (Printf.sprintf "queue depth of %s" s.F.id) expected
        s.F.queue_depth)
    (F.stats fleet);
  F.start fleet;
  let outcomes = F.drain fleet in
  F.shutdown fleet;
  checki "one outcome per job" (List.length jobs) (List.length outcomes);
  List.iter
    (fun o ->
      let p = placement o in
      let admitted = class_of_instance p.S.admitted_to in
      let wanted =
        if o.S.job.Job.prec = P.DD then "rtx2080" else "v100"
      in
      checks
        (Printf.sprintf "%s admitted to the %s class" o.S.job.Job.id wanted)
        wanted admitted;
      checki
        (Printf.sprintf "%s admitted at depth < 2" o.S.job.Job.id)
        0
        (if p.S.queue_depth < 2 then 0 else p.S.queue_depth);
      (* The executed device is the executing instance's class. *)
      checks "job device matches executor"
        (class_of_instance p.S.device_id)
        o.S.job.Job.device;
      match o.S.status with
      | S.Completed _ -> ()
      | S.Failed f -> Alcotest.failf "%s failed: %s" o.S.job.Job.id f.S.message)
    outcomes

(* Pinned jobs keep their named device even when a foreign instance
   executes them: instances are capacity, the simulation identity is the
   job's. *)
let test_pinned_device_kept () =
  let outcomes =
    F.run
      (F.Config.batch ~parallel:2 ~backoff_ms:0.0 ())
      [ solve ~device:"p100" ~id:"pinned" ~prec:P.DD () ]
  in
  match outcomes with
  | [ o ] ->
    checks "pinned device kept" "p100" o.S.job.Job.device;
    check "generic instance executed it" true
      (class_of_instance (placement o).S.device_id = "any")
  | _ -> Alcotest.fail "expected one outcome"

(* ---- work stealing ---- *)

(* Two instances, every job pinned to one of them.  Holding the workers
   back queues all six jobs on the V100; injected failures make each job
   sleep in backoff, so while one worker runs a V100 job the other
   provably steals for the idle C2050.  Two workers are asked for: on a
   one-core host the fleet would otherwise run one, which can never
   steal.  The invariant: the fleet's steal counter, the per-outcome
   steal flags and the admitted/executor mismatches all agree. *)
let test_steal_invariants () =
  let config =
    {
      F.Config.default with
      pool = [ (Some D.c2050, 1); (Some D.v100, 1) ];
      max_queue_depth = F.Config.unbounded;
      backoff_ms = 30.0;
    }
  in
  let fleet = F.create ~workers:2 ~autostart:false config in
  let jobs =
    List.init 6 (fun i ->
        solve
          ~device:"v100"
          ~id:(Printf.sprintf "steal-%d" i)
          ~prec:P.DD ~inject_failures:1 ~retries:1 ())
  in
  List.iter
    (fun job ->
      match F.submit fleet job with
      | Ok _ -> ()
      | Error r -> Alcotest.failf "rejected: %s" (F.reject_message r))
    jobs;
  F.start fleet;
  let outcomes = F.drain fleet in
  F.shutdown fleet;
  checki "one outcome per job" (List.length jobs) (List.length outcomes);
  let steal_sum =
    List.fold_left (fun acc o -> acc + (placement o).S.steals) 0 outcomes
  in
  let moved =
    List.filter
      (fun o ->
        let p = placement o in
        p.S.device_id <> p.S.admitted_to)
      outcomes
  in
  checki "outcome steal flags equal the fleet counter" (F.steals fleet)
    steal_sum;
  checki "every steal moved the job" steal_sum (List.length moved);
  check "stealing occurred" true (steal_sum >= 1);
  List.iter
    (fun o ->
      checks "everything was admitted to the pinned device" "v100#0"
        (placement o).S.admitted_to;
      check "steal flag is 0 or 1" true
        (let s = (placement o).S.steals in
         s = 0 || s = 1);
      (* A stolen pinned job still simulates its own device. *)
      checks "pinned device survived the steal" "v100" o.S.job.Job.device)
    outcomes;
  let stats_stolen =
    List.fold_left (fun acc (s : F.stats) -> acc + s.F.stolen) 0
      (F.stats fleet)
  in
  checki "per-instance stolen tallies agree" steal_sum stats_stolen;
  checki "every job executed" 6
    (List.fold_left (fun acc (s : F.stats) -> acc + s.F.executed) 0
       (F.stats fleet))

(* The fleet's steal instant must name both sides of the transfer: the
   thief instance under "by" and the owning (admitted-to) instance under
   "owner", so a trace reader can reconstruct queue migrations without
   joining against the admit events.  Two workers, as above. *)
let test_steal_instant_args () =
  let config =
    {
      F.Config.default with
      pool = [ (Some D.c2050, 1); (Some D.v100, 1) ];
      max_queue_depth = F.Config.unbounded;
      backoff_ms = 30.0;
    }
  in
  Obs.Tracer.start ();
  let fleet = F.create ~workers:2 ~autostart:false config in
  let jobs =
    List.init 6 (fun i ->
        solve ~device:"v100"
          ~id:(Printf.sprintf "steal-args-%d" i)
          ~prec:P.DD ~inject_failures:1 ~retries:1 ())
  in
  List.iter
    (fun job ->
      match F.submit fleet job with
      | Ok _ -> ()
      | Error r -> Alcotest.failf "rejected: %s" (F.reject_message r))
    jobs;
  F.start fleet;
  ignore (F.drain fleet);
  F.shutdown fleet;
  Obs.Tracer.stop ();
  let doc = Json.of_string (Obs.Tracer.export ()) in
  let steals =
    Json.get_list (Json.member "traceEvents" doc)
    |> List.filter (fun e ->
           Json.(get_string (member "name" e)) = "steal"
           && Json.(get_string (member "cat" e)) = "fleet")
  in
  checki "one instant per recorded steal" (F.steals fleet)
    (List.length steals);
  check "stealing occurred" true (steals <> []);
  List.iter
    (fun e ->
      let args = Json.member "args" e in
      let job = Json.(get_string (member "job" args)) in
      check "instant names the stolen job" true
        (String.length job > String.length "steal-args-"
        && String.sub job 0 11 = "steal-args-");
      checks "owner is the admitted v100 instance" "v100#0"
        Json.(get_string (member "owner" args));
      checks "thief is the idle c2050 instance" "c2050#0"
        Json.(get_string (member "by" args)))
    steals

(* Placement plans each new job shape on the reference device and on
   the device it picked: what-if plans, not launches of any job.  A
   traced batch records each as one "placement plan" span, and every
   kernel span it holds is a launch of a job attempt, on that attempt's
   domain and inside its span.  The shapes are new to this process, so
   their plans are not memoized yet. *)
let test_trace_kernels_in_attempts () =
  let jobs =
    [
      Job.make ~id:"traced-qr" ~kind:Job.Qr ~device:Job.auto_device
        ~prec:P.QD ~dim:640 ~tile:64 ();
      Job.make ~id:"traced-solve" ~kind:Job.Solve ~device:Job.auto_device
        ~prec:P.DD ~dim:704 ~tile:64 ();
    ]
  in
  Obs.Tracer.start ();
  let outcomes =
    Fun.protect ~finally:Obs.Tracer.stop (fun () ->
        F.run F.Config.default jobs)
  in
  let spans =
    Json.get_list
      (Json.member "traceEvents" (Json.of_string (Obs.Tracer.export ())))
    |> List.filter (fun e -> Json.(get_string (member "ph" e)) = "X")
  in
  let named cat name =
    List.filter
      (fun e ->
        Json.(get_string (member "cat" e)) = cat
        && (name = "" || Json.(get_string (member "name" e)) = name))
      spans
  in
  let attempts = named "sched" "attempt" and kernels = named "kernel" "" in
  let bounds e =
    let ts = Json.(get_float (member "ts" e)) in
    (Json.(get_int (member "tid" e)), ts, ts +. Json.(get_float (member "dur" e)))
  in
  let inside k =
    let tid, k0, k1 = bounds k in
    List.exists
      (fun a ->
        let atid, a0, a1 = bounds a in
        atid = tid && a0 <= k0 && k1 <= a1)
      attempts
  in
  check "placement plans traced" true (named "sched" "placement plan" <> []);
  check "every kernel span inside a job attempt" true
    (List.for_all inside kernels);
  let launches =
    List.fold_left
      (fun acc (o : S.outcome) ->
        match o.S.status with
        | S.Completed r -> acc + r.Harness.Report.launches
        | S.Failed _ -> Alcotest.failf "%s failed" o.S.job.Job.id)
      0 outcomes
  in
  checki "kernel spans count every job launch" launches
    (List.fold_left
       (fun acc k -> acc + Json.(get_int (member "count" (member "args" k))))
       0 kernels)

(* With stealing off, jobs only run where they were admitted. *)
let test_no_steal () =
  let config =
    {
      F.Config.default with
      pool = [ (Some D.c2050, 1); (Some D.v100, 1) ];
      max_queue_depth = F.Config.unbounded;
      backoff_ms = 5.0;
      steal = false;
    }
  in
  let fleet = F.create ~autostart:false config in
  let jobs =
    List.init 4 (fun i ->
        solve ~device:"v100" ~id:(Printf.sprintf "pin-%d" i) ~prec:P.DD ())
  in
  List.iter (fun j -> ignore (F.submit fleet j)) jobs;
  F.start fleet;
  let outcomes = F.drain fleet in
  F.shutdown fleet;
  checki "no steals" 0 (F.steals fleet);
  List.iter
    (fun o ->
      checks "executed where admitted" (placement o).S.admitted_to
        (placement o).S.device_id)
    outcomes

(* ---- admission control / backpressure ---- *)

let test_backpressure () =
  let config =
    {
      F.Config.default with
      pool = [ (Some D.v100, 1) ];
      max_queue_depth = 2;
      backoff_ms = 0.0;
    }
  in
  let fleet = F.create ~autostart:false config in
  let job i = solve ~device:"v100" ~id:(Printf.sprintf "bp-%d" i) ~prec:P.DD () in
  (match F.submit fleet (job 0) with
  | Ok t -> checki "first ticket" 0 t
  | Error r -> Alcotest.failf "rejected: %s" (F.reject_message r));
  (match F.submit fleet (job 1) with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "rejected: %s" (F.reject_message r));
  (* Queue at the bound: the third submission must bounce, naming the
     instance it would have used and the depth it saw. *)
  (match F.submit fleet (job 2) with
  | Ok _ -> Alcotest.fail "third submission must be rejected"
  | Error (F.Queue_full { device_id; queue_depth }) ->
    checks "rejection names the preferred instance" "v100#0" device_id;
    checki "rejection reports the depth" 2 queue_depth;
    (* The rejection line is schema-stamped and carries the job. *)
    let line = F.reject_to_json (job 2) (F.Queue_full { device_id; queue_depth }) in
    checki "rejection line schema" S.schema_version
      (Json.get_int (Json.member "schema" line));
    checks "rejection line status" "rejected"
      (Json.get_string (Json.member "status" line));
    checks "rejection line device" "v100#0"
      (Json.get_string
         (Json.member "device_id" (Json.member "error" line)))
  | Error F.Draining -> Alcotest.fail "wrong rejection reason");
  F.start fleet;
  let outcomes = F.drain fleet in
  checki "only the admitted jobs ran" 2 (List.length outcomes);
  F.shutdown fleet;
  (* After shutdown every submission drains away. *)
  match F.submit fleet (job 3) with
  | Error F.Draining -> ()
  | Ok _ | Error (F.Queue_full _) ->
    Alcotest.fail "submissions after shutdown must report Draining"

(* ---- schema 8 ---- *)

let test_schema8_roundtrip () =
  let outcomes =
    F.run
      { F.Config.default with F.Config.max_queue_depth = F.Config.unbounded }
      [ solve ~id:"rt-dd" ~prec:P.DD (); solve ~id:"rt-od" ~prec:P.OD () ]
  in
  List.iter
    (fun o ->
      let line = Json.to_string (S.outcome_to_json o) in
      let o' = S.outcome_of_json (Json.of_string line) in
      check "outcome round-trips with placement" true (o = o');
      checki "schema is 8" 8 S.schema_version;
      check "placement survives the codec" true (o'.S.placement <> None);
      let keys =
        match Json.member "placement" (Json.of_string line) with
        | Json.Obj fields -> List.map fst fields
        | _ -> Alcotest.fail "placement did not serialize to an object"
      in
      check "placement keys" true
        (keys
        = [ "device_id"; "admitted_to"; "steals"; "queue_depth"; "migrations" ]);
      let p = placement o in
      check "undisturbed job has no migration trail" true
        (p.S.migrations = []))
    outcomes;
  (* An old-version stamp must be refused: schema 3, and schema 7, whose
     executed reports carried a plan's figures. *)
  let o = List.hd outcomes in
  List.iter
    (fun v ->
      let forged =
        match S.outcome_to_json o with
        | Json.Obj fields ->
          Json.Obj
            (List.map
               (function
                 | "schema", _ -> ("schema", Json.Int v)
                 | f -> f)
               fields)
        | _ -> Alcotest.fail "outcome did not serialize to an object"
      in
      match S.outcome_of_json forged with
      | _ -> Alcotest.failf "schema %d must be refused" v
      | exception Json.Error _ -> ())
    [ 3; 7 ]

(* An unplaced auto job outside any fleet settles as a validation
   failure instead of running on an arbitrary device. *)
let test_auto_needs_fleet () =
  let job = solve ~id:"stray" ~prec:P.DD () in
  check "auto job validates" true (Job.validate job = Ok ())
  ;
  let attempts, _, _, status =
    Sched.Engine.settle ~backoff_ms:0.0 ~queued_at:0.0 job
  in
  checki "no attempts burned" 0 attempts;
  match status with
  | S.Failed f -> check "names the wildcard" true (f.S.retryable = false)
  | S.Completed _ -> Alcotest.fail "unplaced auto job must not run"

(* ---- cost-model drift ---- *)

(* Serves executed fault-free jobs and returns the drift state and the
   [model_drift] warnings they left. *)
let served_drift jobs =
  let module H = Obs.Health in
  let module L = Obs.Log in
  H.reset ();
  L.set_level L.Warn;
  L.set_sink L.Buffered;
  let outcomes =
    Fun.protect
      ~finally:(fun () -> L.set_sink L.Off)
      (fun () -> F.run (F.Config.batch ~parallel:1 ~backoff_ms:0.0 ()) jobs)
  in
  List.iter
    (fun (o : S.outcome) ->
      match o.S.status with
      | S.Completed _ -> ()
      | S.Failed f -> Alcotest.failf "%s failed: %s" o.S.job.Job.id f.S.message)
    outcomes;
  let warnings =
    List.filter (fun (r : L.record) -> r.L.event = "model_drift") (L.drain ())
  in
  let drift = H.drift () in
  H.reset ();
  (drift, warnings)

(* An executed CG or LSQR solve runs a precision ladder the fault-free
   plan does not predict, so it feeds no drift samples; an executed
   direct solve runs what its plan prices and still feeds them. *)
let test_iterative_no_false_drift () =
  let executed ~id solver =
    Job.make ~id ~kind:Job.Solve ~device:"v100" ~prec:P.DD ~dim:32
      ~rows:256 ~tile:32 ~solver ~execute:true ()
  in
  let drift, warnings =
    served_drift
      [
        executed ~id:"cg" Lsq_core.Solver.Cg_normal;
        executed ~id:"lsqr" Lsq_core.Solver.Lsqr;
      ]
  in
  checki "no model_drift record" 0 (List.length warnings);
  checki "no drift samples, so no drifted stage" 0 (List.length drift);
  let drift, warnings =
    served_drift [ executed ~id:"qr" Lsq_core.Solver.Qr_direct ]
  in
  check "direct solve feeds drift" true (drift <> []);
  checki "no model_drift record (direct)" 0 (List.length warnings);
  check "direct stages calibrated" true
    (List.for_all (fun (d : Obs.Health.stage_drift) -> not d.drifted) drift)

(* A fault-armed job re-accounts relaunched kernels and reruns replayed
   stages, which the fault-free plan does not price: served, it feeds no
   drift samples (this one used to log "R + YWTC" at 1.33x).  The same
   QR unarmed still feeds them. *)
let test_armed_no_drift () =
  let qr ?fault_rate ~id () =
    Job.make ?fault_rate ~fault_seed:1 ~id ~kind:Job.Qr ~device:"V100"
      ~prec:P.DD ~dim:32 ~tile:8 ~execute:true ()
  in
  let drift, warnings = served_drift [ qr ~fault_rate:0.3 ~id:"armed" () ] in
  checki "no model_drift record" 0 (List.length warnings);
  checki "no drift samples" 0 (List.length drift);
  let drift, _ = served_drift [ qr ~id:"unarmed" () ] in
  check "the unarmed QR feeds drift" true (drift <> [])

let () =
  Alcotest.run "fleet"
    [
      ( "placement",
        [
          Alcotest.test_case "roofline placement" `Quick test_placement;
          Alcotest.test_case "pinned device kept" `Quick
            test_pinned_device_kept;
        ] );
      ( "stealing",
        [
          Alcotest.test_case "steal invariants" `Quick test_steal_invariants;
          Alcotest.test_case "steal instant carries thief and owner" `Quick
            test_steal_instant_args;
          Alcotest.test_case "no stealing when disabled" `Quick test_no_steal;
          Alcotest.test_case "kernel spans inside job attempts" `Quick
            test_trace_kernels_in_attempts;
        ] );
      ( "admission",
        [ Alcotest.test_case "backpressure" `Quick test_backpressure ] );
      ( "schema",
        [
          Alcotest.test_case "schema 8 round-trip" `Quick
            test_schema8_roundtrip;
          Alcotest.test_case "auto needs a fleet" `Quick test_auto_needs_fleet;
        ] );
      ( "drift",
        [
          Alcotest.test_case "executed iterative solves raise no drift"
            `Quick test_iterative_no_false_drift;
          Alcotest.test_case "fault-armed jobs raise no drift" `Quick
            test_armed_no_drift;
        ] );
    ]
