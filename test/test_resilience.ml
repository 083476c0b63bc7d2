(* Tests for the fleet resilience plane: seeded device chaos (crash /
   hang / brownout), job migration and quarantine, poison jobs,
   the write-ahead outcome journal and its shipped example, the seeded retry
   jitter, concurrent backpressure, and the service loop behind serve. *)

module P = Multidouble.Precision
module D = Gpusim.Device
module Job = Sched.Job
module F = Sched.Fleet
module S = Sched.Engine
module Jn = Sched.Journal
module Sv = Sched.Service
module Chaos = Fault.Chaos
module Json = Harness.Json
module Rep = Harness.Report

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let solve ?(device = "auto") ?inject_failures ?retries ~id () =
  Job.make ?inject_failures ?retries ~id ~kind:Job.Solve ~device ~prec:P.DD
    ~dim:512 ~tile:64 ()

let placement (o : S.outcome) =
  match o.S.placement with
  | Some p -> p
  | None -> Alcotest.failf "%s has no placement record" o.S.job.Job.id

(* A campaign over [kinds] dealing instance [i] the [i]-th of [fates],
   each strike at the instance's first claim; [Chaos.draw] is pure, so
   the seed search is deterministic. *)
let fated_config kinds fates =
  let fate cfg i =
    Option.map (fun e -> e.Chaos.kind) (Chaos.draw cfg ~instance:i)
  in
  let rec go seed =
    if seed > 10_000 then Alcotest.fail "no chaos seed found"
    else
      let cfg = Chaos.config ~seed ~rate:0.5 ~kinds ~after_jobs:(0, 0) () in
      if List.for_all Fun.id (List.mapi (fun i f -> fate cfg i = f) fates)
      then cfg
      else go (seed + 1)
  in
  go 0

(* Two instances: instance 0 is struck by [kind], instance 1 stays
   healthy. *)
let striking_config kind = fated_config [ kind ] [ Some kind; None ]

(* Two classes, no stealing: jobs pinned to the c2050 all queue on the
   doomed instance 0 and can only settle by migrating to the v100. *)
let two_class_config chaos =
  {
    F.Config.default with
    pool = [ (Some D.c2050, 1); (Some D.v100, 1) ];
    max_queue_depth = F.Config.unbounded;
    backoff_ms = 0.0;
    steal = false;
    chaos = Some chaos;
  }

let run_campaign ?on_outcome ?workers ?(device = fun _ -> "c2050") config n
    =
  let fleet = F.create ?on_outcome ?workers ~autostart:false config in
  let jobs =
    List.init n (fun i ->
        solve ~device:(device i) ~id:(Printf.sprintf "cx-%d" i) ())
  in
  List.iter
    (fun j ->
      match F.submit fleet j with
      | Ok _ -> ()
      | Error r -> Alcotest.failf "rejected: %s" (F.reject_message r))
    jobs;
  F.start fleet;
  let outcomes = F.drain fleet in
  let stats = F.stats fleet in
  F.shutdown fleet;
  (outcomes, stats)

(* ---- chaos: crash and hang recovery ---- *)

let test_crash_migrates () =
  let outcomes, stats = run_campaign (two_class_config (striking_config Chaos.Crash)) 4 in
  checki "every job settled" 4 (List.length outcomes);
  checks "instance 0 crashed" "crashed" (List.hd stats).F.state;
  checks "instance 1 healthy" "ok" (List.nth stats 1).F.state;
  List.iter
    (fun o ->
      (match o.S.status with
      | S.Completed _ -> ()
      | S.Failed f -> Alcotest.failf "%s failed: %s" o.S.job.Job.id f.S.message);
      let p = placement o in
      check "migration trail names the dead instance" true
        (p.S.migrations = [ "c2050#0" ]);
      checks "executed on the survivor" "v100#0" p.S.device_id;
      (* A pinned job keeps its simulation identity across migration. *)
      checks "pinned device survived migration" "c2050" o.S.job.Job.device)
    outcomes

let test_hang_reclaimed () =
  let outcomes, stats = run_campaign (two_class_config (striking_config Chaos.Hang)) 4 in
  checki "every job settled" 4 (List.length outcomes);
  checks "instance 0 hung" "hung" (List.hd stats).F.state;
  List.iter
    (fun o ->
      (match o.S.status with
      | S.Completed _ -> ()
      | S.Failed f -> Alcotest.failf "%s failed: %s" o.S.job.Job.id f.S.message);
      check "migration trail names the hung instance" true
        ((placement o).S.migrations = [ "c2050#0" ]))
    outcomes

let with_temp_journal f =
  let path = Filename.temp_file "test_journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* Three instances on one worker domain: the c2050 crashes and the
   p100 hangs at their first claim, and the worker serves on.  Jobs are
   pinned alternately to the two doomed instances, with no stealing, so
   every job settles on the v100 with a one-hop trail.  Outcomes are
   committed to a journal as the service commits them; its replay holds
   every line byte for byte, in emission order. *)
let test_strikes_spare_the_worker () =
  with_temp_journal (fun path ->
      let journal = Jn.create path in
      let emitted = ref [] in
      let on_outcome o =
        let line = Json.to_string (S.outcome_to_json o) in
        Jn.commit journal ~job_id:o.S.job.Job.id ~line;
        emitted := (o.S.job.Job.id, line) :: !emitted
      in
      let config =
        {
          (two_class_config
             (fated_config [ Chaos.Crash; Chaos.Hang ]
                [ Some Chaos.Crash; Some Chaos.Hang; None ]))
          with
          pool = [ (Some D.c2050, 1); (Some D.p100, 1); (Some D.v100, 1) ];
        }
      in
      let doomed i = if i mod 2 = 0 then "c2050" else "p100" in
      (* The intents [run_campaign] is about to submit, as serve writes
         them before admission. *)
      for i = 0 to 5 do
        Jn.intent journal
          (solve ~device:(doomed i) ~id:(Printf.sprintf "cx-%d" i) ())
      done;
      let outcomes, stats =
        run_campaign ~on_outcome ~workers:1 ~device:doomed config 6
      in
      Jn.close journal;
      checki "every job settled" 6 (List.length outcomes);
      Alcotest.(check (list string))
        "instance states" [ "crashed"; "hung"; "ok" ]
        (List.map (fun s -> s.F.state) stats);
      List.iteri
        (fun i o ->
          (match o.S.status with
          | S.Completed _ -> ()
          | S.Failed f ->
            Alcotest.failf "%s failed: %s" o.S.job.Job.id f.S.message);
          let p = placement o in
          checks "executed on the survivor" "v100#0" p.S.device_id;
          Alcotest.(check (list string))
            "trail names the struck instance"
            [ doomed i ^ "#0" ]
            p.S.migrations)
        outcomes;
      let r = Jn.replay path in
      check "journal replays every emitted line exactly" true
        (r.Jn.committed = List.rev !emitted);
      checki "one commit per job" 6 (List.length r.Jn.committed);
      check "every intent committed" true (r.Jn.pending = []);
      checki "nothing malformed" 0 r.Jn.malformed)

let test_brownout_completes () =
  let cfg = striking_config Chaos.Brownout in
  let outcomes, stats = run_campaign (two_class_config cfg) 4 in
  checki "every job settled" 4 (List.length outcomes);
  checks "instance 0 browned" "browned" (List.hd stats).F.state;
  (* A browned instance keeps executing — no migrations, just slower
     simulated kernels. *)
  List.iter
    (fun o ->
      (match o.S.status with
      | S.Completed _ -> ()
      | S.Failed f -> Alcotest.failf "%s failed: %s" o.S.job.Job.id f.S.message);
      check "no migration off a browned instance" true
        ((placement o).S.migrations = []))
    outcomes

let test_quarantine () =
  let config =
    { (two_class_config (striking_config Chaos.Crash)) with max_migrations = 0 }
  in
  let outcomes, _ = run_campaign config 3 in
  checki "every job still settled" 3 (List.length outcomes);
  List.iter
    (fun o ->
      (match o.S.status with
      | S.Failed f ->
        check "quarantine is permanent" true (f.S.retryable = false);
        check "message names the quarantine" true
          (String.length f.S.message >= 11
          && String.sub f.S.message 0 11 = "quarantined")
      | S.Completed _ ->
        Alcotest.failf "%s completed despite max_migrations 0" o.S.job.Job.id);
      check "quarantined outcome keeps its trail" true
        ((placement o).S.migrations = [ "c2050#0" ]))
    outcomes

(* ---- served equals in-process ---- *)

(* Executed jobs served by a two-instance fleet, their launches on the
   shared domain pool and two at a time, settle to the very report
   [Engine.run_job] produces in-process: residual bits (the solution
   reaches an outcome only through them), modeled milliseconds, launch
   counts and the fault tally. *)
let test_served_equals_in_process () =
  let exec ?rows ?solver ?fault_rate ?fault_seed id dim =
    Job.make ?rows ?solver ?fault_rate ?fault_seed ~execute:true ~id
      ~kind:Job.Solve ~device:"v100" ~prec:P.DD ~dim ~tile:16 ()
  in
  let jobs =
    [
      exec "direct" 64;
      exec ~rows:1024 ~solver:Lsq_core.Solver.Cg_normal "cg" 32;
      exec ~rows:1024 ~solver:Lsq_core.Solver.Lsqr "lsqr" 32;
      exec ~fault_rate:0.05 ~fault_seed:3 "faulty" 64;
    ]
  in
  let served = F.run (F.Config.batch ~parallel:2 ~backoff_ms:0.0 ()) jobs in
  List.iter2
    (fun job (o : S.outcome) ->
      let id = job.Job.id in
      let r =
        match o.S.status with
        | S.Completed r -> r
        | S.Failed f -> Alcotest.failf "%s failed: %s" id f.S.message
      in
      checki (id ^ " settled in one attempt") 1 o.S.attempts;
      let local = S.run_job job in
      let bits (r : Rep.t) =
        Option.map
          (fun (x : Rep.residual) -> Int64.bits_of_float x.residual)
          r.residual
      in
      check (id ^ " residual bits") true
        (bits r = bits local && bits r <> None);
      check (id ^ " modeled ms") true
        (Int64.bits_of_float r.Rep.kernel_ms
        = Int64.bits_of_float local.Rep.kernel_ms);
      checki (id ^ " launches") local.Rep.launches r.Rep.launches;
      check (id ^ " fault tally") true (r.Rep.faults = local.Rep.faults);
      checks (id ^ " whole report") (Rep.to_json_string local)
        (Rep.to_json_string r))
    jobs served;
  match List.nth served 3 with
  | { S.status = S.Completed { Rep.faults = Some f; _ }; _ } ->
    check "the fault-armed job took strikes" true (Rep.faults_injected f > 0)
  | _ -> Alcotest.fail "the fault-armed job carries no fault tally"

(* ---- failures follow the job ---- *)

(* Every job-failure source (injected failures, fault plans,
   validation) travels with the job, so a run of failures says nothing
   about the instance: poison jobs fail where they land, the instance
   keeps serving, and health is kept per device class only. *)
let test_poison_fails_in_place () =
  Obs.Health.reset ();
  let config =
    {
      F.Config.default with
      pool = [ (Some D.v100, 1) ];
      max_queue_depth = F.Config.unbounded;
      backoff_ms = 0.0;
    }
  in
  let fleet = F.create config in
  let submit jobs = List.map (F.submit_blocking fleet) jobs in
  let poison =
    submit
      (List.init 4 (fun i ->
           solve ~device:"v100"
             ~id:(Printf.sprintf "po-%d" i)
             ~inject_failures:99 ~retries:0 ()))
  in
  let healthy =
    submit
      (List.init 2 (fun i ->
           solve ~device:"v100" ~id:(Printf.sprintf "ok-%d" i) ()))
  in
  let settled = List.map (F.await fleet) (poison @ healthy) in
  F.shutdown fleet;
  List.iter
    (fun o ->
      let p = placement o in
      checks "settled on the one instance" "v100#0" p.S.device_id;
      check "no migration trail" true (p.S.migrations = []))
    settled;
  List.iteri
    (fun i o ->
      match o.S.status with
      | S.Completed _ -> check "poison completed" true (i >= 4)
      | S.Failed _ -> check "healthy job failed" true (i < 4))
    settled;
  let health = Obs.Health.status () in
  (match
     List.find_opt (fun c -> c.Obs.Health.cls = "v100") health
   with
  | Some c ->
    checki "class window outcomes" 6 c.Obs.Health.total;
    checki "class window failures" 4 c.Obs.Health.failures
  | None -> Alcotest.fail "no v100 health window");
  check "no per-instance window" false
    (List.exists (fun c -> c.Obs.Health.cls = "v100#0") health)

(* ---- config validation ---- *)

let test_config_validation () =
  let ok c = F.Config.validate c = Ok () in
  let bad c = match F.Config.validate c with Error _ -> true | Ok () -> false in
  let d = F.Config.default in
  check "default validates" true (ok d);
  check "batch validates" true (ok (F.Config.batch ()));
  check "empty pool rejected" true (bad { d with pool = [] });
  check "non-positive count rejected" true
    (bad { d with pool = [ (Some D.v100, 0) ] });
  check "zero depth rejected" true (bad { d with max_queue_depth = 0 });
  check "negative depth rejected" true (bad { d with max_queue_depth = -3 });
  check "unbounded depth accepted" true
    (ok { d with max_queue_depth = F.Config.unbounded });
  check "negative backoff rejected" true (bad { d with backoff_ms = -1.0 });
  check "NaN backoff rejected" true (bad { d with backoff_ms = Float.nan });
  check "zero backoff stays legal" true (ok { d with backoff_ms = 0.0 });
  check "negative max_migrations rejected" true
    (bad { d with max_migrations = -1 });
  check "create raises on a bad config" true
    (match F.create { d with max_queue_depth = 0 } with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---- seeded retry jitter ---- *)

let test_jitter () =
  let pause job attempt =
    Sched.Engine.backoff_pause_ms ~backoff_ms:2.0 job ~attempt
  in
  let a = solve ~id:"jit-a" () and b = solve ~id:"jit-b" () in
  (* Deterministic per (job, attempt): replaying a campaign reproduces
     every sleep. *)
  List.iter
    (fun attempt ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "attempt %d replays" attempt)
        (pause a attempt) (pause a attempt))
    [ 1; 2; 3; 4 ];
  (* Jittered inside [base, 2*base) of the exponential envelope. *)
  List.iter
    (fun attempt ->
      let base = 2.0 *. Float.of_int (1 lsl (attempt - 1)) in
      let p = pause a attempt in
      check
        (Printf.sprintf "attempt %d within the jitter envelope" attempt)
        true
        (p >= base && p < 2.0 *. base))
    [ 1; 2; 3; 4 ];
  (* Different jobs desynchronize: no retry stampede. *)
  check "sequences differ across jobs" true
    (List.exists (fun k -> pause a k <> pause b k) [ 1; 2; 3 ])

(* ---- journal ---- *)

let test_journal_roundtrip () =
  with_temp_journal (fun path ->
      let j = Jn.create path in
      let a = solve ~id:"ja" () and b = solve ~id:"jb" () and c = solve ~id:"jc" () in
      Jn.intent j a;
      Jn.intent j b;
      Jn.intent j c;
      Jn.commit j ~job_id:"ja" ~line:"line-for-ja";
      Jn.reject j ~job_id:"jb";
      Jn.close j;
      let r = Jn.replay path in
      checki "one commit" 1 (List.length r.Jn.committed);
      checks "commit line verbatim" "line-for-ja"
        (List.assoc "ja" r.Jn.committed);
      checki "rejected intent is settled, unsettled one pending" 1
        (List.length r.Jn.pending);
      checks "pending is the unsettled job" "jc"
        (List.hd r.Jn.pending).Job.id;
      checki "nothing malformed" 0 r.Jn.malformed)

let test_journal_truncation () =
  with_temp_journal (fun path ->
      let j = Jn.create path in
      Jn.intent j (solve ~id:"t0" ());
      Jn.commit j ~job_id:"t0" ~line:"l0";
      Jn.close j;
      (* A crash tears the final append mid-line. *)
      let oc = open_out_gen [ Open_append; Open_wronly ] 0o644 path in
      output_string oc "{\"j\":\"commit\",\"id\":\"to";
      close_out oc;
      let r = Jn.replay path in
      checki "torn tail counted" 1 r.Jn.malformed;
      checki "intact records survive" 1 (List.length r.Jn.committed);
      (* Reopening must terminate the torn tail so the next record is
         not glued onto (and lost with) it. *)
      let j2 = Jn.create path in
      Jn.intent j2 (solve ~id:"t1" ());
      Jn.commit j2 ~job_id:"t1" ~line:"l1";
      Jn.close j2;
      let r2 = Jn.replay path in
      checki "still exactly one malformed line" 1 r2.Jn.malformed;
      checki "post-reopen records parse" 2 (List.length r2.Jn.committed);
      checks "post-reopen commit intact" "l1" (List.assoc "t1" r2.Jn.committed))

let test_journal_missing_and_dedup () =
  let r = Jn.replay "/nonexistent/journal.jsonl" in
  check "missing file replays empty" true
    (r.Jn.committed = [] && r.Jn.pending = [] && r.Jn.malformed = 0);
  with_temp_journal (fun path ->
      let j = Jn.create path in
      Jn.intent j (solve ~id:"d0" ());
      Jn.commit j ~job_id:"d0" ~line:"first";
      Jn.commit j ~job_id:"d0" ~line:"second";
      Jn.close j;
      let r = Jn.replay path in
      checki "duplicate commits dedup" 1 (List.length r.Jn.committed);
      checks "first commit wins" "first" (List.assoc "d0" r.Jn.committed))

(* The journal a crashed serve run left behind, shipped as an example:
   it must replay (torn tail and all) and every committed line must
   decode at this build's outcome schema. *)
let test_journal_example () =
  let r = Jn.replay "../examples/serve_resume.jsonl" in
  checki "torn tail counted" 1 r.Jn.malformed;
  check "some jobs committed" true (r.Jn.committed <> []);
  check "some jobs pending" true (r.Jn.pending <> []);
  List.iter
    (fun (id, line) ->
      match S.outcome_of_json (Json.of_string line) with
      | o -> checks "commit decodes to its own job" id o.S.job.Job.id
      | exception Json.Error m -> Alcotest.failf "commit for %s: %s" id m)
    r.Jn.committed

(* ---- concurrent backpressure ---- *)

let test_concurrent_backpressure () =
  let config =
    {
      F.Config.default with
      pool = [ (Some D.v100, 1) ];
      max_queue_depth = 2;
      (* Slow jobs keep the single queue full while the submitters
         hammer it. *)
      backoff_ms = 20.0;
    }
  in
  let fleet = F.create config in
  let domains = 4 and per_domain = 6 in
  let accepted = Atomic.make 0 and rejected = Atomic.make 0 in
  let submitter d () =
    for i = 0 to per_domain - 1 do
      let job =
        solve ~device:"v100"
          ~id:(Printf.sprintf "bp-%d-%d" d i)
          ~inject_failures:1 ~retries:1 ()
      in
      match F.submit fleet job with
      | Ok _ -> Atomic.incr accepted
      | Error (F.Queue_full { device_id; queue_depth } as r) ->
        Atomic.incr rejected;
        (* Every rejection is well-formed: it names the instance, the
           depth it saw, and renders a schema-stamped line.  Plain
           comparisons here: Alcotest's check logs through a shared
           formatter that is not safe to use from several domains. *)
        if device_id <> "v100#0" then
          Alcotest.failf "rejection names %s" device_id;
        if queue_depth <> config.F.Config.max_queue_depth then
          Alcotest.failf "rejection depth %d" queue_depth;
        let line = F.reject_to_json job r in
        let schema = Json.get_int (Json.member "schema" line) in
        if schema <> S.schema_version then
          Alcotest.failf "rejection line schema %d" schema;
        let status = Json.get_string (Json.member "status" line) in
        if status <> "rejected" then
          Alcotest.failf "rejection line status %s" status
      | Error F.Draining -> Alcotest.fail "Draining before shutdown"
    done
  in
  let ds = List.init domains (fun d -> Domain.spawn (submitter d)) in
  List.iter Domain.join ds;
  checki "every submission answered" (domains * per_domain)
    (Atomic.get accepted + Atomic.get rejected);
  check "backpressure rejected some" true (Atomic.get rejected >= 1);
  check "the fleet accepted some" true (Atomic.get accepted >= 1);
  F.quiesce fleet;
  (* After the drain the fleet must accept again — no lost wakeups. *)
  (match F.submit fleet (solve ~device:"v100" ~id:"bp-after" ()) with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "post-drain submission rejected: %s" (F.reject_message r));
  F.quiesce fleet;
  (* Blocking submitters racing a full fleet all get through. *)
  let blocked = Atomic.make 0 in
  let blocking d () =
    for i = 0 to per_domain - 1 do
      ignore
        (F.submit_blocking fleet
           (solve ~device:"v100" ~id:(Printf.sprintf "bl-%d-%d" d i) ()));
      Atomic.incr blocked
    done
  in
  let ds = List.init domains (fun d -> Domain.spawn (blocking d)) in
  List.iter Domain.join ds;
  checki "every blocking submission admitted" (domains * per_domain)
    (Atomic.get blocked);
  F.quiesce fleet;
  F.shutdown fleet;
  match F.submit fleet (solve ~device:"v100" ~id:"bp-late" ()) with
  | Error F.Draining -> ()
  | Ok _ | Error (F.Queue_full _) ->
    Alcotest.fail "submissions after shutdown must report Draining"

(* ---- the service loop ---- *)

(* Plan-only jobs pinned to one class: each settles in milliseconds. *)
let quick ?inject_failures ?retries id =
  Job.make ?inject_failures ?retries ~id ~kind:Job.Solve ~device:"v100"
    ~prec:P.DD ~dim:128 ~tile:32 ()

let job_line j = Json.to_string (Job.to_json j)

(* One v100 instance: one FIFO worker, so emission order is commit
   order. *)
let one_v100 =
  {
    F.Config.default with
    pool = [ (Some D.v100, 1) ];
    max_queue_depth = F.Config.unbounded;
    backoff_ms = 0.0;
  }

(* One [Service.run] over [lines] as its input; returns the summary and
   the emitted lines in emission order. *)
let serve ?journal ?resume config lines =
  let path = Filename.temp_file "test_service" ".jobs" in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines);
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  let out = ref [] in
  let s =
    Fun.protect
      ~finally:(fun () ->
        Unix.close fd;
        Sys.remove path)
      (fun () ->
        Sv.run ?journal ?resume config fd ~emit:(fun l -> out := l :: !out))
  in
  (s, List.rev !out)

let line_field key line = Json.member key (Json.of_string line)
let line_id line = Json.get_string (Json.member "id" (line_field "job" line))
let line_status line = Json.get_string (line_field "status" line)

let test_service_resume () =
  with_temp_journal (fun path ->
      let s1, run1 =
        serve ~journal:path one_v100
          (List.map job_line [ quick "r0"; quick "r1"; quick "r2" ])
      in
      checki "run 1 submitted" 3 s1.Sv.submitted;
      check "run 1 emitted one outcome per job" true
        (List.map line_id run1 = [ "r0"; "r1"; "r2" ]);
      (* The crash: two more jobs admitted but never submitted, and a
         torn final append. *)
      let j = Jn.create path in
      Jn.intent j (quick "p0");
      Jn.intent j (quick "p1");
      Jn.close j;
      Out_channel.with_open_gen [ Open_append; Open_wronly ] 0o644 path
        (fun oc -> output_string oc "{\"j\":\"commit\",\"id\":\"p");
      checki "torn tail counted" 1 (Jn.replay path).Jn.malformed;
      let s2, run2 =
        serve ~journal:path ~resume:true one_v100 [ job_line (quick "n0") ]
      in
      checki "committed lines replayed" 3 s2.Sv.replayed;
      checki "pending intents and the new job submitted" 3 s2.Sv.submitted;
      check "committed lines first and byte-identical" true
        (List.filteri (fun i _ -> i < 3) run2 = run1);
      check "pending intents run, then new input" true
        (List.map line_id (List.filteri (fun i _ -> i >= 3) run2)
        = [ "p0"; "p1"; "n0" ]);
      List.iter
        (fun l -> checks "outcome line" "completed" (line_status l))
        run2;
      let final = Jn.replay path in
      checki "final replay: every job committed" 6
        (List.length final.Jn.committed);
      check "final replay: nothing pending" true (final.Jn.pending = []);
      checki "final replay: the torn line only" 1 final.Jn.malformed)

let test_service_rejection () =
  with_temp_journal (fun path ->
      (* Depth 1 and jobs that hold the worker for a 50 ms backoff: of
         three submissions in quick succession at least one finds the
         single queue full. *)
      let config =
        { one_v100 with F.Config.max_queue_depth = 1; backoff_ms = 50.0 }
      in
      let jobs =
        List.init 3 (fun i ->
            quick ~inject_failures:1 ~retries:1 (Printf.sprintf "q%d" i))
      in
      let s, lines = serve ~journal:path config (List.map job_line jobs) in
      check "some submission rejected" true (s.Sv.rejected >= 1);
      checki "every line answered" 3 (s.Sv.submitted + s.Sv.rejected);
      let rejected =
        List.filter (fun l -> line_status l = "rejected") lines
      in
      checki "one rejected line per rejection" s.Sv.rejected
        (List.length rejected);
      List.iter
        (fun l ->
          let j = Json.of_string l in
          let e = Json.member "error" j in
          checki "rejection schema" S.schema_version
            (Json.get_int (Json.member "schema" j));
          checks "refusing instance" "v100#0"
            (Json.get_string (Json.member "device_id" e));
          checki "depth seen" 1 (Json.get_int (Json.member "queue_depth" e)))
        rejected;
      let records =
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
        |> List.map Json.of_string
      in
      List.iter
        (fun l ->
          let id = line_id l in
          check ("journal reject record for " ^ id) true
            (List.exists
               (fun r ->
                 Json.get_string (Json.member "j" r) = "reject"
                 && Json.get_string (Json.member "id" r) = id)
               records))
        rejected;
      (* Resume: the commits replay, the rejected job stays settled. *)
      let s2, lines2 = serve ~journal:path ~resume:true config [] in
      checki "nothing resubmitted" 0 s2.Sv.submitted;
      checki "the admitted jobs replay" s.Sv.submitted s2.Sv.replayed;
      List.iter
        (fun l ->
          check "rejected job not replayed" false
            (List.mem (line_id l) (List.map line_id rejected)))
        lines2)

let test_service_bad_lines () =
  let s, lines =
    serve one_v100
      [ "not json"; "{\"id\":\"x\"}"; ""; job_line (quick "m0"); "   " ]
  in
  checki "bad lines skipped and counted" 2 s.Sv.skipped;
  checki "the good line submitted" 1 s.Sv.submitted;
  check "the good line answered" true (List.map line_id lines = [ "m0" ])

(* [elsewhere]: the main thread blocks SIGTERM while it serves and the
   client thread takes it, so the signal cannot interrupt the service's
   wait for input (as when the kernel picks another thread). *)
let sigterm_drain ~elsewhere () =
  with_temp_journal (fun path ->
      let n = 3 in
      let r, w = Unix.pipe () in
      let oc = Unix.out_channel_of_descr w in
      let emitted = Atomic.make 0 and finished = Atomic.make false in
      let forced = Atomic.make false in
      (* The client: sends N jobs, keeps the pipe open, and sends SIGTERM
         once all N outcomes are out.  Should the signal not end the
         service within 5 s, closing the pipe does, and the test fails
         instead of hanging. *)
      let client =
        Domain.spawn (fun () ->
            if elsewhere then
              ignore (Unix.sigprocmask Unix.SIG_UNBLOCK [ Sys.sigterm ]);
            for i = 1 to n do
              output_string oc (job_line (quick (Printf.sprintf "d%d" i)) ^ "\n")
            done;
            flush oc;
            while Atomic.get emitted < n do
              Unix.sleepf 0.002
            done;
            Unix.kill (Unix.getpid ()) Sys.sigterm;
            let t0 = Unix.gettimeofday () in
            while (not (Atomic.get finished)) && Unix.gettimeofday () -. t0 < 5.0
            do
              Unix.sleepf 0.01
            done;
            Atomic.set forced (not (Atomic.get finished));
            close_out oc)
      in
      let mask =
        if elsewhere then Unix.sigprocmask Unix.SIG_BLOCK [ Sys.sigterm ]
        else []
      in
      let s =
        Fun.protect
          ~finally:(fun () ->
            if elsewhere then ignore (Unix.sigprocmask Unix.SIG_SETMASK mask))
          (fun () ->
            Sv.run ~journal:path one_v100 r
              ~emit:(fun _ -> Atomic.incr emitted))
      in
      Atomic.set finished true;
      Domain.join client;
      Unix.close r;
      check "drained by the signal, not by end of input" false
        (Atomic.get forced);
      check "drained on SIGTERM" true s.Sv.drained;
      checki "all N submitted" n s.Sv.submitted;
      let r = Jn.replay path in
      checki "N commits" n (List.length r.Jn.committed);
      check "no pending intents" true (r.Jn.pending = []);
      match Sys.signal Sys.sigterm Sys.Signal_default with
      | Sys.Signal_default -> ()
      | Sys.Signal_ignore | Sys.Signal_handle _ ->
        Alcotest.fail "SIGTERM disposition not restored")

let () =
  Alcotest.run "resilience"
    [
      ( "chaos",
        [
          Alcotest.test_case "crash migrates stranded jobs" `Quick
            test_crash_migrates;
          Alcotest.test_case "hang is reclaimed" `Quick test_hang_reclaimed;
          Alcotest.test_case "strikes spare the worker" `Quick
            test_strikes_spare_the_worker;
          Alcotest.test_case "brownout keeps executing" `Quick
            test_brownout_completes;
          Alcotest.test_case "quarantine after max migrations" `Quick
            test_quarantine;
        ] );
      ( "served",
        [
          Alcotest.test_case "served equals in-process" `Quick
            test_served_equals_in_process;
        ] );
      ( "poison",
        [
          Alcotest.test_case "failures follow the job, not the instance"
            `Quick test_poison_fails_in_place;
        ] );
      ( "config",
        [
          Alcotest.test_case "structured validation" `Quick
            test_config_validation;
        ] );
      ( "jitter",
        [ Alcotest.test_case "seeded backoff jitter" `Quick test_jitter ] );
      ( "journal",
        [
          Alcotest.test_case "intent/commit/reject round-trip" `Quick
            test_journal_roundtrip;
          Alcotest.test_case "truncation tolerance and torn-tail reopen"
            `Quick test_journal_truncation;
          Alcotest.test_case "missing file and duplicate commits" `Quick
            test_journal_missing_and_dedup;
          Alcotest.test_case "shipped example replays and decodes" `Quick
            test_journal_example;
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "concurrent submitters" `Quick
            test_concurrent_backpressure;
        ] );
      ( "service",
        [
          Alcotest.test_case "resume replays, then runs the backlog" `Quick
            test_service_resume;
          Alcotest.test_case "queue-full rejection is journaled" `Quick
            test_service_rejection;
          Alcotest.test_case "bad job lines are skipped" `Quick
            test_service_bad_lines;
          Alcotest.test_case "SIGTERM drains" `Quick
            (sigterm_drain ~elsewhere:false);
          Alcotest.test_case "SIGTERM on another thread drains" `Quick
            (sigterm_drain ~elsewhere:true);
        ] );
    ]
