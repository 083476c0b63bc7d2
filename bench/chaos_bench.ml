(* Chaos smoke: the resilience-plane regression gate.

   Two phases, both seeded and deterministic, exiting 1 on any broken
   invariant and writing BENCH_chaos.json:

   1. Chaos campaign + crash/resume, through the service loop that
      [lsq_cli serve] runs ([Sched.Service]).  A crash+hang+brownout
      campaign (seed searched deterministically so all three kinds
      strike the 8-instance pool) is served under a write-ahead
      journal, then the service "crashes": the rest of the stream was
      admitted but never submitted, only part of the settled outcomes
      reached the client, and the journal tail is torn.  A resumed
      service replays the journal and finishes the stream.  Gates:
      every job yields exactly one schema-valid outcome line across the
      union of both runs, replayed lines are byte-identical, migrated
      jobs carry their migration trail, and the final journal replay
      shows every job committed.

   2. Overhead.  The resilience plane armed but quiet (chaos drawn at
      rate 0) must cost <= 1.10x the wall time of a plain fleet on the
      same batch (min of 5 runs each). *)

module P = Multidouble.Precision
module Json = Obs.Json
module Job = Sched.Job
module F = Sched.Fleet
module S = Sched.Engine
module Jn = Sched.Journal
module Sv = Sched.Service
module Chaos = Fault.Chaos
module M = Obs.Metrics

let pf = Printf.printf
let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let solve ?(device = "auto") ?inject_failures ?retries ~id () =
  Job.make ?inject_failures ?retries ~id ~kind:Job.Solve ~device ~prec:P.DD
    ~dim:512 ~tile:64 ()

(* ---- phase 1: chaos campaign with crash + resume ---- *)

(* The campaign must exercise all three chaos kinds on the 8-instance
   default pool; [Chaos.draw] is pure, so search seeds until one deals
   at least one crash, one hang, one brownout and leaves at least two
   instances healthy.  Deterministic: the search always lands on the
   same seed. *)
let campaign_seed () =
  let pool_size = 8 in
  let rec go seed =
    if seed > 10_000 then fail "chaos-smoke: no campaign seed found"
    else
      let cfg =
        Chaos.config ~seed ~rate:0.45 ~after_jobs:(0, 2) ()
      in
      let events =
        List.init pool_size (fun i -> Chaos.draw cfg ~instance:i)
      in
      let t = Chaos.tally_of_events events in
      let struck = t.Chaos.crashes + t.Chaos.hangs + t.Chaos.brownouts in
      if
        t.Chaos.crashes >= 1 && t.Chaos.hangs >= 1 && t.Chaos.brownouts >= 1
        && pool_size - struck >= 2
      then (cfg, t)
      else go (seed + 1)
  in
  go 0

let campaign_jobs n =
  (* Pinned round-robin across the four classes so every instance sees
     traffic (and chaos strikes find work to strand). *)
  let classes = [| "c2050"; "p100"; "v100"; "rtx2080" |] in
  List.init n (fun i ->
      solve ~device:classes.(i mod 4) ~id:(Printf.sprintf "cj-%03d" i) ())

let id_of_line line =
  let o = S.outcome_of_json (Json.of_string line) in
  (o.S.job.Job.id, o)

(* One service run over [jobs] as its input lines, sent through a pipe
   (small enough a stream to fit its buffer). *)
let serve ?resume ~journal config jobs ~emit =
  let r, w = Unix.pipe ~cloexec:true () in
  let oc = Unix.out_channel_of_descr w in
  List.iter
    (fun j -> output_string oc (Json.to_string (Job.to_json j) ^ "\n"))
    jobs;
  close_out oc;
  Fun.protect
    ~finally:(fun () -> Unix.close r)
    (fun () -> Sv.run ~journal ?resume config r ~emit)

let phase_chaos () =
  let cfg, dealt = campaign_seed () in
  pf "  campaign seed %d: %d crashes, %d hangs, %d brownouts dealt\n"
    cfg.Chaos.seed dealt.Chaos.crashes dealt.Chaos.hangs
    dealt.Chaos.brownouts;
  let journal_path = Filename.temp_file "chaos_bench" ".jsonl" in
  Sys.remove journal_path;
  let jobs = campaign_jobs 64 in
  let total = List.length jobs in
  let submitted_before_crash = 40 and emitted_before_crash = 25 in
  let served = List.filteri (fun i _ -> i < submitted_before_crash) jobs
  and unserved = List.filteri (fun i _ -> i >= submitted_before_crash) jobs in
  let config =
    {
      F.Config.default with
      max_queue_depth = F.Config.unbounded;
      backoff_ms = 0.5;
      chaos = Some cfg;
    }
  in
  (* Run 1: the service that will "crash".  It served a prefix of the
     stream, and the client saw only a prefix of the settlements. *)
  let run1_lines = ref [] and run1_settled = ref 0 in
  let emit line =
    incr run1_settled;
    if !run1_settled <= emitted_before_crash then
      run1_lines := line :: !run1_lines
  in
  let t0 = Unix.gettimeofday () in
  let run1 = serve ~journal:journal_path config served ~emit in
  let campaign_wall_s = Unix.gettimeofday () -. t0 in
  let struck =
    List.filter (fun (s : F.stats) -> s.F.state <> "ok") run1.Sv.stats
  in
  if struck = [] then fail "chaos-smoke: no chaos event triggered";
  pf "  run 1: %d/%d submitted, %d settled, %d emitted before the crash\n"
    run1.Sv.submitted total !run1_settled emitted_before_crash;
  List.iter
    (fun (s : F.stats) -> pf "    struck: %-12s %s\n" s.F.id s.F.state)
    struck;
  if !run1_settled <> submitted_before_crash then
    fail "chaos-smoke: run 1 settled %d of %d submitted jobs" !run1_settled
      submitted_before_crash;
  (* The crash: the process had admitted (journaled an intent for) the
     rest of the stream without submitting it, and died mid-append. *)
  let journal = Jn.create journal_path in
  List.iter (Jn.intent journal) unserved;
  Jn.close journal;
  let oc =
    open_out_gen [ Open_append; Open_wronly ] 0o644 journal_path
  in
  output_string oc "{\"j\":\"commit\",\"id\":\"torn";
  close_out oc;
  (* Run 2: resume, with no new input.  It re-emits every committed
     line and runs the intents the crashed process never settled.  No
     chaos this time — the replacement process got healthy hardware. *)
  let run2_lines = ref [] in
  let run2 =
    serve ~journal:journal_path ~resume:true
      { config with F.Config.chaos = None }
      []
      ~emit:(fun line -> run2_lines := line :: !run2_lines)
  in
  if run2.Sv.replayed <> submitted_before_crash then
    fail "chaos-smoke: resume replayed %d commits, expected %d"
      run2.Sv.replayed submitted_before_crash;
  if run2.Sv.submitted <> total - submitted_before_crash then
    fail "chaos-smoke: resume resubmitted %d pending intents, expected %d"
      run2.Sv.submitted
      (total - submitted_before_crash);
  (* The union of what the client saw across the crash: exactly one
     schema-valid line per job, byte-identical where both runs emitted
     the same job. *)
  let union : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let add_line where line =
    match id_of_line line with
    | exception Json.Error m ->
      fail "chaos-smoke: %s emitted an invalid outcome line: %s" where m
    | id, _ -> (
      match Hashtbl.find_opt union id with
      | None -> Hashtbl.replace union id line
      | Some prior when prior = line -> ()
      | Some _ ->
        fail "chaos-smoke: job %s emitted two different outcome lines" id)
  in
  List.iter (add_line "run 1") (List.rev !run1_lines);
  List.iter (add_line "run 2") (List.rev !run2_lines);
  if Hashtbl.length union <> total then
    fail "chaos-smoke: union has %d outcome lines for %d jobs"
      (Hashtbl.length union) total;
  List.iter
    (fun j ->
      if not (Hashtbl.mem union j.Job.id) then
        fail "chaos-smoke: job %s lost across the crash" j.Job.id)
    jobs;
  (* Recovery accounting off the union. *)
  let outcomes =
    Hashtbl.fold (fun _ line acc -> snd (id_of_line line) :: acc) union []
  in
  let migrated =
    List.filter
      (fun o ->
        match o.S.placement with
        | Some p -> p.S.migrations <> []
        | None -> false)
      outcomes
  in
  if migrated = [] then fail "chaos-smoke: no migration trail recorded";
  let quarantined =
    List.length
      (List.filter
         (fun o -> match o.S.status with S.Failed _ -> true | _ -> false)
         outcomes)
  in
  let recovery_rate =
    float_of_int (List.length outcomes - quarantined)
    /. float_of_int (List.length outcomes)
  in
  let migration_wait_ms =
    List.fold_left
      (fun acc o -> acc +. o.S.timing.S.queue_wait_ms)
      0.0 migrated
    /. float_of_int (List.length migrated)
  in
  if recovery_rate < 0.9 then
    fail "chaos-smoke: recovery rate %.2f below 0.9 (%d quarantined)"
      recovery_rate quarantined;
  (* The final journal state: every job committed, nothing pending, the
     torn line still the only malformed one. *)
  let final = Jn.replay journal_path in
  if List.length final.Jn.committed <> total then
    fail "chaos-smoke: final journal has %d commits for %d jobs"
      (List.length final.Jn.committed)
      total;
  if final.Jn.pending <> [] then
    fail "chaos-smoke: final journal still has %d pending intents"
      (List.length final.Jn.pending);
  if final.Jn.malformed <> 1 then
    fail "chaos-smoke: final journal malformed count %d, expected 1"
      final.Jn.malformed;
  (* Replay exactness: every line the first run emitted was re-emitted
     byte-identically by resume (it is committed, and commits replay
     verbatim). *)
  List.iter
    (fun line ->
      let id, _ = id_of_line line in
      match List.assoc_opt id final.Jn.committed with
      | Some line' when line' = line -> ()
      | Some _ -> fail "chaos-smoke: journal line for %s not byte-identical" id
      | None -> fail "chaos-smoke: emitted job %s missing from journal" id)
    !run1_lines;
  Sys.remove journal_path;
  pf
    "  union: %d outcomes, %d migrated, %d quarantined (recovery %.1f%%), \
     mean migrated queue wait %.1f ms\n"
    (List.length outcomes) (List.length migrated) quarantined
    (100.0 *. recovery_rate) migration_wait_ms;
  ( total,
    List.length migrated,
    quarantined,
    recovery_rate,
    migration_wait_ms,
    campaign_wall_s,
    dealt )

(* ---- phase 2: chaos-off overhead ---- *)

let phase_overhead () =
  let jobs =
    List.init 96 (fun i -> solve ~id:(Printf.sprintf "ov-%03d" i) ())
  in
  let run config =
    let t0 = Unix.gettimeofday () in
    let outcomes = F.run config jobs in
    let dt = Unix.gettimeofday () -. t0 in
    if List.length outcomes <> List.length jobs then
      fail "chaos-smoke: overhead run lost outcomes";
    dt
  in
  let plain =
    { F.Config.default with max_queue_depth = F.Config.unbounded }
  in
  (* The plane armed but quiet: chaos drawn at rate 0 (nothing
     struck). *)
  let armed =
    { plain with F.Config.chaos = Some (Chaos.config ~seed:7 ~rate:0.0 ()) }
  in
  (* Best of 5 per side, the runs interleaved (and the order swapped
     every round) so that drift in background load lands on both sides
     rather than on whichever block ran second. *)
  let base_s = ref Float.infinity and armed_s = ref Float.infinity in
  for round = 1 to 5 do
    let p () = base_s := Float.min !base_s (run plain)
    and a () = armed_s := Float.min !armed_s (run armed) in
    if round mod 2 = 1 then (p (); a ()) else (a (); p ())
  done;
  let base_s = !base_s and armed_s = !armed_s in
  let overhead = armed_s /. base_s in
  pf "  overhead: plain %.4f s, armed %.4f s -> %.3fx (budget 1.10x)\n"
    base_s armed_s overhead;
  if overhead > 1.10 then
    fail "chaos-smoke: resilience-plane overhead %.3fx exceeds 1.10x" overhead;
  overhead

let smoke () =
  pf "\n%s\nChaos smoke: device chaos, migration, journal\n%s\n"
    (String.make 100 '-') (String.make 100 '-');
  M.reset (M.default ());
  let ( total,
        migrated,
        quarantined,
        recovery_rate,
        migration_wait_ms,
        campaign_wall_s,
        dealt ) =
    phase_chaos ()
  in
  let overhead = phase_overhead () in
  let json =
    Json.Obj
      [
        ("bench", Json.Str "chaos");
        ("jobs", Json.Int total);
        ("campaign_wall_s", Json.Float campaign_wall_s);
        ( "dealt",
          Json.Obj
            [
              ("crashes", Json.Int dealt.Chaos.crashes);
              ("hangs", Json.Int dealt.Chaos.hangs);
              ("brownouts", Json.Int dealt.Chaos.brownouts);
            ] );
        ("migrated", Json.Int migrated);
        ("quarantined", Json.Int quarantined);
        ("recovery_rate", Json.Float recovery_rate);
        ("migration_queue_wait_ms", Json.Float migration_wait_ms);
        ("journal_replay_exact", Json.Bool true);
        ("chaos_off_overhead", Json.Float overhead);
      ]
  in
  let path = "BENCH_chaos.json" in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  pf "  [json written to %s]\n" path
