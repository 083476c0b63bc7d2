(* Telemetry smoke: runs the "fleet" sweep with the continuous-telemetry
   exporter at a fast interval and validates the whole plane end to end —
   the JSON-lines stream parses and carries ≥2 snapshots with per-device
   utilization/queue-depth gauges and latency quantiles, counters are
   monotone across snapshots, the Prometheus text exposition parses
   (known types, declared-before-use, cumulative buckets), the drift
   detector stays quiet on the default cost model and flags an
   artificially miscalibrated one, and the export overhead — the median
   on/off ratio of alternating pairs — lands in BENCH_obs.json.  Part of
   the @bench-smoke regression gate; exits 1 on any mismatch.
   [selftest] (the gate-selftest item) injects a 1.10x slowdown into the
   on side and requires the same gate to fail it. *)

module Json = Obs.Json
module Tel = Obs.Telemetry
module S = Sched.Engine
module F = Sched.Fleet
module M = Obs.Metrics

let pf = Printf.printf
let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let sweep () =
  let jobs = Sched.Sweep.jobs "fleet" in
  let outcomes = F.run F.Config.default jobs in
  if List.length outcomes <> List.length jobs then
    fail "telemetry-smoke: %d outcomes for %d jobs" (List.length outcomes)
      (List.length jobs)


let fresh_registries () =
  M.reset (M.default ());
  Obs.Health.reset ()

let run_off () =
  fresh_registries ();
  Gate_timing.per_rep sweep

(* Telemetry on: buffered debug-level logging riding the stream, the
   exporter ticking fast on its own domain.  Each on-run rewrites both
   files, so the streams validated below are the last run's. *)
let run_on ~slow ~jsonl ~prom =
  fresh_registries ();
  Obs.Log.set_level Obs.Log.Debug;
  Obs.Log.set_sink Obs.Log.Buffered;
  let exporter =
    Obs.Telemetry.start ~interval_ms:50.0
      ~prom:(Obs.Telemetry.File prom)
      (Obs.Telemetry.File jsonl)
  in
  let wall_s = Gate_timing.per_rep ~slow sweep in
  Obs.Telemetry.stop exporter;
  Obs.Log.set_sink Obs.Log.Off;
  Obs.Log.set_level Obs.Log.Info;
  (wall_s, Obs.Telemetry.ticks exporter)

(* The overhead gate times alternating off/on pairs, half of them
   on-first, and reads the median per-pair ratio: machine-wide drift
   and the process's warm-up land on both sides of a pair instead of
   on one side of a best-of-n. *)
let pairs = 10
let budget = 1.05

(* [pairs] alternating off/on pairs, the on side [slow]ed. *)
let time_pairs ~slow ~jsonl ~prom =
  List.init pairs (fun i ->
      if i mod 2 = 1 then
        let on = run_on ~slow ~jsonl ~prom in
        (true, run_off (), on)
      else
        let off = run_off () in
        (false, off, run_on ~slow ~jsonl ~prom))

let median xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let median_ratio timed =
  median (List.map (fun (_, off, (on, _)) -> on /. off) timed)

(* A sweep runs ~3x slower for the first second of the process. *)
let warm_up ~jsonl ~prom =
  for _ = 1 to 3 do
    ignore (run_off () : float);
    ignore (run_on ~slow:1.0 ~jsonl ~prom : float * int)
  done

(* The gate's self-test: a 1.10x slowdown injected into the on side
   must fail it, or the gate cannot resolve its bound. *)
let selftest () =
  let jsonl = Filename.temp_file "telemetry" ".jsonl" in
  let prom = Filename.temp_file "telemetry" ".prom" in
  warm_up ~jsonl ~prom;
  let injected = median_ratio (time_pairs ~slow:1.10 ~jsonl ~prom) in
  Sys.remove jsonl;
  Sys.remove prom;
  pf "  telemetry-smoke gate: an injected 1.10x slowdown reads %.3fx \
      (budget %.2fx)\n"
    injected budget;
  if injected <= budget then
    fail "gate-selftest: telemetry-smoke passed an injected 1.10x \
          slowdown (%.3fx)"
      injected

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (if String.trim line = "" then acc else line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

(* ---- Prometheus text validation ---- *)

let prom_validate text =
  let lines =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
  in
  let types = Hashtbl.create 32 in
  let series = ref 0 in
  (* last cumulative bucket value per (family, instance) series *)
  let buckets : (string, int) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun line ->
      if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
        match String.split_on_char ' ' line with
        | [ _; _; name; kind ] ->
          if not (List.mem kind [ "counter"; "gauge"; "histogram" ]) then
            fail "telemetry-smoke: unknown prometheus type '%s'" kind;
          if String.length name < 5 || String.sub name 0 5 <> "mdls_" then
            fail "telemetry-smoke: family '%s' missing mdls_ prefix" name;
          if Hashtbl.mem types name then
            fail "telemetry-smoke: duplicate TYPE header for %s" name;
          Hashtbl.replace types name kind
        | _ -> fail "telemetry-smoke: malformed TYPE line '%s'" line
      end
      else begin
        let name_end =
          match (String.index_opt line '{', String.index_opt line ' ') with
          | Some b, Some sp -> min b sp
          | Some b, None -> b
          | None, Some sp -> sp
          | None, None ->
            fail "telemetry-smoke: malformed sample line '%s'" line
        in
        let name = String.sub line 0 name_end in
        let value =
          match String.rindex_opt line ' ' with
          | Some i -> String.sub line (i + 1) (String.length line - i - 1)
          | None -> fail "telemetry-smoke: no value in '%s'" line
        in
        if float_of_string_opt value = None then
          fail "telemetry-smoke: non-numeric value '%s' in '%s'" value line;
        (* A sample must belong to a declared family: the bare name, or
           name minus a histogram/counter suffix. *)
        let family =
          let strip suffix =
            let n = String.length name and k = String.length suffix in
            if n > k && String.sub name (n - k) k = suffix then
              Some (String.sub name 0 (n - k))
            else None
          in
          let candidates =
            name
            :: List.filter_map strip [ "_bucket"; "_sum"; "_count" ]
          in
          match List.find_opt (Hashtbl.mem types) candidates with
          | Some f -> f
          | None ->
            fail "telemetry-smoke: sample '%s' has no TYPE declaration" name
        in
        (match Hashtbl.find types family with
        | "counter" ->
          let n = String.length family in
          if String.length family < 6 || String.sub family (n - 6) 6 <> "_total"
          then fail "telemetry-smoke: counter family '%s' missing _total" family;
          if
            match int_of_string_opt value with Some v -> v < 0 | None -> true
          then fail "telemetry-smoke: counter %s has value %s" family value
        | "histogram" when name = family ^ "_bucket" ->
          (* Cumulative within one labeled series. *)
          let key = String.sub line 0 (String.length line - String.length value - 1) in
          let key =
            match String.index_opt key ',' with
            | Some _ ->
              (* strip the trailing le=... label to group the series *)
              String.sub key 0 (String.rindex key ',')
            | None -> family
          in
          let v =
            match int_of_string_opt value with
            | Some v -> v
            | None -> fail "telemetry-smoke: bucket value '%s'" value
          in
          let prev = Option.value ~default:0 (Hashtbl.find_opt buckets key) in
          if v < prev then
            fail "telemetry-smoke: bucket series %s not cumulative (%d < %d)"
              key v prev;
          Hashtbl.replace buckets key v
        | _ -> ());
        incr series
      end)
    lines;
  (Hashtbl.length types, !series)

let smoke () =
  pf "\n%s\nTelemetry smoke: fleet sweep under the continuous exporter\n%s\n"
    (String.make 100 '-') (String.make 100 '-');
  let jsonl = Filename.temp_file "telemetry" ".jsonl" in
  let prom = Filename.temp_file "telemetry" ".prom" in

  warm_up ~jsonl ~prom;
  let timed = time_pairs ~slow:1.0 ~jsonl ~prom in
  let overhead = median_ratio timed in
  let _, _, (_, ticks) = List.nth timed (pairs - 1) in
  if ticks < 2 then fail "telemetry-smoke: only %d exporter ticks" ticks;

  (* The JSON-lines stream: every line parses; snapshots carry the
     per-instance gauges and per-class latency quantiles. *)
  let lines = List.map Tel.line_of_string (read_lines jsonl) in
  let snapshots =
    List.filter_map
      (function Tel.Snapshot s -> Some s | Tel.Log_line _ -> None)
      lines
  in
  let log_lines = List.length lines - List.length snapshots in
  if List.length snapshots < 2 then
    fail "telemetry-smoke: %d snapshots in the stream" (List.length snapshots);
  if log_lines = 0 then
    fail "telemetry-smoke: no log records rode the stream at debug level";
  let last = List.nth snapshots (List.length snapshots - 1) in
  let has_prefix p =
    List.exists
      (fun (name, v) ->
        match v with
        | M.Gauge _ -> String.length name > String.length p
                       && String.sub name 0 (String.length p) = p
        | _ -> false)
      last.Tel.metrics
  in
  if not (has_prefix "fleet.util.") then
    fail "telemetry-smoke: no per-instance utilization gauges in snapshot";
  if not (has_prefix "fleet.queue_depth.") then
    fail "telemetry-smoke: no per-instance queue-depth gauges in snapshot";
  if not (has_prefix "fleet.inflight.") then
    fail "telemetry-smoke: no per-instance inflight gauges in snapshot";
  if
    not
      (List.exists
         (fun (name, v) ->
           match v with
           | M.Histogram { count; _ } ->
             count > 0
             && String.length name > 17
             && String.sub name 0 17 = "fleet.latency_ms."
           | _ -> false)
         last.Tel.metrics)
  then fail "telemetry-smoke: no populated fleet latency histogram";
  (* Counters are monotone tick over tick. *)
  let counter_of s name =
    match List.assoc_opt name s.Tel.metrics with
    | Some (M.Counter c) -> c
    | _ -> 0
  in
  List.iter
    (fun name ->
      ignore
        (List.fold_left
           (fun prev s ->
             let v = counter_of s name in
             if v < prev then
               fail "telemetry-smoke: counter %s went backwards (%d -> %d)"
                 name prev v;
             v)
           0 snapshots))
    [ "fleet.submitted"; "fleet.completed"; "fleet.attempts" ];

  (* Prometheus exposition. *)
  let prom_text =
    let ic = open_in_bin prom in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let families, samples = prom_validate prom_text in
  if families = 0 || samples = 0 then
    fail "telemetry-smoke: empty prometheus exposition";

  (* Drift verdicts: the real sweep ran fault-free on the same cost
     model that predicts it, so the detector must stay quiet; a
     miscalibrated model (measured = 2x predicted) must flag. *)
  let drift_quiet =
    List.for_all
      (fun (d : Obs.Health.stage_drift) -> not d.Obs.Health.drifted)
      last.Tel.drift
  in
  if not drift_quiet then
    fail "telemetry-smoke: drift detector fired on the default cost model";
  if last.Tel.drift = [] then
    fail "telemetry-smoke: no drift accumulators fed by the sweep";
  Obs.Health.reset ();
  Obs.Health.observe_model ~stage:"smoke" ~predicted_ms:1.0 ~measured_ms:2.0;
  let drift_flagged =
    List.exists
      (fun (d : Obs.Health.stage_drift) ->
        d.Obs.Health.stage = "smoke" && d.Obs.Health.drifted)
      (Obs.Health.drift ())
  in
  if not drift_flagged then
    fail "telemetry-smoke: miscalibrated cost model not flagged";
  Obs.Health.reset ();

  List.iter
    (fun (on_first, off, (on, _)) ->
      pf "  %s: off %.4f s, on %.4f s a sweep, ratio %.3fx\n"
        (if on_first then "on first " else "off first") off on (on /. off))
    timed;
  pf "  overhead %.3fx (median of %d pairs, each side >= %.2f s); last \
      on-run %d ticks, %d snapshots, %d log lines\n"
    overhead pairs Gate_timing.min_side_s ticks (List.length snapshots) log_lines;
  pf "  prometheus: %d families, %d samples; drift quiet on defaults, \
      flags 2x miscalibration\n"
    families samples;
  let json =
    Json.Obj
      [
        ("bench", Json.Str "obs");
        ( "pairs",
          Json.Arr
            (List.map
               (fun (on_first, off, (on, _)) ->
                 Json.Obj
                   [
                     ("on_first", Json.Bool on_first);
                     ("off_s_per_sweep", Json.Float off);
                     ("on_s_per_sweep", Json.Float on);
                     ("ratio", Json.Float (on /. off));
                   ])
               timed) );
        ("overhead_ratio", Json.Float overhead);
        ("ticks", Json.Int ticks);
        ("snapshots", Json.Int (List.length snapshots));
        ("log_lines", Json.Int log_lines);
        ("prom_families", Json.Int families);
        ("prom_samples", Json.Int samples);
        ("drift_quiet_on_defaults", Json.Bool drift_quiet);
        ("drift_flags_miscalibration", Json.Bool drift_flagged);
      ]
  in
  let path = "BENCH_obs.json" in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Sys.remove jsonl;
  Sys.remove prom;
  pf "  [json written to %s]\n" path;
  (* Gated after the write, so a failing run still leaves its pairs. *)
  if overhead > budget then
    fail "telemetry-smoke: median export overhead %.3fx exceeds the %.2fx \
          budget"
      overhead budget
