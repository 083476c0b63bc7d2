(* The performance ledger.

     perf.exe run --workload NAME --seed N --seconds S --trace 0|1
                  [--out FILE] [--spec BENCHMARK.json] [--cli LSQ_CLI]
                  [--work DIR]
     perf.exe diff OLD NEW        (files or directories of --out runs)
     perf.exe smoke               (every workload, both modes, briefly)
     perf.exe selftest            (the statistics helpers)

   A run prints every metric as [name value unit (n=..., q1/q3)], then,
   as its last line, one JSON object: the correctness tally and the
   end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
   named in BENCHMARK.json.  It exits 1 when any check fails.  See
   PERF.md for the workloads and what each metric should move. *)

module Json = Harness.Json

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  cli : string;
  work : string;
}

let pf = Printf.printf

(* ---- closed-loop workloads ---- *)

(* Set-up of an in-process workload, in seconds at the reference
   speed: a fresh process of this executable generating the inputs and
   starting the domain pool, timed from its spawn to its "ready" line —
   so work moved into program start or input preparation shows. *)
let fresh_setup o =
  let r0 = Host.reference_ms () in
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let t0 = Host.now () in
  let pid =
    Unix.create_process exe
      [| exe; "ready"; "--workload"; o.workload; "--seed"; string_of_int o.seed |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  let t1 = Host.now () in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 when line = "ready" ->
    Host.scaled (t1 -. t0) r0 (Host.reference_ms ())
  | _ -> failwith "the set-up process failed"

let ready workload seed =
  match Closed.of_name workload with
  | Some w ->
    ignore (w.Closed.setup ~seed : Closed.case list);
    ignore (Dompool.Domain_pool.get_default () : Dompool.Domain_pool.t);
    print_endline "ready"
  | None -> exit 2

(* The end-to-end timings of a run, from each operation's host ms at the
   reference speed, grouped by kind (a closed loop's cases; a served
   job's table job or solve class).  The typical latency is the
   geometric mean of the per-kind medians, so every kind weighs the same
   however long it takes; throughput is operations per second of the
   summed times, which the heavy kinds dominate.  The pooled 90th
   percentile — the highest with ten operations beyond it in every
   workload — is a note: it sits on whichever kind happens to straddle
   it and spreads up to 11% over ten seeds. *)
let record_latency (l : Ledger.t) (by_kind : (string * float list) list) =
  let medians = List.map (fun (_, xs) -> Stats.median xs) by_kind in
  let all = List.concat_map snd by_kind in
  let g f = Stats.geomean (List.map (fun (_, xs) -> f xs) by_kind) in
  let spread =
    {
      Ledger.n = List.length all;
      q1 = g (fun xs -> let q1, _, _ = Stats.quartiles xs in q1);
      q3 = g (fun xs -> let _, _, q3 = Stats.quartiles xs in q3);
    }
  in
  Ledger.metric l ~spread "latency_norm_ms" (Stats.geomean medians);
  Ledger.metric l "throughput_norm"
    (float_of_int (List.length all) *. 1000.0 /. List.fold_left ( +. ) 0.0 all);
  if Stats.tail_ok 90.0 (List.length all) then
    Ledger.note l "latency_norm_ms.p90" (Stats.percentile 90.0 all);
  Ledger.note l "operations" (float_of_int (List.length all))

(* A closed loop's kinds are its cases; the raw host medians are notes. *)
let closed_latency (l : Ledger.t) (tm : Closed.timings) cases =
  record_latency l
    (List.map
       (fun (c : Closed.case) ->
         let name = c.Closed.name in
         let raw = Closed.samples tm.Closed.raw name in
         let xs = Closed.samples tm.Closed.scaled name in
         Ledger.samples l ("latency_ms." ^ name) raw;
         Ledger.samples l ("latency_norm_ms." ^ name) xs;
         Ledger.note l ("latency_ms." ^ name) (Stats.median raw);
         Ledger.note l ("latency_norm_ms." ^ name) (Stats.median xs);
         (name, xs))
       cases)

(* The traced phase's layer split, per operation span. *)
let record_split (l : Ledger.t) (split : Trace_split.t) ~ratio =
  let ops = float_of_int (max 1 split.Trace_split.ops) in
  List.iter
    (fun (g, ms) -> Ledger.metric l ("stage_host_ms." ^ g) (ms /. ops))
    (Trace_split.grouped split);
  List.iter
    (fun (s, ms) -> Ledger.note l ("stage_host_ms." ^ s) (ms /. ops))
    split.Trace_split.stages;
  Ledger.metric l "outside_kernels_ms" (split.Trace_split.outside_ms /. ops);
  Ledger.metric l "trace.events" (float_of_int split.Trace_split.events /. ops);
  Ledger.metric l "trace.overhead_ratio" ratio;
  Ledger.note l "trace.ops" ops;
  (* Kernel spans outside every operation span would be host time the
     split does not account for. *)
  let kernel = split.Trace_split.op_ms -. split.Trace_split.outside_ms in
  if split.Trace_split.stray_kernel_ms > 0.1 *. kernel then
    Ledger.error l "trace: %.1f ms of kernel spans outside any operation"
      split.Trace_split.stray_kernel_ms

let run_closed (w : Closed.t) (l : Ledger.t) o =
  let cases = w.Closed.setup ~seed:o.seed in
  let k = ref o.seed in
  let warmup = if o.smoke then 0 else w.Closed.warmup in
  ignore
    (Closed.rounds l cases ~k ~seconds:0.0 ~min_rounds:warmup ());
  if not o.trace then begin
    Ledger.median_of l "setup_s" (List.init 11 (fun _ -> fresh_setup o));
    let tm = Closed.rounds l cases ~k ~seconds:o.seconds () in
    closed_latency l tm cases
  end
  else begin
    Layers.run l ~budget:(0.35 *. o.seconds);
    let untraced =
      Closed.rounds l cases ~k ~seconds:(0.3 *. o.seconds)
        ~min_rounds:(if o.smoke then 1 else 2) ()
    in
    (* One trace per operation, read back and dropped before the next:
       the tracer holds every event in memory until export, and one
       round of the paper tables records half a million. *)
    let split = ref Trace_split.empty in
    let traced_op f =
      Obs.Tracer.start ();
      let ms = Fun.protect ~finally:Obs.Tracer.stop f in
      let text = Obs.Tracer.export () in
      Obs.Tracer.start ();
      Obs.Tracer.stop ();
      split :=
        Trace_split.add !split
          (Trace_split.of_export ~is_op:(fun ~cat ~name:_ -> cat = "bench") text);
      ms
    in
    let traced =
      Closed.rounds l cases ~k ~seconds:(0.3 *. o.seconds) ~each:traced_op ()
    in
    record_split l !split
      ~ratio:
        (Stats.median traced.Closed.rounds
        /. Stats.median untraced.Closed.rounds)
  end

(* ---- the served workload ---- *)

(* Set-up of the served workload, in seconds at the reference speed:
   the seeded job stream, then a service spawned and answering a probe
   job.  Timed [reps] times; the earlier services serve only the timing
   and are shut down. *)
let serve_setups o ~reps =
  let rec go i times =
    let r0 = Host.reference_ms () in
    let ms, (c, s) =
      Host.timed_ms (fun () ->
          let s = Serve_mix.stream ~seed:o.seed in
          (Serve_mix.start ~cli:o.cli ~probe:i (), s))
    in
    let times = Host.scaled (ms /. 1000.0) r0 (Host.reference_ms ()) :: times in
    if i + 1 >= reps then (List.rev times, c, s)
    else begin
      ignore (Serve_mix.finish c ~deadline:(Host.now () +. 30.0) : bool);
      go (i + 1) times
    end
  in
  go 0 []

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Blocks from the first on, the first [warm] untimed, then as many as
   fit in [seconds]; returns the operations and the timed seconds. *)
let drive_for c s ~warm ~seconds =
  let t_start = ref (Host.now ()) in
  let more k =
    if k = warm then t_start := Host.now ();
    k < warm || Host.now () -. !t_start < seconds
  in
  let ops = Serve_mix.drive c s ~more in
  (ops, Host.now () -. !t_start)

let finish_checked (l : Ledger.t) c =
  if not (Serve_mix.finish c ~deadline:(Host.now () +. 60.0)) then
    Ledger.error l "serve: the service did not exit cleanly"

let run_serve (l : Ledger.t) o =
  if not o.trace then begin
    let setup_s, c, s = serve_setups o ~reps:7 in
    Ledger.median_of l "setup_s" setup_s;
    let warm = if o.smoke then 0 else 1 in
    let ops, window_s = drive_for c s ~warm ~seconds:o.seconds in
    Option.iter (Ledger.note l "service_peak_rss_mb") (Host.peak_rss_mb (Some c.Serve_mix.pid));
    finish_checked l c;
    let settled = Serve_mix.settle l ops in
    let measured =
      List.filter (fun ((op : Serve_mix.op), _) -> op.Serve_mix.block_no >= warm) settled
    in
    let lat f = List.map (fun (op, _) -> f op) measured in
    let raw = lat (fun op -> op.Serve_mix.latency_ms) in
    if raw = [] then Ledger.error l "serve: no job was measured"
    else begin
      Ledger.samples l "latency_ms" raw;
      Ledger.samples l "latency_norm_ms" (lat (fun op -> op.Serve_mix.scaled_ms));
      let by_kind = Hashtbl.create 128 in
      List.iter
        (fun ((op : Serve_mix.op), _) ->
          let k = op.Serve_mix.job.Serve_mix.kind in
          Hashtbl.replace by_kind k
            (op.Serve_mix.scaled_ms
            :: Option.value ~default:[] (Hashtbl.find_opt by_kind k)))
        measured;
      record_latency l (List.sort compare (Hashtbl.fold (fun k xs acc -> (k, xs) :: acc) by_kind []));
      Ledger.note l "latency_ms.p50" (Stats.median raw);
      Ledger.note l "latency_ms.p90" (Stats.percentile 90.0 raw);
      List.iter
        (fun cls ->
          match
            List.filter_map
              (fun ((op : Serve_mix.op), _) ->
                if op.Serve_mix.job.Serve_mix.cls = cls then Some op.Serve_mix.latency_ms
                else None)
              measured
          with
          | [] -> ()
          | xs -> Ledger.note l ("latency_ms." ^ cls ^ ".p50") (Stats.median xs))
        [ "table"; "exec"; "cg"; "lsqr"; "fault" ]
    end;
    Serve_mix.layer_notes l measured ~window_s;
    Serve_mix.fault_tally l settled
  end
  else begin
    Layers.run l ~budget:(0.35 *. o.seconds);
    let s = Serve_mix.stream ~seed:o.seed in
    let c = Serve_mix.start ~cli:o.cli ~probe:0 () in
    let untraced, _ = drive_for c s ~warm:1 ~seconds:(0.3 *. o.seconds) in
    finish_checked l c;
    (* The service's tracer holds every event until it exits: one block
       (some 150 thousand events) is traced. *)
    let file = Filename.concat o.work "serve-trace.json" in
    let c = Serve_mix.start ~cli:o.cli ~trace:file ~probe:1 () in
    let traced = Serve_mix.drive c s ~more:(fun k -> k < 1) in
    finish_checked l c;
    let untraced = Serve_mix.settle l untraced and traced = Serve_mix.settle l traced in
    let split =
      Trace_split.of_export
        ~is_op:(fun ~cat ~name -> cat = "sched" && name = "attempt")
        (read_file file)
    in
    (* Tracing overhead over the jobs served in both windows. *)
    let by_id = Hashtbl.create 256 in
    List.iter
      (fun ((op : Serve_mix.op), o) ->
        Hashtbl.replace by_id op.Serve_mix.job.Serve_mix.id (Serve_mix.attempt_ms o))
      untraced;
    let on, off =
      List.fold_left
        (fun (on, off) ((op : Serve_mix.op), o) ->
          match Hashtbl.find_opt by_id op.Serve_mix.job.Serve_mix.id with
          | Some u -> (on +. Serve_mix.attempt_ms o, off +. u)
          | None -> (on, off))
        (0.0, 0.0) traced
    in
    record_split l split ~ratio:(on /. off)
  end

(* ---- one run ---- *)

let execute (spec : Spec.t) o =
  let l = Ledger.create () in
  Model.check l;
  (match Closed.of_name o.workload with
  | Some w -> run_closed w l o
  | None -> run_serve l o);
  Option.iter (Ledger.note l "bench_peak_rss_mb") (Host.peak_rss_mb None);
  List.iter
    (fun (m : Spec.metric) ->
      match List.assoc_opt m.Spec.name l.Ledger.metrics with
      | None -> Ledger.error l "metric %s was not measured" m.Spec.name
      | Some (v, _) when not (Float.is_finite v) ->
        Ledger.error l "metric %s is %g" m.Spec.name v
      | Some _ -> ())
    (Spec.metrics spec ~trace:o.trace);
  l

let print_run (spec : Spec.t) o (l : Ledger.t) =
  pf "perf %s: seed %d, %g s, %s\n" o.workload o.seed o.seconds
    (if o.trace then "layer and traced phases" else "untraced phase");
  List.iter
    (fun (m : Spec.metric) ->
      match List.assoc_opt m.Spec.name l.Ledger.metrics with
      | Some (v, spread) ->
        pf "%s %.6g %s%s\n" m.Spec.name v m.Spec.unit_
          (match spread with
          | Some s -> Printf.sprintf " (n=%d, q1/q3 %.6g/%.6g)" s.Ledger.n s.Ledger.q1 s.Ledger.q3
          | None -> "")
      | None -> ())
    (Spec.metrics spec ~trace:o.trace);
  List.iter
    (fun (name, v) -> pf "  note %s %.6g\n" name v)
    (List.sort compare l.Ledger.notes);
  let exact = Ledger.exact_list l in
  List.iter
    (fun (name, v) ->
      if List.mem_assoc name Model.expected then pf "  exact %s %.17g\n" name v)
    exact;
  pf "  %d exact values recorded (counts and modeled figures)\n" (List.length exact);
  List.iter (fun e -> Printf.eprintf "check failed: %s\n" e) (List.rev l.Ledger.errors)

let result_line (spec : Spec.t) o (l : Ledger.t) =
  Json.Obj
    [
      ("correct", Json.Bool (Ledger.correct l));
      ("attempted", Json.Int l.Ledger.attempted);
      ("failed", Json.Int l.Ledger.failed);
      ( "metrics",
        Json.Obj
          (List.filter_map
             (fun (m : Spec.metric) ->
               match List.assoc_opt m.Spec.name l.Ledger.metrics with
               | Some (v, _) when Float.is_finite v ->
                 Some
                   ( m.Spec.name,
                     Json.Obj [ ("value", Json.Float v); ("unit", Json.Str m.Spec.unit_) ] )
               | _ -> None)
             (Spec.metrics spec ~trace:o.trace)) );
    ]

(* The raw record of a run, for [diff] and the committed baseline. *)
let run_json o (l : Ledger.t) =
  let floats xs = Json.Arr (List.map (fun x -> Json.Float x) xs) in
  let obj f xs = Json.Obj (List.map f (List.sort compare xs)) in
  Json.Obj
    [
      ("workload", Json.Str o.workload);
      ("seed", Json.Int o.seed);
      ("seconds", Json.Float o.seconds);
      ("trace", Json.Bool o.trace);
      ("correct", Json.Bool (Ledger.correct l));
      ("attempted", Json.Int l.Ledger.attempted);
      ("failed", Json.Int l.Ledger.failed);
      ("errors", Json.Arr (List.rev_map (fun e -> Json.Str e) l.Ledger.errors));
      ("metrics", obj (fun (k, (v, _)) -> (k, Json.Float v)) l.Ledger.metrics);
      ("samples", obj (fun (k, xs) -> (k, floats xs)) l.Ledger.samples);
      ("exact", obj (fun (k, v) -> (k, Json.Float v)) (Ledger.exact_list l));
      ("notes", obj (fun (k, v) -> (k, Json.Float v)) l.Ledger.notes);
    ]

(* ---- diff ---- *)

let load_runs path =
  let files =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list |> List.sort compare
      |> List.filter (fun f -> Filename.check_suffix f ".json")
      |> List.map (Filename.concat path)
    else [ path ]
  in
  List.map (fun f -> Json.of_string (read_file f)) files

let field j k = Json.member k j

let values runs name =
  List.filter_map
    (fun r -> Json.to_option Json.get_float (field (field r "metrics") name))
    runs

(* One row per workload and end-to-end metric, judged against the
   metric's bound; counts and modeled values must repeat exactly between
   runs of the same seed.  Returns whether anything regressed. *)
let diff (spec : Spec.t) ~old_path ~new_path =
  let olds = load_runs old_path and news = load_runs new_path in
  let regressed = ref false in
  let of_workload w trace runs =
    List.filter
      (fun r ->
        Json.get_string (field r "workload") = w
        && Json.get_bool (field r "trace") = trace)
      runs
  in
  pf "%-13s %-22s %12s %12s %8s  %s\n" "workload" "metric" "old" "new" "change"
    "verdict";
  List.iter
    (fun w ->
      let o = of_workload w false olds and n = of_workload w false news in
      if o <> [] && n <> [] then begin
        List.iter
          (fun (m : Spec.metric) ->
            match (values o m.Spec.name, values n m.Spec.name) with
            | [], _ | _, [] -> ()
            | ov, nv ->
              let bound = Option.value ~default:0.0 m.Spec.bound in
              let v = Stats.verdict ~better:m.Spec.better ~bound ov nv in
              if Stats.is_regression v then regressed := true;
              let mo = Stats.median ov and mn = Stats.median nv in
              pf "%-13s %-22s %12.6g %12.6g %+7.1f%%  %s (runs %d/%d, bound %g)\n"
                w m.Spec.name mo mn
                (100.0 *. (mn -. mo) /. mo)
                (Stats.verdict_name v) (List.length ov) (List.length nv) bound)
          spec.Spec.end_to_end;
        let failed runs =
          List.fold_left (fun acc r -> acc + Json.get_int (field r "failed")) 0 runs
        in
        if failed n > failed o then begin
          regressed := true;
          pf "%-13s %-22s %12d %12d %8s  worse\n" w "failed" (failed o) (failed n) ""
        end
      end)
    spec.Spec.workloads;
  (* Exact quantities, between runs of one workload, mode and seed. *)
  let exact r =
    match field r "exact" with Json.Obj kv -> kv | _ -> []
  in
  let changed = ref 0 in
  List.iter
    (fun ro ->
      List.iter
        (fun rn ->
          let key r =
            ( Json.get_string (field r "workload"),
              Json.get_int (field r "seed"),
              Json.get_bool (field r "trace") )
          in
          if key ro = key rn then
            List.iter
              (fun (k, v) ->
                match List.assoc_opt k (exact rn) with
                | Some v' when Json.get_float v' = Json.get_float v -> ()
                | v' ->
                  incr changed;
                  let w, seed, _ = key ro in
                  pf "%-13s %-40s %s -> %s  CHANGED (seed %d)\n" w k
                    (Json.to_string v)
                    (match v' with Some x -> Json.to_string x | None -> "absent")
                    seed)
              (exact ro))
        news)
    olds;
  if !changed > 0 then regressed := true
  else pf "exact counts and modeled values: identical\n";
  !regressed

(* ---- smoke ---- *)

(* Every workload in both modes, one short round each: each metric of
   BENCHMARK.json must be produced and every check must pass. *)
let smoke (spec : Spec.t) ~cli ~work =
  let ok = ref true in
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let o =
            {
              workload = w;
              seed = 1;
              seconds = (if w = "serve_mix" then 3.0 else 0.5);
              trace;
              smoke = true;
              cli;
              work;
            }
          in
          let secs, l = Host.timed_ms (fun () -> execute spec o) in
          pf "smoke %-13s --trace %d  %s  (%d operations, %.1f s)\n%!" w
            (if trace then 1 else 0)
            (if Ledger.correct l then "ok" else "FAILED")
            l.Ledger.attempted (secs /. 1000.0);
          if not (Ledger.correct l) then begin
            ok := false;
            List.iter (fun e -> pf "  %s\n" e) (List.rev l.Ledger.errors)
          end)
        [ false; true ])
    spec.Spec.workloads;
  !ok

(* ---- command line ---- *)

let usage =
  "usage: perf.exe run --workload NAME --seed N --seconds S --trace 0|1 \
   [--out FILE]\n\
  \       perf.exe diff OLD NEW\n\
  \       perf.exe smoke\n\
  \       perf.exe selftest\n\
   common options: --spec BENCHMARK.json --cli LSQ_CLI --work DIR"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and out = ref "" and spec = ref "BENCHMARK.json" in
  let cli = ref "_build/default/bin/lsq_cli.exe" in
  let work = ref ".bench_build/perf-work" in
  let positional = ref [] in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--out", Arg.Set_string out, "FILE raw samples of the run");
      ("--spec", Arg.Set_string spec, "FILE metric table (BENCHMARK.json)");
      ("--cli", Arg.Set_string cli, "EXE the lsq_cli executable");
      ("--work", Arg.Set_string work, "DIR scratch files of a run");
    ]
  in
  let argv = Sys.argv in
  if Array.length argv < 2 then (prerr_endline usage; exit 2);
  let sub = argv.(1) in
  let rest = Array.append [| argv.(0) |] (Array.sub argv 2 (Array.length argv - 2)) in
  (try Arg.parse_argv ~current:(ref 0) rest specs (fun a -> positional := a :: !positional) usage
   with Arg.Bad m | Arg.Help m -> prerr_endline m; exit 2);
  let load_spec () =
    try Spec.load !spec
    with Sys_error m | Json.Error m ->
      Printf.eprintf "perf: cannot read the metric table: %s\n" m;
      exit 2
  in
  match sub with
  | "run" ->
    let spec = load_spec () in
    if not (List.mem !workload spec.Spec.workloads) then begin
      Printf.eprintf "perf: unknown workload '%s' (%s)\n" !workload
        (String.concat ", " spec.Spec.workloads);
      exit 2
    end;
    if !trace <> 0 && !trace <> 1 then (prerr_endline usage; exit 2);
    mkdir_p !work;
    let o =
      {
        workload = !workload;
        seed = !seed;
        seconds = !seconds;
        trace = !trace = 1;
        smoke = false;
        cli = !cli;
        work = !work;
      }
    in
    let l =
      try execute spec o
      with e ->
        Serve_mix.kill_all ();
        Printf.eprintf "perf: %s\n" (Printexc.to_string e);
        exit 1
    in
    print_run spec o l;
    if !out <> "" then begin
      let oc = open_out !out in
      output_string oc (Json.to_string (run_json o l));
      output_char oc '\n';
      close_out oc
    end;
    print_endline (Json.to_string (result_line spec o l));
    exit (if Ledger.correct l then 0 else 1)
  | "diff" -> (
    match List.rev !positional with
    | [ old_path; new_path ] ->
      exit (if diff (load_spec ()) ~old_path ~new_path then 1 else 0)
    | _ -> prerr_endline usage; exit 2)
  | "smoke" ->
    mkdir_p !work;
    let ok =
      try smoke (load_spec ()) ~cli:!cli ~work:!work
      with e ->
        Serve_mix.kill_all ();
        Printf.eprintf "perf: %s\n" (Printexc.to_string e);
        false
    in
    exit (if ok then 0 else 1)
  | "ready" -> ready !workload !seed
  | "selftest" -> (
    match Stats.selftest () with
    | [] -> print_endline "stats selftest: ok"
    | failures ->
      List.iter (fun f -> Printf.eprintf "stats selftest failed: %s\n" f) failures;
      exit 1)
  | _ -> prerr_endline usage; exit 2
