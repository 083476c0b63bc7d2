(* Trace/metrics smoke: runs a small batch with the tracer and the
   default metrics registry armed, exports both artifacts, and checks
   that the Chrome trace-event JSON and the metrics snapshot parse with
   [Obs.Json], are non-empty, and carry the mandatory event fields.
   Part of the @bench-smoke regression gate; exits 1 on any mismatch. *)

module P = Multidouble.Precision
module Json = Obs.Json
module Job = Sched.Job
module S = Sched.Engine
module F = Sched.Fleet

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let smoke () =
  Printf.printf "\n%s\nTrace/metrics smoke (traced 3-job batch)\n%s\n"
    (String.make 100 '-') (String.make 100 '-');
  let jobs =
    [
      Job.make ~id:"trace-qr-v100-2d" ~kind:Job.Qr ~device:"v100" ~prec:P.DD
        ~dim:256 ~tile:32 ();
      Job.make ~id:"trace-bs-v100-4d" ~kind:Job.Backsub ~device:"v100"
        ~prec:P.QD ~dim:256 ~tile:32 ();
      Job.make ~id:"trace-retry" ~kind:Job.Qr ~device:"v100" ~prec:P.DD
        ~dim:128 ~tile:32 ~retries:2 ~inject_failures:1 ();
    ]
  in
  Obs.Metrics.reset (Obs.Metrics.default ());
  Obs.Tracer.start ();
  let outcomes =
    Fun.protect
      ~finally:(fun () -> Obs.Tracer.stop ())
      (fun () -> F.run (F.Config.batch ~parallel:2 ~backoff_ms:0.0 ()) jobs)
  in
  if List.length outcomes <> List.length jobs then
    fail "trace-smoke: %d outcomes for %d jobs" (List.length outcomes)
      (List.length jobs);
  let trace_path = Filename.temp_file "lsq_trace" ".json" in
  let metrics_path = Filename.temp_file "lsq_metrics" ".json" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove trace_path with Sys_error _ -> ());
      try Sys.remove metrics_path with Sys_error _ -> ())
    (fun () ->
      Obs.Tracer.export_file trace_path;
      let oc = open_out metrics_path in
      output_string oc
        (Json.to_string
           (Obs.Metrics.to_json
              (Obs.Metrics.snapshot (Obs.Metrics.default ()))));
      output_char oc '\n';
      close_out oc;
      (* The trace must be valid JSON with non-empty traceEvents, and
         every event must carry the mandatory Chrome trace fields. *)
      let trace =
        try Json.of_string (read_file trace_path)
        with Json.Error m -> fail "trace-smoke: trace does not parse: %s" m
      in
      let events = Json.get_list (Json.member "traceEvents" trace) in
      if events = [] then fail "trace-smoke: traceEvents is empty";
      List.iter
        (fun e ->
          let req field =
            match Json.member field e with
            | Json.Null -> fail "trace-smoke: event missing '%s'" field
            | _ -> ()
          in
          List.iter req [ "name"; "ph"; "ts"; "pid"; "tid" ])
        events;
      let has cat =
        List.exists
          (fun e ->
            match Json.member "cat" e with
            | Json.Str c -> c = cat
            | _ -> false)
          events
      in
      List.iter
        (fun cat ->
          if not (has cat) then
            fail "trace-smoke: no '%s' events in the trace" cat)
        [ "kernel"; "sched" ];
      (* The metrics snapshot must parse, be non-empty, and count exactly
         the kernel launches the batch's reports count, launched on the
         fleet's worker domains and summed on this one: the fleet's
         placement plans count in no sim.* metric, and the retried job's
         failed attempt is injected before it launches anything. *)
      let snap =
        try Obs.Metrics.of_json (Json.of_string (read_file metrics_path))
        with Json.Error m -> fail "trace-smoke: metrics do not parse: %s" m
      in
      if snap = [] then fail "trace-smoke: metrics snapshot is empty";
      let reported =
        List.fold_left
          (fun acc (o : S.outcome) ->
            match o.S.status with
            | S.Completed r -> acc + r.Harness.Report.launches
            | S.Failed _ -> acc)
          0 outcomes
      in
      (match List.assoc_opt "sim.launches" snap with
      | Some (Obs.Metrics.Counter n) when n > 0 && n = reported -> ()
      | Some (Obs.Metrics.Counter n) ->
        fail "trace-smoke: sim.launches = %d, expected the %d reported" n
          reported
      | _ -> fail "trace-smoke: sim.launches counter missing");
      (match List.assoc_opt "sim.kernel_ms" snap with
      | Some (Obs.Metrics.Histogram { count; _ }) when count > 0 -> ()
      | Some _ -> fail "trace-smoke: sim.kernel_ms observed nothing"
      | None -> fail "trace-smoke: sim.kernel_ms histogram missing");
      match List.assoc_opt "fleet.completed" snap with
      | Some (Obs.Metrics.Counter n) when n = List.length jobs -> ()
      | _ -> fail "trace-smoke: fleet.completed should equal the batch size");
  Printf.printf
    "trace-smoke: %d events traced, trace and metrics parse and validate\n"
    (Obs.Tracer.event_count ())
