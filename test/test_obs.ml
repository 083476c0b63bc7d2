(* Tests for the observability layer: tracer transparency and event
   model, Chrome trace-event export, metrics exactness under concurrent
   hammering, snapshot serialization, and the per-stage roofline
   classification the paper's CGMA analysis predicts. *)

module P = Multidouble.Precision
module Json = Harness.Json
module T = Obs.Tracer
module M = Obs.Metrics
module R = Harness.Runners
module Pool = Dompool.Domain_pool

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

exception Boom

(* ---- tracer ---- *)

let test_disabled_transparent () =
  T.stop ();
  let before = T.event_count () in
  let v = T.span "quiet" (fun () -> 41 + 1) in
  checki "span returns the value" 42 v;
  T.instant "quiet instant";
  T.counter "quiet counter" 1.0;
  checki "nothing recorded while disabled" before (T.event_count ());
  match T.span "raising" (fun () -> raise Boom) with
  | exception Boom -> ()
  | _ -> Alcotest.fail "span swallowed the exception"

let test_recording () =
  T.start ();
  let v = T.span ~cat:"test" ~args:[ ("k", T.Int 7) ] "outer" (fun () -> 3) in
  checki "span value" 3 v;
  T.instant ~cat:"test" "ping";
  T.counter "clock" 12.5;
  (match T.span "boom" (fun () -> raise Boom) with
  | exception Boom -> ()
  | _ -> Alcotest.fail "span swallowed the exception");
  T.stop ();
  checki "four events recorded" 4 (T.event_count ());
  (* start drops the previous trace *)
  T.start ();
  T.stop ();
  checki "start clears" 0 (T.event_count ())

let test_export_schema () =
  T.start ();
  ignore (T.span ~cat:"a" "alpha" (fun () -> T.span ~cat:"b" "beta" Fun.id));
  T.instant
    ~args:[ ("why", T.Str "x"); ("on", T.Bool true); ("f2", T.Float 2.0) ]
    "mark";
  T.counter "track" 3.25;
  T.stop ();
  let doc = Json.of_string (T.export ()) in
  Alcotest.(check string)
    "display unit" "ms"
    Json.(get_string (member "displayTimeUnit" doc));
  let events = Json.get_list (Json.member "traceEvents" doc) in
  checki "all events exported" 4 (List.length events);
  List.iter
    (fun e ->
      ignore Json.(get_string (member "name" e));
      ignore Json.(get_string (member "ph" e));
      ignore Json.(get_float (member "ts" e));
      ignore Json.(get_int (member "pid" e));
      ignore Json.(get_int (member "tid" e));
      check "ts non-negative" true Json.(get_float (member "ts" e) >= 0.0))
    events;
  (* sorted by timestamp *)
  let ts = List.map (fun e -> Json.(get_float (member "ts" e))) events in
  check "sorted by ts" true (List.sort compare ts = ts);
  let phs =
    List.sort compare
      (List.map (fun e -> Json.(get_string (member "ph" e))) events)
  in
  Alcotest.(check (list string)) "phases" [ "C"; "X"; "X"; "i" ] phs;
  let mark =
    List.find (fun e -> Json.(get_string (member "name" e)) = "mark") events
  in
  check "an integral float arg stays a float" true
    (Json.(member "f2" (member "args" mark)) = Json.Float 2.0)

let test_span_nesting () =
  T.start ();
  ignore
    (T.span "outer" (fun () ->
         ignore (T.span "inner" (fun () -> Unix.sleepf 0.002));
         Unix.sleepf 0.001));
  T.stop ();
  let events = Json.(get_list (member "traceEvents" (of_string (T.export ())))) in
  let find name =
    List.find
      (fun e -> Json.(get_string (member "name" e)) = name)
      events
  in
  let bounds name =
    let e = find name in
    let ts = Json.(get_float (member "ts" e)) in
    (ts, ts +. Json.(get_float (member "dur" e)))
  in
  let o0, o1 = bounds "outer" and i0, i1 = bounds "inner" in
  check "inner starts after outer" true (o0 <= i0);
  check "inner ends before outer" true (i1 <= o1);
  check "inner has duration" true (i1 -. i0 >= 1000.0)

let test_traced_qr_run () =
  (* A traced table3-sized planning run: the simulator emits one kernel
     span per launch plus the device-clock counter track. *)
  T.start ();
  let r = R.qr P.DD Gpusim.Device.v100 ~n:1024 ~tile:128 in
  T.stop ();
  let events = Json.(get_list (member "traceEvents" (of_string (T.export ())))) in
  let kernels =
    List.filter
      (fun e ->
        match Json.member "cat" e with Json.Str "kernel" -> true | _ -> false)
      events
  in
  checki "one kernel span per launch" r.Harness.Report.launches
    (List.length kernels);
  List.iter
    (fun e ->
      Alcotest.(check string) "kernel spans are complete events" "X"
        Json.(get_string (member "ph" e));
      let args = Json.member "args" e in
      check "device ms recorded" true
        Json.(get_float (member "device_ms" args) > 0.0);
      check "block count recorded" true
        Json.(get_int (member "blocks" args) > 0))
    kernels;
  let stages =
    List.sort_uniq compare
      (List.map (fun e -> Json.(get_string (member "name" e))) kernels)
  in
  check "every QR stage traced" true
    (List.for_all (fun s -> List.mem s stages) Lsq_core.Stage.qr_stages);
  check "device clock track present" true
    (List.exists
       (fun e -> Json.(get_string (member "ph" e)) = "C")
       events)

(* ---- metrics ---- *)

let test_metrics_basic () =
  let reg = M.create () in
  let c = M.counter reg "c" in
  M.Counter.incr c;
  M.Counter.incr ~by:4 c;
  checki "counter" 5 (M.Counter.value c);
  let g = M.gauge reg "g" in
  M.Gauge.set g 2.5;
  check "gauge" true (M.Gauge.value g = 2.5);
  let h = M.histogram ~buckets:[| 1.0; 10.0 |] reg "h" in
  M.Histogram.observe h 0.5;
  M.Histogram.observe h 5.0;
  M.Histogram.observe h 50.0;
  checki "histogram count" 3 (M.Histogram.count h);
  check "histogram sum" true (M.Histogram.sum h = 55.5);
  Alcotest.(check (array int)) "bucketed" [| 1; 1; 1 |] (M.Histogram.bucket_counts h);
  (* get-or-create returns the same metric; kind mismatches are refused *)
  M.Counter.incr (M.counter reg "c");
  checki "same handle" 6 (M.Counter.value c);
  (match M.gauge reg "c" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch accepted");
  (* reset zeroes in place; the cached handles stay valid *)
  M.reset reg;
  checki "counter reset" 0 (M.Counter.value c);
  checki "histogram reset" 0 (M.Histogram.count h);
  M.Counter.incr c;
  checki "handle survives reset" 1 (M.Counter.value c)

let test_metrics_concurrent_exact () =
  (* Hammer one counter and one histogram from a parallel_for across the
     pool: totals must be exact, not approximately right. *)
  let reg = M.create () in
  let c = M.counter reg "hammer.count" in
  let h = M.histogram ~buckets:[| 100.0; 1000.0 |] reg "hammer.hist" in
  let n = 21_000 in
  Pool.parallel_for (Pool.get_default ()) 0 n (fun i ->
      M.Counter.incr c;
      M.Histogram.observe h (float_of_int (i mod 7)));
  checki "counter exact" n (M.Counter.value c);
  checki "histogram count exact" n (M.Histogram.count h);
  (* sum of (i mod 7) over 0..n-1 with n a multiple of 7: n/7 * 21 *)
  check "histogram sum exact" true
    (M.Histogram.sum h = float_of_int (n / 7 * 21));
  checki "all in the first bucket" n (M.Histogram.bucket_counts h).(0)

let test_histogram_quantiles () =
  (* Uniform 1..100 on unit buckets: the interpolating estimator
     recovers every percentile exactly at the bucket edges. *)
  let reg = M.create () in
  let bounds = Array.init 100 (fun i -> float_of_int (i + 1)) in
  let h = M.histogram ~buckets:bounds reg "q" in
  for v = 1 to 100 do
    M.Histogram.observe h (float_of_int v)
  done;
  check "p50" true (M.Histogram.quantile h 0.5 = 50.0);
  check "p95" true (M.Histogram.quantile h 0.95 = 95.0);
  check "p99" true (M.Histogram.quantile h 0.99 = 99.0);
  check "p100" true (M.Histogram.quantile h 1.0 = 100.0);
  (* The snapshot carries the same estimates. *)
  (match List.assoc_opt "q" (M.snapshot reg) with
  | Some (M.Histogram { p50; p95; p99; _ }) ->
    check "snapshot p50" true (p50 = 50.0);
    check "snapshot p95" true (p95 = 95.0);
    check "snapshot p99" true (p99 = 99.0)
  | _ -> Alcotest.fail "histogram missing from snapshot");
  (* Edge cases: an empty histogram estimates 0; ranks landing in the
     unbounded overflow bucket clamp to the largest finite bound. *)
  let empty = M.histogram ~buckets:[| 1.0; 10.0 |] reg "q.empty" in
  check "empty" true (M.Histogram.quantile empty 0.5 = 0.0);
  let over = M.histogram ~buckets:[| 1.0; 10.0 |] reg "q.over" in
  M.Histogram.observe over 1e9;
  check "overflow clamps" true (M.Histogram.quantile over 0.99 = 10.0)

let test_quantiles_concurrent_exact () =
  (* Bucket counts are atomics, so quantiles are exact — not
     approximately right — under a parallel_for hammering the same
     histogram. *)
  let reg = M.create () in
  let bounds = Array.init 100 (fun i -> float_of_int (i + 1)) in
  let h = M.histogram ~buckets:bounds reg "q.par" in
  let n = 10_000 in
  Pool.parallel_for (Pool.get_default ()) 0 n (fun i ->
      M.Histogram.observe h (float_of_int ((i mod 100) + 1)));
  checki "count exact" n (M.Histogram.count h);
  check "p50 exact" true (M.Histogram.quantile h 0.5 = 50.0);
  check "p95 exact" true (M.Histogram.quantile h 0.95 = 95.0);
  check "p99 exact" true (M.Histogram.quantile h 0.99 = 99.0)

let test_once_concurrent_first_use () =
  (* [Metrics.once] must survive what breaks an OCaml [lazy]: many
     domains racing to resolve the same handle on first use.  A raced
     lazy raises [Undefined] in the losers; [once] at worst resolves
     twice against the idempotent registry and every caller increments
     the same counter. *)
  let reg = M.create () in
  let handle = M.once (fun () -> M.counter reg "once.raced") in
  let domains =
    Array.init 6 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 100 do
              M.Counter.incr (handle ())
            done))
  in
  Array.iter Domain.join domains;
  checki "every increment landed" 600 (M.Counter.value (handle ()))

let test_snapshot_roundtrip () =
  let reg = M.create () in
  M.Counter.incr ~by:9 (M.counter reg "a.count");
  M.Gauge.set (M.gauge reg "b.gauge") (-1.75);
  let h = M.histogram reg "c.hist" in
  M.Histogram.observe h 0.005;
  M.Histogram.observe h 42.0;
  M.Histogram.observe h 1e9;
  let snap = M.snapshot reg in
  checki "three metrics" 3 (List.length snap);
  check "sorted by name" true
    (List.map fst snap = List.sort compare (List.map fst snap));
  let back =
    M.of_json (Json.of_string (Json.to_string (M.to_json snap)))
  in
  check "snapshot round-trips" true (back = snap)

(* The quantiles of an empty distribution are undefined: the codec must
   omit the keys (so consumers can tell "no data" from "zero latency")
   and still round-trip by recomputing them from the buckets. *)
let test_empty_histogram_omits_quantiles () =
  let reg = M.create () in
  ignore (M.histogram reg "empty.hist");
  M.Histogram.observe (M.histogram reg "full.hist") 1.0;
  let snap = M.snapshot reg in
  let doc = M.to_json snap in
  let metric name =
    List.find
      (fun j -> Json.(get_string (member "name" j)) = name)
      (Json.get_list doc)
  in
  check "empty histogram omits p50" true
    (Json.member "p50" (metric "empty.hist") = Json.Null);
  check "empty histogram omits p95" true
    (Json.member "p95" (metric "empty.hist") = Json.Null);
  check "empty histogram omits p99" true
    (Json.member "p99" (metric "empty.hist") = Json.Null);
  check "populated histogram keeps p50" true
    (Json.member "p50" (metric "full.hist") <> Json.Null);
  let back = M.of_json (Json.of_string (Json.to_string doc)) in
  check "omission round-trips" true (back = snap)

let test_sim_metrics_counted () =
  (* The simulator's always-on metrics: launches land in the default
     registry whether or not the tracer runs. *)
  M.reset (M.default ());
  let r = R.qr P.DD Gpusim.Device.v100 ~n:256 ~tile:64 in
  let snap = M.snapshot (M.default ()) in
  (match List.assoc_opt "sim.launches" snap with
  | Some (M.Counter n) -> checki "launches counted" r.Harness.Report.launches n
  | _ -> Alcotest.fail "sim.launches missing");
  match List.assoc_opt "sim.kernel_ms" snap with
  | Some (M.Histogram { count; _ }) ->
    checki "every kernel observed" r.Harness.Report.launches count
  | _ -> Alcotest.fail "sim.kernel_ms missing"

(* ---- roofline ---- *)

let test_roofline_classification () =
  (* The acceptance shape on the default V100: double double stages are
     memory-bound (intensity ~1.3 flops/byte, far below the 8.8 ridge),
     octo double stages compute-bound (the Table 1 multipliers raise the
     arithmetic intensity ~12x). *)
  let v100 = Gpusim.Device.v100 in
  let qr prec =
    R.roofline (R.request ~kind:R.Qr ~prec ~device:v100 ~dim:1024 ~tile:128 ())
  in
  let dd = qr P.DD and od = qr P.OD in
  checki "one row per stage" (List.length Lsq_core.Stage.qr_stages)
    (List.length dd);
  check "dd aggregate memory-bound" true
    ((Obs.Roofline.total dd).Obs.Roofline.bound = Obs.Roofline.Memory);
  check "od aggregate compute-bound" true
    ((Obs.Roofline.total od).Obs.Roofline.bound = Obs.Roofline.Compute);
  let dominant stages =
    List.fold_left
      (fun (a : Obs.Roofline.stage) (b : Obs.Roofline.stage) ->
        if b.Obs.Roofline.ms > a.Obs.Roofline.ms then b else a)
      (List.hd stages) (List.tl stages)
  in
  check "dd dominant stage memory-bound" true
    ((dominant dd).Obs.Roofline.bound = Obs.Roofline.Memory);
  check "od dominant stage compute-bound" true
    ((dominant od).Obs.Roofline.bound = Obs.Roofline.Compute);
  check "od intensity above dd" true
    ((Obs.Roofline.total od).Obs.Roofline.intensity
    > 4.0 *. (Obs.Roofline.total dd).Obs.Roofline.intensity);
  List.iter
    (fun (s : Obs.Roofline.stage) ->
      check "pct_peak sane" true
        (s.Obs.Roofline.pct_peak >= 0.0 && s.Obs.Roofline.pct_peak <= 100.0);
      check "flops positive" true (s.Obs.Roofline.flops > 0.0);
      check "bytes positive" true (s.Obs.Roofline.bytes > 0.0))
    (dd @ od)

let test_microkernel_tiles () =
  (* The flat kernels' register tiles, classified from their per-tile
     op/byte counts alone: the same dd-memory / od-compute shape as the
     full stages, and the KC blocking factor shrinking as the limb
     count grows (the B panel budget is fixed). *)
  let v100 = Gpusim.Device.v100 in
  let classify name (t : Mdlinalg.Flat_kernels.tile) =
    Obs.Roofline.microkernel ~stage:name ~flops:t.Mdlinalg.Flat_kernels.flops
      ~bytes:t.Mdlinalg.Flat_kernels.bytes
      ~peak_gflops:v100.Gpusim.Device.dp_peak_gflops
      ~dram_gb_s:v100.Gpusim.Device.dram_gb_s
  in
  let module Fdd = Mdlinalg.Flat_kernels.Make (Mdlinalg.Scalar.Dd) in
  let module Fod = Mdlinalg.Flat_kernels.Make (Mdlinalg.Scalar.Od) in
  let ddt = Fdd.tile and odt = Fod.tile in
  checki "dd kc" 128 ddt.Mdlinalg.Flat_kernels.kc;
  checki "od kc" 32 odt.Mdlinalg.Flat_kernels.kc;
  checki "nr lanes" 8 ddt.Mdlinalg.Flat_kernels.nr;
  let dd = classify "dd matmul tile" ddt in
  let od = classify "od matmul tile" odt in
  let ridge =
    Obs.Roofline.ridge ~peak_gflops:v100.Gpusim.Device.dp_peak_gflops
      ~dram_gb_s:v100.Gpusim.Device.dram_gb_s
  in
  check "dd tile memory-bound" true
    (dd.Obs.Roofline.bound = Obs.Roofline.Memory);
  check "od tile compute-bound" true
    (od.Obs.Roofline.bound = Obs.Roofline.Compute);
  check "dd tile below ridge" true (dd.Obs.Roofline.intensity < ridge);
  check "od tile above ridge" true (od.Obs.Roofline.intensity > ridge)

let test_roofline_json_roundtrip () =
  let v100 = Gpusim.Device.v100 in
  let stages =
    R.roofline
      (R.request ~kind:R.Backsub ~prec:P.QD ~device:v100 ~dim:2560 ~tile:32 ())
  in
  let ridge =
    Obs.Roofline.ridge ~peak_gflops:v100.Gpusim.Device.dp_peak_gflops
      ~dram_gb_s:v100.Gpusim.Device.dram_gb_s
  in
  let doc =
    Obs.Roofline.to_json ~label:"bs 4d dim=2560" ~device:"v100" ~ridge
      stages
  in
  let label, device, ridge', stages' =
    Obs.Roofline.of_json (Json.of_string (Json.to_string doc))
  in
  Alcotest.(check string) "label" "bs 4d dim=2560" label;
  Alcotest.(check string) "device" "v100" device;
  check "ridge" true (ridge' = ridge);
  check "stages round-trip" true (stages' = stages)

(* ---- structured log ---- *)

module L = Obs.Log
module H = Obs.Health
module Tel = Obs.Telemetry

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_log_gate_and_buffer () =
  L.set_level L.Info;
  L.set_sink L.Buffered;
  L.debug "below the gate";
  L.info "first" ~fields:[ ("k", L.Int 1) ];
  L.warn "second"
    ~fields:[ ("who", L.Str "x"); ("f", L.Float 1.5); ("b", L.Bool true) ];
  checki "debug filtered, two buffered" 2 (L.buffered ());
  let records = L.drain () in
  checki "drained both" 2 (List.length records);
  checki "drain empties the buffers" 0 (L.buffered ());
  (match records with
  | [ a; b ] ->
    check "timestamp sorted" true (a.L.ts_ms <= b.L.ts_ms);
    Alcotest.(check string) "first event" "first" a.L.event;
    check "warn level" true (b.L.level = L.Warn);
    check "fields survive" true
      (b.L.fields
      = [ ("who", L.Str "x"); ("f", L.Float 1.5); ("b", L.Bool true) ])
  | _ -> Alcotest.fail "expected exactly two records");
  L.set_sink L.Off;
  L.info "while off";
  checki "off records nothing" 0 (L.buffered ())

let test_log_concurrent_drain () =
  L.set_level L.Debug;
  L.set_sink L.Buffered;
  let domains =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to 100 do
              L.info (Printf.sprintf "d%d-%d" d i)
            done))
  in
  Array.iter Domain.join domains;
  let records = L.drain () in
  L.set_sink L.Off;
  L.set_level L.Info;
  checki "every record from every domain drained" 400 (List.length records);
  checki "no drops below the cap" 0 (L.dropped ())

let test_log_json_roundtrip () =
  L.set_level L.Debug;
  L.set_sink L.Buffered;
  L.warn "evt"
    ~fields:
      [
        ("s", L.Str "a\"b\\c\nd");
        ("i", L.Int (-3));
        ("f", L.Float 0.25);
        ("f2", L.Float 2.0);
        ("ok", L.Bool false);
      ];
  let r = List.hd (L.drain ()) in
  L.set_sink L.Off;
  L.set_level L.Info;
  match Tel.line_of_string (L.to_json_line r) with
  | Tel.Log_line r' -> check "log line round-trips" true (r' = r)
  | Tel.Snapshot _ -> Alcotest.fail "log line parsed as a snapshot"

(* ---- health / SLO ---- *)

let test_health_slo_and_budget () =
  H.reset ();
  H.set_slo ~cls:"v100" ~p95_ms:10.0;
  H.set_error_budget ~cls:"v100" 0.5;
  for _ = 1 to 19 do
    H.observe ~cls:"v100" ~ok:true ~latency_ms:5.0
  done;
  H.observe ~cls:"v100" ~ok:false ~latency_ms:5.0;
  (match H.status () with
  | [ s ] ->
    check "p95 of the window" true (s.H.p95_ms = Some 5.0);
    check "within the SLO" true s.H.slo_ok;
    checki "failures counted" 1 s.H.failures;
    check "budget used 10%" true (Float.abs (s.H.budget_used -. 0.1) < 1e-9);
    check "budget holds" true s.H.budget_ok
  | ss -> Alcotest.failf "expected one class, got %d" (List.length ss));
  (* Two slow outcomes push the window's p95 past the target; a tight
     budget is exhausted by the same failure count. *)
  H.observe ~cls:"v100" ~ok:true ~latency_ms:100.0;
  H.observe ~cls:"v100" ~ok:true ~latency_ms:100.0;
  H.set_error_budget ~cls:"v100" 0.01;
  (match H.status () with
  | [ s ] ->
    check "SLO breached" false s.H.slo_ok;
    check "budget exhausted" false s.H.budget_ok
  | _ -> Alcotest.fail "expected one class");
  H.reset ()

(* A budget's share used is finite (the budget is positive) and reads
   the same after the telemetry line round trip. *)
let test_budget_roundtrip () =
  H.reset ();
  (match H.set_error_budget ~cls:"c" 0.0 with
  | () -> Alcotest.fail "a zero budget was accepted"
  | exception Invalid_argument _ -> ());
  H.set_error_budget ~cls:"c" 1e-9;
  H.observe ~cls:"c" ~ok:true ~latency_ms:1.0;
  H.observe ~cls:"c" ~ok:false ~latency_ms:1.0;
  let health = H.status () in
  H.reset ();
  (match health with
  | [ st ] ->
    check "budget used is finite" true (Float.is_finite st.H.budget_used);
    check "tiny budget exhausted by one failure" false st.H.budget_ok
  | _ -> Alcotest.fail "expected one class");
  let line =
    Tel.line_to_string
      (Tel.Snapshot { seq = 0; ts_ms = 0.0; metrics = []; health; drift = [] })
  in
  match Tel.line_of_string line with
  | Tel.Snapshot s -> check "budget status survives" true (s.Tel.health = health)
  | Tel.Log_line _ -> Alcotest.fail "snapshot parsed as a log line"

let test_health_drift () =
  H.reset ();
  L.set_level L.Info;
  L.set_sink L.Buffered;
  (* Calibrated model: measured equals predicted, detector quiet. *)
  H.observe_model ~stage:"s" ~predicted_ms:2.0 ~measured_ms:2.0;
  (match H.drift () with
  | [ d ] -> check "quiet when calibrated" false d.H.drifted
  | _ -> Alcotest.fail "expected one stage");
  checki "no warning raised" 0 (List.length (L.drain ()));
  (* Miscalibrated: cumulative measured is 2x predicted — flagged, and
     a structured model_drift warning rides the log. *)
  H.observe_model ~stage:"s" ~predicted_ms:2.0 ~measured_ms:6.0;
  (match H.drift () with
  | [ d ] ->
    check "drift flagged" true d.H.drifted;
    check "ratio is 2x" true (Float.abs (d.H.ratio -. 2.0) < 1e-9);
    checki "both samples counted" 2 d.H.samples
  | _ -> Alcotest.fail "expected one stage");
  let logs = L.drain () in
  check "model_drift warning logged" true
    (List.exists (fun (r : L.record) -> r.L.event = "model_drift") logs);
  (* Still inside the same excursion: no duplicate warning. *)
  H.observe_model ~stage:"s" ~predicted_ms:1.0 ~measured_ms:3.0;
  check "one warning per excursion" true
    (not
       (List.exists
          (fun (r : L.record) -> r.L.event = "model_drift")
          (L.drain ())));
  L.set_sink L.Off;
  H.reset ()

(* ---- hardened telemetry-line parser ---- *)

let test_telemetry_parser_hardened () =
  let raises_json_error s =
    match Tel.line_of_string s with
    | _ -> false
    | exception Json.Error _ -> true
    | exception _ -> false
  in
  (* A torn tail-follow read in every flavor: truncated JSON, valid JSON
     missing fields, bad level names, wrong field types — all must be
     the one skip-and-count exception, never a crash. *)
  check "truncated JSON" true (raises_json_error "{\"type\":\"log\",\"ts");
  check "missing fields" true (raises_json_error "{\"type\":\"log\"}");
  check "unknown level" true
    (raises_json_error
       "{\"type\":\"log\",\"ts_ms\":1,\"level\":\"loud\",\"domain\":0,\"event\":\"e\",\"fields\":{}}");
  check "wrong type tag" true (raises_json_error "{\"type\":\"nope\"}");
  check "non-object" true (raises_json_error "42");
  (* And an intact line still parses. *)
  match
    Tel.line_of_string
      "{\"type\":\"log\",\"ts_ms\":1.5,\"level\":\"warn\",\"domain\":0,\"event\":\"e\",\"fields\":{\"k\":\"v\"}}"
  with
  | Tel.Log_line r -> Alcotest.(check string) "intact line parses" "e" r.L.event
  | Tel.Snapshot _ -> Alcotest.fail "parsed as a snapshot"

(* The trace, log and telemetry writers never raise: a non-finite
   float is written as 0 and the line still parses. *)
let test_non_finite_lines_parse () =
  T.start ();
  T.counter "nan track" Float.nan;
  T.instant ~args:[ ("inf", T.Float Float.infinity) ] "mark";
  T.stop ();
  let events =
    Json.get_list (Json.member "traceEvents" (Json.of_string (T.export ())))
  in
  checki "both events exported" 2 (List.length events);
  let r =
    {
      L.ts_ms = 1.0;
      level = L.Warn;
      domain = 0;
      event = "e";
      fields = [ ("inf", L.Float Float.infinity); ("i", L.Int 1) ];
    }
  in
  (match Tel.line_of_string (L.to_json_line r) with
  | Tel.Log_line r' ->
    check "infinite field written as 0" true
      (r'.L.fields = [ ("inf", L.Float 0.0); ("i", L.Int 1) ])
  | Tel.Snapshot _ -> Alcotest.fail "log line parsed as a snapshot");
  let reg = M.create () in
  M.Gauge.set (M.gauge reg "nan.gauge") Float.nan;
  let line =
    Tel.line_to_string
      (Tel.Snapshot
         { seq = 0; ts_ms = 0.0; metrics = M.snapshot reg; health = [];
           drift = [] })
  in
  match Tel.line_of_string line with
  | Tel.Snapshot s ->
    check "nan gauge written as 0" true
      (s.Tel.metrics = [ ("nan.gauge", M.Gauge 0.0) ])
  | Tel.Log_line _ -> Alcotest.fail "snapshot parsed as a log line"

(* ---- telemetry exporter ---- *)

let test_prometheus_exposition () =
  let reg = M.create () in
  M.Counter.incr ~by:7 (M.counter reg "fleet.submitted");
  M.Gauge.set (M.gauge reg "fleet.util.v100#0") 0.25;
  let h = M.histogram ~buckets:M.latency_buckets reg "fleet.latency_ms.v100" in
  M.Histogram.observe h 1.0;
  M.Histogram.observe h 100.0;
  let text = Tel.prometheus_of_snapshot (M.snapshot reg) in
  check "counter type declared" true
    (contains text "# TYPE mdls_fleet_submitted_total counter");
  check "counter sample" true (contains text "mdls_fleet_submitted_total 7");
  check "instance label from the third segment" true
    (contains text "mdls_fleet_util{instance=\"v100#0\"} 0.25");
  check "histogram type declared" true
    (contains text "# TYPE mdls_fleet_latency_ms histogram");
  check "+Inf bucket carries the count" true
    (contains text "mdls_fleet_latency_ms_bucket{instance=\"v100\",le=\"+Inf\"} 2");
  check "histogram count series" true
    (contains text "mdls_fleet_latency_ms_count{instance=\"v100\"} 2")

let test_telemetry_exporter () =
  let reg = M.create () in
  M.Counter.incr ~by:3 (M.counter reg "fleet.submitted");
  M.Gauge.set (M.gauge reg "fleet.util.v100#0") 0.5;
  let path = Filename.temp_file "tel_test" ".jsonl" in
  let t = Tel.start ~interval_ms:10.0 ~registry:reg (Tel.File path) in
  Unix.sleepf 0.05;
  M.Counter.incr ~by:2 (M.counter reg "fleet.submitted");
  Tel.stop t;
  check "at least two ticks" true (Tel.ticks t >= 2);
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (Tel.line_of_string line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  let snapshots =
    List.filter_map
      (function Tel.Snapshot s -> Some s | Tel.Log_line _ -> None)
      (go [])
  in
  Sys.remove path;
  check "one snapshot per tick" true (List.length snapshots = Tel.ticks t);
  let submitted (s : Tel.snapshot) =
    match List.assoc_opt "fleet.submitted" s.Tel.metrics with
    | Some (M.Counter c) -> c
    | _ -> Alcotest.fail "snapshot lost the counter"
  in
  let first = List.hd snapshots in
  let last = List.nth snapshots (List.length snapshots - 1) in
  checki "sequence starts at zero" 0 first.Tel.seq;
  checki "immediate first tick sees the initial value" 3 (submitted first);
  checki "final tick sees the update" 5 (submitted last);
  check "counter monotone across snapshots" true
    (fst
       (List.fold_left
          (fun (ok, prev) s -> (ok && submitted s >= prev, submitted s))
          (true, 0) snapshots));
  check "gauge survives the stream" true
    (List.assoc_opt "fleet.util.v100#0" last.Tel.metrics
    = Some (M.Gauge 0.5))

(* ---- codec round trips ---- *)

module G = QCheck.Gen

(* Finite floats, integral ones included: an integral float must come
   back a [Float], not an [Int]. *)
let finite_float =
  G.oneof
    [
      G.map float_of_int G.small_signed_int;
      G.float_range (-1e6) 1e6;
      G.map (fun f -> if Float.is_finite f then f else 0.0) G.float;
    ]

(* Strings over every byte, control characters included. *)
let any_string = G.string_size ~gen:G.char (G.int_bound 12)
let small_list g = G.list_size (G.int_bound 4) g

let metric =
  let open G in
  let counter = map (fun v -> M.Counter v) nat in
  let gauge = map (fun v -> M.Gauge v) finite_float in
  let histogram =
    small_list finite_float >>= fun bounds ->
    let bounds = Array.of_list bounds in
    array_repeat (Array.length bounds + 1) (oneof [ return 0; small_nat ])
    >>= fun counts ->
    let count = Array.fold_left ( + ) 0 counts in
    triple finite_float finite_float finite_float >>= fun (p50, p95, p99) ->
    map
      (fun sum ->
        (* A zero-count histogram's quantiles are what the snapshot (and
           the decoder) estimate for it. *)
        let q p = if count = 0 then M.quantile ~bounds ~counts p else p in
        M.Histogram
          { bounds; counts; count; sum; p50 = q p50; p95 = q p95; p99 = q p99 })
      finite_float
  in
  pair any_string (oneof [ counter; gauge; histogram ])

let rec field depth =
  let open G in
  let leaves =
    [
      return L.Null;
      map (fun b -> L.Bool b) bool;
      map (fun i -> L.Int i) int;
      map (fun f -> L.Float f) finite_float;
      map (fun s -> L.Str s) any_string;
    ]
  in
  if depth = 0 then oneof leaves
  else
    oneof
      (leaves
      @ [
          map (fun vs -> L.Arr vs) (small_list (field (depth - 1)));
          map (fun kvs -> L.Obj kvs)
            (small_list (pair any_string (field (depth - 1))));
        ])

let log_record =
  let open G in
  map
    (fun (ts_ms, level, domain, (event, fields)) ->
      { L.ts_ms; level; domain; event; fields })
    (quad finite_float
       (oneofl [ L.Debug; L.Info; L.Warn; L.Error ])
       small_nat
       (pair any_string (small_list (pair any_string (field 2)))))

let class_status =
  let open G in
  let opt = opt finite_float in
  map
    (fun ((cls, window, p95_ms, slo_ms), (slo_ok, total, failures),
          (budget, budget_used, budget_ok)) ->
      { H.cls; window; p95_ms; slo_ms; slo_ok; total; failures; budget;
        budget_used; budget_ok })
    (triple
       (quad any_string small_nat opt opt)
       (triple bool small_nat small_nat)
       (triple opt finite_float bool))

let stage_drift =
  let open G in
  map
    (fun ((stage, predicted_ms, measured_ms), (ratio, samples, drifted)) ->
      { H.stage; predicted_ms; measured_ms; ratio; samples; drifted })
    (pair
       (triple any_string finite_float finite_float)
       (triple finite_float small_nat bool))

let snapshot_line =
  let open G in
  map
    (fun ((seq, ts_ms), metrics, health, drift) ->
      Tel.Snapshot { seq; ts_ms; metrics; health; drift })
    (quad (pair small_nat finite_float) (small_list metric)
       (small_list class_status) (small_list stage_drift))

let roundtrip name gen ok =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name (QCheck.make gen) ok)

let prop_metrics =
  roundtrip "metric snapshots" (small_list metric) (fun snap ->
      M.of_json (Json.of_string (Json.to_string (M.to_json snap))) = snap)

let prop_log_records =
  roundtrip "log records" log_record (fun r ->
      L.of_json (L.to_json r) = r
      && Tel.line_of_string (L.to_json_line r) = Tel.Log_line r)

let prop_telemetry_lines =
  roundtrip "health and drift snapshot lines" snapshot_line (fun l ->
      Tel.line_of_string (Tel.line_to_string l) = l)

let () =
  Alcotest.run "obs"
    [
      ( "tracer",
        [
          Alcotest.test_case "disabled is transparent" `Quick
            test_disabled_transparent;
          Alcotest.test_case "recording" `Quick test_recording;
          Alcotest.test_case "export schema" `Quick test_export_schema;
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "traced qr run" `Quick test_traced_qr_run;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "basics" `Quick test_metrics_basic;
          Alcotest.test_case "concurrent exactness" `Quick
            test_metrics_concurrent_exact;
          Alcotest.test_case "histogram quantiles" `Quick
            test_histogram_quantiles;
          Alcotest.test_case "quantiles exact under parallel_for" `Quick
            test_quantiles_concurrent_exact;
          Alcotest.test_case "once under concurrent first use" `Quick
            test_once_concurrent_first_use;
          Alcotest.test_case "snapshot json round-trip" `Quick
            test_snapshot_roundtrip;
          Alcotest.test_case "empty histogram omits quantiles" `Quick
            test_empty_histogram_omits_quantiles;
          Alcotest.test_case "simulator counters" `Quick
            test_sim_metrics_counted;
        ] );
      ( "log",
        [
          Alcotest.test_case "level gate and buffering" `Quick
            test_log_gate_and_buffer;
          Alcotest.test_case "concurrent push, single drain" `Quick
            test_log_concurrent_drain;
          Alcotest.test_case "json line round-trip" `Quick
            test_log_json_roundtrip;
        ] );
      ( "health",
        [
          Alcotest.test_case "slo and error budget" `Quick
            test_health_slo_and_budget;
          Alcotest.test_case "budget survives the telemetry line" `Quick
            test_budget_roundtrip;
          Alcotest.test_case "cost-model drift" `Quick test_health_drift;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "prometheus exposition" `Quick
            test_prometheus_exposition;
          Alcotest.test_case "exporter stream" `Quick test_telemetry_exporter;
          Alcotest.test_case "parser never raises past Json.Error" `Quick
            test_telemetry_parser_hardened;
          Alcotest.test_case "non-finite floats still parse" `Quick
            test_non_finite_lines_parse;
        ] );
      ("codecs", [ prop_metrics; prop_log_records; prop_telemetry_lines ]);
      ( "roofline",
        [
          Alcotest.test_case "dd memory, od compute" `Quick
            test_roofline_classification;
          Alcotest.test_case "microkernel tiles" `Quick test_microkernel_tiles;
          Alcotest.test_case "json round-trip" `Quick
            test_roofline_json_roundtrip;
        ] );
    ]
