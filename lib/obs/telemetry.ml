(* The continuous-telemetry exporter: a ticker thread that periodically
   snapshots the metrics registry, folds in the health/SLO plane and any
   buffered log records, and writes the result as

   - JSON lines (one ["snapshot"] object per tick, log records
     interleaved as ["log"] lines) — the stream `lsq_cli monitor` tails;
   - Prometheus text exposition (rewritten whole each tick when the
     target is a file, appended when it is a channel).

   Timing: the ticker sleeps in short slices so [stop] takes effect
   within ~50 ms rather than a full interval.  The first tick fires
   immediately at [start] and a final tick fires inside [stop], so even
   a workload shorter than one interval yields at least two snapshots
   with a defined end state.

   The ticker is a system thread of the starting domain, not a domain
   of its own: it sleeps nearly all the time, and a sleeping domain
   still takes part in every stop-the-world minor collection of the
   process.  On a loaded machine each collection then waits for that
   domain to be scheduled, which slowed a fleet sweep on two worker
   domains more than the ticks themselves did.  The starting domain
   runs a tick whenever it blocks or yields. *)

type target = File of string | Chan of out_channel

type sink = {
  oc : out_channel;
  owned : bool;  (* opened from a [File] target: close on stop *)
  path : string option;  (* [File] target: prometheus rewrites in place *)
}

type t = {
  interval_ms : float;
  registry : Metrics.t;
  jsonl : sink;
  prom : sink option;
  stop_flag : bool Atomic.t;
  ticks : int Atomic.t;
  seq : int ref;  (* ticker thread only *)
  mutable ticker : Thread.t option;
}

let open_target = function
  | File path -> { oc = open_out path; owned = true; path = Some path }
  | Chan oc -> { oc; owned = false; path = None }

let close_sink s =
  flush s.oc;
  if s.owned then close_out s.oc

(* ---- JSON lines ----

   The codec `lsq_cli monitor` tails a telemetry file through. *)

type snapshot = {
  seq : int;
  ts_ms : float;
  metrics : Metrics.snapshot;
  health : Health.class_status list;
  drift : Health.stage_drift list;
}

type line = Snapshot of snapshot | Log_line of Log.record

let opt_float k = function None -> [] | Some v -> [ (k, Json.Float v) ]

let class_status_to_json (s : Health.class_status) =
  Json.Obj
    ([ ("cls", Json.Str s.cls); ("window", Json.Int s.window) ]
    @ opt_float "p95_ms" s.p95_ms
    @ opt_float "slo_ms" s.slo_ms
    @ [
        ("slo_ok", Json.Bool s.slo_ok);
        ("total", Json.Int s.total);
        ("failures", Json.Int s.failures);
      ]
    @ opt_float "budget" s.budget
    @ [
        ("budget_used", Json.Float s.budget_used);
        ("budget_ok", Json.Bool s.budget_ok);
      ])

let class_status_of_json j : Health.class_status =
  {
    cls = Json.(get_string (member "cls" j));
    window = Json.(get_int (member "window" j));
    p95_ms = Json.(to_option get_float (member "p95_ms" j));
    slo_ms = Json.(to_option get_float (member "slo_ms" j));
    slo_ok = Json.(get_bool (member "slo_ok" j));
    total = Json.(get_int (member "total" j));
    failures = Json.(get_int (member "failures" j));
    budget = Json.(to_option get_float (member "budget" j));
    budget_used = Json.(get_float (member "budget_used" j));
    budget_ok = Json.(get_bool (member "budget_ok" j));
  }

let stage_drift_to_json (d : Health.stage_drift) =
  Json.Obj
    [
      ("stage", Json.Str d.stage);
      ("predicted_ms", Json.Float d.predicted_ms);
      ("measured_ms", Json.Float d.measured_ms);
      ("ratio", Json.Float d.ratio);
      ("samples", Json.Int d.samples);
      ("drifted", Json.Bool d.drifted);
    ]

let stage_drift_of_json j : Health.stage_drift =
  {
    stage = Json.(get_string (member "stage" j));
    predicted_ms = Json.(get_float (member "predicted_ms" j));
    measured_ms = Json.(get_float (member "measured_ms" j));
    ratio = Json.(get_float (member "ratio" j));
    samples = Json.(get_int (member "samples" j));
    drifted = Json.(get_bool (member "drifted" j));
  }

let line_to_json = function
  | Log_line r -> Log.to_json r
  | Snapshot s ->
    Json.Obj
      [
        ("type", Json.Str "snapshot");
        ("seq", Json.Int s.seq);
        ("ts_ms", Json.Float s.ts_ms);
        ("metrics", Metrics.to_json s.metrics);
        ("health", Json.Arr (List.map class_status_to_json s.health));
        ("drift", Json.Arr (List.map stage_drift_to_json s.drift));
      ]

let line_to_string l = Json.to_string (Json.finite (line_to_json l))

let line_of_json j =
  match Json.(get_string (member "type" j)) with
  | "snapshot" ->
    Snapshot
      {
        seq = Json.(get_int (member "seq" j));
        ts_ms = Json.(get_float (member "ts_ms" j));
        metrics = Metrics.of_json (Json.member "metrics" j);
        health =
          List.map class_status_of_json Json.(get_list (member "health" j));
        drift =
          List.map stage_drift_of_json Json.(get_list (member "drift" j));
      }
  | "log" -> Log_line (Log.of_json j)
  | t -> raise (Json.Error (Printf.sprintf "unknown telemetry line type '%s'" t))

(* A tail-follower can race the writer and hand us a torn line; every
   parse failure — bad JSON, a truncated document that parses but lacks
   fields, an unknown level name ([Invalid_argument]) — must surface as
   the one [Json.Error] the caller already counts, never as a crash. *)
let line_of_string line =
  try line_of_json (Json.of_string line) with
  | Json.Error _ as e -> raise e
  | Invalid_argument m | Failure m ->
    raise (Json.Error (Printf.sprintf "malformed telemetry line: %s" m))

(* ---- Prometheus text exposition ---- *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

(* Dotted metric names map onto Prometheus families: a name with three
   or more segments keeps its first two as the family and carries the
   rest as an [instance] label, so per-instance series like
   [fleet.util.v100#0] group under one [mdls_fleet_util] family. *)
let family name =
  match String.split_on_char '.' name with
  | a :: b :: (_ :: _ as rest) -> (a ^ "_" ^ b, Some (String.concat "." rest))
  | _ -> (sanitize name, None)

let prom_label = function
  | None -> ""
  | Some inst ->
    let b = Buffer.create 24 in
    Buffer.add_string b "{instance=\"";
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      inst;
    Buffer.add_string b "\"}";
    Buffer.contents b

let prom_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let prometheus_of_snapshot ?(prefix = "mdls_") (snap : Metrics.snapshot) =
  let b = Buffer.create 4096 in
  let typed = Hashtbl.create 32 in
  let header name kind =
    if not (Hashtbl.mem typed name) then begin
      Hashtbl.replace typed name ();
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  (* Snapshots are name-sorted, so all instances of a family are
     adjacent and one TYPE header per family suffices. *)
  List.iter
    (fun (name, value) ->
      let fam, inst = family name in
      let fam = prefix ^ sanitize fam in
      let label = prom_label inst in
      match value with
      | Metrics.Counter v ->
        let fam = fam ^ "_total" in
        header fam "counter";
        Buffer.add_string b (Printf.sprintf "%s%s %d\n" fam label v)
      | Metrics.Gauge v ->
        header fam "gauge";
        Buffer.add_string b
          (Printf.sprintf "%s%s %s\n" fam label (prom_float v))
      | Metrics.Histogram { bounds; counts; count; sum; _ } ->
        header fam "histogram";
        let cumulative = ref 0 in
        Array.iteri
          (fun i bound ->
            cumulative := !cumulative + counts.(i);
            let le = prom_float bound in
            let labels =
              match inst with
              | None -> Printf.sprintf "{le=\"%s\"}" le
              | Some _ ->
                let base = prom_label inst in
                String.sub base 0 (String.length base - 1)
                ^ Printf.sprintf ",le=\"%s\"}" le
            in
            Buffer.add_string b
              (Printf.sprintf "%s_bucket%s %d\n" fam labels !cumulative))
          bounds;
        let inf_labels =
          match inst with
          | None -> "{le=\"+Inf\"}"
          | Some _ ->
            let base = prom_label inst in
            String.sub base 0 (String.length base - 1) ^ ",le=\"+Inf\"}"
        in
        Buffer.add_string b
          (Printf.sprintf "%s_bucket%s %d\n" fam inf_labels count);
        Buffer.add_string b
          (Printf.sprintf "%s_sum%s %s\n" fam label (prom_float sum));
        Buffer.add_string b (Printf.sprintf "%s_count%s %d\n" fam label count))
    snap;
  Buffer.contents b

(* ---- the ticker ---- *)

let write_prom t exposition =
  match t.prom with
  | None -> ()
  | Some s -> (
    match s.path with
    | Some path ->
      (* Rewrite in place so the file is always one complete scrape. *)
      let oc = open_out path in
      output_string oc exposition;
      close_out oc
    | None ->
      output_string s.oc exposition;
      flush s.oc)

let tick (t : t) =
  let ts_ms = Unix.gettimeofday () *. 1000.0 in
  let metrics = Metrics.snapshot t.registry in
  let health = Health.status () in
  let drift = Health.drift () in
  let write l =
    output_string t.jsonl.oc (line_to_string l);
    output_char t.jsonl.oc '\n'
  in
  (match Log.sink () with
  | Log.Buffered -> List.iter (fun r -> write (Log_line r)) (Log.drain ())
  | _ -> ());
  write (Snapshot { seq = !(t.seq); ts_ms; metrics; health; drift });
  flush t.jsonl.oc;
  incr t.seq;
  write_prom t (prometheus_of_snapshot metrics);
  Atomic.incr t.ticks

let slice_ms = 50.0

let ticker_loop t =
  tick t;
  (* The immediate tick above plus the final tick in [stop] guarantee
     at least two snapshots per run. *)
  let rec wait remaining =
    if Atomic.get t.stop_flag then false
    else if remaining <= 0.0 then true
    else begin
      let s = Float.min slice_ms remaining in
      Unix.sleepf (s /. 1000.0);
      wait (remaining -. s)
    end
  in
  let rec loop () =
    if wait t.interval_ms then begin
      tick t;
      loop ()
    end
  in
  loop ()

let start ?(interval_ms = 1000.0) ?registry ?prom jsonl =
  if not (Float.is_finite interval_ms) || interval_ms <= 0.0 then
    invalid_arg "Telemetry.start: interval_ms must be positive";
  let registry =
    match registry with Some r -> r | None -> Metrics.default ()
  in
  let t =
    {
      interval_ms;
      registry;
      jsonl = open_target jsonl;
      prom = Option.map open_target prom;
      stop_flag = Atomic.make false;
      ticks = Atomic.make 0;
      seq = ref 0;
      ticker = None;
    }
  in
  t.ticker <- Some (Thread.create ticker_loop t);
  t

let ticks t = Atomic.get t.ticks

let stop t =
  match t.ticker with
  | None -> ()
  | Some d ->
    t.ticker <- None;
    Atomic.set t.stop_flag true;
    Thread.join d;
    (* Final tick from the stopping thread: the ticker has exited, so
       the sinks are single-writer again. *)
    tick t;
    close_sink t.jsonl;
    Option.iter close_sink t.prom
