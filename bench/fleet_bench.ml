(* Fleet service smoke: drives the "fleet" sweep — a mixed stream of
   auto-placed double double (memory-bound) and octo double
   (compute-bound) jobs — through the heterogeneous default pool, checks
   the roofline placement (dd admitted to the bandwidth-rich RTX 2080
   class, od to the compute-rich V100 class) and the steal accounting,
   and writes BENCH_fleet.json: throughput, total steals, the placement
   histogram, and per-device-class latency percentiles (p50/p95/p99)
   and maxima over the raw per-job samples.  Part of the @bench-smoke
   regression gate; exits 1 on any mismatch. *)

module P = Multidouble.Precision
module Json = Obs.Json
module Job = Sched.Job
module S = Sched.Engine
module F = Sched.Fleet
module M = Obs.Metrics

let pf = Printf.printf
let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let classes = [ "c2050"; "p100"; "v100"; "rtx2080" ]
let class_of_instance id =
  match String.index_opt id '#' with
  | Some i -> String.sub id 0 i
  | None -> id

(* Nearest-rank quantile of raw samples.  [None] unless the class has
   at least 1/(1-q) of them (2 for p50, 20 for p95, 100 for p99): with
   fewer, the nearest rank is the class maximum, not a tail. *)
let quantile xs q =
  let n = List.length xs in
  if n = 0 || n < int_of_float (Float.round (1.0 /. (1.0 -. q))) then None
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) - 1 in
    Some (List.nth (List.sort Float.compare xs) (max 0 (min (n - 1) rank)))

let maximum = function
  | [] -> None
  | x :: xs -> Some (List.fold_left Float.max x xs)

let smoke () =
  pf "\n%s\nFleet smoke: the 'fleet' sweep over the default device pool\n%s\n"
    (String.make 100 '-') (String.make 100 '-');
  M.reset (M.default ());
  let jobs = Sched.Sweep.jobs "fleet" in
  let t0 = Unix.gettimeofday () in
  let outcomes = F.run F.Config.default jobs in
  let wall_s = Unix.gettimeofday () -. t0 in
  if List.length outcomes <> List.length jobs then
    fail "fleet-smoke: %d outcomes for %d jobs" (List.length outcomes)
      (List.length jobs);
  let placements =
    List.map
      (fun o ->
        match o.S.status with
        | S.Failed f ->
          fail "fleet-smoke: job %s failed: %s" o.S.job.Job.id f.S.message
        | S.Completed _ -> (
          match o.S.placement with
          | None -> fail "fleet-smoke: job %s has no placement" o.S.job.Job.id
          | Some p -> (o, p)))
      outcomes
  in
  (* Roofline placement: every dd job of the sweep is memory-bound and
     must be admitted to the bandwidth-rich RTX 2080 class; every od job
     is compute-bound and must be admitted to the compute-rich V100. *)
  List.iter
    (fun ((o : S.outcome), (p : S.placement)) ->
      let admitted = class_of_instance p.S.admitted_to in
      let want =
        match o.S.job.Job.prec with
        | P.DD -> "rtx2080"
        | P.OD -> "v100"
        | _ -> fail "fleet-smoke: unexpected precision in the fleet sweep"
      in
      if admitted <> want then
        fail "fleet-smoke: %s (%s) admitted to %s, placement policy says %s"
          o.S.job.Job.id (P.label o.S.job.Job.prec) p.S.admitted_to want;
      (* The executed device is the class of the executing instance. *)
      if o.S.job.Job.device <> class_of_instance p.S.device_id then
        fail "fleet-smoke: %s executed on %s but records device %s"
          o.S.job.Job.id p.S.device_id o.S.job.Job.device)
    placements;
  let steals =
    List.fold_left (fun acc (_, p) -> acc + p.S.steals) 0 placements
  in
  let moved =
    List.length
      (List.filter (fun (_, p) -> p.S.device_id <> p.S.admitted_to) placements)
  in
  if steals <> moved then
    fail "fleet-smoke: %d steals recorded but %d jobs moved queues" steals
      moved;
  let admitted_histogram =
    List.map
      (fun c ->
        ( c,
          List.length
            (List.filter
               (fun (_, p) -> class_of_instance p.S.admitted_to = c)
               placements) ))
      classes
  in
  (* Per-class latency percentiles over each job's admission-to-settle
     time, grouped by the executing instance's class; the fleet's
     per-class metrics histogram must have seen the same jobs. *)
  let class_rows =
    List.map
      (fun c ->
        let h =
          M.histogram ~buckets:M.latency_buckets (M.default ())
            ("fleet.latency_ms." ^ c)
        in
        let samples =
          List.filter_map
            (fun ((o : S.outcome), p) ->
              if class_of_instance p.S.device_id = c then
                Some (o.S.timing.S.queue_wait_ms +. o.S.elapsed_ms)
              else None)
            placements
        in
        let executed = List.length samples in
        if M.Histogram.count h <> executed then
          fail "fleet-smoke: class %s histogram has %d observations, %d jobs"
            c (M.Histogram.count h) executed;
        ( c,
          executed,
          quantile samples 0.5,
          quantile samples 0.95,
          quantile samples 0.99,
          maximum samples ))
      classes
  in
  let ms = function Some x -> Printf.sprintf "%8.3f" x | None -> "       -" in
  let throughput = float_of_int (List.length jobs) /. wall_s in
  pf "  %d auto-placed jobs in %.3f s (%.1f jobs/s), %d stolen\n"
    (List.length jobs) wall_s throughput steals;
  List.iter
    (fun (c, executed, p50, p95, p99, peak) ->
      pf "  %-10s %3d executed  p50 %s ms  p95 %s ms  p99 %s ms  max %s ms\n"
        c executed (ms p50) (ms p95) (ms p99) (ms peak))
    class_rows;
  let json_ms = function Some x -> Json.Float x | None -> Json.Null in
  let json =
    Json.Obj
      [
        ("bench", Json.Str "fleet");
        ("jobs", Json.Int (List.length jobs));
        ("wall_s", Json.Float wall_s);
        ("throughput_jobs_per_s", Json.Float throughput);
        ("steals", Json.Int steals);
        ( "placement",
          Json.Obj
            (List.map (fun (c, n) -> (c, Json.Int n)) admitted_histogram) );
        ( "classes",
          Json.Arr
            (List.map
               (fun (c, executed, p50, p95, p99, peak) ->
                 Json.Obj
                   [
                     ("class", Json.Str c);
                     ("executed", Json.Int executed);
                     ("p50_ms", json_ms p50);
                     ("p95_ms", json_ms p95);
                     ("p99_ms", json_ms p99);
                     ("max_ms", json_ms peak);
                   ])
               class_rows) );
      ]
  in
  let path = "BENCH_fleet.json" in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  pf "  [json written to %s]\n" path
