(* Fault-injection bench: what the fault plane costs and what it
   recovers.

   Two sections, both on the V100 model:

   - overhead: the planned 1024-tile-128 solve with the fault plane
     disarmed and armed at increasing rates.  Armed plan-mode runs pay
     for relaunched kernels and retransfers, so the wall-clock ratio
     against the clean run is the price of the fault plane at that
     rate; the disarmed run must match the clean run exactly.

   - recovery: seeded campaigns of executed fault-tolerant solves
     (Runners.solve_ft) per precision, counting injections, detections,
     replays, escalations and refined runs, and the fraction of runs
     whose final forward error still passes.

     dune exec bench/main.exe -- faults       # full matrix, writes
                                              # BENCH_faults.json
     dune exec bench/main.exe -- fault-smoke  # tiny seeded campaign,
                                              # exits 1 on any miss
*)

module P = Multidouble.Precision
module R = Harness.Runners
module Report = Harness.Report
module Json = Obs.Json

let pf = Printf.printf
let device = Gpusim.Device.v100

(* ---- overhead (plan mode) ---- *)

type overhead_row = {
  o_prec : P.tag;
  o_rate : float;
  o_wall_ms : float;
  o_overhead : float;  (* vs the clean run of the same precision *)
}

let overhead_dim = 1024
let overhead_tile = 128

let overhead_rows () =
  pf "\n%s\n" (String.make 78 '-');
  pf "Fault plane overhead: planned %dx%d tile=%d solve on the %s\n"
    overhead_dim overhead_dim overhead_tile device.Gpusim.Device.name;
  pf "%s\n" (String.make 78 '-');
  pf "%-6s %10s %14s %10s\n" "prec" "rate" "wall ms" "overhead";
  List.concat_map
    (fun prec ->
      let clean = R.solve prec device ~n:overhead_dim ~tile:overhead_tile in
      let clean_ms = clean.Report.wall_ms in
      if clean.Report.faults <> None then begin
        Printf.eprintf "faults bench: clean run carries a fault record\n";
        exit 1
      end;
      List.map
        (fun rate ->
          let wall_ms =
            if rate = 0.0 then clean_ms
            else
              let fault = Fault.Plan.config ~seed:303 ~rate () in
              (R.solve ~fault prec device ~n:overhead_dim ~tile:overhead_tile)
                .Report.wall_ms
          in
          let row =
            {
              o_prec = prec;
              o_rate = rate;
              o_wall_ms = wall_ms;
              o_overhead = wall_ms /. clean_ms;
            }
          in
          pf "%-6s %10g %14.3f %9.4fx\n%!" (P.label prec) rate wall_ms
            row.o_overhead;
          row)
        [ 0.0; 1e-3; 1e-2 ])
    [ P.DD; P.QD; P.OD ]

(* ---- recovery (executed campaigns) ---- *)

type recovery_row = {
  r_prec : P.tag;
  r_runs : int;
  r_rate : float;
  r_injected : int;
  r_detected : int;
  r_replays : int;
  r_escalations : int;
  r_refined_runs : int;
  r_recovered_runs : int;
}

let recovery_dim = 32
let recovery_tile = 8

let campaign ~prec ~runs ~rate ~seed =
  List.init runs (fun i ->
      let fault = Fault.Plan.config ~seed:(seed + i) ~rate () in
      R.solve_ft ~fault prec device ~n:recovery_dim ~tile:recovery_tile)

let recovered (r : Report.t) =
  match r.Report.residual with Some v -> v.Report.ok | None -> false

let recovery_row ~prec ~runs ~rate ~seed =
  let reports = campaign ~prec ~runs ~rate ~seed in
  let tally f r = match r.Report.faults with Some x -> f x | None -> 0 in
  let sum f = List.fold_left (fun acc r -> acc + tally f r) 0 reports in
  {
    r_prec = prec;
    r_runs = runs;
    r_rate = rate;
    r_injected = sum Report.faults_injected;
    r_detected = sum (fun f -> f.Report.detected);
    r_replays =
      sum (fun f ->
          f.Report.relaunches + f.Report.retransfers + f.Report.replays);
    r_escalations = sum (fun f -> f.Report.escalations);
    r_refined_runs =
      List.length
        (List.filter
           (fun r ->
             match r.Report.faults with
             | Some f -> f.Report.refined
             | None -> false)
           reports);
    r_recovered_runs = List.length (List.filter recovered reports);
  }

let recovery_rows () =
  pf "\n%s\n" (String.make 78 '-');
  pf "Fault recovery: executed %dx%d tile=%d fault-tolerant solves\n"
    recovery_dim recovery_dim recovery_tile;
  pf "%s\n" (String.make 78 '-');
  pf "%-6s %6s %8s %9s %9s %8s %6s %8s %10s\n" "prec" "runs" "rate"
    "injected" "detected" "replays" "escal" "refined" "recovered";
  List.concat_map
    (fun prec ->
      List.map
        (fun rate ->
          let r = recovery_row ~prec ~runs:6 ~rate ~seed:500 in
          pf "%-6s %6d %8g %9d %9d %8d %6d %8d %6d/%-3d\n%!" (P.label prec)
            r.r_runs rate r.r_injected r.r_detected r.r_replays
            r.r_escalations r.r_refined_runs r.r_recovered_runs r.r_runs;
          r)
        [ 1e-3; 1e-2 ])
    [ P.DD; P.QD; P.OD ]

(* ---- JSON ---- *)

let json_of_rows overhead recovery =
  Json.Obj
    [
      ("bench", Json.Str "faults");
      ("device", Json.Str device.Gpusim.Device.name);
      ( "overhead",
        Json.Arr
          (List.map
             (fun o ->
               Json.Obj
                 [
                   ("prec", Json.Str (P.label o.o_prec));
                   ("dim", Json.Int overhead_dim);
                   ("tile", Json.Int overhead_tile);
                   ("rate", Json.Float o.o_rate);
                   ("wall_ms", Json.Float o.o_wall_ms);
                   ("overhead", Json.Float o.o_overhead);
                 ])
             overhead) );
      ( "recovery",
        Json.Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("prec", Json.Str (P.label r.r_prec));
                   ("dim", Json.Int recovery_dim);
                   ("tile", Json.Int recovery_tile);
                   ("rate", Json.Float r.r_rate);
                   ("runs", Json.Int r.r_runs);
                   ("injected", Json.Int r.r_injected);
                   ("detected", Json.Int r.r_detected);
                   ("replays", Json.Int r.r_replays);
                   ("escalations", Json.Int r.r_escalations);
                   ("refined_runs", Json.Int r.r_refined_runs);
                   ("recovered_runs", Json.Int r.r_recovered_runs);
                   ( "recovery_rate",
                     Json.Float
                       (float_of_int r.r_recovered_runs
                       /. float_of_int r.r_runs) );
                 ])
             recovery) );
    ]

let run () =
  let overhead = overhead_rows () in
  let recovery = recovery_rows () in
  let path = "BENCH_faults.json" in
  let oc = open_out path in
  output_string oc (Json.to_string (json_of_rows overhead recovery));
  output_char oc '\n';
  close_out oc;
  pf "  [json written to %s]\n" path

(* Smoke: a tiny fixed-seed double double campaign.  Every run must
   detect-or-recover (final forward error ok), a second pass must replay
   bit-identically, and a clean run must carry no fault record at all. *)
let smoke () =
  pf "\n%s\n" (String.make 78 '-');
  pf "Fault smoke: seeded campaign, %dx%d tile=%d double double\n"
    recovery_dim recovery_dim recovery_tile;
  pf "%s\n" (String.make 78 '-');
  let runs = 4 and rate = 1e-2 and seed = 11 in
  let pass () = campaign ~prec:P.DD ~runs ~rate ~seed in
  let first = pass () in
  List.iteri
    (fun i r ->
      let inj =
        match r.Report.faults with
        | Some f -> Report.faults_injected f
        | None -> 0
      in
      pf "  run %d (seed %d): %d injected, %s\n" i (seed + i) inj
        (if recovered r then "recovered" else "NOT RECOVERED"))
    first;
  if not (List.for_all recovered first) then begin
    Printf.eprintf "fault-smoke: a faulted run escaped recovery\n";
    exit 1
  end;
  let second = pass () in
  let same =
    List.for_all2
      (fun (a : Report.t) (b : Report.t) ->
        a.Report.faults = b.Report.faults
        && a.Report.residual = b.Report.residual)
      first second
  in
  if not same then begin
    Printf.eprintf "fault-smoke: campaign replay was not bit-identical\n";
    exit 1
  end;
  let clean = R.solve_ft P.DD device ~n:recovery_dim ~tile:recovery_tile in
  if clean.Report.faults <> None then begin
    Printf.eprintf "fault-smoke: clean run carries a fault record\n";
    exit 1
  end;
  if not (recovered clean) then begin
    Printf.eprintf "fault-smoke: clean run failed its residual check\n";
    exit 1
  end;
  pf "  replay bit-identical, clean run fault-free: ok\n%!"
