(* Fault-injection bench: what the fault plane costs and what it
   recovers.

   Two sections, both on the V100 model:

   - overhead: the planned 1024-tile-128 solve with the fault plane
     disarmed and armed at increasing rates.  Armed plan-mode runs pay
     for relaunched kernels and retransfers, so the wall-clock ratio
     against the clean run is the price of the fault plane at that
     rate; the disarmed run must match the clean run exactly.

   - recovery: seeded campaigns of executed fault-armed solves, which
     Runners.run takes down its fault-tolerant path, per precision,
     counting injections, detections, replays, escalations and refined
     runs, and the fraction of runs whose final forward error still
     passes.

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

let solve ?fault ?execute prec ~dim ~tile =
  R.run (R.request ?fault ?execute ~kind:R.Solve ~prec ~device ~dim ~tile ())

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
      let clean = solve prec ~dim:overhead_dim ~tile:overhead_tile in
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
              (solve ~fault prec ~dim:overhead_dim ~tile:overhead_tile)
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

let recovery_dim = 32
let recovery_tile = 8

let campaign ~prec ~runs ~rate ~seed =
  R.campaign
    (R.request
       ~fault:(Fault.Plan.config ~seed ~rate ())
       ~kind:R.Solve ~prec ~device ~dim:recovery_dim ~tile:recovery_tile ())
    ~runs

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
          let c =
            Report.Campaign.of_reports
              (campaign ~prec ~runs:6 ~rate ~seed:500)
          in
          pf "%-6s %6d %8g %9d %9d %8d %6d %8d %6d/%-3d\n%!" (P.label prec)
            c.runs rate c.injected c.detected c.replays c.escalations
            c.refined_runs c.recovered_runs c.runs;
          (prec, rate, c))
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
             (fun (prec, rate, (c : Report.Campaign.t)) ->
               Json.Obj
                 [
                   ("prec", Json.Str (P.label prec));
                   ("dim", Json.Int recovery_dim);
                   ("tile", Json.Int recovery_tile);
                   ("rate", Json.Float rate);
                   ("runs", Json.Int c.runs);
                   ("injected", Json.Int c.injected);
                   ("detected", Json.Int c.detected);
                   ("replays", Json.Int c.replays);
                   ("escalations", Json.Int c.escalations);
                   ("refined_runs", Json.Int c.refined_runs);
                   ("recovered_runs", Json.Int c.recovered_runs);
                   ( "recovery_rate",
                     Json.Float (Report.Campaign.recovery_rate c) );
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

(* The stage-level recovery ladder of every engine: the fault-armed
   executed double double runs the golden corpus pins, each of which
   completes through stage replays (QR panels, a back-substitution tile,
   CG and LSQR recurrences). *)
let ladder_runs () =
  let run ?rows ?solver kind ~dim ~tile ~rate ~seed =
    R.run
      (R.request ?rows ?solver
         ~fault:(Fault.Plan.config ~seed ~rate ())
         ~execute:true ~kind ~prec:P.DD ~device ~dim ~tile ())
  in
  let iter solver ~seed =
    run R.Solve ~solver ~rows:256 ~dim:16 ~tile:16 ~rate:0.05 ~seed
  in
  [
    ("qr 32x32", run R.Qr ~dim:32 ~tile:8 ~rate:0.5 ~seed:2);
    ("backsub 32", run R.Backsub ~dim:32 ~tile:8 ~rate:0.1 ~seed:1);
    ("cg 256x16", iter Lsq_core.Solver.Cg_normal ~seed:6);
    ("lsqr 256x16", iter Lsq_core.Solver.Lsqr ~seed:2);
  ]

(* Smoke: a tiny fixed-seed double double campaign and the ladder runs.
   Every campaign run must detect-or-recover (final forward error ok),
   every ladder run must replay a stage, a second pass of both must
   replay bit-identically in tallies and residuals, and a clean run must
   carry no fault record at all. *)
let smoke () =
  pf "\n%s\n" (String.make 78 '-');
  pf "Fault smoke: seeded campaign, %dx%d tile=%d double double\n"
    recovery_dim recovery_dim recovery_tile;
  pf "%s\n" (String.make 78 '-');
  let runs = 4 and rate = 1e-2 and seed = 11 in
  let pass () = (campaign ~prec:P.DD ~runs ~rate ~seed, ladder_runs ()) in
  let first, ladder = pass () in
  List.iteri
    (fun i r ->
      let inj =
        match r.Report.faults with
        | Some f -> Report.faults_injected f
        | None -> 0
      in
      pf "  run %d (seed %d): %d injected, %s\n" i (seed + i) inj
        (if Report.recovered r then "recovered" else "NOT RECOVERED"))
    first;
  if not (List.for_all Report.recovered first) then begin
    Printf.eprintf "fault-smoke: a faulted run escaped recovery\n";
    exit 1
  end;
  List.iter
    (fun (name, (r : Report.t)) ->
      let replays =
        match r.Report.faults with Some f -> f.Report.replays | None -> 0
      in
      pf "  ladder %-12s %d stage replays\n" name replays;
      if replays = 0 then begin
        Printf.eprintf "fault-smoke: %s no longer replays a stage\n" name;
        exit 1
      end)
    ladder;
  let second, ladder' = pass () in
  (* [compare], not [=]: a fault-struck residual may be NaN. *)
  let same =
    List.for_all2
      (fun (a : Report.t) (b : Report.t) ->
        compare
          (a.Report.faults, a.Report.residual)
          (b.Report.faults, b.Report.residual)
        = 0)
      (first @ List.map snd ladder)
      (second @ List.map snd ladder')
  in
  if not same then begin
    Printf.eprintf "fault-smoke: campaign replay was not bit-identical\n";
    exit 1
  end;
  let clean =
    solve ~execute:true P.DD ~dim:recovery_dim ~tile:recovery_tile
  in
  if clean.Report.faults <> None then begin
    Printf.eprintf "fault-smoke: clean run carries a fault record\n";
    exit 1
  end;
  if not (Report.recovered clean) then begin
    Printf.eprintf "fault-smoke: clean run failed its residual check\n";
    exit 1
  end;
  pf "  replay bit-identical, clean run fault-free: ok\n%!"
