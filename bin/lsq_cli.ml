(* Command line driver: run any of the paper's experiments from the shell.

     lsq_cli devices
     lsq_cli qr      --device v100 --prec 4d --dim 1024 --tile 128
     lsq_cli backsub --device p100 --prec 4d --dim 17920 --tile 224
     lsq_cli solve   --device v100 --prec 8d --dim 1024 --tile 128
     lsq_cli qr --complex --execute --dim 64 --tile 16
     lsq_cli qr --dim 1024 --tile 128 --trace trace.json --metrics m.json
     lsq_cli roofline qr --prec 2d --dim 1024 --tile 128
     lsq_cli batch --jobs jobs.json --parallel 4 --out outcomes.jsonl
     lsq_cli batch --sweep table4

   Without [--execute] only the cost model runs (instantaneous, any
   dimension); with it the kernels execute numerically on the simulator
   and the residuals are reported. *)

open Cmdliner
module P = Multidouble.Precision
module R = Harness.Runners

let pf = Printf.printf

(* Bad flags exit 2 with one "error:" line on stderr, before anything
   runs. *)
let usage_error fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "error: %s\n" m;
      exit 2)
    fmt

(* ---- common options ---- *)

let device_arg =
  let parse s =
    try Ok (Gpusim.Device.by_name s) with Invalid_argument m -> Error (`Msg m)
  in
  let print fmt d = Format.fprintf fmt "%s" d.Gpusim.Device.name in
  Arg.conv (parse, print)

let device =
  Arg.(
    value
    & opt device_arg Gpusim.Device.v100
    & info [ "d"; "device" ] ~docv:"GPU"
        ~doc:"Simulated device: c2050, k20c, p100, v100 or rtx2080.")

let prec_arg =
  let parse s =
    try Ok (P.of_label (String.lowercase_ascii s))
    with Invalid_argument m -> Error (`Msg m)
  in
  let print fmt p = Format.fprintf fmt "%s" (P.label p) in
  Arg.conv (parse, print)

let prec =
  Arg.(
    value
    & opt prec_arg P.QD
    & info [ "p"; "prec" ] ~docv:"PREC"
        ~doc:"Precision: 1d, 2d, 4d or 8d (double .. octo double).")

let dim =
  Arg.(
    value & opt int 1024
    & info [ "n"; "dim" ] ~docv:"N" ~doc:"Problem dimension.")

let rows =
  Arg.(
    value & opt (some int) None
    & info [ "rows" ] ~docv:"M"
        ~doc:"Number of rows (qr and solve; default: square).")

let solver_name =
  Arg.(
    value & opt string "qr"
    & info [ "solver" ] ~docv:"ENGINE"
        ~doc:
          "Solve engine: qr (direct blocked QR + back substitution, the \
           default), cg (conjugate gradient on the normal equations) or \
           lsqr — the iterative engines run a D -> DD -> QD -> OD \
           refinement ladder of staged matrix-vector kernels.")

(* Bad engine names exit with a usage error before anything runs, like
   the fault flags. *)
let solver_of name =
  try Lsq_core.Solver.method_of_string name
  with Invalid_argument m -> usage_error "%s" m

let tile =
  Arg.(
    value & opt int 128
    & info [ "t"; "tile" ] ~docv:"TILE" ~doc:"Tile size (threads per block).")

let complex =
  Arg.(value & flag & info [ "complex" ] ~doc:"Use complex data.")

let execute =
  Arg.(
    value & flag
    & info [ "x"; "execute" ]
        ~doc:
          "Execute the kernels numerically (keep the dimension moderate) \
           and report residuals; default is cost accounting only.")

let fault_rate =
  Arg.(
    value & opt float 0.0
    & info [ "fault-rate" ] ~docv:"P"
        ~doc:
          "Per-launch fault probability of the simulator's fault plane, in \
           [0, 1].  0 (the default) leaves the plane disarmed.")

let fault_seed =
  Arg.(
    value & opt int 1
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:
          "Campaign seed of the fault plane; the same seed replays the \
           same faults bit-identically.")

let fault_kinds =
  Arg.(
    value & opt string "all"
    & info [ "fault-kinds" ] ~docv:"KINDS"
        ~doc:
          "Comma-separated fault kinds to arm: bitflip, launch, transfer, \
           or all.")

(* The three flags fold into one optional [Fault.Plan.config]; bad rates
   or kind names exit with a usage error before anything runs. *)
let fault_config_of ~rate ~seed ~kinds =
  if rate = 0.0 then None
  else
    try
      let kinds =
        if String.lowercase_ascii (String.trim kinds) = "all" then
          Fault.Plan.all_kinds
        else
          String.split_on_char ',' kinds
          |> List.filter_map (fun s ->
                 let s = String.trim s in
                 if s = "" then None else Some (Fault.Plan.kind_of_string s))
      in
      Some (Fault.Plan.config ~kinds ~seed ~rate ())
    with Invalid_argument m -> usage_error "%s" m

let trace_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON of the run to $(docv); open it \
           in Perfetto (ui.perfetto.dev) or chrome://tracing.")

let metrics_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write a JSON snapshot of the metrics registry to $(docv).")

(* ---- shared argument-spec builders ----

   One term per flag family: every subcommand assembles the same specs
   ([$ fault_flags $ obs_flags $ ...]) instead of repeating the five
   individual flags — a new subcommand (serve) gets the whole family
   for free. *)

let obs_flags =
  Term.(const (fun trace metrics -> (trace, metrics)) $ trace_file $ metrics_file)

let fault_flags =
  Term.(
    const (fun rate seed kinds -> (rate, seed, kinds))
    $ fault_rate $ fault_seed $ fault_kinds)

let parallel_arg =
  Arg.(
    value & opt int 4
    & info [ "parallel" ] ~docv:"N"
        ~doc:"Number of concurrent job workers (batch mode).")

let out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE"
        ~doc:
          "Write the JSON-lines outcomes here instead of standard output \
           (the human summary then goes to standard output).")

(* Runs [f] with the tracer and the default metrics registry armed, and
   writes the requested artifacts however [f] exits.  Status lines go to
   stderr so stdout stays parseable (the batch and serve subcommands
   emit JSON lines there). *)
let with_observability (trace, metrics) f =
  if trace = None && metrics = None then f ()
  else begin
    Obs.Metrics.reset (Obs.Metrics.default ());
    if trace <> None then Obs.Tracer.start ();
    Fun.protect
      ~finally:(fun () ->
        Obs.Tracer.stop ();
        (match trace with
        | Some path ->
          Obs.Tracer.export_file path;
          Printf.eprintf "trace written to %s (%d events)\n" path
            (Obs.Tracer.event_count ())
        | None -> ());
        match metrics with
        | Some path ->
          let snap = Obs.Metrics.snapshot (Obs.Metrics.default ()) in
          let oc = open_out path in
          output_string oc
            (Obs.Json.to_string (Obs.Metrics.to_json snap));
          output_char oc '\n';
          close_out oc;
          Printf.eprintf "metrics written to %s (%d metrics)\n" path
            (List.length snap)
        | None -> ())
      f
  end

(* ---- output ---- *)

let print_run what device p ~complex (r : Harness.Report.t) =
  pf "%s in %s%s precision on the simulated %s\n" what (P.name p)
    (if complex then " complex" else "")
    device.Gpusim.Device.name;
  List.iter
    (fun (row : Harness.Report.Row.t) ->
      pf "  %-24s %12.3f ms  %6d launch%s\n" row.Harness.Report.Row.stage
        row.Harness.Report.Row.ms row.Harness.Report.Row.launches
        (if row.Harness.Report.Row.launches = 1 then "" else "es"))
    r.Harness.Report.stages;
  pf "  %-24s %12.3f ms\n" "all kernels" r.Harness.Report.kernel_ms;
  pf "  %-24s %12.3f ms\n" "wall clock" r.Harness.Report.wall_ms;
  pf "  %-24s %12.1f gigaflops\n" "kernel flops" r.Harness.Report.kernel_gflops;
  pf "  %-24s %12.1f gigaflops\n" "wall flops" r.Harness.Report.wall_gflops;
  pf "  %-24s %12d\n" "kernel launches" r.Harness.Report.launches

let print_residual what (v : Harness.Report.residual) =
  pf "  %s: %.1f eps (%s)\n" what v.Harness.Report.residual
    (if v.Harness.Report.ok then "ok" else "FAILED")

let print_faults (r : Harness.Report.t) =
  match r.Harness.Report.faults with
  | None -> ()
  | Some f ->
    pf "  %-24s %12d (%d bitflip, %d launch, %d transfer)\n" "faults injected"
      (Harness.Report.faults_injected f)
      f.Harness.Report.bitflips f.Harness.Report.launch_fails
      f.Harness.Report.transfer_faults;
    pf "  %-24s %12d detected, %d relaunches, %d retransfers, %d replays%s\n"
      "fault handling" f.Harness.Report.detected f.Harness.Report.relaunches
      f.Harness.Report.retransfers f.Harness.Report.replays
      (if f.Harness.Report.refined then ", refined" else "");
    if f.Harness.Report.escalations > 0 then
      pf "  %-24s %12d\n" "fault escalations" f.Harness.Report.escalations

(* The subcommand's request; a shape the runner rejects exits 2 with
   one "error:" line, before anything runs. *)
let request ?complex ?rows ?solver ?fault kind device p ~dim ~tile =
  let req =
    R.request ?complex ?rows ?solver ?fault ~kind ~prec:p ~device ~dim ~tile
      ()
  in
  Result.iter_error (usage_error "%s") (R.validate req);
  req

(* The cost plan of the request.  With [--execute] the fault plane
   strikes the executed run instead, as it does for an executed job, so
   the plan shown is fault-free. *)
let plan ~execute req =
  R.run (if execute then { req with R.fault = None } else req)

(* The capped shape an [--execute] run uses: a tile of at most 16 and
   the largest multiple of it not above [min dim cap], so the tile
   still divides the dimension. *)
let executed_shape ~cap ~dim ~tile =
  let tile = min tile 16 in
  (min dim cap / tile * tile, tile)

(* [--execute]: a second, executed run of the request at the capped
   dimensions [req] gives; prints its fault record and residual. *)
let print_executed what req =
  let r = R.run { req with R.execute = true } in
  print_faults r;
  print_residual what (Option.get r.Harness.Report.residual)

(* ---- subcommands ---- *)

let qr_cmd =
  let run device p dim rows tile complex execute (rate, seed, kinds) obs =
    let fault = fault_config_of ~rate ~seed ~kinds in
    let req = request ~complex ?rows ?fault R.Qr device p ~dim ~tile in
    with_observability obs (fun () ->
        let r = plan ~execute req in
        print_run
          (Printf.sprintf "blocked Householder QR of a %dx%d matrix"
             (Option.value rows ~default:dim)
             dim)
          device p ~complex r;
        print_faults r;
        if execute then begin
          let dim, tile = executed_shape ~cap:96 ~dim ~tile in
          print_executed "executed residual" { req with dim; rows = None; tile }
        end)
  in
  Cmd.v
    (Cmd.info "qr" ~doc:"Blocked Householder QR (Algorithm 2).")
    Term.(
      const run $ device $ prec $ dim $ rows $ tile $ complex $ execute
      $ fault_flags $ obs_flags)

let backsub_cmd =
  let run device p dim tile complex execute (rate, seed, kinds) obs =
    let fault = fault_config_of ~rate ~seed ~kinds in
    let req = request ~complex ?fault R.Backsub device p ~dim ~tile in
    with_observability obs (fun () ->
        let r = plan ~execute req in
        print_run
          (Printf.sprintf "tiled back substitution of dimension %d (%d tiles)"
             dim (dim / tile))
          device p ~complex r;
        print_faults r;
        if execute then begin
          let dim, tile = executed_shape ~cap:96 ~dim ~tile in
          print_executed "executed residual" { req with dim; tile }
        end)
  in
  Cmd.v
    (Cmd.info "backsub" ~doc:"Tiled accelerated back substitution (Algorithm 1).")
    Term.(
      const run $ device $ prec $ dim $ tile $ complex $ execute
      $ fault_flags $ obs_flags)

let solve_cmd =
  let run device p dim rows tile complex solver execute (rate, seed, kinds) obs
      =
    let solver = solver_of solver in
    let fault = fault_config_of ~rate ~seed ~kinds in
    let req =
      request ~complex ?rows ~solver ?fault R.Solve device p ~dim ~tile
    in
    let m = Option.value rows ~default:dim in
    with_observability obs (fun () ->
        let r = plan ~execute req in
        pf "least squares solve of a %dx%d system in %s%s on the simulated %s\n"
          m dim (P.name p)
          (if complex then " complex" else "")
          device.Gpusim.Device.name;
        (match r.Harness.Report.solver with
        | None ->
          let qr = Harness.Report.part r Lsq_core.Solver.qr_part in
          let bs = Harness.Report.part r Lsq_core.Solver.bs_part in
          pf "  %-24s %12.3f ms\n" "QR kernel time"
            qr.Harness.Report.Part.kernel_ms;
          pf "  %-24s %12.3f ms\n" "QR wall time"
            qr.Harness.Report.Part.wall_ms;
          pf "  %-24s %12.3f ms\n" "BS kernel time"
            bs.Harness.Report.Part.kernel_ms;
          pf "  %-24s %12.3f ms\n" "BS wall time"
            bs.Harness.Report.Part.wall_ms
        | Some s ->
          pf "  %-24s %12s\n" "engine"
            (Lsq_core.Solver.method_name s.Harness.Report.method_);
          List.iter
            (fun (part : Harness.Report.Part.t) ->
              pf "  %-24s %12.3f ms kernel, %.3f ms wall\n"
                (part.Harness.Report.Part.name ^ " time")
                part.Harness.Report.Part.kernel_ms
                part.Harness.Report.Part.wall_ms)
            r.Harness.Report.parts;
          pf "  %-24s %12d\n" "modeled inner iterations"
            s.Harness.Report.iterations;
          pf "  %-24s %12s\n" "refinement ladder"
            (String.concat " -> "
               (List.map
                  (fun (t, i) -> Printf.sprintf "%s:%d" (P.label t) i)
                  s.Harness.Report.ladder)));
        pf "  %-24s %12.1f gigaflops\n" "total kernel flops"
          r.Harness.Report.kernel_gflops;
        pf "  %-24s %12.1f gigaflops\n" "total wall flops"
          r.Harness.Report.wall_gflops;
        print_faults r;
        if execute then begin
          let n', tile' = executed_shape ~cap:64 ~dim ~tile in
          let rows' = Option.map (fun m -> max n' (min m (8 * n'))) rows in
          print_executed "executed forward error"
            { req with dim = n'; rows = rows'; tile = tile' }
        end)
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:
         "Least squares solver: direct QR + back substitution, or an \
          iterative engine via $(b,--solver).")
    Term.(
      const run $ device $ prec $ dim $ rows $ tile $ complex $ solver_name
      $ execute $ fault_flags $ obs_flags)

let faults_cmd =
  let dim_arg =
    Arg.(
      value & opt int 32
      & info [ "n"; "dim" ] ~docv:"N"
          ~doc:
            "Problem dimension.  Every run executes numerically, so keep \
             it moderate.")
  in
  let tile_arg =
    Arg.(
      value & opt int 8
      & info [ "t"; "tile" ] ~docv:"TILE" ~doc:"Tile size.")
  in
  let runs_arg =
    Arg.(
      value & opt int 8
      & info [ "runs" ] ~docv:"N"
          ~doc:"Number of seeded fault-tolerant solves in the campaign.")
  in
  let rate_arg =
    Arg.(
      value & opt float 0.01
      & info [ "fault-rate" ] ~docv:"P"
          ~doc:"Per-launch fault probability, in [0, 1].")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the campaign summary and reports as JSON on stdout.")
  in
  let run device p dim tile complex runs rate seed kinds json obs =
    let req = request ~complex R.Solve device p ~dim ~tile in
    if runs < 1 then usage_error "--runs must be at least 1";
    let fault = fault_config_of ~rate ~seed ~kinds in
    with_observability obs (fun () ->
        let reports = R.campaign { req with fault } ~runs in
        let c = Harness.Report.Campaign.of_reports reports in
        if json then
          print_endline
            (Obs.Json.to_string
               (Obs.Json.Obj
                  [
                    ( "campaign",
                      Obs.Json.Obj
                        [
                          ("device", Obs.Json.Str device.Gpusim.Device.name);
                          ("prec", Obs.Json.Str (P.label p));
                          ("complex", Obs.Json.Bool complex);
                          ("dim", Obs.Json.Int dim);
                          ("tile", Obs.Json.Int tile);
                          ("runs", Obs.Json.Int runs);
                          ("fault_rate", Obs.Json.Float rate);
                          ("fault_seed", Obs.Json.Int seed);
                        ] );
                    ("injected", Obs.Json.Int c.injected);
                    ("detected", Obs.Json.Int c.detected);
                    ("replays", Obs.Json.Int c.replays);
                    ("escalations", Obs.Json.Int c.escalations);
                    ("refined_runs", Obs.Json.Int c.refined_runs);
                    ("recovered_runs", Obs.Json.Int c.recovered_runs);
                    ( "recovery_rate",
                      Obs.Json.Float
                        (Harness.Report.Campaign.recovery_rate c) );
                    ( "reports",
                      Obs.Json.Arr
                        (List.map Harness.Report.to_json reports) );
                  ]))
        else begin
          pf
            "fault campaign: %d fault-tolerant solve%s of %dx%d tile=%d in \
             %s%s on the simulated %s\n"
            runs
            (if runs = 1 then "" else "s")
            dim dim tile (P.name p)
            (if complex then " complex" else "")
            device.Gpusim.Device.name;
          pf "rate %g per launch, seeds %d..%d\n" rate seed (seed + runs - 1);
          List.iteri
            (fun i (r : Harness.Report.t) ->
              let inj, refined =
                match r.Harness.Report.faults with
                | Some f ->
                  (Harness.Report.faults_injected f, f.Harness.Report.refined)
                | None -> (0, false)
              in
              pf "  run %2d (seed %d): %3d injected, %s%s\n" i (seed + i) inj
                (if Harness.Report.recovered r then "recovered"
                 else "NOT RECOVERED")
                (if refined then " (refined)" else ""))
            reports;
          pf "  %-24s %12d\n" "faults injected" c.injected;
          pf "  %-24s %12d\n" "faults detected" c.detected;
          pf "  %-24s %12d\n" "relaunches+replays" c.replays;
          pf "  %-24s %12d\n" "escalations" c.escalations;
          pf "  %-24s %12d\n" "refined runs" c.refined_runs;
          pf "  %-24s %9d/%-2d (%.1f%%)\n" "recovery rate" c.recovered_runs
            runs
            (100.0 *. float_of_int c.recovered_runs /. float_of_int runs)
        end)
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Seeded fault-injection campaign: repeated executed fault-tolerant \
          solves under the simulator's fault plane, reporting the \
          detection-and-recovery rate.  The same seed replays the campaign \
          bit-identically.")
    Term.(
      const run $ device $ prec $ dim_arg $ tile_arg $ complex $ runs_arg
      $ rate_arg $ fault_seed $ fault_kinds $ json_flag $ obs_flags)

let roofline_cmd =
  let kind =
    Arg.(
      value
      & pos 0
          (enum [ ("qr", R.Qr); ("backsub", R.Backsub); ("solve", R.Solve) ])
          R.Qr
      & info [] ~docv:"KIND" ~doc:"Experiment: qr, backsub or solve.")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the table as JSON (see Obs.Roofline.to_json) on stdout.")
  in
  let run device p kind dim rows tile complex solver json =
    let solver = solver_of solver in
    let kind_name = Sched.Job.string_of_kind kind in
    let stages =
      R.roofline (request ~complex ?rows ~solver kind device p ~dim ~tile)
    in
    let rows_all = stages @ [ Obs.Roofline.total stages ] in
    let ridge =
      Obs.Roofline.ridge ~peak_gflops:device.Gpusim.Device.dp_peak_gflops
        ~dram_gb_s:device.Gpusim.Device.dram_gb_s
    in
    let label =
      Printf.sprintf "%s %s%s n=%d tile=%d" kind_name (P.label p)
        (if complex then " complex" else "")
        dim tile
    in
    if json then
      print_endline
        (Obs.Json.to_string
           (Obs.Roofline.to_json ~label
              ~device:device.Gpusim.Device.name ~ridge rows_all))
    else begin
      pf "roofline of %s in %s%s on the simulated %s\n" kind_name (P.name p)
        (if complex then " complex" else "")
        device.Gpusim.Device.name;
      pf "DP peak %.0f gigaflops, DRAM %.0f GB/s, ridge %.2f flops/byte\n"
        device.Gpusim.Device.dp_peak_gflops device.Gpusim.Device.dram_gb_s
        ridge;
      pf "%-24s %12s %9s %9s %11s %7s  %s\n" "stage" "ms" "launches"
        "gflops" "flops/byte" "%peak" "bound";
      List.iter
        (fun (s : Obs.Roofline.stage) ->
          pf "%-24s %12.3f %9d %9.1f %11.2f %7.2f  %s\n" s.Obs.Roofline.stage
            s.Obs.Roofline.ms s.Obs.Roofline.launches s.Obs.Roofline.gflops
            s.Obs.Roofline.intensity s.Obs.Roofline.pct_peak
            (Obs.Roofline.bound_name s.Obs.Roofline.bound))
        rows_all
    end
  in
  Cmd.v
    (Cmd.info "roofline"
       ~doc:
         "Per-stage roofline diagnostics: arithmetic intensity, achieved \
          flops and compute- vs memory-bound classification (the paper's \
          CGMA analysis).")
    Term.(
      const run $ device $ prec $ kind $ dim $ rows $ tile $ complex
      $ solver_name $ json_flag)

let refine_cmd =
  let lo_prec =
    Arg.(
      value & opt prec_arg P.DD
      & info [ "lo" ] ~docv:"PREC" ~doc:"Working (factorization) precision.")
  in
  let hi_prec =
    Arg.(
      value & opt prec_arg P.QD
      & info [ "hi" ] ~docv:"PREC" ~doc:"Target (residual) precision.")
  in
  let run device lo hi dim tile =
    ignore (request R.Solve device lo ~dim ~tile);
    if P.limbs lo >= P.limbs hi then
      usage_error "--lo must be a lower precision than --hi";
    let (module L) = Multidouble.Registry.module_of_tag lo in
    let (module H) = Multidouble.Registry.module_of_tag hi in
    let module Rf = Lsq_core.Refine.Make (L) (H) in
    let module Rand = Mdlinalg.Randmat.Make (Rf.KH) in
    let rng = Dompool.Prng.create 99 in
    let a = Rand.shifted rng dim ~shift:8.0 in
    let x_true = Rand.vector rng dim in
    let b = Rf.MH.matvec a x_true in
    let res = Rf.solve ~device ~a ~b ~tile () in
    let err =
      H.to_float (Rf.VH.norm (Rf.VH.sub res.Rf.x x_true))
      /. H.to_float (Rf.VH.norm x_true)
    in
    pf "iterative refinement: %s factorization, %s residuals, n = %d\n"
      (P.name lo) (P.name hi) dim;
    pf "  refinement sweeps      : %d\n" res.Rf.iterations;
    pf "  forward error          : %.2e (target eps %.2e)\n" err H.eps;
    pf "  QR kernel time (%s)    : %.3f ms on the %s\n" (P.label lo)
      res.Rf.qr_kernel_ms device.Gpusim.Device.name;
    pf "  residual history       : %s\n"
      (String.concat " "
         (List.map (Printf.sprintf "%.1e") res.Rf.residual_history))
  in
  Cmd.v
    (Cmd.info "refine"
       ~doc:
         "Mixed-precision iterative refinement: factor low, refine high.")
    Term.(
      const run $ device $ lo_prec $ hi_prec
      $ Arg.(value & opt int 64 & info [ "n"; "dim" ] ~docv:"N" ~doc:"Dimension.")
      $ Arg.(value & opt int 16 & info [ "t"; "tile" ] ~docv:"TILE" ~doc:"Tile."))

let toeplitz_cmd =
  let blockdim =
    Arg.(
      value & opt int 4
      & info [ "block" ] ~docv:"N" ~doc:"Dimension of each block.")
  in
  let degree_arg =
    Arg.(
      value & opt int 8
      & info [ "degree" ] ~docv:"D" ~doc:"Truncation degree of the series.")
  in
  let run device p blockdim degree complex =
    let (module K) = Lsq_core.Solver.scalar_of ~complex p in
    let module BT = Mdseries.Block_toeplitz.Make (K) in
    let module Rand = Mdlinalg.Randmat.Make (K) in
    let module V = Mdlinalg.Vec.Make (K) in
    let rng = Dompool.Prng.create 7 in
    let j =
      Array.init (degree + 1) (fun k ->
          if k = 0 then Rand.shifted rng blockdim ~shift:6.0
          else Rand.matrix rng blockdim blockdim)
    in
    let x_true = Array.init (degree + 1) (fun _ -> V.random rng blockdim) in
    let b = BT.apply j x_true in
    let qr = Gpusim.Sim.create ~device ~prec:K.prec () in
    let bs = Gpusim.Sim.create ~device ~prec:K.prec () in
    let x = BT.solve_device ~qr ~bs ~tile:blockdim j b in
    let err = ref K.R.zero in
    Array.iteri
      (fun k p' ->
        let e = V.norm (V.sub p' x_true.(k)) in
        if K.R.compare e !err > 0 then err := e)
      x;
    pf "block Toeplitz series solve: %d blocks of %dx%d, %s%s, %s\n"
      (degree + 1) blockdim blockdim (P.name p)
      (if complex then " complex" else "")
      device.Gpusim.Device.name;
    pf "  max order error        : %s\n" (K.R.to_string ~digits:3 !err);
    pf "  QR of J0, kernels      : %.4f ms\n" (Gpusim.Sim.kernel_ms qr);
    pf "  Algorithm 1, kernels   : %.4f ms (%d launches)\n"
      (Gpusim.Sim.kernel_ms bs) (Gpusim.Sim.launches bs)
  in
  Cmd.v
    (Cmd.info "toeplitz"
       ~doc:
         "Power series block Toeplitz solve (the paper's path tracker \
          component).")
    Term.(const run $ device $ prec $ blockdim $ degree_arg $ complex)

let psolve_cmd =
  let system_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SYSTEM"
          ~doc:
            "The polynomial system, semicolon-separated, e.g. \
             \"x^2 + y^2 - 4; x*y - 1\".")
  in
  let run device p system_text =
    let (module R) = Multidouble.Registry.module_of_tag p in
    let module S = Mdseries.Solve.Make (R) in
    let module Pp = Mdseries.Poly_parser.Make (S.K) in
    let sys, vars =
      try Pp.parse_system ~iunit:(S.K.of_floats 0.0 1.0) system_text
      with Mdseries.Poly_parser.Parse_error m ->
        Printf.eprintf "parse error: %s\n" m;
        exit 2
    in
    if Array.length sys <> List.length vars then
      usage_error "%d equations in %d variables (need a square system)"
        (Array.length sys) (List.length vars);
    pf "solving %d equations in (%s), total degree %d, %s, on the %s\n"
      (Array.length sys)
      (String.concat ", " vars)
      (S.P.total_degree sys) (P.name p) device.Gpusim.Device.name;
    let r = S.solve ~device sys in
    pf "%d paths: %d converged, %d diverged, %d stuck\n" r.S.paths
      (List.length r.S.solutions)
      r.S.diverged r.S.stuck;
    let sols = S.distinct r.S.solutions in
    pf "%d distinct solutions:\n" (List.length sols);
    List.iteri
      (fun i s ->
        pf "  %2d:" (i + 1);
        List.iteri
          (fun j v ->
            let z = s.S.point.(j) in
            pf "  %s = %+.12g %+.12gi" v
              (R.to_float (S.K.re z))
              (R.to_float (S.K.im z)))
          vars;
        pf "   |f| = %.1e\n" s.S.residual)
      sols
  in
  Cmd.v
    (Cmd.info "psolve"
       ~doc:
         "Solve a polynomial system by total-degree homotopy continuation \
          (all Newton corrections on the accelerated solver).")
    Term.(const run $ device $ prec $ system_arg)

let cond_cmd =
  let family =
    Arg.(
      value
      & opt (enum [ ("hilbert", `Hilbert); ("vandermonde", `Vandermonde);
                    ("random", `Random) ]) `Hilbert
      & info [ "family" ] ~docv:"FAMILY"
          ~doc:"Matrix family: hilbert, vandermonde or random.")
  in
  let wanted =
    Arg.(
      value & opt int 12
      & info [ "digits" ] ~docv:"D" ~doc:"Trusted digits wanted.")
  in
  let run p dim family wanted =
    let (module R) = Multidouble.Registry.module_of_tag p in
    let module K = Mdlinalg.Scalar.Real (R) in
    let module Rand = Mdlinalg.Randmat.Make (K) in
    let module C = Mdlinalg.Cond.Make (K) in
    let module Svd = Mdlinalg.Jacobi_svd.Make (K) in
    let a =
      match family with
      | `Hilbert -> Rand.hilbert dim
      | `Vandermonde -> Rand.vandermonde dim dim
      | `Random -> Rand.matrix (Dompool.Prng.create 4) dim dim
    in
    (try
       let c1 = C.cond1 a in
       pf "kappa_1  = %s\n" (R.to_string ~digits:4 c1)
     with _ -> pf "kappa_1  = (singular to working precision)\n");
    let c2 = Svd.cond2 a in
    pf "kappa_2  = %s\n" (R.to_string ~digits:4 c2);
    let risk = Float.log10 (Float.max 1.0 (R.to_float c2)) in
    pf "digits at risk ~ %.1f\n" risk;
    pf "cheapest precision leaving %d trusted digits: %s\n" wanted
      (match P.cheapest ~less:risk ~digits:(float_of_int wanted) with
      | Some q -> Printf.sprintf "%s (%s)" (P.name q) (P.label q)
      | None -> "beyond octo double")
  in
  Cmd.v
    (Cmd.info "cond"
       ~doc:"Condition numbers and the digits-at-risk precision guide.")
    Term.(
      const run $ prec
      $ Arg.(value & opt int 10 & info [ "n"; "dim" ] ~docv:"N" ~doc:"Dimension.")
      $ family $ wanted)

let batch_cmd =
  let jobs_file =
    Arg.(
      value & opt (some file) None
      & info [ "j"; "jobs" ] ~docv:"FILE"
          ~doc:
            "Jobs file: a JSON array of job objects, or one job object per \
             line (JSON lines).")
  in
  let sweep_name =
    Arg.(
      value & opt (some string) None
      & info [ "sweep" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Generate the batch of a whole paper table instead of reading \
                a jobs file.  One of: %s."
               (String.concat ", " Sched.Sweep.names)))
  in
  let run jobs_file sweep_name parallel solver out_file obs =
    let default_solver = solver_of solver in
    let jobs =
      match (jobs_file, sweep_name) with
      | Some _, Some _ -> usage_error "--jobs and --sweep are mutually exclusive"
      | Some file, None -> (
        try Sched.Job.load_file file
        with Obs.Json.Error m | Sys_error m ->
          usage_error "cannot load jobs from %s: %s" file m)
      | None, Some name -> (
        try Sched.Sweep.jobs name with Invalid_argument m -> usage_error "%s" m)
      | None, None -> usage_error "one of --jobs FILE or --sweep NAME is required"
    in
    if parallel < 1 then usage_error "--parallel must be at least 1";
    (* Like serve's --fault-* flags, --solver is a default: it rewires
       solve jobs that did not pick an engine themselves. *)
    let jobs = List.map (Sched.Job.with_defaults ~solver:default_solver) jobs in
    let outcomes =
      with_observability obs (fun () ->
          Sched.Fleet.run (Sched.Fleet.Config.batch ~parallel ()) jobs)
    in
    let summary_oc =
      match out_file with
      | Some file ->
        let oc = open_out file in
        Sched.Engine.write_jsonl oc outcomes;
        close_out oc;
        stdout
      | None ->
        Sched.Engine.write_jsonl stdout outcomes;
        flush stdout;
        stderr
    in
    let completed, failed =
      List.partition
        (fun o ->
          match o.Sched.Engine.status with
          | Sched.Engine.Completed _ -> true
          | Sched.Engine.Failed _ -> false)
        outcomes
    in
    Printf.fprintf summary_oc
      "batch: %d job%s, %d completed, %d failed (parallel=%d)\n"
      (List.length outcomes)
      (if List.length outcomes = 1 then "" else "s")
      (List.length completed) (List.length failed) parallel;
    List.iter
      (fun o ->
        match o.Sched.Engine.status with
        | Sched.Engine.Failed f ->
          Printf.fprintf summary_oc "  failed %-24s attempts=%d%s (%s): %s\n"
            o.Sched.Engine.job.Sched.Job.id o.Sched.Engine.attempts
            (if f.Sched.Engine.timed_out then " (timed out)" else "")
            (if f.Sched.Engine.retryable then "transient" else "permanent")
            f.Sched.Engine.message
        | Sched.Engine.Completed _ -> ())
      failed;
    (match out_file with
    | Some file ->
      Printf.fprintf summary_oc "outcomes written to %s (JSON lines, schema %d)\n"
        file Sched.Engine.schema_version
    | None -> ());
    flush summary_oc
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Run a batch of jobs over a fresh fleet of generic workers and \
          emit one JSON outcome per line.")
    Term.(
      const run $ jobs_file $ sweep_name $ parallel_arg $ solver_name
      $ out_arg $ obs_flags)

let serve_cmd =
  let pool_spec =
    Arg.(
      value
      & opt string "c2050=2,p100=2,v100=2,rtx2080=2"
      & info [ "pool" ] ~docv:"SPEC"
          ~doc:
            "Device pool of the fleet: comma-separated \
             $(i,device)=$(i,count) entries, e.g. v100=2,rtx2080=1.")
  in
  let depth =
    Arg.(
      value & opt int 64
      & info [ "depth" ] ~docv:"N"
          ~doc:
            "Admission bound per device queue; a submission finding every \
             candidate queue this deep is rejected (backpressure).  0 means \
             unbounded; negative values are rejected.")
  in
  let no_steal =
    Arg.(
      value & flag
      & info [ "no-steal" ]
          ~doc:"Disable work stealing between device queues.")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Write-ahead outcome journal: record an intent line as each job \
             is admitted and a commit line (carrying the outcome verbatim) \
             before it is emitted, so a crashed service can be rerun with \
             $(b,--resume) without losing or duplicating outcomes.  Job ids \
             must be unique across the journal's lifetime.")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Replay the $(b,--journal) file before reading standard input: \
             committed outcome lines are re-emitted byte-identically \
             (exactly once per job) and unsettled intents are resubmitted.")
  in
  let chaos_rate_arg =
    Arg.(
      value & opt float 0.0
      & info [ "chaos-rate" ] ~docv:"P"
          ~doc:
            "Arm a seeded device-chaos campaign: each fleet instance is \
             dealt a crash, hang or brownout with this probability (0 \
             disables chaos).")
  in
  let chaos_seed_arg =
    Arg.(
      value & opt int 42
      & info [ "chaos-seed" ] ~docv:"SEED"
          ~doc:"Seed of the chaos campaign (deterministic per seed).")
  in
  let telemetry_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry" ] ~docv:"FILE"
          ~doc:
            "Stream continuous telemetry (periodic registry snapshots with \
             health/SLO status and buffered log records, as JSON lines) to \
             $(docv) while serving; read it live with $(b,lsq_cli monitor).")
  in
  let telemetry_prom_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry-prom" ] ~docv:"FILE"
          ~doc:
            "Also maintain a Prometheus text-exposition file at $(docv), \
             rewritten on every telemetry tick (requires $(b,--telemetry)).")
  in
  let telemetry_interval_arg =
    Arg.(
      value & opt float 1000.0
      & info [ "telemetry-interval-ms" ] ~docv:"MS"
          ~doc:"Telemetry snapshot period in milliseconds.")
  in
  let log_level_arg =
    Arg.(
      value & opt string "info"
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:
            "Structured-log threshold: debug, info, warn or error.  Without \
             $(b,--telemetry) the log streams to standard error as JSON \
             lines; $(b,warn) also silences the end-of-run summary.")
  in
  let run pool_spec depth no_steal (rate, seed, kinds) solver out_file obs
      telemetry telemetry_prom telemetry_interval_ms log_level journal_file
      resume chaos_rate chaos_seed =
    let default_solver = solver_of solver in
    let pool =
      try Sched.Fleet.Config.pool_of_string pool_spec
      with Invalid_argument m -> usage_error "%s" m
    in
    (match Obs.Log.level_of_string log_level with
    | l -> Obs.Log.set_level l
    | exception Invalid_argument m -> usage_error "%s" m);
    if telemetry = None && telemetry_prom <> None then
      usage_error "--telemetry-prom requires --telemetry";
    if Float.is_nan telemetry_interval_ms || telemetry_interval_ms <= 0.0 then
      usage_error "--telemetry-interval-ms %g must be positive"
        telemetry_interval_ms;
    if depth < 0 then
      usage_error "--depth %d must be non-negative (0 means unbounded)" depth;
    if resume && journal_file = None then
      usage_error "--resume requires --journal";
    let chaos =
      if chaos_rate = 0.0 then None
      else
        try Some (Fault.Chaos.config ~seed:chaos_seed ~rate:chaos_rate ())
        with Invalid_argument m -> usage_error "%s" m
    in
    (* The --fault-* flags are defaults: they arm jobs that do not carry
       their own fault plan.  Resolved here, so bad flags exit before a
       journal is replayed or a fleet is built. *)
    let fault = fault_config_of ~rate ~seed ~kinds in
    let config =
      {
        Sched.Fleet.Config.default with
        pool;
        max_queue_depth =
          (if depth = 0 then Sched.Fleet.Config.unbounded else depth);
        steal = not no_steal;
        chaos;
      }
    in
    Result.iter_error (usage_error "%s") (Sched.Fleet.Config.validate config);
    (* With a telemetry stream the log records ride inside it; without
       one they go to stderr as JSON lines, keeping stdout pure outcome
       lines either way. *)
    Obs.Log.set_sink
      (match telemetry with
      | Some _ -> Obs.Log.Buffered
      | None -> Obs.Log.Channel stderr);
    let oc = match out_file with Some f -> open_out f | None -> stdout in
    let emit line = output_string oc (line ^ "\n"); flush oc in
    with_observability obs (fun () ->
        let exporter =
          Option.map
            (fun path ->
              Obs.Telemetry.start ~interval_ms:telemetry_interval_ms
                ?prom:
                  (Option.map (fun p -> Obs.Telemetry.File p) telemetry_prom)
                (Obs.Telemetry.File path))
            telemetry
        in
        let s =
          Sched.Service.run ?journal:journal_file ~resume ?fault
            ~solver:default_solver config Unix.stdin ~emit
        in
        Option.iter Obs.Telemetry.stop exporter;
        (* The human summary is observability, not output: it obeys the
           log threshold (--log-level warn runs silent). *)
        if Obs.Log.enabled Obs.Log.Info then begin
          Printf.eprintf
            "serve: %d submitted, %d rejected, %d skipped, %d stolen%s%s\n"
            s.submitted s.rejected s.skipped
            (List.fold_left (fun n i -> n + i.Sched.Fleet.stolen) 0 s.stats)
            (if s.replayed = 0 then ""
             else Printf.sprintf ", %d replayed" s.replayed)
            (if s.drained then " (drained on SIGTERM)" else "");
          List.iter
            (fun (i : Sched.Fleet.stats) ->
              Printf.eprintf
                "  %-12s %4d executed (%d stolen)  utilization %5.1f%%%s\n"
                i.id i.executed i.stolen (100.0 *. i.utilization)
                (if i.state = "ok" then "" else "  " ^ i.state))
            s.stats
        end);
    if out_file <> None then close_out oc
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the fleet service: read JSON job objects from standard input \
          (one per line), place them across a pool of simulated devices \
          with roofline-aware placement, work stealing and bounded-queue \
          admission control, and emit one JSON outcome line per job as it \
          finishes.  Jobs with device \"auto\" (or no device) are routed by \
          the placement policy; rejected submissions answer with a \
          {\"status\":\"rejected\"} line.  With $(b,--journal) the service \
          is crash-safe: rerunning with $(b,--resume) yields exactly one \
          outcome line per job across the crash; SIGTERM drains gracefully.")
    Term.(
      const run $ pool_spec $ depth $ no_steal $ fault_flags $ solver_name
      $ out_arg $ obs_flags $ telemetry_arg $ telemetry_prom_arg
      $ telemetry_interval_arg $ log_level_arg $ journal_arg $ resume_arg
      $ chaos_rate_arg $ chaos_seed_arg)

let monitor_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Telemetry JSON-lines file written by serve --telemetry.")
  in
  let follow_arg =
    Arg.(
      value & flag
      & info [ "f"; "follow" ]
          ~doc:
            "Keep tailing the file, re-rendering on every new snapshot and \
             echoing warn/error log records, until interrupted.")
  in
  let poll_arg =
    Arg.(
      value & opt float 500.0
      & info [ "poll-ms" ] ~docv:"MS"
          ~doc:"Poll period while following, in milliseconds.")
  in
  (* Whole-file read, trimmed to the last complete line: the serve
     process appends whole lines, but a poll can land mid-write. *)
  let read_complete_lines path =
    match open_in_bin path with
    | exception Sys_error m -> usage_error "%s" m
    | ic ->
      let len = in_channel_length ic in
      let buf = really_input_string ic len in
      close_in ic;
      (match String.rindex_opt buf '\n' with
      | None -> []
      | Some i -> String.split_on_char '\n' (String.sub buf 0 i))
  in
  let bar width frac =
    let n = max 0 (min width (int_of_float (frac *. float_of_int width))) in
    String.make n '#' ^ String.make (width - n) '.'
  in
  let render (s : Obs.Telemetry.snapshot) =
    let counter name =
      match List.assoc_opt name s.Obs.Telemetry.metrics with
      | Some (Obs.Metrics.Counter c) -> c
      | _ -> 0
    in
    let gauges prefix =
      List.filter_map
        (fun (name, v) ->
          match v with
          | Obs.Metrics.Gauge g when String.starts_with ~prefix name ->
            Some
              ( String.sub name (String.length prefix)
                  (String.length name - String.length prefix),
                g )
          | _ -> None)
        s.Obs.Telemetry.metrics
    in
    pf "snapshot #%d\n" s.Obs.Telemetry.seq;
    pf "  fleet: %d submitted, %d completed, %d failed, %d rejected, %d steals\n"
      (counter "fleet.submitted") (counter "fleet.completed")
      (counter "fleet.failed") (counter "fleet.rejected")
      (counter "fleet.steals");
    let utils = gauges "fleet.util." in
    let depths = gauges "fleet.queue_depth." in
    let inflight = gauges "fleet.inflight." in
    List.iter
      (fun (id, util) ->
        let depth =
          match List.assoc_opt id depths with Some d -> d | None -> 0.0
        in
        let busy =
          match List.assoc_opt id inflight with Some f -> f > 0.0 | None -> false
        in
        pf "  %-12s [%s] %5.1f%%  queue %2.0f  %s\n" id (bar 20 util)
          (100.0 *. util) depth
          (if busy then "busy" else "idle"))
      utils;
    List.iter
      (fun (name, v) ->
        match v with
        | Obs.Metrics.Histogram { count; p50; p95; p99; _ }
          when String.starts_with ~prefix:"fleet.latency_ms." name && count > 0
          ->
          pf "  latency %-12s p50 %8.1f ms  p95 %8.1f ms  p99 %8.1f ms  (%d)\n"
            (String.sub name 17 (String.length name - 17))
            p50 p95 p99 count
        | _ -> ())
      s.Obs.Telemetry.metrics;
    List.iter
      (fun (h : Obs.Health.class_status) ->
        pf "  slo %-12s p95 %s%s  %s | budget %d/%d failed%s  %s\n"
          h.Obs.Health.cls
          (match h.Obs.Health.p95_ms with
          | Some p -> Printf.sprintf "%8.1f ms" p
          | None -> "       - ms")
          (match h.Obs.Health.slo_ms with
          | Some t -> Printf.sprintf " (target %.1f ms)" t
          | None -> "")
          (if h.Obs.Health.slo_ok then "ok" else "BREACH")
          h.Obs.Health.failures h.Obs.Health.total
          (match h.Obs.Health.budget with
          | Some b -> Printf.sprintf " (%.0f%% of budget %.2f)"
                        (100.0 *. h.Obs.Health.budget_used) b
          | None -> "")
          (if h.Obs.Health.budget_ok then "ok" else "EXHAUSTED"))
      s.Obs.Telemetry.health;
    (match List.filter (fun (d : Obs.Health.stage_drift) -> d.Obs.Health.drifted)
             s.Obs.Telemetry.drift
     with
    | [] ->
      if s.Obs.Telemetry.drift <> [] then pf "  cost model: no drift\n"
    | drifted ->
      List.iter
        (fun (d : Obs.Health.stage_drift) ->
          pf "  cost model DRIFT %-20s measured/predicted %.2fx over %d samples\n"
            d.Obs.Health.stage d.Obs.Health.ratio d.Obs.Health.samples)
        drifted);
    flush stdout
  in
  let run file follow poll_ms =
    let seen = ref 0 in
    let last = ref None in
    let parse_errors = ref 0 in
    (* Torn tail-follow reads are expected, not fatal: count them here
       and in the metrics registry instead of crashing the monitor. *)
    let parse_errors_counter =
      Obs.Metrics.counter (Obs.Metrics.default ()) "monitor.parse_errors"
    in
    let consume ~echo_logs =
      let lines = read_complete_lines file in
      let fresh = List.filteri (fun i _ -> i >= !seen) lines in
      seen := List.length lines;
      List.iter
        (fun line ->
          if String.trim line <> "" then
            match Obs.Telemetry.line_of_string line with
            | Obs.Telemetry.Snapshot s -> last := Some s
            | Obs.Telemetry.Log_line r ->
              if
                echo_logs
                && match r.Obs.Log.level with
                   | Obs.Log.Warn | Obs.Log.Error -> true
                   | Obs.Log.Debug | Obs.Log.Info -> false
              then pf "%s\n" (Obs.Log.to_json_line r)
            | exception Obs.Json.Error _ ->
              incr parse_errors;
              Obs.Metrics.Counter.incr parse_errors_counter)
        fresh
    in
    if follow then begin
      let rec loop () =
        let before = !last in
        consume ~echo_logs:true;
        (match !last with
        | Some s when before <> Some s -> render s
        | _ -> ());
        Unix.sleepf (Float.max 0.01 (poll_ms /. 1000.0));
        loop ()
      in
      loop ()
    end
    else begin
      consume ~echo_logs:false;
      match !last with
      | Some s ->
        render s;
        if !parse_errors > 0 then
          Printf.eprintf "monitor: %d malformed line%s skipped\n" !parse_errors
            (if !parse_errors = 1 then "" else "s")
      | None ->
        Printf.eprintf "monitor: no snapshot lines in %s\n" file;
        exit 1
    end
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:
         "Render a live fleet summary from a telemetry file written by \
          $(b,lsq_cli serve --telemetry): per-instance utilization and queue \
          depths, latency quantiles, SLO/error-budget status and cost-model \
          drift.  One-shot by default; --follow tails the file.")
    Term.(const run $ file_arg $ follow_arg $ poll_arg)

let devices_cmd =
  let run () =
    pf "%-12s %5s %5s %10s %7s %6s %10s %9s\n" "device" "CUDA" "#MP"
      "#cores/MP" "#cores" "GHz" "DP peak" "DRAM GB/s";
    List.iter
      (fun d ->
        pf "%-12s %5.1f %5d %10d %7d %6.2f %7.0f GF %9.0f\n"
          d.Gpusim.Device.name d.Gpusim.Device.cuda d.Gpusim.Device.sm_count
          d.Gpusim.Device.cores_per_sm (Gpusim.Device.cores d)
          d.Gpusim.Device.ghz d.Gpusim.Device.dp_peak_gflops
          d.Gpusim.Device.dram_gb_s)
      Gpusim.Device.catalog
  in
  Cmd.v
    (Cmd.info "devices" ~doc:"List the simulated GPUs (Table 2).")
    Term.(const run $ const ())

let precisions_cmd =
  let run () =
    pf "%-6s %-14s %7s %9s %9s %9s %10s\n" "label" "name" "limbs" "add"
      "mul" "div" "avg ovh";
    List.iter
      (fun p ->
        pf "%-6s %-14s %7d %9d %9d %9d %10.1f\n" (P.label p) (P.name p)
          (P.limbs p) (P.add_flops p) (P.mul_flops p) (P.div_flops p)
          (P.average_flops p))
      P.all
  in
  Cmd.v
    (Cmd.info "precisions" ~doc:"List the precisions and Table 1 op counts.")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "lsq_cli" ~version:"1.0"
      ~doc:
        "Least squares on simulated GPUs in multiple double precision \
         (reproduction of Verschelde, IPDPSW 2022)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ qr_cmd; backsub_cmd; solve_cmd; faults_cmd; roofline_cmd; batch_cmd; serve_cmd; monitor_cmd; refine_cmd; toeplitz_cmd; psolve_cmd; cond_cmd; devices_cmd; precisions_cmd ]))
