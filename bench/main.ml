(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation section on the simulated devices, runs the
   numerical verification, the ablations, and the bechamel
   micro-benchmarks.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- table4  # a single item
*)

let items : (string * (unit -> unit)) list =
  [
    ("table1", Tables.table1);
    ("table2", Tables.table2);
    ("table3", Tables.table3);
    ( "table4+figure1",
      fun () ->
        let runs = Tables.table4 () in
        Tables.figure1 runs );
    ("table5", Tables.table5);
    ( "table6+figure2",
      fun () ->
        let runs = Tables.table6 () in
        Tables.figure2 runs );
    ( "table7+figure3",
      fun () ->
        let runs = Tables.table7 () in
        Tables.figure3 runs );
    ( "table8+figure4",
      fun () ->
        let runs = Tables.table8 () in
        Tables.figure4 runs );
    ("table9", Tables.table9);
    ("table10", Tables.table10);
    ("verify", Verify_bench.run);
    ("ablation-tiles", Tables.ablation_tiles);
    ("ablation-roofline", Tables.ablation_roofline);
    ("ablation-binding", Tables.ablation_binding);
    ("ablation-refinement", Tables.ablation_refinement);
    ("ablation-naive-bs", Tables.ablation_naive_bs);
    ("ablation-host-vs-device", Tables.ablation_host_vs_device);
    ("ablation-application", Tables.ablation_application);
    ("ablation-thin", Tables.ablation_thin);
    ("ablation-stability", Tables.ablation_stability);
    ("ablation-occupancy", Tables.ablation_occupancy);
    ("host-bechamel", Host_bench.run);
    ("kernels", Kernels_bench.run);
    ("kernels-smoke", Kernels_bench.smoke);
    ("batch-smoke", Batch_bench.smoke);
    ("trace-smoke", Trace_bench.smoke);
    ("fleet-smoke", Fleet_bench.smoke);
    ("faults", Faults_bench.run);
    ("fault-smoke", Faults_bench.smoke);
    ("telemetry-smoke", Telemetry_bench.smoke);
    ("chaos-smoke", Chaos_bench.smoke);
    ( "gate-selftest",
      fun () ->
        Printf.printf "\n%s\nGate self-test: injected slowdowns must fail the \
            wall-clock gates\n%s\n"
          (String.make 100 '-') (String.make 100 '-');
        Telemetry_bench.selftest ();
        Chaos_bench.selftest () );
    ("iter-smoke", Iter_bench.smoke);
  ]

let () =
  let wanted =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as rest) -> rest
    | _ -> []
  in
  let selected =
    if wanted = [] then items
    else
      List.filter
        (fun (name, _) ->
          List.exists
            (fun w ->
              name = w
              || String.length w <= String.length name
                 && String.sub name 0 (String.length w) = w)
            wanted)
        items
  in
  if selected = [] then begin
    Printf.eprintf "unknown bench; available:\n";
    List.iter (fun (n, _) -> Printf.eprintf "  %s\n" n) items;
    exit 1
  end;
  Printf.printf
    "Least squares on (simulated) GPUs in multiple double precision — benchmark harness\n";
  Printf.printf
    "Reproduces the tables and figures of J. Verschelde, IPDPSW 2022 (arXiv:2110.08375).\n";
  List.iter (fun (_, f) -> f ()) selected
