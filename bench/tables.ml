(* Regenerates every table and figure of the paper's evaluation section.

   Tables 3-10 run the plan-only jobs of their [Sched.Sweep] grid through
   [Sched.Engine.run_job], as [lsq_cli batch --sweep] does; this file
   holds only the paper's reference values and the printing.  Each
   printer prints the same rows the paper reports; the aggregate lines
   carry the paper's measured values for side-by-side comparison.  Absolute
   milliseconds need not match a physical testbed — the claims under test
   are the shapes: who wins, the overhead factors of doubling the
   precision, where teraflop performance starts, and which stages
   dominate where. *)

open Gpusim
module P = Multidouble.Precision

let pf = Printf.printf
let line = String.make 100 '-'

let title id t =
  pf "\n%s\n%s: %s\n%s\n" line id t line

let fmt_floats vs =
  String.concat " " (List.map (fun v -> Printf.sprintf "%.1f" v) vs)

let row ?paper name values =
  pf "%-24s" name;
  List.iter (fun v -> pf " %11.1f" v) values;
  (match paper with
  | Some p -> pf "   (paper: %s)" (fmt_floats p)
  | None -> ());
  pf "\n"

let header name cols =
  pf "%-24s" name;
  List.iter (fun c -> pf " %11s" c) cols;
  pf "\n"

(* Prints one paper-style table: stage rows then the four aggregate rows,
   for the list of [runs] (one per column). *)
let stage_table ?paper_kernels ?paper_wall ?paper_kflops ?paper_wflops
    ~cols (runs : Harness.Report.t list) =
  header "stage" cols;
  (match runs with
  | [] -> ()
  | first :: _ ->
    List.iteri
      (fun i (s : Harness.Report.Row.t) ->
        row s.Harness.Report.Row.stage
          (List.map
             (fun r ->
               (List.nth r.Harness.Report.stages i).Harness.Report.Row.ms)
             runs))
      first.Harness.Report.stages);
  row ?paper:paper_kernels "all kernels"
    (List.map (fun r -> r.Harness.Report.kernel_ms) runs);
  row ?paper:paper_wall "wall clock"
    (List.map (fun r -> r.Harness.Report.wall_ms) runs);
  row ?paper:paper_kflops "kernel flops"
    (List.map (fun r -> r.Harness.Report.kernel_gflops) runs);
  row ?paper:paper_wflops "wall flops"
    (List.map (fun r -> r.Harness.Report.wall_gflops) runs)

let log2 x = if x <= 0.0 then 0.0 else Float.log x /. Float.log 2.0

(* When BENCH_CSV_DIR is set, every figure also lands as a CSV file
   there, ready for external plotting. *)
let csv_write name rows =
  match Sys.getenv_opt "BENCH_CSV_DIR" with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (name ^ ".csv") in
    let oc = open_out path in
    List.iter (fun row -> output_string oc (String.concat "," row ^ "\n")) rows;
    close_out oc;
    pf "  [csv written to %s]\n" path

let bar_chart ?csv ~title:t ~groups () =
  pf "\n%s (2-logarithms of milliseconds; one # per half unit)\n" t;
  List.iter
    (fun (group, entries) ->
      List.iter
        (fun (label, ms) ->
          let l = log2 ms in
          pf "  %-10s %-6s %6.2f %s\n" group label l
            (String.make (max 0 (int_of_float (2.0 *. l))) '#'))
        entries)
    groups;
  match csv with
  | None -> ()
  | Some name ->
    csv_write name
      ([ "group"; "label"; "kernel_ms"; "log2_ms" ]
      :: List.concat_map
           (fun (group, entries) ->
             List.map
               (fun (label, ms) ->
                 [ group; label; Printf.sprintf "%.6f" ms;
                   Printf.sprintf "%.4f" (log2 ms) ])
               entries)
           groups)

(* ------------------------------------------------------------------ *)

let table1 () =
  title "Table 1" "operation counts of multiple double arithmetic";
  pf "%-14s %6s %6s %6s %6s %8s\n" "operation" "+" "-" "*" "/" "total";
  List.iter
    (fun p ->
      let c = P.costs p in
      let pr name (o : P.op_cost) =
        pf "%-4s %-9s %6d %6d %6d %6d %8d\n" (P.label p) name o.P.adds
          o.P.subs o.P.muls o.P.divs (P.cost_total o)
      in
      pr "add" c.P.add;
      pr "mul" c.P.mul;
      pr "div" c.P.div;
      pf "%-4s %-9s average %.1f double operations per operation\n"
        (P.label p) "" (P.average_flops p))
    [ P.DD; P.QD; P.OD ];
  pf "predicted overhead dd->qd: %.1f (paper: 11.7)\n"
    (P.predicted_overhead ~lo:P.DD ~hi:P.QD);
  pf "predicted overhead qd->od: %.1f (paper: 5.4)\n"
    (P.predicted_overhead ~lo:P.QD ~hi:P.OD)

let table2 () =
  title "Table 2" "the five GPUs";
  pf "%-12s %5s %5s %10s %7s %6s  %-14s %s\n" "NVIDIA GPU" "CUDA" "#MP"
    "#cores/MP" "#cores" "GHz" "host CPU" "host GHz";
  List.iter
    (fun d ->
      pf "%-12s %5.1f %5d %10d %7d %6.2f  %-14s %.2f\n" d.Device.name
        d.Device.cuda d.Device.sm_count d.Device.cores_per_sm
        (Device.cores d) d.Device.ghz d.Device.host_cpu d.Device.host_ghz)
    Device.catalog

(* ---- Tables 3-10: the Sched.Sweep grids ----

   Each table's runs are its sweep's plan-only jobs, in sweep order,
   through [Sched.Engine.run_job] — the grids the batch CLI and the
   performance ledger run.  What stays here is the paper's reference
   values and the printing. *)

module Job = Sched.Job

let sweep table =
  List.map (fun j -> (j, Sched.Engine.run_job j)) (Sched.Sweep.jobs table)

let reports runs = List.map snd runs
let kernel_ms (r : Harness.Report.t) = r.Harness.Report.kernel_ms

(* "NxT": N tiles of T. *)
let tiles_label (j : Job.t) =
  Printf.sprintf "%dx%d" (j.Job.dim / j.Job.tile) j.Job.tile

(* Consecutive runs sharing [key], in order. *)
let group_by key runs =
  List.fold_right
    (fun r acc ->
      match acc with
      | (k, rs) :: rest when k = key r -> (k, r :: rs) :: rest
      | _ -> (key r, [ r ]) :: acc)
    runs []

(* One stage table per group of runs under its own heading, with the
   paper's (kernels, wall, kernel flops, wall flops) rows in group
   order; a grid and a reference list that disagree in length raise. *)
let group_tables ~key ~heading ~col paper runs =
  let groups = group_by key runs in
  List.iter2
    (fun (k, runs) (pk, pw, pkf, pwf) ->
      pf "\n-- %s --\n" (heading k);
      stage_table ~cols:(List.map col runs) ?paper_kernels:pk ?paper_wall:pw
        ?paper_kflops:pkf ?paper_wflops:pwf (reports runs))
    groups paper;
  groups

let on_device = Printf.sprintf "times on the %s"
let in_precision p = P.name p ^ " precision"

let table3 () =
  title "Table 3"
    "blocked Householder QR, double double, 1024x1024, 8 tiles of 128";
  let runs = sweep "table3" in
  stage_table
    ~cols:(List.map (fun (j, _) -> j.Job.device) runs)
    ~paper_kernels:[ 8888.3; 5506.1; 712.4; 451.5; 3968.2 ]
    ~paper_wall:[ 9083.0; 5682.0; 826.0; 568.0; 4700.0 ]
    ~paper_kflops:[ 115.8; 187.0; 1445.3; 2280.4; 259.5 ]
    ~paper_wflops:[ 113.4; 181.2; 1247.2; 1812.7; 219.1 ]
    (reports runs);
  match reports runs with
  | [ c2050; _; _; v100; _ ] ->
    pf "\nC2050 over V100 kernel-time ratio: %.1f (paper: 19.6)\n"
      (kernel_ms c2050 /. kernel_ms v100)
  | _ -> ()

let table4 () =
  title "Table 4"
    "blocked Householder QR at 1d/2d/4d/8d, 1024x1024, 8 tiles of 128";
  (* Per device: the four reference rows, then the paper's dd->qd and
     qd->od overhead factors. *)
  let paper =
    [
      ( [ 338.6; 3999.5; 35826.7; 160802.8 ],
        [ 562.0; 4708.0; 37087.0; 163219.0 ],
        [ 141.5; 257.4; 284.1; 299.7 ],
        [ 85.2; 218.7; 274.5; 295.3 ],
        ("9.0", "4.5") );
      ( [ 256.2; 712.7; 5187.0; 20547.5 ],
        [ 311.0; 827.0; 5381.0; 20870.0 ],
        [ 180.6; 1444.6; 1962.4; 2345.4 ],
        [ 154.0; 1244.8; 1891.5; 2309.2 ],
        ("7.3", "4.0") );
      ( [ 158.4; 446.8; 3167.0; 11754.6 ],
        [ 206.0; 560.0; 3356.0; 12059.0 ],
        [ 302.5; 2304.3; 3214.0; 4099.9 ],
        [ 232.8; 1837.3; 3033.0; 3996.3 ],
        ("7.1", "3.7") );
    ]
  in
  let groups =
    group_tables
      ~key:(fun (j, _) -> j.Job.device)
      ~heading:on_device
      ~col:(fun (j, _) -> P.label j.Job.prec)
      (List.map
         (fun (pk, pw, pkf, pwf, _) -> (Some pk, Some pw, Some pkf, Some pwf))
         paper)
      (sweep "table4")
  in
  pf "\ncost overhead factors of doubling the precision (kernel times):\n";
  List.iter2
    (fun (name, runs) (_, _, _, _, (qd_paper, od_paper)) ->
      match reports runs with
      | [ _; dd; qd; od ] ->
        pf
          "  %-10s dd->qd %.1f (paper %s, predicted 11.7)   qd->od %.1f \
           (paper %s, predicted 5.4)\n"
          name
          (kernel_ms qd /. kernel_ms dd)
          qd_paper
          (kernel_ms od /. kernel_ms qd)
          od_paper
      | _ -> ())
    groups paper;
  groups

(* A figure's bars: per group, the kernel time of each run [label]
   names. *)
let bars label groups =
  List.map
    (fun (name, runs) ->
      ( name,
        List.filter_map
          (fun (j, r) -> Option.map (fun l -> (l, kernel_ms r)) (label j))
          runs ))
    groups

let figure1 table4_runs =
  title "Figure 1" "log2 kernel times of QR at 2d/4d/8d (data of Table 4)";
  bar_chart ~csv:"figure1" ~title:"QR on 1024x1024, 8 tiles of 128"
    ~groups:
      (bars
         (fun j -> if j.Job.prec = P.D then None else Some (P.label j.Job.prec))
         table4_runs)
    ()

let table5 () =
  title "Table 5"
    "real vs complex double double QR at dimension 512 on the V100";
  ignore
    (group_tables
       ~key:(fun (j, _) -> j.Job.complex)
       ~heading:(fun complex ->
         if complex then "on complex matrices" else "on real matrices")
       ~col:(fun (j, _) -> tiles_label j)
       [
         ( Some [ 53.2; 94.0; 100.5; 161.6 ],
           Some [ 101.0; 170.0; 155.0; 208.0 ],
           Some [ 428.4; 785.9; 1089.8; 777.3 ],
           Some [ 226.6; 434.5; 707.4; 603.3 ] );
         (Some [ 97.4; 227.4; 238.5; 420.8 ], None, None, None);
       ]
       (sweep "table5"))

let table6 () =
  title "Table 6"
    "blocked Householder QR for increasing dimension (tiles of 128), V100";
  let groups =
    group_tables
      ~key:(fun (j, _) -> j.Job.prec)
      ~heading:in_precision
      ~col:(fun (j, _) -> string_of_int j.Job.dim)
      [
        ( Some [ 100.5; 238.2; 1521.5; 26815.0 ],
          Some [ 155.0; 321.0; 1627.0; 27230.0 ],
          Some [ 1089.7; 1839.0; 2475.1; 1087.8 ],
          None );
        ( Some [ 674.3; 3136.5; 13431.2; 34372.5 ],
          Some [ 777.0; 3366.0; 13835.0; 34960.0 ],
          Some [ 1605.7; 3245.3; 2366.8; 2097.0 ],
          None );
        ( Some [ 2490.8; 12280.1; 44679.8; 107769.2 ],
          Some [ 2681.0; 12735.0; 45419.0; 108800.0 ],
          Some [ 2058.2; 3924.4; 3368.5; 3166.4 ],
          None );
      ]
      (sweep "table6")
  in
  (match Option.map reports (List.assoc_opt P.DD groups) with
  | Some [ _; r1024; _; r2048 ] ->
    pf
      "\ndouble double kernel time 1024 -> 2048 grows %.0fx (cubic alone \
       would be 8x; the paper observes the same sharp drop, ~113x)\n"
      (kernel_ms r2048 /. kernel_ms r1024)
  | _ -> ());
  groups

let figure2 table6_runs =
  title "Figure 2" "log2 kernel times of QR for increasing dimension (V100)";
  bar_chart ~csv:"figure2" ~title:"QR with tiles of 128"
    ~groups:
      (bars
         (fun j -> Some (string_of_int j.Job.dim))
         (List.map (fun (p, runs) -> (P.label p, runs)) table6_runs))
    ()

let table7 () =
  title "Table 7"
    "back substitution in four precisions on growing problems, V100";
  group_tables
    ~key:(fun (j, _) -> j.Job.prec)
    ~heading:in_precision
    ~col:(fun (j, _) ->
      Printf.sprintf "%dx%d" j.Job.tile (j.Job.dim / j.Job.tile))
    (List.map
       (fun (pk, pw, pkf) -> (Some pk, Some pw, Some pkf, None))
       [
         ([ 3.0; 8.9; 41.0 ], [ 47.0; 147.0; 526.0 ], [ 14.5; 28.5; 39.9 ]);
         ( [ 5.0; 17.3; 67.4 ],
           [ 82.0; 286.0; 966.0 ],
           [ 190.6; 318.7; 525.1 ] );
         ( [ 31.7; 88.8; 312.7 ],
           [ 187.0; 619.0; 2268.0 ],
           [ 299.4; 614.2; 1122.3 ] );
         ( [ 140.7; 316.2; 613.1 ],
           [ 465.0; 1400.0; 84448.0 ],
           [ 321.3; 820.1; 1166.7 ] );
       ])
    (sweep "table7")

let figure3 table7_runs =
  title "Figure 3"
    "log2 back substitution kernel times at 5120/10240/20480 (V100)";
  bar_chart ~csv:"figure3" ~title:"tiled back substitution"
    ~groups:
      (bars
         (fun j -> Some (string_of_int j.Job.dim))
         (List.map (fun (p, runs) -> (P.label p, runs)) table7_runs))
    ()

let table8 () =
  title "Table 8"
    "tiled back substitution, quad double, N=80 tiles of n=32..256";
  let groups =
    group_tables
      ~key:(fun (j, _) -> j.Job.device)
      ~heading:on_device
      ~col:(fun (j, _) -> string_of_int j.Job.tile)
      (List.map
         (fun (pk, pkf) -> (Some pk, None, Some pkf, None))
         [
           ( [ 106.8; 267.7; 524.4; 907.2; 1465.1; 2170.4; 3096.3; 4392.3 ],
             [ 17.4; 35.5; 49.6; 60.1; 67.0; 73.8; 78.6; 79.9 ] );
           ( [ 24.3; 49.6; 78.7; 119.0; 176.4; 259.8; 332.3; 431.7 ],
             [ 76.4; 191.5; 330.6; 458.3; 556.7; 616.1; 732.2; 813.1 ] );
           ( [ 19.6; 37.8; 59.2; 86.4; 145.0; 184.6; 237.1; 314.5 ],
             [ 94.9; 250.9; 439.6; 631.7; 677.4; 867.0; 1025.9; 1115.9 ] );
         ])
      (sweep "table8")
  in
  (match (List.assoc_opt "P100" groups, List.assoc_opt "V100" groups) with
  | Some p100, Some v100 ->
    let nth l i = kernel_ms (snd (List.nth l i)) in
    pf "\nP100/V100 kernel-time ratio at n=224: %.1f (paper: 3.1)\n"
      (nth p100 6 /. nth v100 6);
    pf "P100/V100 kernel-time ratio at n=256: %.1f (paper: 2.6)\n"
      (nth p100 7 /. nth v100 7)
  | _ -> ());
  groups

let figure4 table8_runs =
  title "Figure 4"
    "log2 back substitution kernel times, quad double, N=80 (three GPUs)";
  bar_chart ~csv:"figure4" ~title:"tiled back substitution, n = 32..256"
    ~groups:(bars (fun j -> Some (string_of_int j.Job.tile)) table8_runs)
    ()

let table9 () =
  title "Table 9"
    "back substitution, quad double, dimension 20480 = N x n, V100";
  let runs = sweep "table9" in
  stage_table
    ~cols:(List.map (fun (j, _) -> tiles_label j) runs)
    ~paper_kernels:[ 147.1; 175.0; 308.9 ]
    ~paper_wall:[ 2620.0; 2265.0; 2071.0 ]
    ~paper_kflops:[ 683.0; 861.1; 1136.1 ]
    ~paper_wflops:[ 38.3; 66.5; 169.5 ]
    (reports runs)

let table10 () =
  title "Table 10"
    "least squares solving in four precisions, 1024x1024, 8 tiles of 128";
  let paper =
    [
      ( [ 327.4; 4082.2; 36128.9; 164626.8 ],
        [ 1.7; 20.8; 192.0; 895.1 ],
        [ 145.6; 251.0; 280.3; 291.3 ] );
      ( [ 268.9; 707.8; 5193.0; 20508.2 ],
        [ 4.0; 7.5; 40.8; 181.8 ],
        [ 175.6; 1439.9; 1945.5; 2330.1 ] );
      ( [ 157.9; 451.1; 3020.6; 11924.5 ],
        [ 2.0; 4.0; 28.0; 114.5 ],
        [ 299.6; 2262.9; 3340.0; 4004.4 ] );
    ]
  in
  List.iter2
    (fun (name, group) (pqr, pbs, pkf) ->
      pf "\n-- %s --\n" (on_device name);
      let runs = reports group in
      let qr_of r = Harness.Report.part r Lsq_core.Solver.qr_part in
      let bs_of r = Harness.Report.part r Lsq_core.Solver.bs_part in
      header "stage" (List.map (fun (j, _) -> P.label j.Job.prec) group);
      row ~paper:pqr "QR kernel time"
        (List.map (fun r -> (qr_of r).Harness.Report.Part.kernel_ms) runs);
      row "QR wall time"
        (List.map (fun r -> (qr_of r).Harness.Report.Part.wall_ms) runs);
      row ~paper:pbs "BS kernel time"
        (List.map (fun r -> (bs_of r).Harness.Report.Part.kernel_ms) runs);
      row "BS wall time"
        (List.map (fun r -> (bs_of r).Harness.Report.Part.wall_ms) runs);
      row "QR kernel flops"
        (List.map (fun r -> (qr_of r).Harness.Report.Part.kernel_gflops) runs);
      row "QR wall flops"
        (List.map (fun r -> (qr_of r).Harness.Report.Part.wall_gflops) runs);
      row "BS kernel flops"
        (List.map (fun r -> (bs_of r).Harness.Report.Part.kernel_gflops) runs);
      row "BS wall flops"
        (List.map (fun r -> (bs_of r).Harness.Report.Part.wall_gflops) runs);
      row ~paper:pkf "total kernel flops"
        (List.map (fun r -> r.Harness.Report.kernel_gflops) runs);
      row "total wall flops"
        (List.map (fun r -> r.Harness.Report.wall_gflops) runs);
      match runs with
      | [ _; _; qd; _ ] ->
        pf "QR/BS kernel-time ratio at 4d: %.0f (paper: ~108, i.e. closer \
            to 100 than 1000)\n"
          ((qr_of qd).Harness.Report.Part.kernel_ms
          /. (bs_of qd).Harness.Report.Part.kernel_ms)
      | _ -> ())
    (group_by (fun (j, _) -> j.Job.device) (sweep "table10"))
    paper

(* ------------------------------------------------------------------ *)
(* Ablations beyond the paper                                          *)
(* ------------------------------------------------------------------ *)

let ablation_tiles () =
  title "Ablation A" "tile size sweep, quad double QR at 1024 on the V100";
  let tiles = [ 32; 64; 128; 256 ] in
  header "tile" (List.map string_of_int tiles);
  let runs =
    List.map (fun t -> Harness.Runners.qr P.QD Device.v100 ~n:1024 ~tile:t) tiles
  in
  row "all kernels" (List.map (fun r -> r.Harness.Report.kernel_ms) runs);
  row "wall clock" (List.map (fun r -> r.Harness.Report.wall_ms) runs);
  row "kernel flops" (List.map (fun r -> r.Harness.Report.kernel_gflops) runs);
  row "launches"
    (List.map (fun r -> float_of_int r.Harness.Report.launches) runs)

let ablation_roofline () =
  title "Ablation B" "arithmetic intensity of the register-loading product";
  pf "flops per byte of an n-length inner product, by precision:\n";
  List.iter
    (fun p ->
      let flops_pair = P.add_flops p + P.mul_flops p in
      let bytes = 2 * P.bytes p in
      pf "  %-3s %8.2f flops/byte" (P.label p)
        (float_of_int flops_pair /. float_of_int bytes);
      pf "\n")
    [ P.D; P.DD; P.QD; P.OD ];
  pf "device ridge points (flops/byte at which compute catches memory):\n";
  List.iter
    (fun d -> pf "  %-10s %8.2f\n" d.Device.name (Cost.ridge d))
    Device.catalog;
  pf
    "double stays under every ridge (memory bound); octo double clears \
     them all (compute bound) — the CGMA argument of the paper.\n"

let ablation_occupancy () =
  title "Ablation C" "occupancy model: blocks/threads vs achieved fraction";
  header "blocks" (List.map string_of_int [ 1; 8; 40; 80; 160; 640 ]);
  List.iter
    (fun threads ->
      row
        (Printf.sprintf "threads=%d" threads)
        (List.map
           (fun blocks -> Cost.occupancy Device.v100 ~blocks ~threads)
           [ 1; 8; 40; 80; 160; 640 ]))
    [ 32; 128; 256 ]

let ablation_binding () =
  title "Ablation D"
    "which roofline term binds the YWT*C kernel (first tile, V100)";
  pf "%-6s %8s %12s %12s %12s %10s\n" "prec" "dim" "compute ms" "dram ms"
    "cache ms" "binding";
  List.iter
    (fun p ->
      List.iter
        (fun n ->
          (* The k = 0 trailing update: rows = n, inner = n,
             trail = n - 128, one thread per output element. *)
          let tile = 128 in
          let trail = n - tile in
          let sb = float_of_int (8 * P.limbs p) in
          let f = float_of_int in
          let total = n * trail in
          let ops =
            Counter.make
              ~adds:(f n *. f trail *. f n)
              ~muls:(f n *. f trail *. f n)
              ()
          in
          let l =
            Cost.launch
              ~blocks:((total + tile - 1) / tile)
              ~threads:tile ~strided:true
              ~cold_bytes:(((f n *. f n) +. (f n *. f trail) +. f total) *. sb)
              ~thread_bytes:(2.0 *. f n *. f total *. sb)
              ~working_set:(f n *. f n *. 8.0)
              ops
          in
          let c, d, ca, b = Cost.terms Device.v100 p l in
          pf "%-6s %8d %12.1f %12.1f %12.1f %10s\n" (P.label p) n c d ca
            (Cost.binding_name b))
        [ 512; 1024; 1536; 2048 ])
    [ P.DD; P.QD; P.OD ];
  pf
    "(once the trailing panel of R spills the L2, the strided re-reads \
     dominate 2d compute ~35x but 4d/8d only ~3-7x: why the double \
     double drop of Table 6 is sharp while quad/octo double merely \
     bend)\n"

let ablation_refinement () =
  title "Ablation E"
    "mixed-precision iterative refinement vs direct high precision (n=128)";
  let module R = Lsq_core.Refine.Make (Multidouble.Double_double) (Multidouble.Quad_double) in
  let module Direct = Lsq_core.Solver.Make (R.KH) in
  let module MH = R.MH in
  let module VH = R.VH in
  let module RandH = Mdlinalg.Randmat.Make (R.KH) in
  let rng = Dompool.Prng.create 1771 in
  let n = 128 in
  let a = RandH.shifted rng n ~shift:8.0 in
  let x_true = RandH.vector rng n in
  let b = MH.matvec a x_true in
  let err x =
    Multidouble.Quad_double.to_float (VH.norm (VH.sub x x_true))
    /. Multidouble.Quad_double.to_float (VH.norm x_true)
  in
  let t0 = Unix.gettimeofday () in
  let refined = R.solve ~a ~b ~tile:32 () in
  let t1 = Unix.gettimeofday () in
  let direct =
    Direct.solve ~method_:Lsq_core.Solver.Qr_direct ~device:Device.v100 ~a ~b
      ~tile:32 ()
  in
  let t2 = Unix.gettimeofday () in
  pf "%-28s %16s %16s %14s\n" "method" "QR kernels (ms)" "fwd error"
    "host time (s)";
  pf "%-28s %16.3f %16.2e %14.2f\n"
    (Printf.sprintf "dd factor + %d refinements" refined.R.iterations)
    refined.R.qr_kernel_ms (err refined.R.x) (t1 -. t0);
  let qr =
    List.find
      (fun (p : Direct.part) -> p.Direct.name = Lsq_core.Solver.qr_part)
      direct.Direct.parts
  in
  pf "%-28s %16.3f %16.2e %14.2f\n" "direct qd factor" qr.Direct.kernel_ms
    (err direct.Direct.x) (t2 -. t1);
  pf
    "(same quad double accuracy, with the factorization flops paid in \
     double double — the modeled device time ratio matches the ~7x \
     overhead factor of Table 4)\n"

let ablation_naive_bs () =
  title "Ablation F"
    "Algorithm 1 vs classic back substitution on the device (qd, V100)";
  let module Naive = Lsq_core.Naive_back_sub.Make (Mdlinalg.Scalar.Qd) in
  let module Tiled = Lsq_core.Tiled_back_sub.Make (Mdlinalg.Scalar.Qd) in
  pf "%-8s %18s %18s %14s %14s\n" "dim" "tiled kernels ms" "naive kernels ms"
    "tiled lnch" "naive lnch";
  List.iter
    (fun dim ->
      let sim () =
        Sim.create ~execute:false ~device:Device.v100 ~prec:P.QD ()
      in
      let tiled = sim () and naive = sim () in
      Tiled.plan tiled ~dim ~tile:(dim / 80);
      Naive.plan naive ~dim;
      pf "%-8d %18.1f %18.1f %14d %14d\n" dim (Sim.kernel_ms tiled)
        (Sim.kernel_ms naive) (Sim.launches tiled) (Sim.launches naive))
    [ 2560; 5120; 10240 ];
  pf
    "(replacing the final division by a multiplication with precomputed \
     tile inverses collapses the launch count from 2 dim to N(N+1)/2+1 \
     and keeps whole blocks busy — the design choice of Algorithm 1)\n"

let ablation_host_vs_device () =
  title "Ablation G"
    "multicore host (measured) vs simulated V100 (modeled), dd QR n=192";
  let module B = Mdlinalg.Par_blas.Make (Mdlinalg.Scalar.Dd) in
  let module Rand = Mdlinalg.Randmat.Make (Mdlinalg.Scalar.Dd) in
  let rng = Dompool.Prng.create 8192 in
  let n = 192 in
  let a = Rand.matrix rng n n in
  let t0 = Unix.gettimeofday () in
  let q, r = B.qr_factor a in
  let host_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  ignore q;
  ignore r;
  let dev = Harness.Runners.qr P.DD Device.v100 ~n ~tile:32 in
  pf "%-34s %14.1f ms\n"
    (Printf.sprintf "host Householder QR (%d domains)"
       (Dompool.Domain_pool.size (Dompool.Domain_pool.get_default ())))
    host_ms;
  pf "%-34s %14.1f ms (model)\n" "simulated V100, Algorithm 2"
    dev.Harness.Report.kernel_ms;
  pf
    "(the accelerator's edge grows cubically with the dimension; at \
     1,024 the gap is the paper's 'GPU acceleration offsets the \
     overhead of multiple doubles' argument)\n"

let ablation_application () =
  title "Ablation H"
    "application: homotopy continuation, device time per precision";
  let module Build (R : Multidouble.Md_sig.S) = struct
    module S = Mdseries.Solve.Make (R)
    module Pp = Mdseries.Poly_parser.Make (S.K)

    let run () =
      let sys, _ =
        Pp.parse_system
          ~iunit:(S.K.of_floats 0.0 1.0)
          "x^2 + y^2 - 4; x y - 1"
      in
      let t0 = Unix.gettimeofday () in
      let r = S.solve sys in
      let host_s = Unix.gettimeofday () -. t0 in
      (List.length (S.distinct r.S.solutions), r.S.paths, host_s)
  end in
  pf "%-16s %10s %8s %14s\n" "precision" "solutions" "paths" "host time (s)";
  let line (name, (sols, paths, host_s)) =
    pf "%-16s %10d %8d %14.2f\n" name sols paths host_s
  in
  let module B1 = Build (Multidouble.Float_double) in
  line ("double", B1.run ());
  let module B2 = Build (Multidouble.Double_double) in
  line ("double double", B2.run ());
  let module B4 = Build (Multidouble.Quad_double) in
  line ("quad double", B4.run ());
  pf
    "(all four solutions of the conic intersection are found at every \
     precision; the residual floor scales with the working eps, cf. the \
     path_tracker example)\n"

let ablation_thin () =
  title "Ablation I"
    "full-Q solver (the paper's pipeline) vs thin xGELS-style solver";
  let module K = Mdlinalg.Scalar.Qd in
  let module S = Lsq_core.Solver.Make (K) in
  let module Qr = Lsq_core.Blocked_qr.Make (K) in
  pf "%-8s %18s %18s %10s\n" "dim" "full QR (ms)" "thin QR (ms)" "saving";
  List.iter
    (fun n ->
      (* A square system takes the full-Q path through the solver; the
         thin factorization is planned on its own simulator. *)
      let full =
        let r =
          S.plan ~method_:Lsq_core.Solver.Qr_direct ~device:Device.v100
            ~rows:n ~cols:n ~tile:128 ()
        in
        (List.find
           (fun (p : S.part) -> p.S.name = Lsq_core.Solver.qr_part)
           r.S.parts)
          .S.kernel_ms
      in
      let thin =
        let sim =
          Sim.create ~execute:false ~device:Device.v100 ~prec:K.prec ()
        in
        Qr.plan_thin sim ~rows:n ~cols:n ~tile:128;
        Sim.kernel_ms sim
      in
      pf "%-8d %18.1f %18.1f %9.1f%%\n" n full thin
        (100.0 *. (1.0 -. (thin /. full))))
    [ 512; 1024; 2048 ];
  pf
    "(the paper accumulates the full M-by-M Q — its Q*WY^T kernel is the \
     biggest matrix product; applying the reflectors to b instead removes \
     it when only the solution is wanted)\n"

let ablation_stability () =
  title "Ablation J"
    "why Householder QR: forward error vs the normal equations";
  let module Run (R : Multidouble.Md_sig.S) = struct
    module K = Mdlinalg.Scalar.Real (R)
    module M = Mdlinalg.Mat.Make (K)
    module V = Mdlinalg.Vec.Make (K)
    module Qr = Mdlinalg.Host_qr.Make (K)
    module Ch = Mdlinalg.Cholesky.Make (K)
    module Rand = Mdlinalg.Randmat.Make (K)

    let errors () =
      (* a Vandermonde fit, condition ~1e8: the normal equations square
         it while QR does not *)
      let m = 20 and n = 12 in
      let a = Rand.vandermonde m n in
      let x_true = V.init n (fun i -> R.of_int (i + 1)) in
      let b = M.matvec a x_true in
      let err x =
        R.to_float (V.norm (V.sub x x_true)) /. R.to_float (V.norm x_true)
      in
      (err (Qr.least_squares a b), err (Ch.least_squares a b))
  end in
  pf "%-16s %16s %22s\n" "precision" "QR fwd error" "normal eqns fwd error";
  let line (name, (qr, ne)) = pf "%-16s %16.1e %22.1e\n" name qr ne in
  let module R1 = Run (Multidouble.Float_double) in
  line ("double", R1.errors ());
  let module R2 = Run (Multidouble.Double_double) in
  line ("double double", R2.errors ());
  let module R4 = Run (Multidouble.Quad_double) in
  line ("quad double", R4.errors ());
  pf
    "(the normal equations square the condition number, losing roughly \
     twice the digits — the reason the paper's solver is built on the \
     numerically stable Householder QR [4, Thm 3.5])\n"
