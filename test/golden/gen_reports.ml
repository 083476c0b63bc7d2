(* Prints the golden report corpus: one schema-5 report per line, each
   the [Sched.Engine.run_job] report of a fixed job.  Modeled
   milliseconds are deterministic and executed runs are bit-identical
   from run to run, so the corpus is compared byte for byte
   (test/golden/dune); after an intended change, regenerate it with
   `dune runtest` followed by `dune promote`.  An executed job's line is
   the report of its one executed run: its ladder, iterations and fault
   tally are what that run did.

   The jobs: the first plan-only job of each paper table (Tables 3-10),
   executed square QR, back substitution and solve at every precision,
   executed tall CG and LSQR, a complex executed QR, a fault-armed plan,
   a fault-armed executed square solve, an executed tall QR and
   fault-armed tall solve, an executed tall direct solve (the thin path
   on the flat arm), and a fault-armed executed QR. *)

module P = Multidouble.Precision
module Job = Sched.Job

let tables =
  [ "table3"; "table4"; "table5"; "table6"; "table7"; "table8"; "table9";
    "table10" ]

let job = Job.make ~device:"V100"

let executed_square =
  List.concat_map
    (fun prec ->
      let dim, tile = if prec = P.OD then (16, 4) else (32, 8) in
      let name kind = Printf.sprintf "exec-%s-%s" kind (P.label prec) in
      [
        job ~id:(name "qr") ~kind:Job.Qr ~prec ~dim ~tile ~execute:true ();
        job ~id:(name "bs") ~kind:Job.Backsub ~prec ~dim ~tile ~execute:true
          ();
        job ~id:(name "solve") ~kind:Job.Solve ~prec ~dim ~tile ~execute:true
          ();
      ])
    P.all

let executed_tall =
  List.map
    (fun solver ->
      job
        ~id:("exec-tall-" ^ Lsq_core.Solver.method_name solver)
        ~kind:Job.Solve ~solver ~prec:P.DD ~rows:256 ~dim:16 ~tile:16
        ~execute:true ())
    [ Lsq_core.Solver.Cg_normal; Lsq_core.Solver.Lsqr ]

let jobs =
  List.map (fun t -> List.hd (Sched.Sweep.jobs t)) tables
  @ executed_square @ executed_tall
  @ [
      job ~id:"exec-qr-2d-complex" ~kind:Job.Qr ~prec:P.DD ~complex:true
        ~dim:16 ~tile:4 ~execute:true ();
      job ~id:"plan-solve-fault" ~kind:Job.Solve ~prec:P.DD ~dim:256 ~tile:32
        ~fault_rate:0.01 ~fault_seed:7 ();
      job ~id:"exec-solve-fault" ~kind:Job.Solve ~prec:P.DD ~dim:32 ~tile:8
        ~fault_rate:0.01 ~fault_seed:11 ~execute:true ();
      job ~id:"exec-qr-tall" ~kind:Job.Qr ~prec:P.DD ~rows:256 ~dim:32 ~tile:8
        ~execute:true ();
      job ~id:"exec-solve-fault-tall" ~kind:Job.Solve ~prec:P.DD ~rows:256
        ~dim:32 ~tile:8 ~fault_rate:0.01 ~execute:true ();
      job ~id:"exec-solve-tall" ~kind:Job.Solve ~prec:P.DD ~rows:256 ~dim:32
        ~tile:8 ~execute:true ();
      job ~id:"exec-qr-fault" ~kind:Job.Qr ~prec:P.DD ~dim:32 ~tile:8
        ~fault_rate:0.01 ~fault_seed:11 ~execute:true ();
    ]

let () =
  List.iter
    (fun j ->
      print_endline (Harness.Report.to_json_string (Sched.Engine.run_job j)))
    jobs
