(* Personal supercomputing: how the quad double least squares solver
   scales across the paper's five GPUs and across problem dimensions,
   using the cost model only (no numeric execution), so the sweep covers
   dimensions up to 4096 in a second.

     dune exec examples/device_sweep.exe *)

open Lsq_core
module P = Multidouble.Precision
module K = Mdlinalg.Scalar.Qd
module Solver = Solver.Make (K)

let () =
  let dims = [ 256; 512; 1024; 2048; 4096 ] in
  Printf.printf
    "least squares in quad double precision: kernel gigaflops by device\n";
  Printf.printf "%-12s" "device";
  List.iter (fun n -> Printf.printf " %9d" n) dims;
  print_newline ();
  List.iter
    (fun d ->
      Printf.printf "%-12s" d.Gpusim.Device.name;
      List.iter
        (fun n ->
          let r =
            Solver.plan ~method_:Qr_direct ~device:d ~rows:n ~cols:n ~tile:128 ()
          in
          Printf.printf " %9.1f" r.Solver.kernel_gflops)
        dims;
      print_newline ())
    Gpusim.Device.catalog;
  Printf.printf
    "\nsmallest dimension with at least one teraflops (kernel flops):\n";
  List.iter
    (fun d ->
      let found =
        List.find_opt
          (fun n ->
            let r =
              Solver.plan ~method_:Qr_direct ~device:d ~rows:n ~cols:n
                ~tile:128 ()
            in
            r.Solver.kernel_gflops >= 1000.0)
          dims
      in
      Printf.printf "  %-12s %s\n" d.Gpusim.Device.name
        (match found with
        | Some n -> string_of_int n
        | None -> "not reached (low double precision peak)"))
    Gpusim.Device.catalog
