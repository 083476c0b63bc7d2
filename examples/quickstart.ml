(* Quickstart: solve a linear system in the least squares sense in quad
   double precision on a simulated V100.

     dune exec examples/quickstart.exe

   The API in three steps: pick a scalar field (precision, real or
   complex), build the problem with the linear algebra substrate, call the
   accelerated solver. *)

open Mdlinalg
open Lsq_core

(* 1. Pick the scalar field: real quad double (~64 decimal digits). *)
module K = Scalar.Qd
module M = Mat.Make (K)
module V = Vec.Make (K)
module Solver = Solver.Make (K)
module Rand = Randmat.Make (K)

let () =
  (* 2. Build an overdetermined random system with a known solution. *)
  let rng = Dompool.Prng.create 7 in
  let rows = 96 and cols = 64 in
  let a = Rand.matrix rng rows cols in
  let x_true = Rand.vector rng cols in
  let b = M.matvec a x_true in

  (* 3. Solve on the simulated device with the direct engine (blocked
     Householder QR of Algorithm 2 followed by the tiled back
     substitution of Algorithm 1, with tiles of 16 columns; a tall
     system takes the economy QR that never forms Q). *)
  let device = Gpusim.Device.v100 in
  let res = Solver.solve ~method_:Qr_direct ~device ~a ~b ~tile:16 () in
  let part name =
    List.find (fun (p : Solver.part) -> p.Solver.name = name) res.Solver.parts
  in
  let qr = part Lsq_core.Solver.qr_part
  and bs = part Lsq_core.Solver.bs_part in

  let err =
    K.R.div (V.norm (V.sub res.Solver.x x_true)) (V.norm x_true)
  in
  Printf.printf "least squares on a %dx%d system in %s precision\n" rows cols
    K.R.name;
  Printf.printf "  relative forward error : %s\n" (K.R.to_string ~digits:3 err);
  Printf.printf "  unit roundoff          : %.3e\n" K.R.eps;
  Printf.printf "  simulated device       : %s\n" device.Gpusim.Device.name;
  Printf.printf "  QR kernel time         : %8.3f ms (%.1f gigaflops)\n"
    qr.Solver.kernel_ms qr.Solver.kernel_gflops;
  Printf.printf "  back subst. kernel time: %8.3f ms\n" bs.Solver.kernel_ms;
  Printf.printf "  wall clock             : %8.3f ms\n" res.Solver.wall_ms;
  if K.R.compare err (K.R.of_float (1e10 *. K.R.eps)) > 0 then begin
    print_endline "unexpectedly large error";
    exit 1
  end;
  print_endline "ok"
