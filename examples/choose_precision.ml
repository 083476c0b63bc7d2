(* How many limbs does your problem need?

   The workflow the paper's motivation (§1.1, [22]) implies: estimate the
   conditioning of the system, read off the digits at risk, pick the
   cheapest precision that still leaves the accuracy you want, and solve
   — optionally refining with a higher precision's residuals instead of
   paying the full factorization overhead.

     dune exec examples/choose_precision.exe *)

open Mdlinalg
module P = Multidouble.Precision

(* A graded family: Hilbert matrices of growing condition number. *)
module Build (R : Multidouble.Md_sig.S) = struct
  module K = Scalar.Real (R)
  module C = Cond.Make (K)
  module Rand = Randmat.Make (K)

  let digits_at_risk n = C.digits_at_risk (Rand.hilbert n)
end

let () =
  let module B = Build (Multidouble.Quad_double) in
  print_endline "digits at risk when solving the n x n Hilbert system:";
  Printf.printf "%6s %16s %28s\n" "n" "log10 cond" "cheapest safe precision";
  let wanted_digits = 12.0 in
  List.iter
    (fun n ->
      let risk = B.digits_at_risk n in
      Printf.printf "%6d %16.1f %28s\n" n risk
        (match P.cheapest ~less:risk ~digits:wanted_digits with
        | Some p -> Printf.sprintf "%s (%s)" (P.name p) (P.label p)
        | None -> "more than octo double"))
    [ 4; 8; 12; 16; 24; 32 ];
  Printf.printf "\n(for ~%.0f trusted digits)\n" wanted_digits;

  (* Demonstrate: solve the 12x12 Hilbert system at the recommended
     precision and at one precision lower, and compare forward errors. *)
  let n = 12 in
  print_endline "\nsolving the 12x12 Hilbert system with a known solution:";
  let solve (type a) (module R : Multidouble.Md_sig.S with type t = a) =
    let module K = Scalar.Real (R) in
    let module M = Mat.Make (K) in
    let module V = Vec.Make (K) in
    let module S = Lsq_core.Solver.Make (K) in
    let module Rand = Randmat.Make (K) in
    let h = Rand.hilbert n in
    let x_true = V.init n (fun i -> R.of_int (i + 1)) in
    let b = M.matvec h x_true in
    let res =
      S.solve ~method_:Lsq_core.Solver.Qr_direct ~device:Gpusim.Device.v100
        ~a:h ~b ~tile:4 ()
    in
    let err =
      R.to_float (V.norm (V.sub res.S.x x_true)) /. R.to_float (V.norm x_true)
    in
    Printf.printf "  %-14s forward error %.2e (eps %.2e)\n" R.name err R.eps
  in
  solve (module Multidouble.Float_double);
  solve (module Multidouble.Double_double);
  solve (module Multidouble.Quad_double)
