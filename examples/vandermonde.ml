(* Why multiple double precision: polynomial regression on a Vandermonde
   matrix, whose condition number grows exponentially with the degree.

   We fit the coefficients of a known degree-23 polynomial from 48
   samples by least squares.  In double precision the recovered
   coefficients are garbage beyond a handful of digits; each doubling of
   the precision buys the expected extra ~16 digits back (cf. [6] and the
   error analysis the paper cites as motivation).

     dune exec examples/vandermonde.exe *)

open Mdlinalg
open Lsq_core

module Fit (R : Multidouble.Md_sig.S) = struct
  module K = Scalar.Real (R)
  module M = Mat.Make (K)
  module V = Vec.Make (K)
  module Solver = Solver.Make (K)

  let degree = 23
  let samples = 48

  (* True coefficients: c_k = (-1)^k / (k + 1). *)
  let coeffs =
    Array.init (degree + 1) (fun k ->
        let c = R.div R.one (R.of_int (k + 1)) in
        if k land 1 = 1 then R.neg c else c)

  (* Sample points on (0, 1]; the Vandermonde matrix of their powers. *)
  let build () =
    let module Rand = Randmat.Make (K) in
    let a = Rand.vandermonde samples (degree + 1) in
    let b = M.matvec a coeffs in
    (a, b)

  let run device =
    let a, b = build () in
    let res = Solver.solve ~method_:Qr_direct ~device ~a ~b ~tile:8 () in
    (* Worst relative coefficient error. *)
    let worst = ref R.zero in
    Array.iteri
      (fun k c ->
        let e = R.abs (R.div (R.sub res.Solver.x.(k) c) c) in
        if R.compare e !worst > 0 then worst := e)
      coeffs;
    let digits =
      let w = R.to_float !worst in
      if w <= 0.0 then float_of_int (R.limbs * 16)
      else Float.max 0.0 (-.Float.log10 w)
    in
    Printf.printf "%-16s worst coefficient error %-12s (~%.0f correct digits)\n"
      R.name
      (R.to_string ~digits:3 !worst)
      digits
end

let () =
  let device = Gpusim.Device.v100 in
  Printf.printf
    "fitting a degree-%d polynomial from %d samples (condition ~1e19)\n" 23 48;
  let module F1 = Fit (Multidouble.Float_double) in
  F1.run device;
  let module F2 = Fit (Multidouble.Double_double) in
  F2.run device;
  let module F4 = Fit (Multidouble.Quad_double) in
  F4.run device;
  let module F8 = Fit (Multidouble.Octo_double) in
  F8.run device
