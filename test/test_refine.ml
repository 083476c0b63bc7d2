(* Tests for mixed-precision iterative refinement: a double double
   factorization refined with quad / octo double residuals must reach the
   high precision's accuracy; the residual history must contract at the
   working precision's rate. *)

open Lsq_core
open Mdlinalg

let check = Alcotest.(check bool)

module R_dd_qd = Refine.Make (Multidouble.Double_double) (Multidouble.Quad_double)
module R_dd_od = Refine.Make (Multidouble.Double_double) (Multidouble.Octo_double)
module R_d_dd = Refine.Make (Multidouble.Float_double) (Multidouble.Double_double)

module Check (Lo : Multidouble.Md_sig.S) (Hi : Multidouble.Md_sig.S) = struct
  module R = Refine.Make (Lo) (Hi)
  module MH = R.MH
  module VH = R.VH
  module RandH = Randmat.Make (R.KH)

  let run () =
    let rng = Dompool.Prng.create 404 in
    let n = 24 in
    (* Comfortably nonsingular. *)
    let a = RandH.shifted rng n ~shift:8.0 in
    let x_true = RandH.vector rng n in
    let b = MH.matvec a x_true in
    let res = R.solve ~a ~b ~tile:8 () in
    let err =
      Hi.to_float (VH.norm (VH.sub res.R.x x_true))
      /. Hi.to_float (VH.norm x_true)
    in
    check "reaches high precision" true (err < 1e6 *. Hi.eps);
    check "took a few iterations" true
      (res.R.iterations >= 2 && res.R.iterations <= 20);
    (* Every refinement sweep contracts the residual by roughly the
       working precision until the high-precision floor. *)
    (match res.R.residual_history with
     | r0 :: r1 :: _ ->
       check "first sweep contracts" true (r1 < r0 *. 1e-10 || r0 = 0.0)
     | _ -> Alcotest.fail "no history");
    check "history is recorded" true
      (List.length res.R.residual_history >= res.R.iterations)
end

module C1 = Check (Multidouble.Double_double) (Multidouble.Quad_double)
module C2 = Check (Multidouble.Double_double) (Multidouble.Octo_double)
module C3 = Check (Multidouble.Float_double) (Multidouble.Double_double)
module C4 = Check (Multidouble.Quad_double) (Multidouble.Octo_double)

let test_promote_demote () =
  let module R = Refine.Make (Multidouble.Double_double) (Multidouble.Quad_double) in
  let rng = Dompool.Prng.create 405 in
  for _ = 1 to 200 do
    let l =
      Array.init 2 (fun i ->
          Dompool.Prng.sym_float rng *. (2.0 ** (-53.0 *. float_of_int i)))
    in
    let x = Multidouble.Double_double.of_limbs l in
    (* promotion is exact *)
    check "roundtrip" true
      (Multidouble.Double_double.equal x (R.demote (R.promote x)));
    (* demotion of a promoted value plus tiny high-order noise rounds
       back to the same low value *)
    let noisy =
      Multidouble.Quad_double.add_float (R.promote x) 1e-40
    in
    let back = R.demote noisy in
    let d =
      Multidouble.Double_double.abs (Multidouble.Double_double.sub back x)
    in
    check "demote rounds" true
      (Multidouble.Double_double.to_float d < 1e-30)
  done

let test_complex_refinement () =
  let module R = Refine.Make_scalar (Scalar.Zdd) (Scalar.Zqd) in
  let module RandH = Randmat.Make (Scalar.Zqd) in
  let rng = Dompool.Prng.create 406 in
  let n = 16 in
  let a = RandH.shifted rng n ~shift:8.0 in
  let x_true = R.VH.random rng n in
  let b = R.MH.matvec a x_true in
  let res = R.solve ~a ~b ~tile:8 () in
  let err =
    Multidouble.Quad_double.to_float (R.VH.norm (R.VH.sub res.R.x x_true))
    /. Multidouble.Quad_double.to_float (R.VH.norm x_true)
  in
  check "complex refinement reaches qd" true (err < 1e-55);
  check "a few sweeps" true (res.R.iterations >= 2 && res.R.iterations <= 20)

let test_mixed_realness_rejected () =
  try
    let module _ = Refine.Make_scalar (Scalar.Dd) (Scalar.Zqd) in
    Alcotest.fail "mixed realness accepted"
  with Invalid_argument _ -> ()

let test_singular_rejected () =
  let module R = R_dd_qd in
  let module MH = R.MH in
  let a = MH.create 4 5 in
  let b = Array.make 4 Multidouble.Quad_double.zero in
  try
    ignore (R.solve ~a ~b ~tile:1 ());
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let () =
  Alcotest.run "refine"
    [
      ( "iterative refinement",
        [
          Alcotest.test_case "dd -> qd" `Quick C1.run;
          Alcotest.test_case "dd -> od" `Quick C2.run;
          Alcotest.test_case "d -> dd" `Quick C3.run;
          Alcotest.test_case "qd -> od" `Quick C4.run;
          Alcotest.test_case "complex dd -> qd" `Quick
            test_complex_refinement;
          Alcotest.test_case "rejects mixed realness" `Quick
            test_mixed_realness_rejected;
          Alcotest.test_case "promote/demote" `Quick test_promote_demote;
          Alcotest.test_case "rejects non-square" `Quick
            test_singular_rejected;
        ] );
    ]
