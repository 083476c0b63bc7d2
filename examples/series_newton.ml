(* Power series solutions of a polynomial homotopy — the computation the
   paper's solver was built to serve ([3]; §1.1: "the solution of a lower
   triangular block Toeplitz system, where the diagonal matrix is the
   evaluated Jacobian").

   We expand the solution (x(t), y(t)) of

     f(x, y, t) = (x^2 + y^2/4 - 5/4 - t,  x y - 1)  =  0,  x(0) = y(0) = 1

   as power series in t by series Newton iteration.  Every iteration
   solves one block Toeplitz system; we show both the host reference and
   the device pipeline (blocked QR of the Jacobian block followed by the
   tiled accelerated back substitution on the flattened system).

     dune exec examples/series_newton.exe *)

open Mdlinalg
open Mdseries

module K = Scalar.Qd
module S = Series.Make (K)
module BT = Block_toeplitz.Make (K)
module M = Mat.Make (K)
module V = Vec.Make (K)

let degree = 10

(* Residual of f at a vector series (x, y). *)
let residual (v : BT.vec_series) : BT.vec_series =
  let xs : S.t = Array.map (fun p -> p.(0)) v in
  let ys : S.t = Array.map (fun p -> p.(1)) v in
  let y2 = S.mul ys ys in
  let x2y2 = S.add (S.mul xs xs) (Array.map (fun c -> K.mul_float c 0.25) y2) in
  let xy = S.mul xs ys in
  Array.init (degree + 1) (fun k ->
      let c1 =
        (* x^2 + y^2/4 - 5/4 - t *)
        let base = S.coeff x2y2 k in
        let base = if k = 0 then K.sub base (K.of_float 1.25) else base in
        if k = 1 then K.sub base K.one else base
      in
      let c2 =
        let base = S.coeff xy k in
        if k = 0 then K.sub base K.one else base
      in
      [| c1; c2 |])

(* Jacobian series: [ 2x  y/2 ; y  x ]. *)
let jacobian (v : BT.vec_series) : BT.mat_series =
  Array.init (degree + 1) (fun k ->
      let x = v.(k).(0) and y = v.(k).(1) in
      let m = M.create 2 2 in
      M.set m 0 0 (K.mul_float x 2.0);
      M.set m 0 1 (K.mul_float y 0.5);
      M.set m 1 0 y;
      M.set m 1 1 x;
      m)

let () =
  Printf.printf
    "series Newton for f = (x^2 + y^2/4 - 5/4 - t, xy - 1), start (1, 1), \
     degree %d, %s\n\n"
    degree K.R.name;
  let x =
    BT.newton ~degree ~residual ~jacobian ~x0:[| K.one; K.one |]
      ~iterations:6
  in
  Printf.printf "x(t) coefficients:\n";
  Array.iteri
    (fun k p ->
      Printf.printf "  t^%-2d  x: %s   y: %s\n" k
        (K.to_string ~digits:20 p.(0))
        (K.to_string ~digits:20 p.(1)))
    x;
  (* Residual of the found series. *)
  let r = residual x in
  let worst = ref K.R.zero in
  Array.iter
    (fun p ->
      let e = K.R.max (K.abs p.(0)) (K.abs p.(1)) in
      if K.R.compare e !worst > 0 then worst := e)
    r;
  Printf.printf "\nmax |f| coefficient over all orders: %s\n"
    (K.R.to_string ~digits:3 !worst);
  (* One more Toeplitz solve, through the device pipeline, to show the
     accelerated path the paper motivates. *)
  let j = jacobian x in
  let b = BT.apply j x in
  let sim () = Gpusim.Sim.create ~device:Gpusim.Device.v100 ~prec:K.prec () in
  let qr = sim () in
  let sol = BT.solve_device ~qr ~bs:(sim ()) ~tile:2 j b in
  let err = ref K.R.zero in
  Array.iteri
    (fun k p ->
      let e = V.norm (V.sub p x.(k)) in
      if K.R.compare e !err > 0 then err := e)
    sol;
  Printf.printf
    "\ndevice pipeline check (QR of J0 + Algorithm 1 on the flattened \
     system):\n";
  Printf.printf "  reconstruction error   : %s\n"
    (K.R.to_string ~digits:3 !err);
  Printf.printf "  QR kernel time         : %.4f ms\n"
    (Gpusim.Sim.kernel_ms qr);
  (* Sanity: the series evaluated inside its convergence disk solves f. *)
  let t = K.of_float 0.05 in
  let xv = S.eval (Array.map (fun p -> p.(0)) x) t in
  let yv = S.eval (Array.map (fun p -> p.(1)) x) t in
  let f1 =
    K.sub
      (K.add (K.mul xv xv) (K.mul_float (K.mul yv yv) 0.25))
      (K.add (K.of_float 1.25) t)
  in
  let f2 = K.sub (K.mul xv yv) K.one in
  Printf.printf "  |f(x(0.05), y(0.05))|  : %s (series truncation error)\n"
    (K.R.to_string ~digits:3 (K.R.max (K.abs f1) (K.abs f2)))
