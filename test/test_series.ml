(* Tests for the power series substrate and the block Toeplitz solvers —
   the path tracker core the paper's least squares solver was built for. *)

open Mdlinalg
open Mdseries

let check = Alcotest.(check bool)

module T (K : Scalar.S) = struct
  module S = Series.Make (K)
  module BT = Block_toeplitz.Make (K)
  module M = Mat.Make (K)
  module V = Vec.Make (K)

  let d = 8

  let small r = K.R.compare r (K.R.of_float (1e6 *. K.R.eps)) <= 0

  let approx msg a b =
    if not (small (S.distance a b)) then
      Alcotest.failf "%s: distance %s" msg
        (K.R.to_string (S.distance a b))

  let rand_series rng ~degree : S.t =
    Array.init (degree + 1) (fun _ -> K.random rng)

  let rand_unit_series rng ~degree : S.t =
    let s = rand_series rng ~degree in
    s.(0) <- K.add s.(0) (K.of_float 4.0);
    (* keep the constant term well away from zero *)
    s

  let test_ring_ops () =
    let rng = Dompool.Prng.create 61 in
    for _ = 1 to 50 do
      let a = rand_series rng ~degree:d in
      let b = rand_series rng ~degree:d in
      let c = rand_series rng ~degree:d in
      approx "add commutes" (S.add a b) (S.add b a);
      approx "mul commutes" (S.mul a b) (S.mul b a);
      approx "distributes" (S.mul a (S.add b c))
        (S.add (S.mul a b) (S.mul a c));
      approx "sub inverse" (S.sub (S.add a b) b) a;
      approx "one neutral" (S.mul a (S.one ~degree:d)) a
    done

  let test_div_inverse () =
    let rng = Dompool.Prng.create 62 in
    for _ = 1 to 50 do
      let a = rand_series rng ~degree:d in
      let b = rand_unit_series rng ~degree:d in
      approx "div inverts" (S.mul (S.div a b) b) a;
      approx "inverse" (S.mul (S.inverse b) b) (S.one ~degree:d)
    done;
    (* 1 / (1 - t) = 1 + t + t^2 + ... *)
    let omt = S.one ~degree:d in
    omt.(1) <- K.neg K.one;
    let g = S.inverse omt in
    check "geometric" true
      (Array.for_all (fun c -> K.equal c K.one) g)

  let test_calculus () =
    let rng = Dompool.Prng.create 63 in
    for _ = 1 to 30 do
      let a = rand_series rng ~degree:d in
      (* integrate then derive: identity except the top coefficient *)
      let b = S.deriv (S.integrate a) in
      let a' = Array.copy a in
      a'.(d) <- K.zero;
      let b' = Array.copy b in
      b'.(d) <- K.zero;
      approx "deriv of integral" a' b';
      (* product rule: (ab)' = a'b + ab' *)
      let ab = S.mul a (rand_series rng ~degree:d) in
      ignore ab;
      let b2 = rand_series rng ~degree:d in
      let lhs = S.deriv (S.mul a b2) in
      let rhs = S.add (S.mul (S.deriv a) b2) (S.mul a (S.deriv b2)) in
      let lhs' = Array.copy lhs and rhs' = Array.copy rhs in
      lhs'.(d) <- K.zero;
      rhs'.(d) <- K.zero;
      approx "product rule" lhs' rhs'
    done

  let test_exp_sqrt () =
    (* exp0 t has coefficients 1/k!. *)
    let t = S.variable ~degree:d in
    let e = S.exp0 t in
    let fact = ref 1.0 in
    for k = 1 to d do
      fact := !fact *. float_of_int k;
      let expect = K.of_real (K.R.div K.R.one (K.R.of_int (int_of_float !fact))) in
      let diff = K.abs (K.sub e.(k) expect) in
      check "exp coefficient" true (small diff)
    done;
    (* exp0 a * exp0 (-a) = 1 *)
    let rng = Dompool.Prng.create 64 in
    for _ = 1 to 20 do
      let a = rand_series rng ~degree:d in
      a.(0) <- K.zero;
      approx "exp inverse" (S.mul (S.exp0 a) (S.exp0 (S.neg a)))
        (S.one ~degree:d);
      (* sqrt^2 = b *)
      let b = rand_unit_series rng ~degree:d in
      let r = S.sqrt b in
      approx "sqrt squares" (S.mul r r) b
    done

  let test_log_trig () =
    let rng = Dompool.Prng.create 70 in
    for _ = 1 to 20 do
      (* log1 inverts exp0 *)
      let a = rand_series rng ~degree:d in
      a.(0) <- K.zero;
      approx "log1 (exp0 a) = a" (S.log1 (S.exp0 a)) a;
      let b = rand_series rng ~degree:d in
      b.(0) <- K.one;
      approx "exp0 (log1 b) = b" (S.exp0 (S.log1 b)) b;
      (* the Pythagorean identity in the series ring *)
      let v = rand_series rng ~degree:d in
      v.(0) <- K.zero;
      let s, c = S.sin_cos0 v in
      approx "sin^2 + cos^2 = 1" (S.add (S.mul s s) (S.mul c c))
        (S.one ~degree:d);
      (* derivative identity: (sin v)' = v' cos v, up to the top term *)
      let lhs = S.deriv s in
      let rhs = S.mul (S.deriv v) c in
      let lhs = Array.copy lhs and rhs = Array.copy rhs in
      lhs.(d) <- K.zero;
      rhs.(d) <- K.zero;
      approx "chain rule" lhs rhs
    done;
    (* sin_cos0 of t matches the Taylor coefficients *)
    let t = S.variable ~degree:d in
    let s, c = S.sin_cos0 t in
    let fact = ref 1.0 in
    for k = 1 to d do
      fact := !fact *. float_of_int k;
      let expect =
        if k land 1 = 1 then
          (* sin coefficient: (-1)^((k-1)/2) / k! *)
          let v = K.R.div K.R.one (K.R.of_int (int_of_float !fact)) in
          if (k - 1) / 2 land 1 = 1 then K.R.neg v else v
        else K.R.zero
      in
      check "sin taylor" true
        (small (K.abs (K.sub s.(k) (K.of_real expect))));
      let expectc =
        if k land 1 = 0 then
          let v = K.R.div K.R.one (K.R.of_int (int_of_float !fact)) in
          if k / 2 land 1 = 1 then K.R.neg v else v
        else K.R.zero
      in
      check "cos taylor" true
        (small (K.abs (K.sub c.(k) (K.of_real expectc))))
    done;
    (* domain checks *)
    (try
       ignore (S.log1 (S.variable ~degree:d));
       Alcotest.fail "log1 should reject"
     with Invalid_argument _ -> ());
    (try
       ignore (S.sin_cos0 (S.one ~degree:d));
       Alcotest.fail "sin_cos0 should reject"
     with Invalid_argument _ -> ())

  let test_compose_eval () =
    let rng = Dompool.Prng.create 65 in
    for _ = 1 to 20 do
      let a = rand_series rng ~degree:d in
      (* compose with the identity is the identity *)
      approx "compose id" (S.compose a (S.variable ~degree:d)) a;
      (* eval at 0 is the constant term *)
      check "eval 0" true
        (K.equal (S.eval a K.zero) (S.constant a));
      (* eval is a ring morphism at a point *)
      let b = rand_series rng ~degree:d in
      let x = K.of_float 0.25 in
      let lhs = S.eval (S.add a b) x in
      let rhs = K.add (S.eval a x) (S.eval b x) in
      check "eval additive" true (small (K.abs (K.sub lhs rhs)))
    done

  (* ---- block Toeplitz ---- *)

  let rand_mat_series rng ~n ~degree : BT.mat_series =
    let module Rand = Randmat.Make (K) in
    Array.init (degree + 1) (fun k ->
        (* diagonally dominant J_0: safely invertible *)
        if k = 0 then Rand.shifted rng n ~shift:6.0 else M.random rng n n)

  let test_toeplitz_recursive () =
    let rng = Dompool.Prng.create 66 in
    let n = 5 and dg = 6 in
    let j = rand_mat_series rng ~n ~degree:dg in
    let x_true = Array.init (dg + 1) (fun _ -> V.random rng n) in
    let b = BT.apply j x_true in
    let x = BT.solve_recursive j b in
    for k = 0 to dg do
      check
        (Printf.sprintf "order %d" k)
        true
        (small
           (K.R.div
              (V.norm (V.sub x.(k) x_true.(k)))
              (K.R.add_float (V.norm x_true.(k)) 1.0)))
    done

  let test_toeplitz_flat_matches () =
    let rng = Dompool.Prng.create 67 in
    let n = 4 and dg = 5 in
    let j = rand_mat_series rng ~n ~degree:dg in
    (* make J_0 upper triangular so the flat path applies directly *)
    j.(0) <-
      M.init n n (fun r c ->
          if r > c then K.zero
          else if r = c then K.of_float 3.0
          else M.get j.(0) r c);
    let b = Array.init (dg + 1) (fun _ -> V.random rng n) in
    let xr = BT.solve_recursive j b in
    let sim = Gpusim.Sim.create ~device:Gpusim.Device.v100 ~prec:K.prec () in
    let xf = BT.solve_flat sim ~tile:n j b in
    check "launches" true (Gpusim.Sim.launches sim > 0);
    for k = 0 to dg do
      check
        (Printf.sprintf "flat matches recursive at order %d" k)
        true
        (small
           (K.R.div
              (V.norm (V.sub xf.(k) xr.(k)))
              (K.R.add_float (V.norm xr.(k)) 1.0)))
    done

  let test_toeplitz_flat_rejects () =
    let rng = Dompool.Prng.create 68 in
    let j = rand_mat_series rng ~n:3 ~degree:2 in
    let b = Array.init 3 (fun _ -> V.random rng 3) in
    (* J_0 dense: the flat path must refuse *)
    try
      ignore
        (BT.solve_flat
           (Gpusim.Sim.create ~device:Gpusim.Device.v100 ~prec:K.prec ())
           j b);
      Alcotest.fail "expected Invalid_argument"
    with Invalid_argument _ -> ()

  let test_toeplitz_device () =
    let rng = Dompool.Prng.create 69 in
    let n = 4 and dg = 5 in
    let j = rand_mat_series rng ~n ~degree:dg in
    let x_true = Array.init (dg + 1) (fun _ -> V.random rng n) in
    let b = BT.apply j x_true in
    let sim () =
      Gpusim.Sim.create ~device:Gpusim.Device.v100 ~prec:K.prec ()
    in
    let x = BT.solve_device ~qr:(sim ()) ~bs:(sim ()) ~tile:n j b in
    for k = 0 to dg do
      check
        (Printf.sprintf "device solve order %d" k)
        true
        (small
           (K.R.div
              (V.norm (V.sub x.(k) x_true.(k)))
              (K.R.add_float (V.norm x_true.(k)) 1.0)))
    done

  let test_newton_sqrt_series () =
    (* Solve x(t)^2 = 1 + t starting from x_0 = 1: the binomial series
       of sqrt(1+t). *)
    let dg = 7 in
    let residual (x : BT.vec_series) : BT.vec_series =
      let xs : S.t = Array.map (fun v -> v.(0)) x in
      let x2 = S.mul xs xs in
      Array.init (dg + 1) (fun k ->
          let rhs =
            if k = 0 then K.one else if k = 1 then K.one else K.zero
          in
          [| K.sub (S.coeff x2 k) rhs |])
    in
    let jacobian (x : BT.vec_series) : BT.mat_series =
      Array.init (dg + 1) (fun k ->
          let m = M.create 1 1 in
          M.set m 0 0 (K.mul_float x.(k).(0) 2.0);
          m)
    in
    let x =
      BT.newton ~degree:dg ~residual ~jacobian ~x0:[| K.one |] ~iterations:5
    in
    (* Compare against the series square root. *)
    let one_plus_t = S.one ~degree:dg in
    one_plus_t.(1) <- K.one;
    let expect = S.sqrt one_plus_t in
    for k = 0 to dg do
      check
        (Printf.sprintf "binomial coefficient %d" k)
        true
        (small (K.abs (K.sub x.(k).(0) (S.coeff expect k))))
    done

  module Ps = Poly_series.Make (K)

  let test_poly_at_series () =
    (* p = x^2 + y at (t, 1 + t): t^2 + t + 1 *)
    let p =
      Ps.P.of_terms ~nvars:2 [ (K.one, [| 2; 0 |]); (K.one, [| 0; 1 |]) ]
    in
    let t = S.variable ~degree:d in
    let one_plus_t = S.one ~degree:d in
    one_plus_t.(1) <- K.one;
    let r = Ps.eval p [| t; one_plus_t |] in
    check "c0" true (K.equal (S.coeff r 0) K.one);
    check "c1" true (K.equal (S.coeff r 1) K.one);
    check "c2" true (K.equal (S.coeff r 2) K.one);
    check "c3" true (K.is_zero (S.coeff r 3));
    (* evaluating at constant series matches scalar evaluation *)
    let rng = Dompool.Prng.create 71 in
    for _ = 1 to 20 do
      let x = K.random rng and y = K.random rng in
      let sx = S.make ~degree:d x and sy = S.make ~degree:d y in
      let via_series = S.constant (Ps.eval p [| sx; sy |]) in
      let direct = Ps.P.eval p [| x; y |] in
      check "constant agreement" true
        (small (K.abs (K.sub via_series direct)))
    done

  let test_newton_from_polys () =
    (* x^2 - 1 - t = 0, x(0) = 1: the binomial series of sqrt(1 + t),
       straight from the polynomial, no hand-written closures. *)
    let f =
      [|
        Ps.P.of_terms ~nvars:2
          [
            (K.one, [| 2; 0 |]);
            (K.neg K.one, [| 0; 0 |]);
            (K.neg K.one, [| 0; 1 |]);
          ];
      |]
    in
    let dg = 7 in
    let x = Ps.newton_from_polys ~degree:dg ~iterations:5 f [| K.one |] in
    let one_plus_t = S.one ~degree:dg in
    one_plus_t.(1) <- K.one;
    let expect = S.sqrt one_plus_t in
    for k = 0 to dg do
      check
        (Printf.sprintf "coefficient %d" k)
        true
        (small (K.abs (K.sub x.(k).(0) (S.coeff expect k))))
    done;
    (* arity validation *)
    (try
       ignore (Ps.newton_from_polys ~degree:2 ~iterations:1 f [| K.one; K.one |] |> ignore;
               Ps.newton_from_polys ~degree:2 ~iterations:1
                 [| Ps.P.variable ~nvars:1 0 |] [| K.one |]);
       Alcotest.fail "arity accepted"
     with Invalid_argument _ -> ())

  let suite name =
    let t n f = Alcotest.test_case n `Quick f in
    ( name,
      [
        t "polynomials at series" test_poly_at_series;
        t "newton from polynomials" test_newton_from_polys;
        t "ring operations" test_ring_ops;
        t "division and inverse" test_div_inverse;
        t "calculus" test_calculus;
        t "exp and sqrt" test_exp_sqrt;
        t "log and trigonometric" test_log_trig;
        t "compose and eval" test_compose_eval;
        t "toeplitz recursive" test_toeplitz_recursive;
        t "toeplitz flat matches recursive" test_toeplitz_flat_matches;
        t "toeplitz flat rejects dense J0" test_toeplitz_flat_rejects;
        t "toeplitz device pipeline" test_toeplitz_device;
        t "newton series (sqrt(1+t))" test_newton_sqrt_series;
      ] )
end

module Tdd = T (Scalar.Dd)
module Tqd = T (Scalar.Qd)
module Tzdd = T (Scalar.Zdd)

let () =
  Alcotest.run "power series"
    [
      Tdd.suite "double double";
      Tqd.suite "quad double";
      Tzdd.suite "complex double double";
    ]
