(* Tests for the multiple double arithmetic library: error-free
   transformations, per-precision algebraic checks, cross-checks of the
   specialized implementations against the generic expansion arithmetic,
   decimal conversion, and classic constants computed by series. *)

open Multidouble

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 0.0))

(* ------------------------------------------------------------------ *)
(* Error-free transformations                                          *)
(* ------------------------------------------------------------------ *)

let test_two_sum_exact () =
  let rng = Dompool.Prng.create 42 in
  for _ = 1 to 1000 do
    let a = Float.of_int (Dompool.Prng.int rng 1000000) in
    let b = Float.of_int (Dompool.Prng.int rng 1000000) in
    let s, e = Eft.two_sum a b in
    checkf "sum" (a +. b) s;
    checkf "no error on small ints" 0.0 e
  done

let test_two_sum_error_term () =
  let s, e = Eft.two_sum 1e30 1.0 in
  checkf "big" 1e30 s;
  checkf "error carries the small term" 1.0 e;
  let s, e = Eft.two_sum 1.0 (2.0 ** -60.0) in
  checkf "s" 1.0 s;
  checkf "e" (2.0 ** -60.0) e

let test_quick_two_sum () =
  let rng = Dompool.Prng.create 7 in
  for _ = 1 to 1000 do
    let a = Dompool.Prng.sym_float rng in
    let b = Dompool.Prng.sym_float rng *. 1e-20 in
    let s, e = Eft.two_sum a b in
    let s', e' = Eft.quick_two_sum a b in
    checkf "s agrees" s s';
    checkf "e agrees" e e'
  done

let test_two_prod_vs_dekker () =
  let rng = Dompool.Prng.create 99 in
  for _ = 1 to 1000 do
    let a = Dompool.Prng.sym_float rng *. 1e8 in
    let b = Dompool.Prng.sym_float rng *. 1e-3 in
    let p, e = Eft.two_prod a b in
    let p', e' = Eft.two_prod_dekker a b in
    checkf "p" p p';
    checkf "e" e e'
  done

let test_two_diff () =
  let d, e = Eft.two_diff 1.0 (2.0 ** -60.0) in
  checkf "d" 1.0 d;
  checkf "e" (-.(2.0 ** -60.0)) e

let test_three_sum_exact () =
  let rng = Dompool.Prng.create 5 in
  for _ = 1 to 200 do
    let a = Dompool.Prng.sym_float rng in
    let b = Dompool.Prng.sym_float rng *. 1e-17 in
    let c = Dompool.Prng.sym_float rng *. 1e-34 in
    let s0, s1, s2 = Eft.three_sum a b c in
    (* The three-term expansion must reproduce the inputs when summed in
       octo double precision. *)
    let od x = Octo_double.of_float x in
    let lhs =
      Octo_double.add (od s0) (Octo_double.add (od s1) (od s2))
    in
    let rhs = Octo_double.add (od a) (Octo_double.add (od b) (od c)) in
    check "exact" true (Octo_double.equal lhs rhs)
  done

(* ------------------------------------------------------------------ *)
(* Per-precision algebraic checks                                      *)
(* ------------------------------------------------------------------ *)

module Generic (S : Md_sig.S) = struct
  open S

  (* A value exercising all limbs: random leading double plus random
     lower-order noise at each limb scale. *)
  let random rng =
    let l =
      Array.init limbs (fun i ->
          Dompool.Prng.sym_float rng *. (2.0 ** (-53.0 *. float_of_int i)))
    in
    let x = of_limbs l in
    let scale = 2.0 ** float_of_int (Dompool.Prng.int rng 41 - 20) in
    mul_pwr2 x scale

  let nonzero rng =
    let rec go () =
      let x = random rng in
      if is_zero x || Float.abs (to_float x) < 1e-12 then go () else x
    in
    go ()

  let approx ?(tol = 16.0) msg a b =
    let d = abs (sub a b) in
    let m = max (abs a) (abs b) in
    let bound = mul_float m (tol *. eps) in
    if S.compare d bound > 0 then
      Alcotest.failf "%s: %s vs %s (diff %s)" msg (to_string a) (to_string b)
        (to_string d)

  let test_constants () =
    check "1+1=2" true (equal (add one one) two);
    check "2*5=10" true (equal (mul two (of_int 5)) ten);
    check "10/2=5" true (equal (div ten two) (of_int 5));
    check "sqrt 4 = 2" true (equal (sqrt (of_int 4)) two);
    check "sqrt 0 = 0" true (is_zero (sqrt zero));
    check "neg neg" true (equal (neg (neg ten)) ten);
    check "abs" true (equal (abs (neg ten)) ten);
    check "0 is zero" true (is_zero zero);
    check "1 not zero" false (is_zero one)

  let test_add_sub_roundtrip () =
    let rng = Dompool.Prng.create 11 in
    for _ = 1 to 500 do
      let a = random rng and b = random rng in
      (* The truncation error of a+b is relative to max(|a|,|b|). *)
      let d = abs (sub (sub (add a b) b) a) in
      let bound = mul_float (max (abs a) (abs b)) (16.0 *. eps) in
      if S.compare d bound > 0 then
        Alcotest.failf "a+b-b=a: residue %s" (to_string d);
      approx "commutative" (add a b) (add b a);
      check "a-a=0 small" true
        (S.compare (abs (sub a a)) (mul_float (abs a) (4.0 *. eps)) <= 0)
    done

  let test_mul_div_roundtrip () =
    let rng = Dompool.Prng.create 13 in
    for _ = 1 to 500 do
      let a = random rng and b = nonzero rng in
      approx ~tol:64.0 "a*b/b=a" (div (mul a b) b) a;
      approx "commutative" (mul a b) (mul b a)
    done

  let test_distributive () =
    let rng = Dompool.Prng.create 17 in
    for _ = 1 to 300 do
      let a = random rng and b = random rng and c = random rng in
      approx ~tol:64.0 "a(b+c) = ab+ac"
        (mul a (add b c))
        (add (mul a b) (mul a c))
    done

  let test_sqrt () =
    let rng = Dompool.Prng.create 19 in
    for _ = 1 to 200 do
      let a = abs (nonzero rng) in
      let r = sqrt a in
      approx ~tol:64.0 "sqrt^2" (mul r r) a
    done;
    approx "sqrt 2" (mul (sqrt two) (sqrt two)) two

  let test_mixed_ops () =
    let rng = Dompool.Prng.create 23 in
    for _ = 1 to 300 do
      let a = random rng in
      let f = Dompool.Prng.sym_float rng in
      approx "add_float" (add_float a f) (add a (of_float f));
      approx ~tol:64.0 "mul_float" (mul_float a f) (mul a (of_float f));
      check "mul_pwr2 exact" true
        (equal (mul_pwr2 a 8.0) (mul a (of_int 8)))
    done

  let test_compare () =
    let rng = Dompool.Prng.create 29 in
    for _ = 1 to 300 do
      let a = random rng and b = random rng in
      let c = S.compare a b in
      let df = to_float (sub a b) in
      if df > 0.0 then check "cmp pos" true (c > 0)
      else if df < 0.0 then check "cmp neg" true (c < 0);
      check "cmp self" true (S.compare a a = 0);
      check "min/max" true (S.compare (min a b) (max a b) <= 0)
    done;
    (* Ordering decided by a lower limb only. *)
    let x = of_limbs (Array.init limbs (fun i -> if i = 0 then 1.0 else 0.0)) in
    let tiny = 2.0 ** (-52.0 *. float_of_int limbs) in
    let y = add_float x tiny in
    if limbs > 1 then check "lower limb decides" true (S.compare y x > 0)

  let test_floor () =
    check "floor 2.5" true (equal (floor (of_string "2.5")) two);
    check "floor -2.5" true (equal (floor (of_string "-2.5")) (of_int (-3)));
    check "floor 7" true (equal (floor (of_int 7)) (of_int 7));
    if limbs > 1 then begin
      (* 5 + eps floors to 5; 5 - eps floors to 4. *)
      let tiny = 2.0 ** (-52.0 *. float_of_int (limbs - 1)) in
      let a = add_float (of_int 5) tiny in
      check "floor 5+tiny" true (equal (floor a) (of_int 5));
      let b = add_float (of_int 5) (-.tiny) in
      check "floor 5-tiny" true (equal (floor b) (of_int 4))
    end

  let test_rounding () =
    check "ceil 2.5" true (equal (ceil (of_string "2.5")) (of_int 3));
    check "ceil -2.5" true (equal (ceil (of_string "-2.5")) (of_int (-2)));
    check "ceil 7" true (equal (ceil (of_int 7)) (of_int 7));
    check "trunc 2.7" true (equal (trunc (of_string "2.7")) two);
    check "trunc -2.7" true (equal (trunc (of_string "-2.7")) (neg two));
    check "round 2.5" true (equal (round (of_string "2.5")) (of_int 3));
    check "round -2.5" true (equal (round (of_string "-2.5")) (of_int (-3)));
    check "round 2.4" true (equal (round (of_string "2.4")) two);
    check "round -2.4" true (equal (round (of_string "-2.4")) (neg two));
    let rng = Dompool.Prng.create 37 in
    for _ = 1 to 200 do
      let x = random rng in
      (* floor <= trunc-ish bracket and idempotence *)
      check "floor <= x" true (S.compare (floor x) x <= 0);
      check "x <= ceil" true (S.compare x (ceil x) <= 0);
      check "|trunc| <= |x|" true (S.compare (abs (trunc x)) (abs x) <= 0);
      check "floor idempotent" true (equal (floor (floor x)) (floor x));
      check "ceil = -floor(-x)" true (equal (ceil x) (neg (floor (neg x))))
    done

  let test_ldexp_fmod () =
    let x = of_string "1.375" in
    check "ldexp 4" true (equal (ldexp x 4) (of_int 22));
    check "ldexp -2" true
      (equal (ldexp (of_int 22) (-2)) (of_string "5.5"));
    check "ldexp 0" true (equal (ldexp x 0) x);
    (* big shifts round-trip exactly (start tiny so intermediates stay
       inside the double exponent range) *)
    let tiny = ldexp x (-800) in
    check "ldexp big" true (equal (ldexp (ldexp tiny 1500) (-700)) x);
    let a = of_string "7.5" and b = of_string "2.25" in
    (* 7.5 = 3*2.25 + 0.75 *)
    approx "fmod" (fmod a b) (of_string "0.75");
    approx "fmod negative" (fmod (neg a) b) (of_string "-0.75");
    let rng = Dompool.Prng.create 38 in
    for _ = 1 to 100 do
      let a = random rng and b = nonzero rng in
      let r = fmod a b in
      (* |r| < |b| (up to roundoff) and a - r is a multiple of b *)
      check "fmod bounded" true
        (S.compare (abs r) (mul_float (abs b) (1.0 +. 1e-10)) <= 0);
      let q = div (sub a r) b in
      approx ~tol:1e6 "quotient integral" q (round q)
    done

  let test_strings () =
    check "to_string 1" true
      (String.length (to_string one) > 0);
    let cases = [ "1.5"; "-3.25"; "0.125"; "1e10"; "-2.5e-3"; "123456.789" ] in
    List.iter
      (fun s ->
        let x = of_string s in
        let y = of_string (to_string x) in
        approx ("roundtrip " ^ s) x y)
      cases;
    let rng = Dompool.Prng.create 31 in
    for _ = 1 to 100 do
      let x = random rng in
      let y = of_string (to_string x) in
      approx ~tol:64.0 "random roundtrip" x y
    done;
    check "of_string 10 = ten" true (equal (of_string "10") ten);
    check "of_string 1_000" true (equal (of_string "1_000") (of_int 1000));
    check "of_string .5 + .5" true
      (equal (add (of_string "0.5") (of_string "0.5")) one);
    (try
       ignore (of_string "abc");
       Alcotest.fail "of_string should reject garbage"
     with Invalid_argument _ -> ())

  let test_of_int () =
    check "of_int 0" true (is_zero (of_int 0));
    check "of_int -1" true (equal (of_int (-1)) (neg one));
    let big = 1 lsl 60 in
    let x = of_int big in
    (* 2^60 is a power of two: exact in one limb. *)
    checkf "big int" (Float.of_int big) (to_float x);
    (* 2^60 + 3 needs 61 significant bits: exact from two limbs on. *)
    if limbs > 1 then
      check "big odd int" true
        (equal (sub (of_int (big + 3)) (of_int big)) (of_int 3))

  let test_pow10 () =
    check "pow10 0" true (equal (pow10 0) one);
    check "pow10 3" true (equal (pow10 3) (of_int 1000));
    approx "pow10 -2" (pow10 (-2)) (div one (of_int 100));
    approx "pow10 anti" (mul (pow10 9) (pow10 (-9))) one

  let test_special_values () =
    let inf = of_float Float.infinity in
    check "inf not finite" false (is_finite inf);
    check "one finite" true (is_finite one);
    let n = div one zero in
    check "1/0 not finite" false (is_finite n);
    (* infinities propagate through arithmetic *)
    check "inf + 1" false (is_finite (add_float inf 1.0));
    check "inf * 2" false (is_finite (mul inf two));
    (* nan is contagious and not finite *)
    let nan_ = of_float Float.nan in
    check "nan" false (is_finite nan_);
    check "nan + 1" false (is_finite (add nan_ one))

  let test_extreme_magnitudes () =
    (* near the top of the double exponent range *)
    let big = of_string "1e300" in
    check "big finite" true (is_finite big);
    approx ~tol:64.0 "big roundtrip" (div (mul big two) two) big;
    check "overflow" false (is_finite (mul big big));
    (* tiny values stay exact while every limb remains a normal double
       (limbs span 53*limbs bits below the leading one, so the safe
       window shrinks with the limb count) *)
    let tiny_e = if limbs <= 8 then -180 else -40 in
    let tiny = of_string (Printf.sprintf "1e%d" tiny_e) in
    check "tiny finite" true (is_finite tiny);
    approx ~tol:64.0 "tiny product"
      (mul (of_string (Printf.sprintf "1e%d" (20 - tiny_e))) tiny)
      (of_string "1e20");
    (* the §1.2 limitation: the exponent of every limb is a double
       exponent, so accuracy degrades near the bottom of the range long
       before the leading limb underflows *)
    if limbs >= 4 then begin
      let deep = of_string "1e-290" in
      let err =
        abs (sub (mul deep (of_string "1e290")) one)
      in
      check "deep values lose digits" true
        (S.compare err (of_float eps) > 0);
      check "but stay finite" true (is_finite deep)
    end;
    (* mixed magnitudes: far-apart operands absorb — when the format has
       no spare limbs (10^300 fits 13 limbs exactly, so formats beyond
       octo double legitimately keep the tiny term) *)
    if limbs <= 8 then begin
      let s = add big tiny in
      check "absorbed" true (equal s big)
    end

  let suite name =
    let t n f = Alcotest.test_case n `Quick f in
    ( name,
      [
        t "constants" test_constants;
        t "add/sub roundtrip" test_add_sub_roundtrip;
        t "mul/div roundtrip" test_mul_div_roundtrip;
        t "distributivity" test_distributive;
        t "sqrt" test_sqrt;
        t "mixed float ops" test_mixed_ops;
        t "compare/min/max" test_compare;
        t "floor" test_floor;
        t "rounding" test_rounding;
        t "ldexp/fmod" test_ldexp_fmod;
        t "strings" test_strings;
        t "of_int" test_of_int;
        t "pow10" test_pow10;
        t "special values" test_special_values;
        t "extreme magnitudes" test_extreme_magnitudes;
      ] )
end

(* Triple double: the generic expansion at m = 3. *)
module Triple_double = Expansion.Make (struct
  let limbs = 3
  let name = "triple double"
end)

module G1 = Generic (Float_double)
module G2 = Generic (Double_double)
module G3 = Generic (Triple_double)
module G4 = Generic (Quad_double)
module G8 = Generic (Octo_double)
module G16 = Generic (Hexa_double)

(* ------------------------------------------------------------------ *)
(* Cross-checks: specialized vs generic expansion arithmetic           *)
(* ------------------------------------------------------------------ *)

module Dd_generic = Expansion.Make (struct
  let limbs = 2
  let name = "double double (generic)"
end)

module Qd_generic = Expansion.Make (struct
  let limbs = 4
  let name = "quad double (generic)"
end)

module Cross (A : Md_sig.S) (B : Md_sig.S) = struct
  (* Compare results through the octo double lens: both versions must
     agree to a few ulps of the last limb. *)
  let to_od limbs_of x =
    Array.fold_left
      (fun acc l -> Octo_double.add acc (Octo_double.of_float l))
      Octo_double.zero (limbs_of x)

  let agree msg a b =
    let oa = to_od A.to_limbs a and ob = to_od B.to_limbs b in
    let d = Octo_double.abs (Octo_double.sub oa ob) in
    let m = Octo_double.abs oa in
    let bound = Octo_double.mul_float m (64.0 *. A.eps) in
    let bound =
      Octo_double.add bound (Octo_double.of_float (64.0 *. Float.min_float))
    in
    if Octo_double.compare d bound > 0 then
      Alcotest.failf "%s: %s vs %s" msg (A.to_string a) (B.to_string b)

  let random_pair rng =
    let l =
      Array.init A.limbs (fun i ->
          Dompool.Prng.sym_float rng *. (2.0 ** (-53.0 *. float_of_int i)))
    in
    (A.of_limbs l, B.of_limbs l)

  let run () =
    let rng = Dompool.Prng.create 1234 in
    for _ = 1 to 500 do
      let xa, xb = random_pair rng in
      let ya, yb = random_pair rng in
      agree "add" (A.add xa ya) (B.add xb yb);
      agree "sub" (A.sub xa ya) (B.sub xb yb);
      agree "mul" (A.mul xa ya) (B.mul xb yb);
      if not (B.is_zero yb) then agree "div" (A.div xa ya) (B.div xb yb);
      agree "sqrt" (A.sqrt (A.abs xa)) (B.sqrt (B.abs xb));
      let f = Dompool.Prng.sym_float rng in
      agree "add_float" (A.add_float xa f) (B.add_float xb f);
      agree "mul_float" (A.mul_float xa f) (B.mul_float xb f)
    done
end

module Cross_dd = Cross (Double_double) (Dd_generic)
module Cross_qd = Cross (Quad_double) (Qd_generic)

(* ------------------------------------------------------------------ *)
(* Constants by series                                                 *)
(* ------------------------------------------------------------------ *)

module Constants (S : Md_sig.S) = struct
  open S

  (* arctan(1/k) by the Taylor series, summed until terms vanish. *)
  let arctan_inv k =
    let k2 = of_int (k * k) in
    let term = ref (div one (of_int k)) in
    let sum = ref !term in
    let n = ref 1 in
    let continue_ = ref true in
    while !continue_ do
      term := div !term k2;
      let t = div !term (of_int ((2 * !n) + 1)) in
      let t = if !n land 1 = 1 then neg t else t in
      let sum' = add !sum t in
      if equal sum' !sum then continue_ := false else sum := sum';
      incr n;
      if !n > 500 then continue_ := false
    done;
    !sum

  let pi_machin () =
    (* pi/4 = 4 arctan(1/5) - arctan(1/239) *)
    mul_pwr2 (sub (mul_pwr2 (arctan_inv 5) 4.0) (arctan_inv 239)) 4.0

  let pi_euler () =
    (* pi/4 = arctan(1/2) + arctan(1/3) *)
    mul_pwr2 (add (arctan_inv 2) (arctan_inv 3)) 4.0

  let e_series () =
    let term = ref one in
    let sum = ref one in
    let n = ref 1 in
    let continue_ = ref true in
    while !continue_ do
      term := div !term (of_int !n);
      let sum' = add !sum !term in
      if equal sum' !sum then continue_ := false else sum := sum';
      incr n
    done;
    !sum

  let pi_literal =
    of_string "3.14159265358979323846264338327950288419716939937510"

  let e_literal =
    of_string "2.71828182845904523536028747135266249775724709369995"

  let close msg a b tol =
    let d = abs (sub a b) in
    if S.compare d (of_string tol) > 0 then
      Alcotest.failf "%s: %s vs %s" msg (to_string a) (to_string b)

  let run () =
    let pi1 = pi_machin () and pi2 = pi_euler () in
    (* Two independent formulas agree to working precision. *)
    let d = abs (sub pi1 pi2) in
    check "machin vs euler" true
      (S.compare d (mul_float pi1 (32.0 *. eps)) <= 0);
    let tol =
      if limbs >= 4 then "1e-48" else if limbs = 2 then "1e-29" else "1e-14"
    in
    close "pi vs literal" pi1 pi_literal tol;
    close "e vs literal" (e_series ()) e_literal tol
end

module C2 = Constants (Double_double)
module C4 = Constants (Quad_double)
module C8 = Constants (Octo_double)

(* ------------------------------------------------------------------ *)
(* Complex arithmetic                                                  *)
(* ------------------------------------------------------------------ *)

module Complex_tests (S : Md_sig.S) = struct
  module C = Md_complex.Make (S)

  let random rng =
    C.make
      (S.of_float (Dompool.Prng.sym_float rng))
      (S.of_float (Dompool.Prng.sym_float rng))

  let approx msg a b =
    let d = C.norm2 (C.sub a b) in
    let m = S.add (C.norm2 a) (C.norm2 b) in
    let bound = S.mul_float (S.add m S.one) (256.0 *. S.eps *. S.eps) in
    if S.compare d bound > 0 then
      Alcotest.failf "%s: %s vs %s" msg (C.to_string a) (C.to_string b)

  let run () =
    let rng = Dompool.Prng.create 77 in
    check "i*i = -1" true (C.equal (C.mul C.i C.i) (C.neg C.one));
    for _ = 1 to 300 do
      let a = random rng and b = random rng in
      approx "conj(ab) = conj a conj b"
        (C.conj (C.mul a b))
        (C.mul (C.conj a) (C.conj b));
      if not (S.is_zero (C.norm2 b)) then
        approx "a*b/b" (C.div (C.mul a b) b) a;
      approx "sqrt^2" (C.mul (C.sqrt a) (C.sqrt a)) a;
      (* |ab| = |a||b| *)
      let lhs = C.abs (C.mul a b) in
      let rhs = S.mul (C.abs a) (C.abs b) in
      let d = S.abs (S.sub lhs rhs) in
      check "modulus multiplicative" true
        (S.compare d (S.mul_float (S.add_float rhs 1.0) (64.0 *. S.eps)) <= 0)
    done
end

module Cx2 = Complex_tests (Double_double)
module Cx4 = Complex_tests (Quad_double)
module Cx8 = Complex_tests (Octo_double)

(* ------------------------------------------------------------------ *)
(* Counted wrapper and precision table                                 *)
(* ------------------------------------------------------------------ *)

let test_counted () =
  let module C = Counted.Make (Quad_double) in
  C.reset ();
  let a = C.of_int 3 and b = C.of_int 4 in
  let _ = C.add a b in
  let _ = C.mul a b in
  let _ = C.mul a b in
  let _ = C.div a b in
  let _ = C.sqrt a in
  let t = C.snapshot () in
  Alcotest.(check int) "adds" 1 t.Counted.adds;
  Alcotest.(check int) "muls" 2 t.Counted.muls;
  Alcotest.(check int) "divs" 1 t.Counted.divs;
  Alcotest.(check int) "sqrts" 1 t.Counted.sqrts;
  let f = Counted.flops Precision.QD t in
  Alcotest.(check bool) "flops counted" true
    (f = 89 + (2 * 336) + 893 + Precision.sqrt_flops Precision.QD)

let test_precision_table () =
  Alcotest.(check int) "dd add" 20 (Precision.add_flops Precision.DD);
  Alcotest.(check int) "dd mul" 23 (Precision.mul_flops Precision.DD);
  Alcotest.(check int) "dd div" 70 (Precision.div_flops Precision.DD);
  Alcotest.(check int) "qd add" 89 (Precision.add_flops Precision.QD);
  Alcotest.(check int) "qd mul" 336 (Precision.mul_flops Precision.QD);
  Alcotest.(check int) "qd div" 893 (Precision.div_flops Precision.QD);
  Alcotest.(check int) "od add" 269 (Precision.add_flops Precision.OD);
  Alcotest.(check int) "od mul" 1742 (Precision.mul_flops Precision.OD);
  Alcotest.(check int) "od div" 5126 (Precision.div_flops Precision.OD);
  (* The paper's averages: 37.7, 439.3, 2379.0. *)
  let close a b = Float.abs (a -. b) < 0.05 in
  check "dd avg" true (close (Precision.average_flops Precision.DD) 37.7);
  check "qd avg" true (close (Precision.average_flops Precision.QD) 439.3);
  check "od avg" true (close (Precision.average_flops Precision.OD) 2379.0);
  (* Predicted overhead factors quoted in §4.4: 11.7 and 5.4. *)
  check "dd->qd predicted" true
    (Float.abs
       (Precision.predicted_overhead ~lo:Precision.DD ~hi:Precision.QD -. 11.7)
    < 0.05);
  check "qd->od predicted" true
    (Float.abs
       (Precision.predicted_overhead ~lo:Precision.QD ~hi:Precision.OD -. 5.4)
    < 0.05)

let test_registry () =
  List.iter
    (fun tag ->
      let (module S) = Registry.module_of_tag tag in
      Alcotest.(check int) "limbs" (Precision.limbs tag) S.limbs;
      check "one+one=two" true (S.equal (S.add S.one S.one) S.two))
    Precision.all

let test_renorm_idempotent () =
  let rng = Dompool.Prng.create 3 in
  for _ = 1 to 200 do
    let src =
      Array.init 8 (fun i ->
          Dompool.Prng.sym_float rng *. (2.0 ** (-50.0 *. float_of_int i)))
    in
    let r1 = Renorm.renormalize ~m:4 src in
    let r2 = Renorm.renormalize ~m:4 r1 in
    Alcotest.(check (array (float 0.0))) "idempotent" r1 r2
  done

let test_grow () =
  let e = [| 1.0; 2.0 ** -60.0 |] in
  let c = Renorm.grow e (2.0 ** -120.0) in
  checkf "carry" (2.0 ** -120.0) c;
  checkf "unchanged hi" 1.0 e.(0);
  (* adding a representable amount leaves no carry *)
  let e2 = [| 1.0; 0.0 |] in
  let c2 = Renorm.grow e2 (2.0 ** -40.0) in
  checkf "no carry" 0.0 c2;
  checkf "absorbed" (2.0 ** -40.0) e2.(1)

let sort_mag a =
  Renorm.sort_by_magnitude ~saved:(Array.make (Array.length a) 0.0) a

(* The reference order: the stdlib sort by decreasing magnitude, whose
   tie order defines the products' bits. *)
let stdlib_sort_mag a =
  Array.sort (fun x y -> compare (Float.abs y) (Float.abs x)) a

let bits a = Array.map Int64.bits_of_float a

(* Sort [src] both ways and require bit-identical renormalizations; when
   the input holds a NaN or a nonzero value together with its negation
   the fallback must have produced the stdlib permutation itself.  The
   fallback's heapsort alone always yields that permutation. *)
let check_sort_against_stdlib name src =
  let got = Array.copy src and want = Array.copy src in
  let heap = Array.copy src in
  sort_mag got;
  stdlib_sort_mag want;
  Renorm.heapsort_by_magnitude heap;
  Alcotest.(check (array int64)) (name ^ ": heapsort permutation")
    (bits want) (bits heap);
  let order_matters =
    Array.exists Float.is_nan src
    || Array.exists (fun x -> x <> 0.0 && Array.mem (-.x) src) src
  in
  if order_matters then
    Alcotest.(check (array int64)) (name ^ ": stdlib permutation")
      (bits want) (bits got);
  List.iter
    (fun (m, passes) ->
      Alcotest.(check (array int64))
        (Printf.sprintf "%s: renormalize m=%d passes=%d" name m passes)
        (bits (Renorm.renormalize ~passes ~m want))
        (bits (Renorm.renormalize ~passes ~m got)))
    [ (4, 1); (4, 2); (8, 2) ]

let test_sort_fallback () =
  List.iter
    (fun (name, src) -> check_sort_against_stdlib name src)
    [
      ("x/-x ties", [| 0.5; 1.0; -0.5; 0x1p-60; -1.0; 1.0; 0x1p-60; -0x1p-60 |]);
      ("+-inf", [| 1.0; infinity; -2.0; neg_infinity; 0.0 |]);
      ("inf alone", [| 1.0; -0.0; infinity; 0.0; -2.0 |]);
      ("nan", [| 1.0; Float.nan; -3.0; 2.0; -0.0 |]);
      ("nan first", [| Float.nan; 1.0; -3.0; 2.0 |]);
      ("nan last", [| 2.0; -1.0; 0.5; Float.nan |]);
      ("tie behind a larger value", [| 4.0; -1.0; 3.0; 1.0; -2.0 |]);
      ("mixed zero tail", [| 0.0; 1.0; -0.0; 0x1p-70; -0.0; 0.0; -0x1p-20 |]);
      ("all zeros", [| -0.0; 0.0; -0.0 |]);
      ("all negative zeros", [| -0.0; -0.0; -0.0 |]);
      ("ties over zeros", [| -0.0; 0x1p-3; 0.0; -0x1p-3; 2.0; -0.0 |]);
    ];
  (* Tie-heavy random arrays: a small pool of exact values, their
     negations, both zeros and the odd infinity or NaN. *)
  let rng = Dompool.Prng.create 13 in
  let pool = [| 1.0; 0.5; 3.0; 0x1p-53; 0.0; 0x1p-80; 6.0 |] in
  for t = 1 to 2400 do
    (* the last 400 as long as a full octo double product buffer *)
    let n =
      if t > 2000 then 79 + Dompool.Prng.int rng 2
      else 1 + Dompool.Prng.int rng 40
    in
    let src =
      Array.init n (fun _ ->
          let r = Dompool.Prng.int rng 100 in
          let x =
            if r = 0 then infinity
            else if r = 1 && t mod 4 = 0 then Float.nan
            else if r < 10 then Dompool.Prng.sym_float rng
            else pool.(Dompool.Prng.int rng (Array.length pool))
          in
          if Dompool.Prng.int rng 2 = 0 then -.x else x)
    in
    check_sort_against_stdlib (Printf.sprintf "random %d" t) src
  done

let test_merge_by_magnitude () =
  let rng = Dompool.Prng.create 9 in
  for _ = 1 to 200 do
    let mk n =
      let a = Array.init n (fun _ -> Dompool.Prng.sym_float rng) in
      sort_mag a;
      a
    in
    let a = mk (1 + Dompool.Prng.int rng 8) in
    let b = mk (1 + Dompool.Prng.int rng 8) in
    let m = Renorm.merge_by_magnitude a b in
    (* result is decreasing in magnitude and a permutation of inputs *)
    let ok = ref true in
    for i = 1 to Array.length m - 1 do
      if Float.abs m.(i) > Float.abs m.(i - 1) then ok := false
    done;
    check "sorted" true !ok;
    let all = Array.append a b in
    sort_mag all;
    let m' = Array.copy m in
    sort_mag m';
    Alcotest.(check (array (float 0.0))) "permutation" all m'
  done;
  (* degenerate shapes *)
  Alcotest.(check (array (float 0.0)))
    "empty left" [| 2.0; 1.0 |]
    (Renorm.merge_by_magnitude [||] [| 2.0; 1.0 |]);
  Alcotest.(check (array (float 0.0)))
    "empty right" [| 2.0; 1.0 |]
    (Renorm.merge_by_magnitude [| 2.0; 1.0 |] [||])

let test_renormalize_into () =
  let dst = Array.make 8 9.9 in
  Renorm.renormalize_into ~m:4 [| 1.0; 2.0 ** -60.0 |] dst 2;
  checkf "offset 2" 1.0 dst.(2);
  checkf "offset 3" (2.0 ** -60.0) dst.(3);
  checkf "untouched" 9.9 dst.(0);
  checkf "untouched tail" 9.9 dst.(6)

let test_renormalize_zeros () =
  let r = Renorm.renormalize ~m:4 [| 0.0; 0.0; 0.0 |] in
  Alcotest.(check (array (float 0.0))) "all zero" [| 0.0; 0.0; 0.0; 0.0 |] r;
  let r = Renorm.renormalize ~m:3 [||] in
  Alcotest.(check (array (float 0.0))) "empty" [| 0.0; 0.0; 0.0 |] r;
  (* overlapping inputs compress *)
  let r = Renorm.renormalize ~m:2 [| 1.0; 1.0; 1.0; 1.0 |] in
  checkf "compressed" 4.0 r.(0);
  checkf "no residue" 0.0 r.(1)

let () =
  Alcotest.run "multidouble"
    [
      ( "eft",
        [
          Alcotest.test_case "two_sum exact" `Quick test_two_sum_exact;
          Alcotest.test_case "two_sum error" `Quick test_two_sum_error_term;
          Alcotest.test_case "quick_two_sum" `Quick test_quick_two_sum;
          Alcotest.test_case "two_prod vs dekker" `Quick test_two_prod_vs_dekker;
          Alcotest.test_case "two_diff" `Quick test_two_diff;
          Alcotest.test_case "three_sum exact" `Quick test_three_sum_exact;
        ] );
      G1.suite "double";
      G2.suite "double double";
      G3.suite "triple double";
      G4.suite "quad double";
      G8.suite "octo double";
      G16.suite "hexa double";
      ( "cross-check",
        [
          Alcotest.test_case "dd vs generic" `Quick Cross_dd.run;
          Alcotest.test_case "qd vs generic" `Quick Cross_qd.run;
        ] );
      ( "constants",
        [
          Alcotest.test_case "dd pi/e" `Quick C2.run;
          Alcotest.test_case "qd pi/e" `Quick C4.run;
          Alcotest.test_case "od pi/e" `Slow C8.run;
        ] );
      ( "complex",
        [
          Alcotest.test_case "dd complex" `Quick Cx2.run;
          Alcotest.test_case "qd complex" `Quick Cx4.run;
          Alcotest.test_case "od complex" `Slow Cx8.run;
        ] );
      ( "infrastructure",
        [
          Alcotest.test_case "counted wrapper" `Quick test_counted;
          Alcotest.test_case "precision table" `Quick test_precision_table;
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "renorm idempotent" `Quick test_renorm_idempotent;
          Alcotest.test_case "grow" `Quick test_grow;
          Alcotest.test_case "merge by magnitude" `Quick
            test_merge_by_magnitude;
          Alcotest.test_case "sort tie fallback" `Quick test_sort_fallback;
          Alcotest.test_case "renormalize into" `Quick test_renormalize_into;
          Alcotest.test_case "renormalize degenerate" `Quick
            test_renormalize_zeros;
        ] );
    ]
