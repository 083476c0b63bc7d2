(* Property-based tests (qcheck, registered as alcotest cases): algebraic
   laws of the multiple double arithmetic, the normalization invariant of
   the expansion representation, and structural invariants of the linear
   algebra layer, at every precision. *)

open Multidouble
open Mdlinalg

let to_alco ?(count = 100) name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)

(* Triple double: the generic expansion at m = 3. *)
module Triple_double = Expansion.Make (struct
  let limbs = 3
  let name = "triple double"
end)

module Props (S : Md_sig.S) = struct
  open QCheck2

  (* Generator of full-precision values: a random limb at every scale,
     with a random binary exponent. *)
  let gen : S.t Gen.t =
    let open Gen in
    let* limbs =
      array_size (return S.limbs) (float_range (-1.0) 1.0)
    in
    let* e = int_range (-24) 24 in
    let l =
      Array.mapi
        (fun i x -> x *. (2.0 ** ((-53.0 *. float_of_int i) +. float_of_int e)))
        limbs
    in
    return (S.of_limbs l)

  let gen_nonzero =
    Gen.map
      (fun x ->
        if S.is_zero x || Float.abs (S.to_float x) < 1e-12 then S.one else x)
      gen

  let close ?(tol = 64.0) a b =
    let d = S.abs (S.sub a b) in
    let m = S.max (S.abs a) (S.abs b) in
    S.compare d (S.mul_float m (tol *. S.eps)) <= 0

  (* The textbook bounds of the approximate laws: an error relative to
     the operands, |(a+b)+c - (a+(b+c))| <= tol eps (|a|+|b|+|c|) and
     |a(b+c) - (ab+ac)| <= tol eps |a| (|b|+|c|).  A bound relative to
     the result does not hold under cancellation (a ~ -b), not even for
     correctly rounded arithmetic. *)
  let within ~tol d bound =
    S.compare (S.abs d) (S.mul_float bound (tol *. S.eps)) <= 0

  let add_associative (a, b, c) =
    within ~tol:64.0
      (S.sub (S.add (S.add a b) c) (S.add a (S.add b c)))
      (S.add (S.abs a) (S.add (S.abs b) (S.abs c)))

  let distributive (a, b, c) =
    within ~tol:256.0
      (S.sub (S.mul a (S.add b c)) (S.add (S.mul a b) (S.mul a c)))
      (S.mul (S.abs a) (S.add (S.abs b) (S.abs c)))

  (* The expansion invariant: limbs sorted by decreasing magnitude and
     non-overlapping (each limb below the ulp of its predecessor). *)
  let normalized x =
    let l = S.to_limbs x in
    let ok = ref true in
    for i = 0 to S.limbs - 2 do
      if l.(i) <> 0.0 then begin
        if Float.abs l.(i + 1) > 0x1p-51 *. Float.abs l.(i) then ok := false
      end
      else if l.(i + 1) <> 0.0 then ok := false
    done;
    !ok

  (* [pinned] holds fixed limb triples on which the result-relative
     bounds failed (drawn from [gen] under [Random.State.make [|12345|]]):
     each must keep the textbook bound of its law. *)
  let suite ?(pinned = ([], [])) name =
    let pinned_case law_name law triples =
      Alcotest.test_case (law_name ^ " (cancellation cases)") `Quick (fun () ->
          List.iter
            (fun (a, b, c) ->
              Alcotest.(check bool)
                law_name true
                (law (S.of_limbs a, S.of_limbs b, S.of_limbs c)))
            triples)
    in
    let pinned_cases =
      List.concat
        [
          (match fst pinned with
          | [] -> []
          | t -> [ pinned_case "add associative" add_associative t ]);
          (match snd pinned with
          | [] -> []
          | t -> [ pinned_case "distributive" distributive t ]);
        ]
    in
    ( name ^ " properties",
      [
        to_alco "add commutative" (Gen.pair gen gen) (fun (a, b) ->
            S.equal (S.add a b) (S.add b a));
        to_alco "mul commutative" (Gen.pair gen gen) (fun (a, b) ->
            S.equal (S.mul a b) (S.mul b a));
        to_alco "add associative (approx)" (Gen.triple gen gen gen)
          add_associative;
        to_alco "mul associative (approx)" (Gen.triple gen gen gen)
          (fun (a, b, c) ->
            close ~tol:256.0 (S.mul (S.mul a b) c) (S.mul a (S.mul b c)));
        to_alco "distributive (approx)" (Gen.triple gen gen gen) distributive;
        to_alco "neg involution" gen (fun a -> S.equal (S.neg (S.neg a)) a);
        to_alco "sub is add neg" (Gen.pair gen gen) (fun (a, b) ->
            S.equal (S.sub a b) (S.add a (S.neg b)));
        to_alco "div inverts mul" (Gen.pair gen gen_nonzero) (fun (a, b) ->
            close ~tol:256.0 (S.div (S.mul a b) b) a);
        to_alco "sqrt squares back" gen (fun a ->
            let a = S.abs a in
            let r = S.sqrt a in
            close ~tol:256.0 (S.mul r r) a);
        to_alco "abs nonnegative" gen (fun a -> S.sign (S.abs a) >= 0);
        to_alco "triangle inequality" (Gen.pair gen gen) (fun (a, b) ->
            (* |a+b| <= |a| + |b| up to a few ulps of the bigger side;
               the slack must be added as a separate term because
               1.0 +. 64 eps rounds to 1.0 in plain double. *)
            let rhs = S.add (S.abs a) (S.abs b) in
            let slack = S.mul_float (S.add_float rhs 1.0) (64.0 *. S.eps) in
            S.compare (S.sub (S.abs (S.add a b)) rhs) slack <= 0);
        to_alco "mul_pwr2 exact" gen (fun a ->
            S.equal (S.mul_pwr2 a 4.0) (S.mul a (S.of_int 4)));
        to_alco "compare antisymmetric" (Gen.pair gen gen) (fun (a, b) ->
            S.compare a b = -S.compare b a);
        to_alco "compare transitive" (Gen.triple gen gen gen)
          (fun (a, b, c) ->
            let l = List.sort S.compare [ a; b; c ] in
            match l with
            | [ x; y; z ] -> S.compare x y <= 0 && S.compare y z <= 0
            | _ -> false);
        to_alco "compare consistent with sub" (Gen.pair gen gen)
          (fun (a, b) ->
            let c = S.compare a b and s = S.sign (S.sub a b) in
            (c > 0) = (s > 0) && (c < 0) = (s < 0));
        to_alco "floor below" gen (fun a ->
            let f = S.floor a in
            S.compare f a <= 0 && S.compare a (S.add f S.one) < 0);
        to_alco "results normalized" (Gen.pair gen gen) (fun (a, b) ->
            normalized (S.add a b) && normalized (S.mul a b)
            && normalized (S.sub a b));
        to_alco ~count:50 "string roundtrip" gen (fun a ->
            close ~tol:64.0 (S.of_string (S.to_string a)) a);
        to_alco ~count:50 "truncated printing"
          (Gen.pair gen (Gen.int_range 3 (S.limbs * 16)))
          (fun (a, digits) ->
            (* printing with d digits then reparsing keeps ~d digits *)
            let b = S.of_string (S.to_string ~digits a) in
            let d = S.abs (S.sub a b) in
            let bound =
              S.mul_float
                (S.add (S.abs a) (S.of_float 1e-300))
                (10.0 ** float_of_int (2 - digits))
            in
            S.compare d bound <= 0);
        to_alco "min/max bracket" (Gen.pair gen gen) (fun (a, b) ->
            S.compare (S.min a b) (S.max a b) <= 0
            && (S.equal (S.min a b) a || S.equal (S.min a b) b));
      ]
      @ pinned_cases )
end

module Pd = Props (Float_double)
module Pdd = Props (Double_double)
module Pqd = Props (Quad_double)
module Pod = Props (Octo_double)

(* ------------------------------------------------------------------ *)
(* Renormalization invariants                                          *)
(* ------------------------------------------------------------------ *)

(* The fault plane's renorm validators lean on exactly these: any raw
   limb sequence compresses to decreasing, non-overlapping limbs with
   the zeros trailing, renormalization is idempotent bit for bit, and
   the represented value survives up to the dropped tail. *)
module Renorm_props (S : Md_sig.S) = struct
  open QCheck2

  let m = S.limbs

  (* Raw overlapping limb ladders: magnitudes spaced by ~45 bits (closer
     than a limb's 53, so adjacent limbs overlap), deliberately NOT in
     normal form. *)
  let gen_raw : float array Gen.t =
    let open Gen in
    let* xs = array_size (return m) (float_range (-1.0) 1.0) in
    let* e = int_range (-24) 24 in
    return
      (Array.mapi
         (fun i x ->
           x *. (2.0 ** ((-45.0 *. float_of_int i) +. float_of_int e)))
         xs)

  (* The expansion invariant on a raw limb array: decreasing and
     non-overlapping (2^-49 leaves room for a couple of carry bits),
     zeros only trailing, everything finite. *)
  let normalized_arr l =
    let ok = ref true in
    for i = 0 to Array.length l - 2 do
      if l.(i) = 0.0 then begin
        if l.(i + 1) <> 0.0 then ok := false
      end
      else if Float.abs l.(i + 1) > 0x1p-49 *. Float.abs l.(i) then
        ok := false
    done;
    Array.for_all (fun x -> not (Float.is_nan x) && Float.is_finite x) l
    && !ok

  let od_sum l =
    Array.fold_left
      (fun acc x -> Octo_double.add acc (Octo_double.of_float x))
      Octo_double.zero l

  let suite name =
    ( name ^ " renorm properties",
      [
        to_alco ~count:200 "renormalize normalizes" gen_raw (fun raw ->
            normalized_arr (Renorm.renormalize ~m (Array.copy raw)));
        to_alco ~count:200 "renormalize idempotent on normal forms" gen_raw
          (fun raw ->
            (* One pass over a heavily overlapping ladder may still move
               a carry; the result of a second pass is a bit-identical
               fixed point. *)
            let settled =
              Renorm.renormalize ~m
                (Renorm.renormalize ~m (Array.copy raw))
            in
            Array.for_all2
              (fun a b ->
                Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
              (Renorm.renormalize ~m (Array.copy settled))
              settled);
        to_alco ~count:200 "renormalize preserves the value" gen_raw
          (fun raw ->
            let out = Renorm.renormalize ~m (Array.copy raw) in
            let a = od_sum raw and b = od_sum out in
            let d = Octo_double.abs (Octo_double.sub a b) in
            let bound =
              Octo_double.mul_float
                (Octo_double.add (Octo_double.abs a)
                   (Octo_double.of_float 1e-300))
                (2.0 ** (-50.0 *. float_of_int (m - 1)))
            in
            Octo_double.compare d bound <= 0);
        to_alco ~count:200 "of_limbs normalizes" gen_raw (fun raw ->
            normalized_arr (S.to_limbs (S.of_limbs raw)));
      ] )
end

module Rdd = Renorm_props (Double_double)
module Rqd = Renorm_props (Quad_double)
module Rod = Renorm_props (Octo_double)

(* ------------------------------------------------------------------ *)
(* Flat kernel plane: bit-identity with the boxed registry path         *)
(* ------------------------------------------------------------------ *)

(* Every [Nd_flat] kernel operation, on random staggered planes, must
   agree with the boxed module limb for limb (via Int64.bits_of_float) —
   the contract that lets the solvers dispatch to the flat plane on a
   pure capability check.  Instantiated below for every precision in
   [Precision.all] that has a plan (all multiple doubles, including the
   Expansion-generated octo double). *)
module Flat_props (S : Md_sig.S) = struct
  open QCheck2

  let m = S.limbs

  let fp =
    match Nd_flat.plan ~limbs:m with
    | Some p -> p
    | None -> Alcotest.failf "no flat plan for %d limbs" m

  (* Full-precision staggered values: a random limb at every scale, with
     a random binary exponent (the generator of [Props]). *)
  let gen_full : S.t Gen.t =
    let open Gen in
    let* limbs = array_size (return m) (float_range (-1.0) 1.0) in
    let* e = int_range (-24) 24 in
    let l =
      Array.mapi
        (fun i x -> x *. (2.0 ** ((-53.0 *. float_of_int i) +. float_of_int e)))
        limbs
    in
    return (S.of_limbs l)

  (* Single doubles at a random scale: the values A holds and Q starts
     from, whose products fill only a corner of the product buffer. *)
  let gen_single : S.t Gen.t =
    let open Gen in
    let+ x = float_range (-1.0) 1.0 and+ e = int_range (-24) 24 in
    S.of_float (ldexp x e)

  (* The zeros of both signs: -0 in every limb is what negating zero
     gives. *)
  let gen_zero : S.t Gen.t = Gen.oneofl [ S.zero; S.neg S.zero ]

  (* Full-limb values alone never tie in a product buffer.  Small exact
     integers, signed powers of two and expansions with zero limbs fill
     it with exact zeros and equal magnitudes; single doubles and the
     signed zeros leave most or all of it zero, and zero limbs come as
     +0 and as -0 (the zero tail of a negated value). *)
  let gen_val : S.t Gen.t =
    let open Gen in
    frequency
      [
        (3, gen_full);
        (1, map S.of_int (int_range (-64) 64));
        ( 1,
          let+ e = int_range (-40) 40 and+ neg = bool in
          S.of_float (if neg then -.ldexp 1.0 e else ldexp 1.0 e) );
        ( 1,
          let+ x = gen_full and+ keep = array_size (return m) bool in
          S.of_limbs
            (Array.mapi (fun i l -> if keep.(i) then l else 0.0) (S.to_limbs x))
        );
        (1, gen_single);
        (1, gen_zero);
        ( 1,
          let+ x = gen_full and+ keep = int_range 1 m in
          S.of_limbs_exact
            (Array.mapi
               (fun i l -> if i < keep then l else -0.0)
               (S.to_limbs x))
        );
      ]

  (* [x] with the signs of its odd limbs flipped: the cross products
     x_i * y_j and x_j * y_i of [x] and this value are exact negations of
     each other, the nonzero ties the shared sort falls back on. *)
  let alternate x =
    S.of_limbs_exact
      (Array.mapi (fun i l -> if i land 1 = 1 then -.l else l) (S.to_limbs x))

  (* Operand pairs: independent draws, x with -x, x with its
     alternation, and a zero of either sign on either side. *)
  let gen_pair : (S.t * S.t) Gen.t =
    Gen.frequency
      [
        (3, Gen.pair gen_val gen_val);
        (2, Gen.map (fun x -> (x, S.neg x)) gen_val);
        (2, Gen.map (fun x -> (x, alternate x)) gen_val);
        (1, Gen.pair gen_val gen_zero);
        (1, Gen.pair gen_zero gen_val);
      ]

  let gen_triple : (S.t * S.t * S.t) Gen.t =
    Gen.map (fun (c, (a, b)) -> (c, a, b)) (Gen.pair gen_val gen_pair)

  let bits_eq (a : float array) (b : float array) =
    Array.length a = Array.length b
    && Array.for_all2
         (fun x y ->
           Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
         a b

  (* Stage boxed values into limb planes (the [Staggered] layout). *)
  let stage (vals : S.t array) =
    let n = Array.length vals in
    let p = Nd_flat.make_planes ~limbs:m n in
    Array.iteri
      (fun i v ->
        let l = S.to_limbs v in
        for pl = 0 to m - 1 do
          Nd_flat.set p pl i l.(pl)
        done)
      vals;
    p

  (* A stride of 0 (broadcast), 1 or a row pitch. *)
  let gen_stride =
    Gen.(frequency [ (1, return 0); (1, return 1); (1, int_range 2 9) ])

  (* A strided operand of [count] steps: an offset, a stride, and values
     covering every step. *)
  let gen_strided count =
    let open Gen in
    let* off = int_range 0 3 in
    let* stride = gen_stride in
    let+ vals =
      array_size (return (off + (max 0 (count - 1) * stride) + 1)) gen_val
    in
    (off, stride, vals)

  (* An operand of [nl] lanes by [kn] steps: an offset, a lane stride,
     a step stride, and values covering every word read. *)
  let gen_laned nl kn =
    let open Gen in
    let* off = int_range 0 3 and* sl = gen_stride and* sk = gen_stride in
    let+ vals =
      array_size
        (return (off + (max 0 (nl - 1) * sl) + (max 0 (kn - 1) * sk) + 1))
        gen_val
    in
    (off, sl, sk, vals)

  (* Read the accumulator back out through [store]. *)
  let acc_limbs ctx =
    let out = Nd_flat.make_planes ~limbs:m 1 in
    fp.Nd_flat.store ctx out 0;
    Array.init m (fun pl -> Nd_flat.get out pl 0)

  let check_op name boxed flat_limbs =
    if not (bits_eq (S.to_limbs boxed) flat_limbs) then
      Test.fail_reportf "%s: flat limbs differ from boxed %s" name
        (S.to_string boxed)
    else true

  (* The octo double engine has the most data-dependent paths (the
     zero-aware product, the trimmed distillation and their fallbacks):
     its product checks run 1000 cases instead of [n]. *)
  let product_count n = if m = 8 then 1000 else n

  let suite name =
    let { Nd_flat.make_ctx; clear; load; store = _; add; mul_set; mul_add;
          sub_from; limbs = _; dot; lanes } = fp
    in
    ( name ^ " flat bit-identity",
      [
        to_alco ~count:200 "load/store roundtrip" gen_val (fun x ->
            let ctx = make_ctx () in
            load ctx (stage [| x |]) 0;
            bits_eq (S.to_limbs x) (acc_limbs ctx));
        to_alco ~count:200 "add" gen_pair (fun (a, b) ->
            let ctx = make_ctx () in
            load ctx (stage [| a |]) 0;
            add ctx (stage [| b |]) 0;
            check_op "add" (S.add a b) (acc_limbs ctx));
        to_alco ~count:(product_count 200) "mul_set" gen_pair (fun (a, b) ->
            let ctx = make_ctx () in
            mul_set ctx (stage [| a |]) 0 (stage [| b |]) 0;
            check_op "mul_set" (S.mul a b) (acc_limbs ctx));
        to_alco ~count:(product_count 200) "mul_add" gen_triple
          (fun (c, a, b) ->
            let ctx = make_ctx () in
            load ctx (stage [| c |]) 0;
            mul_add ctx (stage [| a |]) 0 (stage [| b |]) 0;
            check_op "mul_add" (S.add c (S.mul a b)) (acc_limbs ctx));
        to_alco ~count:200 "sub_from" gen_pair (fun (x, c) ->
            let ctx = make_ctx () in
            load ctx (stage [| c |]) 0;
            let xs = stage [| x |] in
            sub_from ctx xs 0;
            let got = Array.init m (fun pl -> Nd_flat.get xs pl 0) in
            check_op "sub_from" (S.sub x c) got);
        to_alco ~count:(product_count 100) "dot chain"
          (Gen.pair
             (Gen.array_size (Gen.int_range 1 17) gen_val)
             (Gen.array_size (Gen.int_range 1 17) gen_val))
          (fun (xs, ys) ->
            (* Accumulation chains grow limb occupancy the way the real
               kernels do; run the exact mul_add sequence of the matmul
               body against its boxed form. *)
            let n = min (Array.length xs) (Array.length ys) in
            let xs = Array.sub xs 0 n and ys = Array.sub ys 0 n in
            let xp = stage xs and yp = stage ys in
            let ctx = make_ctx () in
            clear ctx;
            let boxed = ref S.zero in
            for i = 0 to n - 1 do
              mul_add ctx xp i yp i;
              boxed := S.add !boxed (S.mul xs.(i) ys.(i))
            done;
            check_op "dot chain" !boxed (acc_limbs ctx));
        (* The loop-level ops against a plain loop of the same engine's
           mul_add, over every stride shape the kernels use. *)
        to_alco ~count:200 "dot = mul_add loop"
          Gen.(
            let* n = int_range 0 12 in
            triple (return n) (pair (gen_strided n) (gen_strided n)) gen_val)
          (fun (n, ((ia, sa, av), (ib, sb, bv)), c) ->
            let ap = stage av and bp = stage bv and cp = stage [| c |] in
            let got = make_ctx () and want = make_ctx () in
            load got cp 0;
            load want cp 0;
            dot got ap ia sa bp ib sb n;
            for t = 0 to n - 1 do
              mul_add want ap (ia + (t * sa)) bp (ib + (t * sb))
            done;
            bits_eq (acc_limbs want) (acc_limbs got));
        (* Every lane count up to 8 (the groups of four of the m = 1
           and m = 2 engines and their one-lane tails) and k loops long
           enough for accumulators to grow limb occupancy. *)
        to_alco ~count:200 "lanes = mul_add loop"
          Gen.(
            let* nl = int_range 0 8 and* kn = int_range 0 40 in
            triple
              (pair (return nl) (return kn))
              (pair (gen_laned nl kn) (gen_laned nl kn))
              (array_size (return 8) gen_val))
          (fun ((nl, kn), ((ia, sa, ka, av), (ib, sb, kb, bv)), init) ->
            let ap = stage av and bp = stage bv and ip = stage init in
            let lanes_of () =
              Array.init 8 (fun l ->
                  let ctx = make_ctx () in
                  load ctx ip l;
                  ctx)
            in
            let got = lanes_of () and want = lanes_of () in
            lanes got ap ia sa ka bp ib sb kb nl kn;
            for l = 0 to nl - 1 do
              for k = 0 to kn - 1 do
                mul_add want.(l) ap
                  (ia + (l * sa) + (k * ka))
                  bp
                  (ib + (l * sb) + (k * kb))
              done
            done;
            Array.for_all2
              (fun g w -> bits_eq (acc_limbs w) (acc_limbs g))
              got want);
        to_alco ~count:100 "dot = one-lane lanes"
          Gen.(
            let* n = int_range 0 40 in
            triple (return n) (pair (gen_strided n) (gen_strided n)) gen_val)
          (fun (n, ((ia, sa, av), (ib, sb, bv)), c) ->
            let ap = stage av and bp = stage bv and cp = stage [| c |] in
            let got = make_ctx () and want = make_ctx () in
            load got cp 0;
            load want cp 0;
            dot got ap ia sa bp ib sb n;
            lanes [| want |] ap ia 0 sa bp ib 0 sb 1 n;
            bits_eq (acc_limbs want) (acc_limbs got));
      ] )
end

(* ------------------------------------------------------------------ *)
(* The first panel's Q*WY^T: zero products against the identity        *)
(* ------------------------------------------------------------------ *)

(* While Q is still the identity, [Flat_kernels.Make(K).Qr.qwy] computes
   each output as clear; mul_add Q[i,i] y_i; store, dropping the terms
   Q[i,k] y_k with Q[i,k] = +0.  That is exact given two facts about the
   engine, pinned here at every width:
   (a) clear; mul_add (+0) y, for finite y, leaves every limb +0, so the
       terms before the diagonal leave the accumulator as [clear] did;
   (b) after the diagonal term, mul_add (+0) y' leaves the accumulator's
       bits unchanged, so the terms after it do too.
   The engines that renormalize a sum (m >= 3) also lean on the premise
   of the guard [qwy] runs for them: the product +0 * y is +0 in every
   limb, whatever finite y, so one zero term decides all the others.  A
   product of +0 with finite limbs depends only on their signs, so the
   premise and (a) are checked over every sign pattern as well as on
   the generators; (b) is checked on the generators' pairs, ties
   included. *)
module Qwy_props (S : Md_sig.S) = struct
  module F = Flat_props (S)

  let m = S.limbs
  let zero_word = F.stage [| S.zero |]
  let one_word = F.stage [| S.one |]

  let all_pos_zero l =
    Array.for_all (fun x -> Int64.equal (Int64.bits_of_float x) 0L) l

  (* A finite value with the sign pattern [bits] (bit k: limb k
     negative); the magnitudes are immaterial to +0 * y. *)
  let signed bits =
    S.of_limbs_exact
      (Array.init m (fun k ->
           let x = ldexp 1.0 (-60 * k) in
           if (bits lsr k) land 1 = 1 then -.x else x))

  let { Nd_flat.make_ctx; clear; mul_set; mul_add; _ } = F.fp

  let zero_times y =
    let ctx = make_ctx () in
    clear ctx;
    mul_add ctx zero_word 0 (F.stage [| y |]) 0;
    F.acc_limbs ctx

  let zero_product y =
    let ctx = make_ctx () in
    mul_set ctx zero_word 0 (F.stage [| y |]) 0;
    F.acc_limbs ctx

  (* The accumulator after the diagonal term 1 * y, then after one more
     zero term +0 * y'. *)
  let diagonal_then_zero y y' =
    let ctx = make_ctx () in
    clear ctx;
    mul_add ctx one_word 0 (F.stage [| y |]) 0;
    let diag = F.acc_limbs ctx in
    mul_add ctx zero_word 0 (F.stage [| y' |]) 0;
    (diag, F.acc_limbs ctx)

  let finite y = Array.for_all Float.is_finite (S.to_limbs y)

  let suite name =
    ( name ^ " identity products",
      [
        Alcotest.test_case "(a) over every sign pattern" `Quick (fun () ->
            for bits = 0 to (1 lsl m) - 1 do
              let y = signed bits in
              if not (all_pos_zero (zero_times y)) then
                Alcotest.failf "m=%d signs %x: clear; +0 * y is not +0" m bits;
              if m > 1 && not (all_pos_zero (zero_product y)) then
                Alcotest.failf "m=%d signs %x: +0 * y is not +0" m bits
            done);
        to_alco ~count:500 "(a) on the generators" F.gen_val (fun y ->
            (not (finite y))
            || all_pos_zero (zero_times y)
               && (m = 1 || all_pos_zero (zero_product y)));
        to_alco ~count:(F.product_count 500) "(b) on the generators"
          F.gen_pair (fun (y, y') ->
            let diag, after = diagonal_then_zero y y' in
            F.bits_eq diag after);
      ] )
end

let qwy_suites =
  let module Q1 = Qwy_props (Float_double) in
  let module Q2 = Qwy_props (Double_double) in
  let module Q3 = Qwy_props (Triple_double) in
  let module Q4 = Qwy_props (Quad_double) in
  let module Q8 = Qwy_props (Octo_double) in
  let module Q16 = Qwy_props (Hexa_double) in
  [
    Q1.suite "double";
    Q2.suite "double double";
    Q3.suite "triple double (replay)";
    Q4.suite "quad double";
    Q8.suite "octo double";
    Q16.suite "hexa double (replay)";
  ]

(* The boxed reference comes from the registry — the same dispatch the
   production stack uses. *)
let flat_suites =
  List.filter_map
    (fun tag ->
      let limbs = Precision.limbs tag in
      if Nd_flat.supported limbs then
        let module S = (val Registry.module_of_tag tag) in
        let module P = Flat_props (S) in
        Some (P.suite (Precision.name tag))
      else None)
    Precision.all

(* The widths above resolve to the specialized engines (m = 2, 4, 8);
   these pin the generic replay engine against the Expansion functor at
   widths with no hand-written kernel — the QDlib neighbours of the
   specialized sizes (m = 3, 6) and far past them (m = 16). *)
module Sexa_double = Expansion.Make (struct
  let limbs = 6
  let name = "sexa double"
end)

let replay_suites =
  let module P3 = Flat_props (Triple_double) in
  let module P6 = Flat_props (Sexa_double) in
  let module P16 = Flat_props (Hexa_double) in
  [
    P3.suite "triple double (replay)";
    P6.suite "sexa double (replay)";
    P16.suite "hexa double (replay)";
  ]

(* The boxed and flat expansion products share [Renorm.sort_by_magnitude],
   so their agreement alone cannot catch a wrong sort.  This reference is
   [Expansion.Pre.mul] spelled out: the partial products in its emission
   order, sorted by the stdlib sort the products were defined by (so
   ties land in the same order), then the two-pass renormalization. *)
let product_buffer m (a : float array) (b : float array) =
  let buf = ref [] in
  for o = 0 to m - 1 do
    for i = 0 to o do
      let p, e = Eft.two_prod a.(i) b.(o - i) in
      buf := e :: p :: !buf
    done
  done;
  for i = 1 to m - 1 do
    buf := (a.(i) *. b.(m - i)) :: !buf
  done;
  Array.of_list (List.rev !buf)

let reference_mul m a b =
  let buf = product_buffer m a b in
  Array.sort (fun x y -> compare (Float.abs y) (Float.abs x)) buf;
  Renorm.renormalize ~passes:2 ~m buf

(* A buffer whose order reaches the renormalized bits: it holds a nonzero
   value and its negation. *)
let has_signed_tie m a b =
  let buf = product_buffer m a b in
  Array.exists (fun x -> x <> 0.0 && Array.mem (-.x) buf) buf

(* Directed operand pairs for the rare paths of a product or a sum, as
   raw limbs (adopted as-is): partial products that cancel exactly (a
   nonzero term next to its negation), zeros of both signs, and
   infinities, NaNs and overflow, where the zero tail of a product
   buffer or of a merge does reach the bits, and nonzero operands whose
   products all underflow to zero.  The last two pairs are not
   normalized: the first overflows in its guard product alone, the
   second in the distillation of finite terms. *)
let directed_operands m =
  let v l = Array.init m (fun i -> if i < Array.length l then l.(i) else 0.0) in
  let t = ldexp 1.0 (-60) in
  let guard = Array.make m 0.0 in
  guard.(0) <- 1.0;
  guard.(m - 1) <- 1e300;
  [
    (v [| 1.0; t |], v [| 1.0; -.t |]);
    (v [| 3.0; 3.0 *. t |], v [| -5.0; 5.0 *. t |]);
    (v [| 1.0; t |], v [| 1.0; t |]);
    (v [| 1.0; t |], Array.make m (-0.0));
    (Array.make m (-0.0), v [| -2.0; t |]);
    (Array.make m (-0.0), Array.make m (-0.0));
    (v [||], Array.make m (-0.0));
    (v [| infinity |], v [| 1.0 |]);
    (v [| infinity |], v [||]);
    (v [| 1e-200; -1e-217 |], v [| -1e-200 |]);
    (Array.make m (-0.0), v [| 1.0; Float.nan |]);
    (v [| 1.0 |], v [| neg_infinity; 1.0 |]);
    (v [| Float.nan |], v [| 2.0 |]);
    (v [| max_float |], v [| 2.0 |]);
    (v [| max_float |], v [| max_float |]);
    (v [| 1.0; 1e300 |], guard);
    (v [| 1.0; 1.0 |], v [| max_float; max_float |]);
  ]

module Reference_props (S : Md_sig.S) = struct
  module F = Flat_props (S)

  let m = S.limbs

  let suite name =
    let { Nd_flat.make_ctx; mul_set; mul_add; load; add; _ } = F.fp in
    let reference a b =
      S.of_limbs_exact (reference_mul m (S.to_limbs a) (S.to_limbs b))
    in
    ( name ^ " reference product",
      [
        to_alco ~count:1000 "boxed mul" F.gen_pair (fun (a, b) ->
            F.check_op "boxed mul" (reference a b) (S.to_limbs (S.mul a b)));
        to_alco ~count:1000 "flat mul_set" F.gen_pair (fun (a, b) ->
            let ctx = make_ctx () in
            mul_set ctx (F.stage [| a |]) 0 (F.stage [| b |]) 0;
            F.check_op "mul_set" (reference a b) (F.acc_limbs ctx));
        to_alco ~count:1000 "flat mul_add" F.gen_triple (fun (c, a, b) ->
            let ctx = make_ctx () in
            load ctx (F.stage [| c |]) 0;
            mul_add ctx (F.stage [| a |]) 0 (F.stage [| b |]) 0;
            F.check_op "mul_add" (S.add c (reference a b)) (F.acc_limbs ctx));
        Alcotest.test_case "directed products and sums" `Quick (fun () ->
            List.iter
              (fun (a, b) ->
                let x = S.of_limbs_exact a and y = S.of_limbs_exact b in
                let ctx = make_ctx () in
                mul_set ctx (F.stage [| x |]) 0 (F.stage [| y |]) 0;
                ignore
                  (F.check_op "directed mul_set" (reference x y)
                     (F.acc_limbs ctx)
                  && F.check_op "directed boxed mul" (reference x y)
                       (S.to_limbs (S.mul x y)));
                load ctx (F.stage [| x |]) 0;
                add ctx (F.stage [| y |]) 0;
                ignore
                  (F.check_op "directed add" (S.add x y) (F.acc_limbs ctx)))
              (directed_operands m));
        Alcotest.test_case "generator reaches the sparse products" `Quick
          (fun () ->
            let rand = Random.State.make [| m |] in
            let zero = ref 0 and sparse = ref 0 in
            for _ = 1 to 200 do
              let a, b = QCheck2.Gen.generate1 ~rand F.gen_pair in
              let buf = product_buffer m (S.to_limbs a) (S.to_limbs b) in
              let nonzero =
                Array.fold_left (fun n x -> if x <> 0.0 then n + 1 else n) 0 buf
              in
              if nonzero = 0 then incr zero
              else if 2 * nonzero < Array.length buf then incr sparse
            done;
            if !zero < 10 || !sparse < 10 then
              Alcotest.failf
                "of 200 operand pairs, %d give an all-zero and %d a sparse \
                 product buffer"
                !zero !sparse);
        Alcotest.test_case "generator reaches the tie fallback" `Quick
          (fun () ->
            let rand = Random.State.make [| m |] in
            let ties = ref 0 in
            for _ = 1 to 200 do
              let a, b = QCheck2.Gen.generate1 ~rand F.gen_pair in
              if has_signed_tie m (S.to_limbs a) (S.to_limbs b) then incr ties
            done;
            if !ties < 10 then
              Alcotest.failf "only %d of 200 operand pairs tie" !ties);
      ] )
end

let reference_suites =
  let module R3 = Reference_props (Triple_double) in
  let module R8 = Reference_props (Octo_double) in
  let module R16 = Reference_props (Hexa_double) in
  [
    R3.suite "triple double";
    R8.suite "octo double";
    R16.suite "hexa double";
  ]

let flat_gate_suite =
  ( "flat plan gating",
    [
      Alcotest.test_case "plain double has the m=1 plan" `Quick (fun () ->
          match Nd_flat.plan ~limbs:1 with
          | Some p -> Alcotest.(check int) "limbs" 1 p.Nd_flat.limbs
          | None -> Alcotest.fail "no plan for plain double");
      Alcotest.test_case "every multiple double has a plan" `Quick (fun () ->
          List.iter
            (fun tag ->
              let limbs = Precision.limbs tag in
              if limbs > 1 then
                match Nd_flat.plan ~limbs with
                | Some p ->
                    Alcotest.(check int)
                      (Precision.name tag ^ " plan limbs")
                      limbs p.Nd_flat.limbs
                | None ->
                    Alcotest.failf "no plan for %s" (Precision.name tag))
            Precision.all);
    ] )

(* ------------------------------------------------------------------ *)
(* Linear algebra invariants                                           *)
(* ------------------------------------------------------------------ *)

module Linalg_props (K : Scalar.S) = struct
  open QCheck2
  module M = Mat.Make (K)
  module V = Vec.Make (K)
  module Qr = Host_qr.Make (K)
  module Tri = Host_tri.Make (K)
  module Lu = Lu.Make (K)

  let gen_scalar : K.t Gen.t =
    Gen.map K.of_float (Gen.float_range (-1.0) 1.0)

  let gen_vec n = Gen.array_size (Gen.return n) gen_scalar

  let gen_mat r c =
    Gen.map
      (fun a -> M.init r c (fun i j -> a.((i * c) + j)))
      (Gen.array_size (Gen.return (r * c)) gen_scalar)

  let rclose a b tol =
    K.R.compare a (K.R.of_float (tol *. K.R.eps)) <= 0 |> fun _ ->
    K.R.compare (K.R.sub a b) (K.R.of_float (tol *. K.R.eps)) <= 0

  let _ = rclose

  let small r = K.R.compare r (K.R.of_float (1e6 *. K.R.eps)) <= 0

  let suite name =
    ( name ^ " linalg properties",
      [
        to_alco ~count:40 "dot conjugate symmetry" (Gen.pair (gen_vec 9) (gen_vec 9))
          (fun (a, b) ->
            K.equal (V.dot a b) (K.conj (V.dot b a)));
        to_alco ~count:40 "norm2 nonnegative" (gen_vec 11) (fun v ->
            K.R.sign (V.norm2 v) >= 0);
        to_alco ~count:40 "matvec linear" (Gen.triple (gen_mat 6 5) (gen_vec 5) (gen_vec 5))
          (fun (m, x, y) ->
            let lhs = M.matvec m (V.add x y) in
            let rhs = V.add (M.matvec m x) (M.matvec m y) in
            small (V.norm (V.sub lhs rhs)));
        to_alco ~count:20 "matmul associative"
          (Gen.triple (gen_mat 4 5) (gen_mat 5 3) (gen_mat 3 6))
          (fun (a, b, c) ->
            small
              (M.rel_distance
                 (M.matmul (M.matmul a b) c)
                 (M.matmul a (M.matmul b c))));
        to_alco ~count:40 "adjoint involution" (gen_mat 5 7) (fun m ->
            M.equal (M.adjoint (M.adjoint m)) m);
        to_alco ~count:20 "qr reconstructs" (gen_mat 8 6) (fun a ->
            let q, r = Qr.factor a in
            small (Qr.factorization_residual a q r)
            && small (Qr.orthogonality_defect q));
        to_alco ~count:20 "lu solve residual" (gen_mat 6 6) (fun a ->
            try
              let x = V.init 6 (fun i -> K.of_float (float_of_int (i + 1))) in
              let b = M.matvec a x in
              let x' = Lu.solve a b in
              K.R.compare
                (V.norm (V.sub x x'))
                (K.R.mul_float (V.norm x) (1e10 *. K.R.eps))
              <= 0
            with Lu.Singular _ -> true);
        to_alco ~count:20 "upper inverse" (gen_mat 6 6) (fun a ->
            try
              let lu, _ = Lu.factor a in
              let u = Lu.upper_of lu in
              let inv = Tri.upper_inverse u in
              small (M.rel_distance (M.identity 6) (M.matmul u inv))
            with Lu.Singular _ -> true);
      ] )
end

module Ld = Linalg_props (Scalar.D)
module Ldd = Linalg_props (Scalar.Dd)
module Lqd = Linalg_props (Scalar.Qd)
module Lzdd = Linalg_props (Scalar.Zdd)

(* ------------------------------------------------------------------ *)
(* Elementary function laws                                            *)
(* ------------------------------------------------------------------ *)

module Func_props (S : Md_sig.S) = struct
  open QCheck2
  module F = Md_funcs.Make (S)

  let gen_small = Gen.map S.of_float (Gen.float_range (-5.0) 5.0)
  let gen_pos = Gen.map (fun x -> S.of_float (Float.abs x +. 0.01)) (Gen.float_range 0.0 30.0)

  let close ?(tol = 1e4) a b =
    let d = S.abs (S.sub a b) in
    let m = S.add (S.max (S.abs a) (S.abs b)) S.one in
    S.compare d (S.mul_float m (tol *. S.eps)) <= 0

  let suite name =
    ( name ^ " function laws",
      [
        to_alco ~count:50 "exp additive" (Gen.pair gen_small gen_small)
          (fun (a, b) ->
            close (F.exp (S.add a b)) (S.mul (F.exp a) (F.exp b)));
        to_alco ~count:50 "log multiplicative" (Gen.pair gen_pos gen_pos)
          (fun (a, b) ->
            close (F.log (S.mul a b)) (S.add (F.log a) (F.log b)));
        to_alco ~count:50 "exp/log inverse" gen_small (fun a ->
            close (F.log (F.exp a)) a);
        to_alco ~count:50 "pythagoras" gen_small (fun a ->
            let s, c = F.sin_cos a in
            close (S.add (S.mul s s) (S.mul c c)) S.one);
        to_alco ~count:50 "double angle" gen_small (fun a ->
            let s, c = F.sin_cos a in
            let s2, _ = F.sin_cos (S.mul_pwr2 a 2.0) in
            close s2 (S.mul_pwr2 (S.mul s c) 2.0));
        to_alco ~count:50 "atan odd" gen_small (fun a ->
            S.equal (F.atan (S.neg a)) (S.neg (F.atan a)));
        to_alco ~count:50 "cosh >= 1" gen_small (fun a ->
            S.compare (F.cosh a) (S.add_float S.one (-1e-15)) >= 0);
        to_alco ~count:30 "nroot inverts npow" gen_pos (fun a ->
            close ~tol:1e6 (F.nroot (F.npow a 3) 3) a);
      ] )
end

module Fpd = Func_props (Double_double)
module Fpq = Func_props (Quad_double)

(* ------------------------------------------------------------------ *)
(* Power series ring laws                                              *)
(* ------------------------------------------------------------------ *)

module Series_props (K : Scalar.S) = struct
  open QCheck2
  module S = Mdseries.Series.Make (K)

  let deg = 6

  let gen_series : S.t Gen.t =
    Gen.map
      (fun a -> S.of_coeffs (Array.map K.of_float a))
      (Gen.array_size (Gen.return (deg + 1)) (Gen.float_range (-1.0) 1.0))

  let close a b =
    K.R.compare (S.distance a b) (K.R.of_float (1e6 *. K.R.eps)) <= 0

  let suite name =
    ( name ^ " series laws",
      [
        to_alco ~count:50 "mul commutative" (Gen.pair gen_series gen_series)
          (fun (a, b) -> S.equal (S.mul a b) (S.mul b a));
        to_alco ~count:50 "mul associative"
          (Gen.triple gen_series gen_series gen_series)
          (fun (a, b, c) ->
            close (S.mul (S.mul a b) c) (S.mul a (S.mul b c)));
        to_alco ~count:50 "distributive"
          (Gen.triple gen_series gen_series gen_series)
          (fun (a, b, c) ->
            close (S.mul a (S.add b c)) (S.add (S.mul a b) (S.mul a c)));
        to_alco ~count:50 "leibniz" (Gen.pair gen_series gen_series)
          (fun (a, b) ->
            let lhs = S.deriv (S.mul a b) in
            let rhs = S.add (S.mul (S.deriv a) b) (S.mul a (S.deriv b)) in
            (* ignore the top coefficient, truncated by deriv *)
            let cut (s : S.t) =
              let s = Array.copy s in
              s.(deg) <- K.zero;
              s
            in
            close (cut lhs) (cut rhs));
        to_alco ~count:50 "eval ring morphism"
          (Gen.pair gen_series gen_series)
          (fun (a, b) ->
            let x = K.of_float 0.5 in
            let lhs = S.eval (S.mul a b) x in
            (* truncation: compare only up to the truncated tail bound *)
            let rhs = K.mul (S.eval a x) (S.eval b x) in
            let d = K.abs (K.sub lhs rhs) in
            (* products of degree-6 series truncate terms >= t^7: at
               t = 1/2 the dropped tail is bounded by ~ 7 * 2^-7 *)
            K.R.compare d (K.R.of_float 1.0) <= 0);
      ] )
end

module Spdd = Series_props (Scalar.Dd)
module Spz = Series_props (Scalar.Zdd)

(* The refinement ladder's precision seams: [Refine.Make_scalar]'s
   promote / demote are per-part limb-plane copies — promotion embeds
   the low precision exactly (zero-padding), demotion truncates within
   one ulp of the low precision.  The iterative solver engines climb
   D -> DD -> QD -> OD through exactly these seams, so the laws hold
   for every adjacent and skipping pair, real and complex. *)
module Refine_props (KL : Scalar.S) (KH : Scalar.S) = struct
  open QCheck2
  module Rf = Lsq_core.Refine.Make_scalar (KL) (KH)

  (* Full-width values: differences of uniform randoms fill the limbs;
     a random binary exponent spreads the scales. *)
  let gen_of (type s) (module K : Scalar.S with type t = s) : s Gen.t =
    let open Gen in
    let* seed = int_range 1 1_000_000 in
    let* e = int_range (-12) 12 in
    let rng = Dompool.Prng.create seed in
    let x = K.sub (K.random rng) (K.random rng) in
    return (K.mul_float x (2.0 ** float_of_int e))

  let gen_lo = gen_of (module KL)
  let gen_hi = gen_of (module KH)

  let suite name =
    ( name ^ " promote/demote",
      [
        to_alco "demote inverts promote exactly" gen_lo (fun x ->
            KL.equal (Rf.demote (Rf.promote x)) x);
        to_alco "promote zero-pads the limb planes" gen_lo (fun x ->
            let lo = KL.to_planes x and hi = KH.to_planes (Rf.promote x) in
            let parts = if KL.is_complex then 2 else 1 in
            let wl = KL.width / parts and wh = KH.width / parts in
            let ok = ref true in
            for p = 0 to parts - 1 do
              for i = 0 to wh - 1 do
                let want = if i < wl then lo.((p * wl) + i) else 0.0 in
                if hi.((p * wh) + i) <> want then ok := false
              done
            done;
            !ok);
        to_alco "demote truncates within the low precision" gen_hi (fun h ->
            let back = Rf.promote (Rf.demote h) in
            let d = KH.abs (KH.sub h back) in
            let m = KH.abs h in
            KH.R.compare d (KH.R.mul_float m (16.0 *. KL.R.eps)) <= 0);
        to_alco "demote of a promoted sum matches the low-precision add"
          (Gen.pair gen_lo gen_lo) (fun (a, b) ->
            (* The embedding is exact, so adding two promoted values in
               high precision and truncating back can differ from the
               low-precision add only by its final rounding. *)
            let hi = KH.add (Rf.promote a) (Rf.promote b) in
            let lo = KL.add a b in
            let d = KL.abs (KL.sub (Rf.demote hi) lo) in
            let m = KL.R.max (KL.abs lo) KL.R.one in
            KL.R.compare d (KL.R.mul_float m (16.0 *. KL.R.eps)) <= 0);
      ] )
end

module Pr_d_dd = Refine_props (Scalar.D) (Scalar.Dd)
module Pr_dd_qd = Refine_props (Scalar.Dd) (Scalar.Qd)
module Pr_qd_od = Refine_props (Scalar.Qd) (Scalar.Od)
module Pr_dd_od = Refine_props (Scalar.Dd) (Scalar.Od)
module Pr_zdd_zqd = Refine_props (Scalar.Zdd) (Scalar.Zqd)
module Pr_zqd_zod = Refine_props (Scalar.Zqd) (Scalar.Zod)

let () =
  Alcotest.run "properties"
    ([
      Pd.suite "double"
        ~pinned:
          ( [
              ( [| 0x1.84433195ea99cp+10 |],
                [| -0x1.8350be8edb58p+10 |],
                [| 0x1.04a5cd14a2bccp-21 |] );
              ( [| 0x1.6de20e31e6a9p+6 |],
                [| -0x1.6dd4892b25f54p+6 |],
                [| -0x1.e87d18a9ccda4p-12 |] );
            ],
            [
              ( [| -0x1.ebd389b5c4014p-19 |],
                [| 0x1.5b8b54fb231b8p+9 |],
                [| -0x1.5b7fce4da07dp+9 |] );
              ( [| 0x1.fb316875ba06p+23 |],
                [| 0x1.7c6a3d4668bbp-11 |],
                [| -0x1.7ca00b41582bp-11 |] );
            ] );
      Pdd.suite "double double"
        ~pinned:
          ( [
              ( [| 0x1.6de20e31e6a9p+6; 0x1.78a8a612bf5p-49 |],
                [| -0x1.6dd4892b25f55p+6; 0x1.e40e0337ae72p-48 |],
                [| -0x1.e87d18a9ccda4p-12; 0x1.6b972f3d8cd2p-68 |] );
              ( [| 0x1.d030a4c981dafp-13; 0x1.e97b7f5c714f4p-67 |],
                [| -0x1.1ac2878e40cddp-20; -0x1.361bc1db2855p-75 |],
                [| -0x1.cda59dd5105e5p-13; 0x1.29f3f768992a4p-67 |] );
            ],
            [
              ( [| -0x1.ebd389b5c4014p-19; -0x1.e0f3b9a3e5714p-73 |],
                [| 0x1.5b8b54fb231b8p+9; 0x1.2d1b2abd18fcp-47 |],
                [| -0x1.5b7fce4da07cfp+9; -0x1.34a22d950f99cp-45 |] );
              ( [| -0x1.08837cc5f45f3p-15; 0x1.b917b9deb177p-69 |],
                [| -0x1.62c1bf30fb897p+9; 0x1.d6b5d7d3ef0ap-47 |],
                [| 0x1.62a6da8892497p+9; 0x1.21520e1954ep-47 |] );
            ] );
      Pqd.suite "quad double"
        ~pinned:
          ( [
              ( [| -0x1.c4c7e7b5bc71cp+0; 0x1.87376fa3d94e2p-54;
                   -0x1.aae010107964fp-108; 0x1.f6fd85d2ab72p-162 |],
                [| -0x1.0e04a47ae09a3p+14; -0x1.9687e37a0c2f1p-40;
                   0x1.d2115c4a41988p-94; -0x1.2a58c736861dp-148 |],
                [| 0x1.0e0c0839c83e8p+14; -0x1.59b5f4ee5f1b6p-40;
                   0x1.60ba943b1eec7p-96; -0x1.9b9079123ce8p-150 |] );
            ],
            [] );
      Pod.suite "octo double";
      Rdd.suite "double double";
      Rqd.suite "quad double";
      Rod.suite "octo double";
    ]
    @ flat_suites @ replay_suites @ reference_suites @ qwy_suites
    @ [
      flat_gate_suite;
      Ld.suite "double";
      Ldd.suite "double double";
      Lqd.suite "quad double";
      Lzdd.suite "complex double double";
      Fpd.suite "double double";
      Fpq.suite "quad double";
      Spdd.suite "double double";
      Spz.suite "complex double double";
      Pr_d_dd.suite "double -> double double";
      Pr_dd_qd.suite "double double -> quad double";
      Pr_qd_od.suite "quad double -> octo double";
      Pr_dd_od.suite "double double -> octo double";
      Pr_zdd_zqd.suite "complex double double -> quad double";
      Pr_zqd_zod.suite "complex quad double -> octo double";
    ])
