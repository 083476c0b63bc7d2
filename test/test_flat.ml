(* Tests for the flat limb-planar kernel layer: the plane microkernels
   (the strided-view matrix product included) must be bit-for-bit
   (limb-exact) equivalent to the generic scalar path at every covered
   precision (d, dd, qd and od), the blocked QR (full and thin) and the
   tiled back substitution must produce limb-identical results, launch
   counts and stage rows with the flat path on and off, the staggered
   staging must round-trip exactly, and the capability gate must exclude
   the scalars the flat plane does not cover (complex, instrumented). *)

open Multidouble
open Mdlinalg
open Lsq_core

let check = Alcotest.(check bool)
let device = Gpusim.Device.v100

(* Limb-exact comparison: every limb the same bits (distinguishes -0.0
   and 0.0, unlike float equality, and treats nan = nan). *)
let bits_eq_arrays a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

module Equiv (K : Scalar.S) = struct
  module M = Mat.Make (K)
  module V = Vec.Make (K)
  module Rand = Randmat.Make (K)
  module F = Flat_kernels.Make (K)
  module Bs = Tiled_back_sub.Make (K)
  module Qr = Blocked_qr.Make (K)

  let bits_eq x y = bits_eq_arrays (K.to_planes x) (K.to_planes y)

  let check_scalar msg x y =
    if not (bits_eq x y) then
      Alcotest.failf "%s: %s <> %s" msg (K.to_string x) (K.to_string y)

  let check_vec msg (a : V.t) (b : V.t) =
    Array.iteri
      (fun i x -> check_scalar (Printf.sprintf "%s [%d]" msg i) x b.(i))
      a

  let check_mat msg (a : M.t) (b : M.t) =
    for i = 0 to M.rows a - 1 do
      for j = 0 to M.cols a - 1 do
        check_scalar
          (Printf.sprintf "%s [%d,%d]" msg i j)
          (M.get a i j) (M.get b i j)
      done
    done

  (* ---- microkernels against their generic operation sequence ---- *)

  let test_dot () =
    let rng = Dompool.Prng.create 1 in
    List.iter
      (fun n ->
        let a = Rand.vector rng n and b = Rand.vector rng n in
        let ap = F.stage_vec ~n ~get:(fun i -> a.(i)) in
        let bp = F.stage_vec ~n ~get:(fun i -> b.(i)) in
        let out = F.alloc ~rows:1 ~cols:1 in
        F.dot ~n ap bp out 0;
        let flat = ref K.zero in
        F.unstage_vec out ~store:(fun _ s -> flat := s);
        let s = ref K.zero in
        for i = 0 to n - 1 do
          s := K.add !s (K.mul a.(i) b.(i))
        done;
        check_scalar (Printf.sprintf "dot n=%d" n) !flat !s)
      [ 1; 7; 64; 333 ]

  let test_axpy () =
    let rng = Dompool.Prng.create 2 in
    let n = 97 in
    let alpha = K.random rng in
    let x = Rand.vector rng n and y = Rand.vector rng n in
    let ap = F.stage_vec ~n:1 ~get:(fun _ -> alpha) in
    let xp = F.stage_vec ~n ~get:(fun i -> x.(i)) in
    let yp = F.stage_vec ~n ~get:(fun i -> y.(i)) in
    F.axpy ~n ap xp yp;
    let yf = V.create n in
    F.unstage_vec yp ~store:(fun i s -> yf.(i) <- s);
    let yg = Array.map (fun yi -> yi) y in
    for i = 0 to n - 1 do
      yg.(i) <- K.add yg.(i) (K.mul alpha x.(i))
    done;
    check_vec "axpy" yf yg

  (* The matrix-vector products against the boxed accumulator loop.
     Thread counts that are not multiples of the 8 lanes, or of the
     m = 1 and m = 2 engines' groups of four, leave lane tails. *)
  let test_gemv_blocks () =
    let rng = Dompool.Prng.create 10 in
    List.iter
      (fun (rows, cols, threads) ->
        let a = Rand.matrix rng rows cols in
        let x = Rand.vector rng cols and xt = Rand.vector rng rows in
        let ap = F.stage ~rows ~cols ~get:(fun i j -> M.get a i j) in
        let xp = F.stage_vec ~n:cols ~get:(fun j -> x.(j)) in
        let xtp = F.stage_vec ~n:rows ~get:(fun i -> xt.(i)) in
        let yp = F.alloc ~rows ~cols:1 and ytp = F.alloc ~rows:cols ~cols:1 in
        for blk = 0 to ((rows + threads - 1) / threads) - 1 do
          F.gemv_block ~threads ap xp yp blk
        done;
        for blk = 0 to ((cols + threads - 1) / threads) - 1 do
          F.gemv_t_block ~threads ap xtp ytp blk
        done;
        let y = V.create rows and yt = V.create cols in
        F.unstage_vec yp ~store:(Array.set y);
        F.unstage_vec ytp ~store:(Array.set yt);
        let want out n term =
          V.init out (fun o ->
              let s = ref K.zero in
              for k = 0 to n - 1 do
                s := K.add !s (term o k)
              done;
              !s)
        in
        let shape = Printf.sprintf "%dx%d threads %d" rows cols threads in
        check_vec ("gemv " ^ shape) y
          (want rows cols (fun i k -> K.mul (M.get a i k) x.(k)));
        check_vec ("gemv_t " ^ shape) yt
          (want cols rows (fun j k -> K.mul (M.get a k j) xt.(k))))
      [ (37, 13, 5); (24, 17, 9); (3, 40, 40); (1, 1, 1) ]

  let test_rank1 () =
    let rng = Dompool.Prng.create 3 in
    let rows = 13 and cols = 9 in
    let a = Rand.matrix rng rows cols in
    let x = Rand.vector rng rows and y = Rand.vector rng cols in
    let ap = F.stage ~rows ~cols ~get:(fun i j -> M.get a i j) in
    let xp = F.stage_vec ~n:rows ~get:(fun i -> x.(i)) in
    let yp = F.stage_vec ~n:cols ~get:(fun j -> y.(j)) in
    F.rank1_sub ap xp yp;
    let af = M.create rows cols in
    F.unstage ap ~store:(fun i j s -> M.set af i j s);
    let ag = M.copy a in
    for i = 0 to rows - 1 do
      for j = 0 to cols - 1 do
        M.set ag i j (K.sub (M.get ag i j) (K.mul x.(i) y.(j)))
      done
    done;
    check_mat "rank1" af ag

  let test_ewadd () =
    let rng = Dompool.Prng.create 4 in
    let rows = 11 and cols = 17 in
    let d = Rand.matrix rng rows cols and s = Rand.matrix rng rows cols in
    let dp = F.stage ~rows ~cols ~get:(fun i j -> M.get d i j) in
    let sp = F.stage ~rows ~cols ~get:(fun i j -> M.get s i j) in
    F.ewadd dp sp;
    let df = M.create rows cols in
    F.unstage dp ~store:(fun i j v -> M.set df i j v);
    let dg = M.copy d in
    for i = 0 to rows - 1 do
      for j = 0 to cols - 1 do
        M.set dg i j (K.add (M.get dg i j) (M.get s i j))
      done
    done;
    check_mat "ewadd" df dg

  let test_matmul_blocks () =
    let rng = Dompool.Prng.create 5 in
    List.iter
      (fun (rows, inner, cols, threads) ->
        let a = Rand.matrix rng rows inner in
        let b = Rand.matrix rng inner cols in
        let ap = F.stage ~rows ~cols:inner ~get:(fun i k -> M.get a i k) in
        let bp = F.stage ~rows:inner ~cols ~get:(fun k j -> M.get b k j) in
        let cp = F.alloc ~rows ~cols in
        let blocks = ((rows * cols) + threads - 1) / threads in
        for blk = 0 to blocks - 1 do
          F.matmul_block ~threads ap bp cp blk
        done;
        let cf = M.create rows cols in
        F.unstage cp ~store:(fun i j s -> M.set cf i j s);
        let cg = M.create rows cols in
        for i = 0 to rows - 1 do
          for j = 0 to cols - 1 do
            let s = ref K.zero in
            for k = 0 to inner - 1 do
              s := K.add !s (K.mul (M.get a i k) (M.get b k j))
            done;
            M.set cg i j !s
          done
        done;
        check_mat
          (Printf.sprintf "matmul %dx%dx%d" rows inner cols)
          cf cg)
      [ (5, 4, 3, 2); (16, 16, 16, 8); (10, 32, 7, 128) ]

  (* ---- the strided-view product against the boxed accessor loop ----
     Each case reads its operands through views into larger staged
     parents, exactly as the QR reads W^H, YWT^H, Q[:, c0:] and
     R[c0:, c1:]; the boxed loop reads the same words of the boxed
     parents.  Output widths leave lane tails (nl < 8), thread counts
     split rows across blocks, and one inner dimension exceeds KC so
     partial sums spill between chunks. *)

  let test_view_blocks () =
    let rng = Dompool.Prng.create 9 in
    let case what ~rows_o ~cols_o ~inner ~threads (pa, aoff, apitch, astep)
        (pb, boff, bpitch, bstep) =
      let staged (m : M.t) =
        (F.stage ~rows:(M.rows m) ~cols:(M.cols m) ~get:(M.get m)).F.p
      in
      let av = { F.vp = staged pa; off = aoff; pitch = apitch; step = astep } in
      let bv = { F.vp = staged pb; off = boff; pitch = bpitch; step = bstep } in
      let cp = F.alloc ~rows:rows_o ~cols:cols_o in
      let cg = M.create rows_o cols_o in
      let blocks = ((rows_o * cols_o) + threads - 1) / threads in
      for blk = 0 to blocks - 1 do
        F.view_block ~threads ~inner av bv cp blk;
        F.boxed_matmul_block ~threads ~rows_o ~cols_o ~inner
          ~geta:(fun i k -> pa.M.a.(aoff + (i * apitch) + (k * astep)))
          ~getb:(fun k j -> pb.M.a.(boff + (k * bpitch) + (j * bstep)))
          ~store:(M.set cg) blk
      done;
      let cf = M.create rows_o cols_o in
      F.unstage cp ~store:(M.set cf);
      check_mat what cf cg
    in
    (* Y * W^H: W read transposed, 21 = 8 + 8 + 5 output columns, six
       threads per block. *)
    let y = Rand.matrix rng 21 6 and w = Rand.matrix rng 21 6 in
    case "transposed B" ~rows_o:21 ~cols_o:21 ~inner:6 ~threads:6 (y, 0, 6, 1)
      (w, 0, 1, 6);
    (* Q[:, 4:] * YWT^H: a column-offset A with the parent's row pitch. *)
    let q = Rand.matrix rng 20 20 and ywt = Rand.matrix rng 16 16 in
    case "offset A" ~rows_o:20 ~cols_o:16 ~inner:16 ~threads:7 (q, 4, 20, 1)
      (ywt, 0, 1, 16);
    (* YWT * R[4:, 8:]: a pitched B sub-block four columns wide. *)
    let ywt = Rand.matrix rng 20 20 and r = Rand.matrix rng 24 12 in
    case "pitched B" ~rows_o:20 ~cols_o:4 ~inner:20 ~threads:3 (ywt, 0, 20, 1)
      (r, (4 * 12) + 8, 12, 1);
    (* inner > KC: the spill path, with a transposed B. *)
    let inner = F.tile.Flat_kernels.kc + 37 in
    let a = Rand.matrix rng 5 inner and bt = Rand.matrix rng 11 inner in
    case "spill" ~rows_o:5 ~cols_o:11 ~inner ~threads:9 (a, 0, inner, 1)
      (bt, 0, 1, inner)

  (* ---- whole-algorithm equivalence: flat dispatch on vs off ---- *)

  let with_flat on f =
    let prev = !Flat_kernels.enabled in
    Flat_kernels.enabled := on;
    Fun.protect ~finally:(fun () -> Flat_kernels.enabled := prev) f

  (* [f] on a fresh simulator with the flat path [on]: its result, the
     launch count, the stage rows and the modeled wall clock. *)
  let on_sim on f =
    with_flat on (fun () ->
        let sim = Gpusim.Sim.create ~device ~prec:K.prec () in
        let out = f sim in
        ( out,
          Gpusim.Sim.launches sim,
          Gpusim.Sim.breakdown sim,
          Gpusim.Sim.wall_ms sim ))

  let same_paths what cmp run =
    let flat, fl, frows, fms = run true and gen, gl, grows, gms = run false in
    cmp flat gen;
    check (what ^ ": same launches") true (fl = gl);
    check (what ^ ": same stage rows") true (frows = grows);
    check (what ^ ": same modeled ms") true (fms = gms)

  (* A random matrix with the listed columns zeroed: a zero column
     below the diagonal gives sigma = 0 and beta = 0. *)
  let with_zero_cols rng rows cols zeros =
    let a = Rand.matrix rng rows cols in
    List.iter
      (fun j ->
        for i = 0 to rows - 1 do
          M.set a i j K.zero
        done)
      zeros;
    a

  (* Entries that stress the first panel's identity product, where each
     output keeps one term of the full sum: small integers (products
     that tie), single doubles (mostly-zero product buffers), random
     values a third of which are -0, and random values scaled by 2^100
     or 2^-100. *)
  let special rng kind rows cols =
    let a = Rand.matrix rng rows cols in
    let entry x =
      match kind with
      | `Ints -> K.of_float (float_of_int (Dompool.Prng.int rng 9 - 4))
      | `Singles -> K.of_float (Dompool.Prng.sym_float rng)
      | `Neg_zeros -> if Dompool.Prng.int rng 3 = 0 then K.neg K.zero else x
      | `Scaled ->
          K.mul_float x (if Dompool.Prng.bool rng then 0x1p100 else 0x1p-100)
    in
    M.map entry a

  let test_qr_paths_identical () =
    let rng = Dompool.Prng.create 6 in
    check "flat dispatch available" true (F.available ());
    let full what a ~tile =
      same_paths what
        (fun (qf, rf) (qg, rg) ->
          check_mat (what ^ ": q") qf qg;
          check_mat (what ^ ": r") rf rg)
        (fun on -> on_sim on (fun sim -> Qr.factor sim a ~tile))
    in
    List.iter
      (fun (rows, cols, tile, zeros) ->
        let a = with_zero_cols rng rows cols zeros in
        full (Printf.sprintf "qr %dx%d/%d" rows cols tile) a ~tile)
      [
        (12, 8, 4, []);
        (24, 16, 8, []);
        (64, 16, 16, []) (* a single panel *);
        (8, 8, 8, []) (* rows = cols = tile *);
        (16, 8, 4, [ 0; 5 ]) (* sigma = 0 *);
      ];
    List.iter
      (fun (kind, name) ->
        List.iter
          (fun (rows, cols, tile) ->
            full
              (Printf.sprintf "qr %s %dx%d/%d" name rows cols tile)
              (special rng kind rows cols) ~tile)
          [ (16, 16, 4); (24, 8, 4) ])
      [
        (`Ints, "small integers");
        (`Singles, "single doubles");
        (`Neg_zeros, "-0 entries");
        (`Scaled, "2^+-100 scaled");
      ];
    (* An infinity in column 0: with one-column panels the first YWT is
       v w^H, NaN in the rows and columns of v's infinities and +-0
       elsewhere.  The identity product would keep those zeros where the
       full product's 0 * NaN terms give NaN, so the full product must
       run. *)
    List.iter
      (fun (rows, cols) ->
        let a = Rand.matrix rng rows cols in
        M.set a 5 0 (K.of_float infinity);
        full (Printf.sprintf "qr with an infinity %dx%d/1" rows cols) a ~tile:1)
      [ (8, 8); (12, 4) ];
    let thin what a ~tile =
      let b = Rand.vector rng (M.rows a) in
      same_paths what
        (fun (rf, bf) (rg, bg) ->
          check_mat (what ^ ": r") rf rg;
          check_vec (what ^ ": Q^H b") bf bg)
        (fun on ->
          on_sim on (fun sim ->
              let b = V.copy b in
              let r = Qr.factor_thin sim a ~b ~tile in
              (r, b)))
    in
    (* The thin path's last panel has no trailing columns and no Q to
       update, so the flat arm skips its YWT: a single panel (the only
       panel is the last) and three panels. *)
    List.iter
      (fun (rows, cols, tile, zeros) ->
        thin
          (Printf.sprintf "thin qr %dx%d/%d" rows cols tile)
          (with_zero_cols rng rows cols zeros)
          ~tile)
      [
        (40, 8, 4, []);
        (24, 8, 4, [ 0; 5 ]);
        (20, 4, 4, []) (* a single panel *);
        (36, 12, 4, []) (* three panels *);
      ];
    (* An infinity in the last column: the skipped YWT would be
       non-finite, and R and Q^H b must still match. *)
    let a = Rand.matrix rng 12 4 in
    M.set a 5 3 (K.of_float infinity);
    thin "thin qr with an infinity 12x4/1" a ~tile:1

  let test_back_sub_paths_identical () =
    let rng = Dompool.Prng.create 7 in
    List.iter
      (fun (dim, tile) ->
        let u = Rand.upper rng dim in
        let b, _ = Rand.rhs_for rng u in
        let run flat =
          with_flat flat (fun () ->
              let sim = Gpusim.Sim.create ~device ~prec:K.prec () in
              (Bs.solve sim u b ~tile, Gpusim.Sim.kernel_ms sim))
        in
        let x_flat, ms_flat = run true and x_gen, ms_gen = run false in
        check_vec (Printf.sprintf "bs x (%d/%d)" dim tile) x_flat x_gen;
        check "same modeled ms" true (ms_flat = ms_gen))
      [ (8, 4); (24, 8); (32, 8) ]

  let tests prefix =
    [
      Alcotest.test_case (prefix ^ " dot") `Quick test_dot;
      Alcotest.test_case (prefix ^ " axpy") `Quick test_axpy;
      Alcotest.test_case (prefix ^ " gemv blocks") `Quick test_gemv_blocks;
      Alcotest.test_case (prefix ^ " rank1") `Quick test_rank1;
      Alcotest.test_case (prefix ^ " ewadd") `Quick test_ewadd;
      Alcotest.test_case (prefix ^ " matmul blocks") `Quick test_matmul_blocks;
      Alcotest.test_case (prefix ^ " view blocks") `Quick test_view_blocks;
      Alcotest.test_case (prefix ^ " qr paths") `Quick test_qr_paths_identical;
      Alcotest.test_case (prefix ^ " back sub paths") `Quick
        test_back_sub_paths_identical;
    ]
end

module Ed = Equiv (Scalar.D)
module Edd = Equiv (Scalar.Dd)
module Eqd = Equiv (Scalar.Qd)
module Eod = Equiv (Scalar.Od)

(* ---- staggered staging round-trips ---- *)

module Roundtrip (K : Scalar.S) = struct
  module M = Mat.Make (K)
  module S = Staggered.Make (K)
  module F = Flat_kernels.Make (K)

  (* Normalized values survive of_planes (to_planes x) bit-exactly: the
     final renormalization of every arithmetic operation is idempotent. *)
  let test_roundtrip () =
    let rng = Dompool.Prng.create 8 in
    for i = 0 to 999 do
      (* Mix magnitudes so limbs of widely different exponents occur. *)
      let x = K.random rng in
      let y = K.random rng in
      let v = K.add (K.mul_float x (2.0 ** float_of_int (i mod 600 - 300))) y in
      let w = K.of_planes (K.to_planes v) in
      check "round trip" true (bits_eq_arrays (K.to_planes v) (K.to_planes w))
    done;
    (* Through the staggered matrix staging as well. *)
    let m = M.random rng 7 5 in
    let back = S.to_mat (S.of_mat m) in
    for i = 0 to 6 do
      for j = 0 to 4 do
        check "staggered mat round trip" true
          (bits_eq_arrays
             (K.to_planes (M.get m i j))
             (K.to_planes (M.get back i j)))
      done
    done;
    (* And through the flat layer's own stage/unstage. *)
    let p = F.stage ~rows:7 ~cols:5 ~get:(fun i j -> M.get m i j) in
    F.unstage p ~store:(fun i j s ->
        check "flat stage round trip" true
          (bits_eq_arrays (K.to_planes (M.get m i j)) (K.to_planes s)))

  let tests prefix =
    [ Alcotest.test_case (prefix ^ " staging round trip") `Quick test_roundtrip ]
end

module Rd = Roundtrip (Scalar.D)
module Rdd = Roundtrip (Scalar.Dd)
module Rqd = Roundtrip (Scalar.Qd)
module Rod = Roundtrip (Scalar.Od)

(* ---- the capability gate ---- *)

let test_gating () =
  let avail (module K : Scalar.S) =
    let module Km = (val (module K : Scalar.S)) in
    let module F = Flat_kernels.Make (Km) in
    F.available ()
  in
  check "d available" true (avail (module Scalar.D));
  check "dd available" true (avail (module Scalar.Dd));
  check "qd available" true (avail (module Scalar.Qd));
  check "od available" true (avail (module Scalar.Od));
  (* The flat plane covers real scalars only. *)
  check "complex d excluded" false (avail (module Scalar.Zd));
  check "complex dd excluded" false (avail (module Scalar.Zdd));
  check "complex qd excluded" false (avail (module Scalar.Zqd));
  (* Instrumented arithmetic must stay generic so every operation is
     counted (the dynamic-vs-analytic flop tests depend on it). *)
  let module Counted_qd = Counted.Make (Quad_double) in
  let module Kc = Scalar.Real (Counted_qd) in
  check "instrumented excluded" false (avail (module Kc));
  (* The global switch turns the whole layer off. *)
  Flat_kernels.enabled := false;
  check "disabled globally" false (avail (module Scalar.Dd));
  Flat_kernels.enabled := true;
  check "re-enabled" true (avail (module Scalar.Dd))

(* ---- the bounds-checked debug path ----
   Under MDLS_FLAT_BOUNDS=1 (a runtest rule of its own runs this suite
   so) every plane and lane access checks, the hoisted ones of the
   hand-written loops included: a loop that walks past a plane or past
   its lanes must raise.  Without the variable there is nothing to
   check. *)
let test_bounds () =
  if Nd_flat.bounds_checked then
    List.iter
      (fun m ->
        let p = Option.get (Nd_flat.plan ~limbs:m) in
        let a = Nd_flat.make_planes ~limbs:m 4 in
        let ctx = p.Nd_flat.make_ctx () in
        let raises f =
          match f () with () -> false | exception Invalid_argument _ -> true
        in
        let tag s = Printf.sprintf "m=%d %s" m s in
        check (tag "dot in range") false
          (raises (fun () -> p.Nd_flat.dot ctx a 0 1 a 3 (-1) 4));
        check (tag "dot past the end") true
          (raises (fun () -> p.Nd_flat.dot ctx a 0 1 a 0 1 5));
        check (tag "strided dot past the end") true
          (raises (fun () -> p.Nd_flat.dot ctx a 0 0 a 0 2 3));
        let four = [| ctx; ctx; ctx; ctx |] in
        check (tag "lanes in range") false
          (raises (fun () -> p.Nd_flat.lanes four a 0 1 0 a 0 0 1 4 4));
        check (tag "lanes past the end") true
          (raises (fun () ->
               p.Nd_flat.lanes [| ctx; ctx |] a 3 1 0 a 0 0 0 2 1));
        (* Only the last k of the last lane, on the one-lane tail... *)
        check (tag "lanes past the end at the last k") true
          (raises (fun () ->
               p.Nd_flat.lanes [| ctx; ctx |] a 0 1 1 a 0 0 0 2 4));
        (* ...and of every lane of a group of four. *)
        check (tag "lane group past the end at the last k") true
          (raises (fun () -> p.Nd_flat.lanes four a 0 1 0 a 0 0 1 4 5));
        check (tag "lanes past the contexts") true
          (raises (fun () -> p.Nd_flat.lanes [| ctx |] a 0 0 0 a 0 1 0 2 1));
        check (tag "lane group past the contexts") true
          (raises (fun () ->
               p.Nd_flat.lanes [| ctx; ctx; ctx |] a 0 0 0 a 0 0 0 4 1)))
      [ 1; 2; 3; 4; 8 ]

(* ---- allocation ----
   The engines keep every intermediate in unboxed locals or in ctx
   scratch, so mul_add, add, dot and lanes allocate nothing per
   operation at the widths with a hand-written engine.  The operands
   take every path of the octo double product and sum: full-limb
   values, single doubles, zeros of both signs, and values next to
   their sign-alternated copies, whose products tie and take the
   stdlib-order heapsort (allocation-free too). *)
let test_no_allocation () =
  List.iter
    (fun m ->
      let p = Option.get (Nd_flat.plan ~limbs:m) in
      let rng = Random.State.make [| m |] in
      let n = 48 in
      let full () =
        let e = Random.State.int rng 48 - 24 in
        Renorm.renormalize ~m
          (Array.init m (fun i ->
               ldexp (Random.State.float rng 2.0 -. 1.0) (e - (53 * i))))
      in
      let value i =
        match i mod 4 with
        | 0 | 1 -> full ()
        | 2 ->
            Array.init m (fun i ->
                if i = 0 then Random.State.float rng 1.0 else 0.0)
        | _ -> Array.make m (if i mod 8 = 3 then 0.0 else -0.0)
      in
      let xs = Array.init n value in
      let ys =
        Array.mapi
          (fun i x ->
            if i mod 4 = 1 then
              Array.mapi (fun k l -> if k land 1 = 1 then -.l else l) x
            else value (i + 1))
          xs
      in
      let stage vals =
        let pl = Nd_flat.make_planes ~limbs:m n in
        Array.iteri
          (fun i v -> Array.iteri (fun k l -> Nd_flat.set pl k i l) v)
          vals;
        pl
      in
      let a = stage xs and b = stage ys in
      let c = p.Nd_flat.make_ctx () in
      let lanes = Array.init 8 (fun _ -> p.Nd_flat.make_ctx ()) in
      let words f =
        let w0 = Gc.minor_words () in
        f ();
        Gc.minor_words () -. w0
      in
      let nothing = words (fun () -> ()) in
      let pin name f =
        f ();
        let w = words f -. nothing in
        if w <> 0.0 then
          Alcotest.failf "m=%d %s: %.0f minor words over %d operations" m
            name w n
      in
      pin "mul_add" (fun () ->
          p.Nd_flat.clear c;
          for i = 0 to n - 1 do
            p.Nd_flat.mul_add c a i b i
          done);
      pin "add" (fun () ->
          p.Nd_flat.clear c;
          for i = 0 to n - 1 do
            p.Nd_flat.add c a i;
            p.Nd_flat.add c b i
          done);
      pin "dot" (fun () ->
          p.Nd_flat.clear c;
          p.Nd_flat.dot c a 0 1 b 0 1 n);
      pin "lanes" (fun () ->
          for nl = 1 to 8 do
            p.Nd_flat.lanes lanes a 0 0 1 b 0 0 1 nl n
          done))
    [ 1; 2; 4; 8 ]

let () =
  Alcotest.run "flat kernels"
    [
      ("d equivalence", Ed.tests "d");
      ("dd equivalence", Edd.tests "dd");
      ("qd equivalence", Eqd.tests "qd");
      ("od equivalence", Eod.tests "od");
      ("d staging", Rd.tests "d");
      ("staging", Rdd.tests "dd" @ Rqd.tests "qd" @ Rod.tests "od");
      ("gating", [ Alcotest.test_case "capability gate" `Quick test_gating ]);
      ("bounds", [ Alcotest.test_case "checked loops" `Quick test_bounds ]);
      ( "allocation",
        [
          Alcotest.test_case "engines allocate nothing" `Quick
            test_no_allocation;
        ] );
    ]
