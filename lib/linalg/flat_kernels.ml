(* Allocation-free limb-planar ("flat") kernels on staggered planes.

   The simulator's hot kernels — the register-loading matrix product, the
   back substitution inner products and their relatives — normally execute
   through a [Scalar.S], boxing one record per multiple double operation.
   At paper-scale dimensions the resulting allocation traffic, not the
   arithmetic, dominates host wall time.

   This module executes the same kernels directly on staggered limb
   planes ([Nd_flat.planes]: one flat [Bigarray] of float64 words per
   limb), through the limb-generic [Nd_flat.plan] record: precision
   selection happens exactly once, at functor application, when the plan
   is resolved from the limb count — every kernel below is written once
   against the record, for any supported width (plain double, double
   double, quad double, octo double, and any future Expansion precision
   alike).  The
   plan's engines replay the boxed operation sequences floating point
   operation for floating point operation, so the flat kernels produce
   results that are limb for limb identical to the generic path; the
   solvers exploit that to switch paths on a pure capability check
   ([available]) with no numerical consequences.

   The matrix product and the back substitution panel update run as
   register-tiled, cache-blocked microkernels.  The tile geometry comes
   from the cost model: NR = 8 output columns per micro-tile (one 64-byte
   line of each B limb plane), KC chosen so the B panel of a chunk
   (KC * NR elements * width limbs * 8 bytes, double-buffered) fits in a
   32 KiB L1 slice — 256 for plain double, 128 for double double, 64
   for quad double, 32 for octo double.  Each of the NR lanes owns its own kernel context, so a
   lane's operation sequence is exactly the untiled per-element sequence
   (clear, ascending-k multiply-accumulate, store); spilling the partial
   accumulator to the C planes between KC chunks is a plain limb copy in
   both directions, so tiling preserves bit-identity.  What tiling buys
   is locality: the inner loop walks a row of B unit-stride across the
   lanes (the untiled loop walked B with column stride) and reuses each
   A element NR times and each B panel across every row of the block.

   No dot-shaped loop here calls [mul_add] per element.  The matrix
   product and the panel update make one [lanes] call per (k, tile),
   and the matrix-vector products, [dot] and the back substitution
   inner products one [dot] call per output, so the engine runs the
   whole loop behind one indirect call (hand-inlined at m = 1 and
   m = 2, where a call per element cost as much as the arithmetic).
   The elementwise kernels ([axpy], [xpay], [scal], [rank1_sub]) keep
   the per-element operations.

   Staging an operand into planes costs O(elements) conversions while a
   matrix product performs O(elements * inner) operations on it, so the
   staging overhead is amortized by the inner dimension; kernels that do
   O(1) work per element (the elementwise additions) are left on the
   generic path, where staging would triple their cost.

   Block-level entry points take the same [blk] argument as the generic
   [Sim.launch] bodies and write the same disjoint index ranges, so they
   are safe under [Domain_pool.parallel_for] without further locking. *)

open Multidouble

(* Global switch, for benchmarks and the equivalence tests; the solvers
   consult it through [available]. *)
let enabled = ref true

(* The register-tile geometry and its per-tile operation/traffic counts,
   for the roofline classification of the microkernels (computed here
   because [Obs] deliberately knows nothing about precisions). *)
type tile = {
  mr : int; (* output rows per micro-tile *)
  nr : int; (* output columns per micro-tile (lanes) *)
  kc : int; (* inner-dimension chunk per cache block *)
  flops : float; (* double precision flops of one full tile *)
  bytes : float; (* bytes moved by one full tile (A, B panels + C spill) *)
}

module Make (K : Scalar.S) = struct
  (* A staged operand: [K.width] planes of rows*cols doubles, row-major —
     the layout of [Staggered], without the [K.t] matrix behind it. *)
  type planes = { rows : int; cols : int; p : Nd_flat.planes }

  (* THE dispatch point: the kernel-ops record for this scalar's limb
     count, resolved here and nowhere else.  [None] only for widths
     without a flat engine. *)
  let plan = Nd_flat.plan ~limbs:K.width

  (* The flat plane covers every real uninstrumented precision with a
     plan, plain double included; complex and instrumented scalars keep
     the generic path. *)
  let available () =
    !enabled && K.flat_ok && (not K.is_complex) && Option.is_some plan

  let the_plan () =
    match plan with
    | Some p -> p
    | None ->
        invalid_arg
          (Printf.sprintf "Flat_kernels: no flat plan for width %d" K.width)

  (* Tile geometry from the cost model (see the header comment).  One
     full tile performs mr*nr*kc fused multiply-accumulates, each one
     multiple double mul + add (Table 1 flops), and moves the A column
     strip, the B panel and the C micro-tile (in and out) once. *)
  let nr_tile = 8
  let kc_tile = max 16 (32768 / (2 * nr_tile * K.width * 8))

  let tile =
    let mr = 1 and nr = nr_tile and kc = kc_tile in
    let fma =
      Precision.add_flops K.prec + Precision.mul_flops K.prec
    in
    {
      mr;
      nr;
      kc;
      flops = float_of_int (mr * nr * kc * fma);
      bytes =
        float_of_int (((mr * kc) + (kc * nr) + (2 * mr * nr)) * K.width * 8);
    }

  let alloc ~rows ~cols =
    { rows; cols; p = Nd_flat.make_planes ~limbs:K.width (rows * cols) }

  let stage ~rows ~cols ~get =
    let t = alloc ~rows ~cols in
    let limbs = Array.make K.width 0.0 in
    for i = 0 to rows - 1 do
      let base = i * cols in
      for j = 0 to cols - 1 do
        K.to_planes_into (get i j) limbs;
        for pl = 0 to K.width - 1 do
          Nd_flat.set t.p pl (base + j) limbs.(pl)
        done
      done
    done;
    t

  (* [of_limbs] renormalizes, but flat results come out of the same
     renormalization the generic operations end with, so unstaging is the
     identity on them (and on any normalized input).  [K.of_planes]
     copies its argument, so the limb buffer is safely reused. *)
  let unstage t ~store =
    let limbs = Array.make K.width 0.0 in
    for i = 0 to t.rows - 1 do
      let base = i * t.cols in
      for j = 0 to t.cols - 1 do
        for pl = 0 to K.width - 1 do
          limbs.(pl) <- Nd_flat.get t.p pl (base + j)
        done;
        store i j (K.of_planes limbs)
      done
    done

  let stage_vec ~n ~get = stage ~rows:n ~cols:1 ~get:(fun i _ -> get i)
  let unstage_vec t ~store = unstage t ~store:(fun i _ s -> store i s)

  (* Read element [i] of a staged vector back as a boxed scalar (probe
     reads for verification; the hot paths never box). *)
  let read_el (t : planes) i =
    K.of_planes (Array.init K.width (fun pl -> Nd_flat.get t.p pl i))

  (* ---- The register-loading matrix product, one [Sim.launch] block:
     output elements [blk*threads, (blk+1)*threads), each a dot product
     of a row of [a] with a column of [b].  Identical operation sequence
     per element to the generic body ([s := K.add !s (K.mul aik bkj)]),
     executed as the tiled microkernel described in the header: KC
     chunks outermost (the B panel of a chunk stays cache resident
     across every row of the block), then rows, then NR-lane column
     tiles, each lane accumulating in its own context.  Partial sums
     spill to the C planes between chunks — an exact limb copy. ---- *)

  let matmul_block ~threads (a : planes) (b : planes) (c : planes) blk =
    let total = c.rows * c.cols in
    let lo = blk * threads in
    let hi = min total (lo + threads) in
    if lo < hi then begin
      let { Nd_flat.make_ctx; clear; load; lanes; store; _ } = the_plan () in
      let ap = a.p and bp = b.p and cp = c.p in
      let inner = a.cols and cols_o = c.cols and bcols = b.cols in
      let ctxs = Array.init nr_tile (fun _ -> make_ctx ()) in
      if inner = 0 then begin
        (* Degenerate product: every output is the empty sum. *)
        let ctx = ctxs.(0) in
        for idx = lo to hi - 1 do
          clear ctx;
          store ctx cp idx
        done
      end
      else begin
        let row_lo = lo / cols_o and row_hi = (hi - 1) / cols_o in
        let k0 = ref 0 in
        while !k0 < inner do
          let khi = min inner (!k0 + kc_tile) in
          for i = row_lo to row_hi do
            let jstart = if i = row_lo then lo mod cols_o else 0 in
            let jstop =
              if i = row_hi then ((hi - 1) mod cols_o) + 1 else cols_o
            in
            let abase = i * inner and cbase = i * cols_o in
            let j0 = ref jstart in
            while !j0 < jstop do
              let nl = min nr_tile (jstop - !j0) in
              if !k0 = 0 then
                for l = 0 to nl - 1 do
                  clear (Array.unsafe_get ctxs l)
                done
              else
                for l = 0 to nl - 1 do
                  load (Array.unsafe_get ctxs l) cp (cbase + !j0 + l)
                done;
              for k = !k0 to khi - 1 do
                lanes ctxs ap (abase + k) 0 bp ((k * bcols) + !j0) 1 nl
              done;
              for l = 0 to nl - 1 do
                store (Array.unsafe_get ctxs l) cp (cbase + !j0 + l)
              done;
              j0 := !j0 + nl
            done
          done;
          k0 := khi
        done
      end
    end

  (* The solver-facing matrix product: one entry point, both paths.  The
     caller computes the modeled device cost (identical on both paths —
     only the host execution differs) and passes the launch as a
     closure; this function decides the path.  The flat path stages both
     operands into limb planes once (O(total) conversions against
     O(total * inner) kernel operations) and runs the allocation-free
     plane kernels, limb for limb identical to the generic loop. *)
  let matmul ~execute ~threads ~rows_o ~cols_o ~inner ~geta ~getb ~store
      ~launch =
    if execute && available () then begin
      let a = stage ~rows:rows_o ~cols:inner ~get:geta in
      let b = stage ~rows:inner ~cols:cols_o ~get:getb in
      let c = alloc ~rows:rows_o ~cols:cols_o in
      launch (fun blk -> matmul_block ~threads a b c blk);
      unstage c ~store
    end
    else
      launch (fun blk ->
          let total = rows_o * cols_o in
          let lo = blk * threads in
          let hi = min total (lo + threads) in
          (* Running (row, col) pair instead of a div/mod per element. *)
          let i = ref (lo / cols_o) and j = ref (lo mod cols_o) in
          for _idx = lo to hi - 1 do
            let s = ref K.zero in
            for k = 0 to inner - 1 do
              s := K.add !s (K.mul (geta !i k) (getb k !j))
            done;
            store !i !j !s;
            incr j;
            if !j = cols_o then begin
              j := 0;
              incr i
            end
          done)

  (* ---- Tiled back substitution, stage 2.  [vp] is the full dim-by-dim
     matrix with inverted diagonal tiles, [bdp] the evolving right-hand
     side, [xp] the solution; all three stay staged across the whole
     sweep and only [xp] is unstaged at the end. ---- *)

  (* x_i := U_i^{-1} b_i: row r of the tile at [r0] dots the inverse row
     (upper triangular, columns r..n-1) with the right-hand side tile. *)
  let bs_xi_block ~dim ~r0 ~n (vp : planes) (bdp : planes) (xp : planes) =
    let { Nd_flat.make_ctx; clear; dot; store; _ } = the_plan () in
    let ctx = make_ctx () in
    let v = vp.p and bd = bdp.p and x = xp.p in
    for r = 0 to n - 1 do
      clear ctx;
      dot ctx v (((r0 + r) * dim) + r0 + r) 1 bd (r0 + r) 1 (n - r);
      store ctx x (r0 + r)
    done

  (* b_j := b_j - A_{j,i} x_i: block [rj] subtracts the full n-by-n tile
     product from its right-hand side tile.  The panel update runs as an
     MR-laned microkernel: up to [nr_tile] rows accumulate side by side,
     each in its own context, so one read of x[r0 + c] feeds every lane
     while the lanes walk their own rows of [v] — the same x reuse the
     matrix product gets from its B panel.  Per row the sequence is
     still clear, ascending-c multiply-accumulate, subtract: identical
     to the untiled loop. *)
  let bs_update_block ~dim ~r0 ~rj ~n (vp : planes) (xp : planes)
      (bdp : planes) =
    let { Nd_flat.make_ctx; clear; lanes; sub_from; _ } = the_plan () in
    let ctxs = Array.init nr_tile (fun _ -> make_ctx ()) in
    let v = vp.p and x = xp.p and bd = bdp.p in
    let r = ref 0 in
    while !r < n do
      let nl = min nr_tile (n - !r) in
      for l = 0 to nl - 1 do
        clear (Array.unsafe_get ctxs l)
      done;
      for c = 0 to n - 1 do
        lanes ctxs v (((rj + !r) * dim) + r0 + c) dim x (r0 + c) 0 nl
      done;
      for l = 0 to nl - 1 do
        sub_from (Array.unsafe_get ctxs l) bd (rj + !r + l)
      done;
      r := !r + nl
    done

  (* ---- Plane-level microkernels, used by the equivalence tests and the
     kernel benchmark (the entry points above are their consumers in
     kernel-shaped form). All write-backs follow the generic argument
     order: [K.add dst src], [K.sub dst src]. ---- *)

  (* out[oidx] := sum_i a[i] * b[i] over n vector elements. *)
  let dot ~n (a : planes) (b : planes) (out : planes) oidx =
    let { Nd_flat.make_ctx; clear; dot; store; _ } = the_plan () in
    let ctx = make_ctx () in
    clear ctx;
    dot ctx a.p 0 1 b.p 0 1 n;
    store ctx out.p oidx

  (* y[i] := y[i] + alpha * x[i]; [alpha] is a staged single element. *)
  let axpy ~n (alpha : planes) (x : planes) (y : planes) =
    let { Nd_flat.make_ctx; load; mul_add; store; _ } = the_plan () in
    let ctx = make_ctx () in
    for i = 0 to n - 1 do
      load ctx y.p i;
      mul_add ctx alpha.p 0 x.p i;
      store ctx y.p i
    done

  (* ---- The iterative engines' kernels: matrix-vector products (one
     [Sim.launch] block of output rows each) and the BLAS-1 recurrences.
     Per output element the sequence is the untiled clear /
     ascending-index multiply-accumulate / store, so the flat path stays
     bit-identical to the boxed accumulator loop. ---- *)

  (* y[i] := sum_k a[i, k] * x[k] for rows [blk*threads, (blk+1)*threads). *)
  let gemv_block ~threads (a : planes) (x : planes) (y : planes) blk =
    let { Nd_flat.make_ctx; clear; dot; store; _ } = the_plan () in
    let ctx = make_ctx () in
    let m = a.rows and n = a.cols in
    let lo = blk * threads in
    let hi = min m (lo + threads) in
    for i = lo to hi - 1 do
      clear ctx;
      dot ctx a.p (i * n) 1 x.p 0 1 n;
      store ctx y.p i
    done

  (* y[j] := sum_i a[i, j] * x[i] — the transposed product walks each
     column with the row pitch, the strided access of the cost model. *)
  let gemv_t_block ~threads (a : planes) (x : planes) (y : planes) blk =
    let { Nd_flat.make_ctx; clear; dot; store; _ } = the_plan () in
    let ctx = make_ctx () in
    let m = a.rows and n = a.cols in
    let lo = blk * threads in
    let hi = min n (lo + threads) in
    for j = lo to hi - 1 do
      clear ctx;
      dot ctx a.p j n x.p 0 1 m;
      store ctx y.p j
    done

  (* y[i] := x[i] + alpha * y[i] (the CG direction update p := r + beta p
     and LSQR's w recurrence). *)
  let xpay ~n (alpha : planes) (x : planes) (y : planes) =
    let { Nd_flat.make_ctx; mul_set; add; store; _ } = the_plan () in
    let ctx = make_ctx () in
    for i = 0 to n - 1 do
      mul_set ctx alpha.p 0 y.p i;
      add ctx x.p i;
      store ctx y.p i
    done

  (* y[i] := alpha * x[i]; in-place ([x == y]) is safe, each element is
     read before it is stored. *)
  let scal ~n (alpha : planes) (x : planes) (y : planes) =
    let { Nd_flat.make_ctx; mul_set; store; _ } = the_plan () in
    let ctx = make_ctx () in
    for i = 0 to n - 1 do
      mul_set ctx alpha.p 0 x.p i;
      store ctx y.p i
    done

  (* a[i, j] := a[i, j] - x[i] * y[j], the Householder panel update. *)
  let rank1_sub (a : planes) (x : planes) (y : planes) =
    let { Nd_flat.make_ctx; mul_set; sub_from; _ } = the_plan () in
    let ctx = make_ctx () in
    for i = 0 to a.rows - 1 do
      let base = i * a.cols in
      for j = 0 to a.cols - 1 do
        mul_set ctx x.p i y.p j;
        sub_from ctx a.p (base + j)
      done
    done

  (* dst[i] := dst[i] + src[i], elementwise over whole planes (kept on
     the generic path in the solvers; here for tests and bench). *)
  let ewadd (dst : planes) (src : planes) =
    let { Nd_flat.make_ctx; load; add; store; _ } = the_plan () in
    let ctx = make_ctx () in
    let total = dst.rows * dst.cols in
    for i = 0 to total - 1 do
      load ctx dst.p i;
      add ctx src.p i;
      store ctx dst.p i
    done

  (* ---- The back substitution device state, both paths behind one
     type.  [Tiled_back_sub] previously matched on a flat option at
     every read, check, corruption and snapshot site; all of that now
     lives here, so the solver is written once against this module.

     The flat arm stages the matrix (with its inverted diagonal tiles),
     the right-hand side and the solution into limb planes ONCE and
     every inner-product kernel runs on them allocation free; only the
     solution is unstaged at the end.  The boxed arm works on the host
     [K.t] arrays directly.  The modeled launch costs are computed by
     the solver and shared by both arms, so device timing is path
     independent.

     The fault plane closures ([flip], [check]) are passed in by the
     solver: they come from [Fault], which this library deliberately
     does not depend on. *)
  module Bs = struct
    type repr = Flat of { vp : planes; bdp : planes; xp : planes } | Boxed

    type t = {
      dim : int;
      v : K.t array; (* row-major dim*dim, inverted diagonal tiles *)
      bd : K.t array;
      x : K.t array;
      repr : repr;
    }

    (* A saved prefix of the right-hand side, for update replays. *)
    type b_snapshot = Planes of Nd_flat.planes | Scalars of K.t array

    let create ~execute ~dim ~v ~bd ~x =
      let repr =
        if execute && available () then
          Flat
            {
              vp = stage ~rows:dim ~cols:dim ~get:(fun i j -> v.((i * dim) + j));
              bdp = stage_vec ~n:dim ~get:(fun i -> bd.(i));
              xp = alloc ~rows:dim ~cols:1;
            }
        else Boxed
      in
      { dim; v; bd; x; repr }

    (* x_i := U_i^{-1} b_i on the tile at diagonal offset [r0]; identical
       operation sequence on both arms. *)
    let xi_block t ~r0 ~n =
      match t.repr with
      | Flat { vp; bdp; xp } -> bs_xi_block ~dim:t.dim ~r0 ~n vp bdp xp
      | Boxed ->
          let dim = t.dim in
          for r = 0 to n - 1 do
            let s = ref K.zero in
            for c = r to n - 1 do
              s :=
                K.add !s
                  (K.mul t.v.(((r0 + r) * dim) + r0 + c) t.bd.(r0 + c))
            done;
            t.x.(r0 + r) <- !s
          done

    (* b_j := b_j - A_{j,i} x_i for the block at row offset [rj]. *)
    let update_block t ~r0 ~rj ~n =
      match t.repr with
      | Flat { vp; bdp; xp } -> bs_update_block ~dim:t.dim ~r0 ~rj ~n vp xp bdp
      | Boxed ->
          let dim = t.dim in
          for r = 0 to n - 1 do
            let s = ref K.zero in
            for c = 0 to n - 1 do
              s :=
                K.add !s
                  (K.mul t.v.(((rj + r) * dim) + r0 + c) t.x.(r0 + c))
            done;
            t.bd.(rj + r) <- K.sub t.bd.(rj + r) !s
          done

    (* Probe reads for the ABFT tile verdict. *)
    let x_at t i =
      match t.repr with Flat { xp; _ } -> read_el xp i | Boxed -> t.x.(i)

    let b_at t i =
      match t.repr with Flat { bdp; _ } -> read_el bdp i | Boxed -> t.bd.(i)

    (* On the flat path the raw limb expansion of x[i] must still satisfy
       the validator (the renorm invariant); the boxed representation
       renormalizes on read, so there is nothing extra to check. *)
    let x_limbs_ok t ~check i =
      match t.repr with
      | Flat { xp; _ } ->
          check (Array.init K.width (fun pl -> Nd_flat.get xp.p pl i))
      | Boxed -> true

    (* Feed every limb word of the (constant through stage 2) matrix to
       [f]: plane-major over the staged planes, element-major over the
       boxed scalars — each arm in its own storage order, so a digest
       taken before the sweep convicts any corruption of exactly the
       words the kernels read. *)
    let iter_u_limbs t f =
      match t.repr with
      | Flat { vp; _ } ->
          Array.iter
            (fun plane ->
              for i = 0 to Nd_flat.plane_dim plane - 1 do
                f (Bigarray.Array1.unsafe_get plane i)
              done)
            vp.p
      | Boxed -> Array.iter (fun s -> Array.iter f (K.to_planes s)) t.v

    (* Bit-flip corruptor over the resident device state, one element
       picked weighted by size, one limb plane, one bit ([flip]).  On the
       flat arm faults strike the staggered limb planes directly (raw
       word flips, exactly the paper's device layout); on the boxed arm
       one scalar goes through a limb flip and the renormalizing
       round-trip. *)
    let corrupt t rng ~flip =
      let dim = t.dim in
      let pick = Dompool.Prng.int rng ((dim * dim) + dim + dim) in
      let name, idx =
        if pick < dim * dim then ("U", pick)
        else if pick < (dim * dim) + dim then ("b", pick - (dim * dim))
        else ("x", pick - (dim * dim) - dim)
      in
      match t.repr with
      | Flat { vp; bdp; xp } ->
          let pl = match name with "U" -> vp | "b" -> bdp | _ -> xp in
          let p = Dompool.Prng.int rng (Array.length pl.p) in
          let bit = Dompool.Prng.int rng 64 in
          Nd_flat.set pl.p p idx (flip (Nd_flat.get pl.p p idx) bit);
          Printf.sprintf "%s[%d] plane %d bit %d (raw)" name idx p bit
      | Boxed ->
          let arr = match name with "U" -> t.v | "b" -> t.bd | _ -> t.x in
          let planes = K.to_planes arr.(idx) in
          let p = Dompool.Prng.int rng (Array.length planes) in
          let bit = Dompool.Prng.int rng 64 in
          planes.(p) <- flip planes.(p) bit;
          arr.(idx) <- K.of_planes planes;
          Printf.sprintf "%s[%d] plane %d bit %d" name idx p bit

    (* Every limb word of b below [r0] still finite? (The update replay
       verdict.) *)
    let b_finite_below t ~r0 =
      let ok = ref true in
      (match t.repr with
      | Flat { bdp; _ } ->
          for pl = 0 to K.width - 1 do
            for i = 0 to r0 - 1 do
              if not (Float.is_finite (Nd_flat.get bdp.p pl i)) then ok := false
            done
          done
      | Boxed ->
          for i = 0 to r0 - 1 do
            if not (K.is_finite t.bd.(i)) then ok := false
          done);
      !ok

    (* The update subtracts in place, so replaying it needs the
       pre-update prefix of b back first.  [Bigarray.Array1.sub] is a
       view into the live plane, so the snapshot copies it into fresh
       storage. *)
    let snapshot_b t ~upto =
      match t.repr with
      | Flat { bdp; _ } ->
          Planes
            (Array.map
               (fun pl ->
                 let saved = Nd_flat.make_plane upto in
                 Bigarray.Array1.blit (Bigarray.Array1.sub pl 0 upto) saved;
                 saved)
               bdp.p)
      | Boxed -> Scalars (Array.sub t.bd 0 upto)

    let restore_b t snap =
      match (snap, t.repr) with
      | Planes saved, Flat { bdp; _ } ->
          Array.iteri
            (fun p sp ->
              let upto = Bigarray.Array1.dim sp in
              Bigarray.Array1.blit sp (Bigarray.Array1.sub bdp.p.(p) 0 upto))
            saved
      | Scalars saved, Boxed -> Array.blit saved 0 t.bd 0 (Array.length saved)
      | _ -> invalid_arg "Flat_kernels.Bs: snapshot from a different path"

    (* Write the staged solution back into the host array (identity on
       the boxed arm, which solved in place). *)
    let unstage_x t =
      match t.repr with
      | Flat { xp; _ } -> unstage_vec xp ~store:(fun i s -> t.x.(i) <- s)
      | Boxed -> ()
  end
end
