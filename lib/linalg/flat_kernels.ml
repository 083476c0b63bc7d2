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
   product makes one [lanes] call per (tile, KC chunk), the panel update
   one per row group, and the matrix-vector products one per group of
   up to NR adjacent outputs (rows of A, or columns of A read along its
   rows), so the engine runs the whole k loop of a register tile behind
   one indirect call, with the accumulators in registers at m = 1 and
   m = 2.  [dot], the back substitution's x_i and the QR's column
   reductions make one [dot] call per output.  The elementwise kernels
   ([axpy], [xpay], [scal], [rank1_sub], [ewadd], and the QR's "update
   R" and two additions) keep the per-element operations.

   Staging an operand into planes costs O(elements) conversions, which
   only a kernel doing O(elements * inner) work on it amortizes.  So the
   solvers stage once per solve and keep their data resident.  The
   blocked QR ([Qr]) stages A (and b) once and runs every stage of every
   panel — the elementwise additions included, which could never pay
   for staging of their own — on the staged planes.  The direct solve
   then hands R and Q^H b to the back substitution ([Bs]) where they
   lie, and only the solution is unstaged: A and b in, x out, as in the
   paper.  Boxed Q and R are made only when a caller asks for them
   ([Qr.unstage]), and a back substitution of a host system stages it
   once ([Bs.of_host]).

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

  (* The per-word flips a fault strike applies to one limb of element
     [i]: in place on a staged plane word (the paper's device layout),
     or through a boxed scalar's limb round-trip. *)
  let flip_word t i limb f = Nd_flat.set t.p limb i (f (Nd_flat.get t.p limb i))

  let flip_limb (a : K.t array) i limb f =
    let limbs = K.to_planes a.(i) in
    limbs.(limb) <- f limbs.(limb);
    a.(i) <- K.of_planes limbs

  (* Read element [i] of a staged vector back as a boxed scalar (probe
     reads for verification; the hot paths never box). *)
  let read_el (t : planes) i =
    K.of_planes (Array.init K.width (fun pl -> Nd_flat.get t.p pl i))

  (* Write a boxed scalar into element [i] of a staged operand. *)
  let write_el (t : planes) i x =
    Array.iteri (fun pl w -> Nd_flat.set t.p pl i w) (K.to_planes x)

  (* ---- The register-loading matrix product, one [Sim.launch] block:
     output elements [blk*threads, (blk+1)*threads), each a dot product
     of a row of [a] with a column of [b].  Identical operation sequence
     per element to the generic body ([s := K.add !s (K.mul aik bkj)]),
     executed as the tiled microkernel described in the header: KC
     chunks outermost (the B panel of a chunk stays cache resident
     across every row of the block), then rows, then NR-lane column
     tiles, each lane accumulating in its own context over the chunk's
     whole k range in one [lanes] call.  Partial sums spill to the C
     planes between chunks — an exact limb copy.

     The operands are strided views, so a product reads its operands
     where they live on the device: a transposed operand (W^H, YWT^H)
     is a view with the pitches swapped, a block inside a larger matrix
     (Q[:, c0:], R[c0:, c1:]) a view with an offset and the parent's
     row pitch.  The output is a contiguous [planes]. ---- *)

  (* Element (r, c) of a view is word [off + r*pitch + c*step] of [vp]. *)
  type view = { vp : Nd_flat.planes; off : int; pitch : int; step : int }

  let view (t : planes) = { vp = t.p; off = 0; pitch = t.cols; step = 1 }

  let view_block ~threads ~inner (a : view) (b : view) (c : planes) blk =
    let total = c.rows * c.cols in
    let lo = blk * threads in
    let hi = min total (lo + threads) in
    if lo < hi then begin
      let { Nd_flat.make_ctx; clear; load; lanes; store; _ } = the_plan () in
      let ap = a.vp and bp = b.vp and cp = c.p in
      let cols_o = c.cols and bstep = b.step in
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
            let abase = a.off + (i * a.pitch) and cbase = i * cols_o in
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
              lanes ctxs ap
                (abase + (!k0 * a.step))
                0 a.step bp
                (b.off + (!j0 * bstep) + (!k0 * b.pitch))
                bstep b.pitch nl (khi - !k0);
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

  (* The contiguous instance: [a] is rows-by-inner, [b] inner-by-cols. *)
  let matmul_block ~threads (a : planes) (b : planes) (c : planes) blk =
    view_block ~threads ~inner:a.cols (view a) (view b) c blk

  (* The boxed accessor loop the flat product replays, one launch block:
     the generic path of the solvers and the oracle of the tests. *)
  let boxed_matmul_block ~threads ~rows_o ~cols_o ~inner ~geta ~getb ~store
      blk =
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
    done

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
     each in its own context, in one [lanes] call whose k loop walks the
     tile's columns: x[r0 + c] is shared by every lane while the lanes
     walk their own rows of [v] — the same x reuse the matrix product
     gets from its B panel.  Per row the sequence is still clear,
     ascending-c multiply-accumulate, subtract: identical to the untiled
     loop. *)
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
      lanes ctxs v (((rj + !r) * dim) + r0) dim 1 x r0 0 1 nl n;
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

  (* y[o] := sum_k a[o*so + k*ka] * x[k] for the outputs [lo, hi), up
     to [nr_tile] adjacent outputs at a time as the lanes of one [lanes]
     call. *)
  let gemv_lanes ~lo ~hi ~so ~ka ~kn (a : planes) (x : planes) (y : planes) =
    if lo < hi then begin
      let { Nd_flat.make_ctx; clear; lanes; store; _ } = the_plan () in
      let ctxs = Array.init (min nr_tile (hi - lo)) (fun _ -> make_ctx ()) in
      let o = ref lo in
      while !o < hi do
        let nl = min nr_tile (hi - !o) in
        for l = 0 to nl - 1 do
          clear (Array.unsafe_get ctxs l)
        done;
        lanes ctxs a.p (!o * so) so ka x.p 0 0 1 nl kn;
        for l = 0 to nl - 1 do
          store (Array.unsafe_get ctxs l) y.p (!o + l)
        done;
        o := !o + nl
      done
    end

  (* y[i] := sum_k a[i, k] * x[k] for rows [blk*threads, (blk+1)*threads):
     the lanes walk adjacent rows. *)
  let gemv_block ~threads (a : planes) (x : planes) (y : planes) blk =
    let lo = blk * threads in
    gemv_lanes ~lo ~hi:(min a.rows (lo + threads)) ~so:a.cols ~ka:1
      ~kn:a.cols a x y

  (* y[j] := sum_i a[i, j] * x[i]: the lanes are adjacent columns, so
     each step reads a run of one row of A at unit stride (the cost
     model still prices the device's column-strided walk). *)
  let gemv_t_block ~threads (a : planes) (x : planes) (y : planes) blk =
    let lo = blk * threads in
    gemv_lanes ~lo ~hi:(min a.cols (lo + threads)) ~so:1 ~ka:a.cols
      ~kn:a.rows a x y

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
     type, so [Tiled_back_sub] is written once against this module.

     The state adopts its system as it lies ([source]): staged planes on
     the flat arm — the leading words of a factorization's R and Q^H b,
     or a host system staged once ([of_host]) — and host [K.t] arrays on
     the boxed arm.  Tile inversion reads and writes U through [u_at] and
     [set_u], every inner-product kernel runs on the planes allocation
     free, and only the solution is unstaged at the end.  The modeled
     launch costs are computed by the solver and shared by both arms,
     so device timing is path independent.

     The fault plane's strike and validators live in [Fault], which this
     library deliberately does not depend on: [Bs] supplies its regions
     and the [check] closure is passed in by the solver. *)
  module Bs = struct
    (* U's leading dim*dim words (row-major, pitch dim) and b's leading
       dim words, adopted as they are: the solve inverts U's diagonal
       tiles and updates b in place. *)
    type source =
      | Staged of { u : planes; b : planes }
      | Host of { u : K.t array; b : K.t array }

    type repr =
      | Flat of { vp : planes; bdp : planes; xp : planes }
      | Boxed of { v : K.t array; bd : K.t array; x : K.t array }

    type t = { dim : int; repr : repr }

    (* A saved prefix of the right-hand side, for update replays. *)
    type b_snapshot = Planes of Nd_flat.planes | Scalars of K.t array

    let create ~dim = function
      | Staged { u; b } ->
          { dim; repr = Flat { vp = u; bdp = b; xp = alloc ~rows:dim ~cols:1 } }
      | Host { u; b } ->
          { dim; repr = Boxed { v = u; bd = b; x = Array.make dim K.zero } }

    (* A host system: staged once on the flat arm, copied on the boxed
       one (the solve writes into U and b). *)
    let of_host ~dim ~u ~b =
      if available () then
        Staged
          {
            u = stage ~rows:dim ~cols:dim ~get:(fun i j -> u.((i * dim) + j));
            b = stage_vec ~n:dim ~get:(Array.get b);
          }
      else Host { u = Array.copy u; b = Array.copy b }

    (* Element (i, j) of U, read and written by the tile inversion. *)
    let u_at t i j =
      match t.repr with
      | Flat { vp; _ } -> read_el vp ((i * t.dim) + j)
      | Boxed { v; _ } -> v.((i * t.dim) + j)

    let set_u t i j s =
      match t.repr with
      | Flat { vp; _ } -> write_el vp ((i * t.dim) + j) s
      | Boxed { v; _ } -> v.((i * t.dim) + j) <- s

    (* x_i := U_i^{-1} b_i on the tile at diagonal offset [r0]; identical
       operation sequence on both arms. *)
    let xi_block t ~r0 ~n =
      match t.repr with
      | Flat { vp; bdp; xp } -> bs_xi_block ~dim:t.dim ~r0 ~n vp bdp xp
      | Boxed { v; bd; x } ->
          let dim = t.dim in
          for r = 0 to n - 1 do
            let s = ref K.zero in
            for c = r to n - 1 do
              s := K.add !s (K.mul v.(((r0 + r) * dim) + r0 + c) bd.(r0 + c))
            done;
            x.(r0 + r) <- !s
          done

    (* b_j := b_j - A_{j,i} x_i for the block at row offset [rj]. *)
    let update_block t ~r0 ~rj ~n =
      match t.repr with
      | Flat { vp; bdp; xp } -> bs_update_block ~dim:t.dim ~r0 ~rj ~n vp xp bdp
      | Boxed { v; bd; x } ->
          let dim = t.dim in
          for r = 0 to n - 1 do
            let s = ref K.zero in
            for c = 0 to n - 1 do
              s := K.add !s (K.mul v.(((rj + r) * dim) + r0 + c) x.(r0 + c))
            done;
            bd.(rj + r) <- K.sub bd.(rj + r) !s
          done

    (* Probe reads for the ABFT tile verdict. *)
    let x_at t i =
      match t.repr with Flat { xp; _ } -> read_el xp i | Boxed { x; _ } -> x.(i)

    let b_at t i =
      match t.repr with
      | Flat { bdp; _ } -> read_el bdp i
      | Boxed { bd; _ } -> bd.(i)

    (* On the flat path the raw limb expansion of x[i] must still satisfy
       the validator (the renorm invariant); the boxed representation
       renormalizes on read, so there is nothing extra to check. *)
    let x_limbs_ok t ~check i =
      match t.repr with
      | Flat { xp; _ } ->
          check (Array.init K.width (fun pl -> Nd_flat.get xp.p pl i))
      | Boxed _ -> true

    (* Feed every limb word of the (constant through stage 2) matrix to
       [f]: plane-major over the staged planes, element-major over the
       boxed scalars — each arm in its own storage order, so a digest
       taken before the sweep convicts any corruption of exactly the
       words the kernels read. *)
    let iter_u_limbs t f =
      let words = t.dim * t.dim in
      match t.repr with
      | Flat { vp; _ } ->
          Array.iter
            (fun plane ->
              for i = 0 to words - 1 do
                f (Bigarray.Array1.unsafe_get plane i)
              done)
            vp.p
      | Boxed { v; _ } ->
          for i = 0 to words - 1 do
            Array.iter f (K.to_planes v.(i))
          done

    (* The resident device state a fault strike picks from: raw plane
       words on the flat arm, scalar limbs on the boxed arm. *)
    let staged t = match t.repr with Flat _ -> true | Boxed _ -> false

    let regions t =
      let u, b, x =
        match t.repr with
        | Flat { vp; bdp; xp } -> (flip_word vp, flip_word bdp, flip_word xp)
        | Boxed { v; bd; x } -> (flip_limb v, flip_limb bd, flip_limb x)
      in
      [ ("U", t.dim * t.dim, u); ("b", t.dim, b); ("x", t.dim, x) ]

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
      | Boxed { bd; _ } ->
          for i = 0 to r0 - 1 do
            if not (K.is_finite bd.(i)) then ok := false
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
      | Boxed { bd; _ } -> Scalars (Array.sub bd 0 upto)

    let restore_b t snap =
      match (snap, t.repr) with
      | Planes saved, Flat { bdp; _ } ->
          Array.iteri
            (fun p sp ->
              let upto = Bigarray.Array1.dim sp in
              Bigarray.Array1.blit sp (Bigarray.Array1.sub bdp.p.(p) 0 upto))
            saved
      | Scalars saved, Boxed { bd; _ } ->
          Array.blit saved 0 bd 0 (Array.length saved)
      | _ -> invalid_arg "Flat_kernels.Bs: snapshot from a different path"

    (* Device -> host: the solution (the boxed arm's own array). *)
    let unstage_x t =
      match t.repr with
      | Flat { xp; _ } ->
          let x = Array.make t.dim K.zero in
          unstage_vec xp ~store:(Array.set x);
          x
      | Boxed { x; _ } -> x
  end

  (* ---- The blocked Householder QR device state (Algorithm 2), both
     paths behind one type, on the pattern of [Bs].  [Blocked_qr] owns
     the modeled costs, the launches and the fault plane; every kernel
     body it launches comes from here, so the factorization is written
     once.

     The flat arm holds what the paper keeps in device memory for the
     whole factorization: R (staged from A), Q (the identity, staged
     only when Q is accumulated) and the thin path's right-hand side b
     are staged once, every panel allocates its Y, W, YWT and product
     outputs as planes, every stage body runs on the plan, and R, Q and
     b are unstaged once at the end ([unstage]).  Only the Householder
     vector's norm, square root and division stay boxed (O(rows) work
     per column against the O(rows * tile) of the stages around it).
     The first panel's Q*WY^T multiplies by a Q that is still the
     identity, so its flat body ([first_qwy]) computes the one term of
     each output that is not a product with an exact zero: one product
     per output instead of [rows], with the same bits.  [Blocked_qr]
     still prices the full product, which the device pays.  The thin
     path's last panel neither updates Q nor has trailing columns, so
     nothing reads its YWT: the flat arm neither allocates nor computes
     it, while [Blocked_qr] still launches and prices "Y*W^T".

     The fault plane sees the same device state on either arm: the
     strike regions ([regions]: R, Q, the panel's Y and W and the thin
     path's b, with per-word flips), the ABFT probe through Y and W
     ([probe_norms]), the finiteness sweep ([finite_from]) and the
     panel snapshot ([snapshot], [restore]).  On the flat arm they act
     on the planes, so a fault-armed factorization runs flat too.  Two
     things keep it limb for limb identical to the boxed arm under a
     strike.  [Sim] strikes after a launch's body ran, so the Householder
     vector lives in a plane of its own ([hvp]) that "beta, v" reflects
     into and "beta*R^T*v" and "update R" read, and [save_v] copies it
     into Y after the launch, as the boxed arm does: a strike on Y
     during "beta, v" never reaches v.  And a strike can hit Q before
     the first panel's Q*WY^T, so an armed factorization takes the full
     product there.

     The boxed arm works on host [K.t] arrays: complex and instrumented
     scalars.  Both arms replay the same operation sequence with the
     same argument order, so they agree limb for limb. ---- *)
  module Qr = struct
    module V = Vec.Make (K)

    type repr = Flat of resident | Boxed

    (* The flat arm's planes resident for the whole factorization. *)
    and resident = { rp : planes; qp : planes; bp : planes }

    type t = {
      mrows : int;
      ncols : int;
      tile : int;
      accumulate_q : bool;
      fault_armed : bool;
      execute : bool;
      (* The boxed arm's host arrays, empty on the flat arm: *)
      r : K.t array; (* row-major mrows*ncols *)
      q : K.t array; (* row-major mrows*mrows *)
      b : K.t array; (* the thin path's right-hand side, else empty *)
      rhs : bool; (* the thin path: b is resident *)
      repr : repr;
    }

    (* A [tile]-column panel at column [c0]: Y and W are rows-by-tile,
       YWT rows-by-rows, QWY mrows-by-rows and YWTC rows-by-trail. *)
    type flat_panel = {
      res : resident;
      yp : planes;
      wp : planes;
      ywtp : planes;
      qwyp : planes;
      ywtcp : planes;
      wrowp : planes; (* beta v^H R[c:, c:c1] of the current column *)
      up : planes; (* Y^H v (compute W), W^H b (thin path) *)
      betap : planes; (* beta of column l at l *)
      nbetap : planes; (* -beta of column l at l *)
      hvp : planes; (* the current Householder vector, from word 0 *)
    }

    type boxed_panel = {
      y : K.t array;
      w : K.t array;
      ywt : K.t array;
      qwy : K.t array;
      ywtc : K.t array;
      wrow : K.t array;
      u : K.t array;
    }

    type arm = Pflat of flat_panel | Pboxed of boxed_panel

    type panel = {
      st : t;
      c0 : int;
      rows : int;
      trail : int;
      betas : K.R.t array;
      mutable v : K.t array; (* the current Householder vector *)
      arm : arm;
    }

    (* Host -> device.  Nothing is allocated when not executing, and no
       host array on the flat arm. *)
    let create ~execute ~fault_armed ~accumulate_q ~mrows ~ncols ~tile ~a ~b =
      let rhs = Option.is_some b in
      let b = Option.value b ~default:[||] in
      let st repr ~r ~q ~b =
        {
          mrows;
          ncols;
          tile;
          accumulate_q;
          fault_armed;
          execute;
          r;
          q;
          b;
          rhs;
          repr;
        }
      in
      if execute && available () then
        let rp =
          stage ~rows:mrows ~cols:ncols ~get:(fun i j -> a.((i * ncols) + j))
        in
        let qp =
          if accumulate_q then
            stage ~rows:mrows ~cols:mrows ~get:(fun i j ->
                if i = j then K.one else K.zero)
          else alloc ~rows:0 ~cols:0
        in
        let bp = stage_vec ~n:(Array.length b) ~get:(fun i -> b.(i)) in
        st (Flat { rp; qp; bp }) ~r:[||] ~q:[||] ~b:[||]
      else if execute then
        st Boxed ~r:(Array.copy a)
          ~q:
            (Array.init (mrows * mrows) (fun idx ->
                 if idx / mrows = idx mod mrows then K.one else K.zero))
          ~b:(Array.copy b)
      else st Boxed ~r:[||] ~q:[||] ~b:[||]

    (* Whether anything reads a panel's YWT: Q*WY^T when Q is
       accumulated, YWT*C when trailing columns remain.  The thin path's
       last panel has neither. *)
    let ywt_read st ~trail = st.accumulate_q || trail > 0

    let panel st ~c0 =
      let tile = st.tile in
      let rows = st.mrows - c0 in
      let trail = st.ncols - c0 - tile in
      let arm =
        match st.repr with
        | Flat res ->
            let vec n = alloc ~rows:n ~cols:1 in
            let ywt_rows = if ywt_read st ~trail then rows else 0 in
            Pflat
              {
                res;
                yp = alloc ~rows ~cols:tile;
                wp = alloc ~rows ~cols:tile;
                ywtp = alloc ~rows:ywt_rows ~cols:ywt_rows;
                qwyp =
                  alloc
                    ~rows:(if st.accumulate_q then st.mrows else 0)
                    ~cols:rows;
                ywtcp = alloc ~rows ~cols:trail;
                wrowp = vec tile;
                up = vec tile;
                betap = vec tile;
                nbetap = vec tile;
                hvp = vec rows;
              }
        | Boxed ->
            let mk n = if st.execute then Array.make n K.zero else [||] in
            Pboxed
              {
                y = mk (rows * tile);
                w = mk (rows * tile);
                ywt = mk (rows * rows);
                qwy = (if st.accumulate_q then mk (st.mrows * rows) else [||]);
                ywtc = mk (rows * trail);
                wrow = mk tile;
                u = mk tile;
              }
      in
      { st; c0; rows; trail; betas = Array.make tile K.R.zero; v = [||]; arm }

    (* Word [si + i*ss] of every limb plane of [src] into word
       [di + i*ds] of [dst], for i < n.  The [Bigarray] primitives
       compile to unboxed loads and stores. *)
    let copy_words ~n (src : Nd_flat.planes) si ss (dst : Nd_flat.planes) di
        ds =
      for pl = 0 to K.width - 1 do
        let s = src.(pl) and d = dst.(pl) in
        for i = 0 to n - 1 do
          Bigarray.Array1.set d (di + (i * ds)) (Bigarray.Array1.get s (si + (i * ss)))
        done
      done

    (* beta, v (block 0 only): the column of R below the diagonal, its
       reflection and beta = 2 / v^H v, kept for [save_v] and the two
       launches after it.  The flat arm copies the column into its v
       plane, forms both sums of squares there with [dot] (the
       ascending sum from zero that [V.norm2] is), and boxes only the
       O(1) square root, phase and division. *)
    let beta_v p ~l blk =
      if blk = 0 then begin
        let st = p.st in
        let c = p.c0 + l in
        let len = st.mrows - c in
        let at = (c * st.ncols) + c and pitch = st.ncols in
        let reflect ~sigma ~v0 ~set_v0 ~vv =
          if K.R.is_zero sigma then p.betas.(l) <- K.R.zero
          else begin
            let phase = K.unit_phase v0 in
            set_v0 (K.add v0 (K.scale phase sigma));
            p.betas.(l) <- K.R.div (K.R.of_int 2) (vv ())
          end
        in
        match p.arm with
        | Pboxed _ ->
            let v = Array.init len (fun i -> st.r.(at + (i * pitch))) in
            reflect ~sigma:(V.norm v) ~v0:v.(0)
              ~set_v0:(fun x -> v.(0) <- x)
              ~vv:(fun () -> V.norm2 v);
            p.v <- v
        | Pflat f ->
            let { Nd_flat.make_ctx; clear; dot; store; _ } = the_plan () in
            let ctx = make_ctx () in
            let v = f.hvp.p in
            copy_words ~n:len f.res.rp.p at pitch v 0 1;
            (* beta's slot holds each sum of squares until beta is
               known. *)
            let sumsq () =
              clear ctx;
              dot ctx v 0 1 v 0 1 len;
              store ctx f.betap.p l;
              K.re (read_el f.betap l)
            in
            reflect
              ~sigma:(K.R.sqrt (sumsq ()))
              ~v0:(read_el f.hvp 0) ~set_v0:(write_el f.hvp 0) ~vv:sumsq;
            write_el f.betap l (K.of_real p.betas.(l));
            write_el f.nbetap l (K.of_real (K.R.neg p.betas.(l)))
      end

    (* Host side, after the [beta_v] launch: save v into the
       trapezoidal Y (rows below c0, zeros above c). *)
    let save_v p ~l =
      let tile = p.st.tile in
      match p.arm with
      | Pboxed b ->
          Array.iteri (fun i vi -> b.y.(((l + i) * tile) + l) <- vi) p.v
      | Pflat f ->
          copy_words ~n:(p.rows - l) f.hvp.p 0 1 f.yp.p ((l * tile) + l) tile

    (* beta*R^T*v: block [blk] forms wrow[blk] = beta v^H R[c:, c+blk]. *)
    let rtv p ~l blk =
      let st = p.st in
      let tile = st.tile in
      if blk < tile - l then begin
        let c = p.c0 + l in
        let len = st.mrows - c in
        let j = c + blk in
        match p.arm with
        | Pflat f ->
            let { Nd_flat.make_ctx; clear; dot; store; mul_set; _ } =
              the_plan ()
            in
            let ctx = make_ctx () in
            clear ctx;
            dot ctx f.hvp.p 0 1 f.res.rp.p ((c * st.ncols) + j) st.ncols len;
            store ctx f.wrowp.p blk;
            mul_set ctx f.wrowp.p blk f.betap.p l;
            store ctx f.wrowp.p blk
        | Pboxed b ->
            let v = p.v in
            let s = ref K.zero in
            for i = 0 to len - 1 do
              s :=
                K.add !s
                  (K.mul (K.conj v.(i)) st.r.(((c + i) * st.ncols) + j))
            done;
            b.wrow.(blk) <- K.scale !s p.betas.(l)
      end

    (* update R: R[c:, c:c1] -= v wrow, [tile] elements per block. *)
    let update_r p ~l blk =
      let st = p.st in
      let tile = st.tile and ncols = st.ncols in
      let c = p.c0 + l in
      let w_ = tile - l in
      let total = (st.mrows - c) * w_ in
      let lo = blk * tile in
      let hi = min total (lo + tile) in
      match p.arm with
      | Pflat f ->
          let { Nd_flat.make_ctx; mul_set; sub_from; _ } = the_plan () in
          let ctx = make_ctx () in
          for idx = lo to hi - 1 do
            let i = idx / w_ and jj = idx mod w_ in
            mul_set ctx f.hvp.p i f.wrowp.p jj;
            sub_from ctx f.res.rp.p (((c + i) * ncols) + c + jj)
          done
      | Pboxed b ->
          let v = p.v in
          for idx = lo to hi - 1 do
            let i = idx / w_ and jj = idx mod w_ in
            let at = ((c + i) * ncols) + c + jj in
            st.r.(at) <- K.sub st.r.(at) (K.mul v.(i) b.wrow.(jj))
          done

    (* compute W, u step: u[blk] = Y[:, blk]^H v_l for blk < l. *)
    let w_u p ~l blk =
      if blk < l then begin
        let tile = p.st.tile and rows = p.rows in
        match p.arm with
        | Pflat f ->
            let { Nd_flat.make_ctx; clear; dot; store; _ } = the_plan () in
            let ctx = make_ctx () in
            clear ctx;
            dot ctx f.yp.p blk tile f.yp.p l tile rows;
            store ctx f.up.p blk
        | Pboxed b ->
            let s = ref K.zero in
            for i = 0 to rows - 1 do
              s :=
                K.add !s
                  (K.mul (K.conj b.y.((i * tile) + blk)) b.y.((i * tile) + l))
            done;
            b.u.(blk) <- !s
      end

    (* compute W, z step: W[i, l] = -beta (Y[i, l] + W[i, :l] u) for the
       [tile] rows of block [blk]. *)
    let w_z p ~l blk =
      let tile = p.st.tile in
      let lo = blk * tile in
      let hi = min p.rows (lo + tile) in
      match p.arm with
      | Pflat f ->
          let { Nd_flat.make_ctx; load; dot; store; mul_set; _ } =
            the_plan ()
          in
          let ctx = make_ctx () in
          for i = lo to hi - 1 do
            let at = (i * tile) + l in
            load ctx f.yp.p at;
            dot ctx f.wp.p (i * tile) 1 f.up.p 0 1 l;
            store ctx f.wp.p at;
            mul_set ctx f.wp.p at f.nbetap.p l;
            store ctx f.wp.p at
          done
      | Pboxed b ->
          let nbeta = K.R.neg p.betas.(l) in
          for i = lo to hi - 1 do
            let s = ref b.y.((i * tile) + l) in
            for j = 0 to l - 1 do
              s := K.add !s (K.mul b.w.((i * tile) + j) b.u.(j))
            done;
            b.w.((i * tile) + l) <- K.scale !s nbeta
          done

    (* The three products.  Each returns the launch body, resolved once
       per launch. *)

    (* YWT = Y * W^H (rows x rows); on the flat arm only if read. *)
    let ywt p =
      let tile = p.st.tile and rows = p.rows in
      match p.arm with
      | Pflat _ when not (ywt_read p.st ~trail:p.trail) -> fun _ -> ()
      | Pflat f ->
          view_block ~threads:tile ~inner:tile (view f.yp)
            { vp = f.wp.p; off = 0; pitch = 1; step = tile }
            f.ywtp
      | Pboxed b ->
          boxed_matmul_block ~threads:tile ~rows_o:rows ~cols_o:rows
            ~inner:tile
            ~geta:(fun i k -> b.y.((i * tile) + k))
            ~getb:(fun k j -> K.conj b.w.((j * tile) + k))
            ~store:(fun i j s -> b.ywt.((i * rows) + j) <- s)

    (* Whether every limb word of element [i] of [t] is finite. *)
    let finite_el (t : planes) i =
      let ok = ref true in
      for pl = 0 to K.width - 1 do
        if not (Float.is_finite (Bigarray.Array1.get t.p.(pl) i)) then
          ok := false
      done;
      !ok

    (* Whether every limb word of [t] is finite. *)
    let finite (t : planes) =
      let ok = ref true in
      for i = 0 to (t.rows * t.cols) - 1 do
        if not (finite_el t i) then ok := false
      done;
      !ok

    (* Whether word [ia] of [a] and word [ib] of [b] agree limb for limb,
       bit for bit. *)
    let same_word (a : Nd_flat.planes) ia (b : Nd_flat.planes) ib =
      let same = ref true in
      for pl = 0 to K.width - 1 do
        if
          not
            (Int64.equal
               (Int64.bits_of_float (Nd_flat.get a pl ia))
               (Int64.bits_of_float (Nd_flat.get b pl ib)))
        then same := false
      done;
      !same

    (* QWY of the first panel.  Q[:, c0:] is then all of Q, and Q is
       still the identity [create] staged: only [q_add] writes Q, after
       this launch.  Output (i, j) of the full product is the ascending
       sum over k of Q[i,k] YWT[j,k] from [clear], and every term but
       k = i multiplies a Q word that is +0 in every limb.  So the body
       computes clear; mul_add Q[i,i] YWT[j,i]; store — the k = i step
       of the full loop, one product per output instead of [rows] — and
       that changes no bit, given two facts about the engine, for finite
       y:

       (a) clear; mul_add (+0) y leaves every limb +0, so the terms
           k < i leave the accumulator as [clear] did;
       (b) after the diagonal term, mul_add (+0) y' leaves the
           accumulator's bits unchanged, so the terms k > i do too.

       m = 1: +0 * y is +-0 and +0 + +-0 = +0, which is (a).  The
       diagonal leaves +0 + y_i, never -0, and x + +-0 = x for every x
       but -0, which is (b).

       m = 2: the unrolled product's p = +0 * yhi is +-0 and its fma
       error +0, and a zero sum with a +0 operand is +0, so the product
       is (+0, +0), and its ieee_add to the cleared (+0, +0) is
       (+0, +0): (a).  The diagonal term leaves (hi, lo) from a
       quick_two_sum (s', e'), so hi = fl(hi + lo).  Neither limb is -0:
       a sum is -0 only when both operands are, a difference only when
       its left operand is, and e' is a sum with the low-order two_sum
       error, which is +0 when the accumulator was cleared.  Adding
       (+0, +0) to such a pair, both two_sums return their input with
       +0 errors and both quick_two_sums return (hi, lo): (b).

       m >= 3: these engines renormalize every sum, and (b) would need
       the renormalization to be a fixed point on its own output, which
       neither QDlib's renorm nor the two-pass distillation promises.
       So they are guarded per output.  Their product +0 * y is +0 in
       every limb for finite y (every partial product is +-0, every fma
       error +0, and the distillation of such a buffer +0), so every
       zero term of an output is the same map acc := acc + (+0).  The
       body applies one of them after the diagonal, and if it moved a
       bit, recomputes the output by the full loop.

       test_props pins (a), (b) and the guard's premise at m = 1, 2, 3,
       4, 8 and 16, (a) and the premise over every limb sign pattern (a
       product with +0 depends on nothing else of y).  (a) needs y finite
       (+0 * inf is NaN), so [qwy] sweeps YWT once per launch and a
       non-finite word anywhere takes the full product. *)
    let first_qwy ~threads ~rows (f : flat_panel) blk =
      let total = rows * rows in
      let lo = blk * threads in
      let hi = min total (lo + threads) in
      if lo < hi then begin
        let { Nd_flat.make_ctx; clear; mul_add; dot; store; _ } =
          the_plan ()
        in
        let ctx = make_ctx () in
        let q = f.res.qp.p and y = f.ywtp.p and out = f.qwyp.p in
        let guarded = K.width > 2 && rows > 1 in
        let probe = Nd_flat.make_planes ~limbs:K.width 1 in
        let i = ref (lo / rows) and j = ref (lo mod rows) in
        for idx = lo to hi - 1 do
          let qrow = !i * rows and yrow = !j * rows in
          clear ctx;
          mul_add ctx q (qrow + !i) y (yrow + !i);
          store ctx out idx;
          if guarded then begin
            let k = if !i = 0 then 1 else 0 in
            mul_add ctx q (qrow + k) y (yrow + k);
            store ctx probe 0;
            if not (same_word out idx probe 0) then begin
              clear ctx;
              dot ctx q qrow 1 y yrow 1 rows;
              store ctx out idx
            end
          end;
          incr j;
          if !j = rows then begin
            j := 0;
            incr i
          end
        done
      end

    (* QWY = Q[:, c0:] * YWT^H (mrows x rows); the first panel's on the
       flat arm is [first_qwy], unless a fault plan is armed: a strike
       may have hit Q before this launch, and then Q is no longer the
       identity. *)
    let qwy p =
      let st = p.st in
      let mrows = st.mrows and rows = p.rows and c0 = p.c0 in
      match p.arm with
      | Pflat f
        when c0 = 0 && st.accumulate_q && (not st.fault_armed) && finite f.ywtp
        ->
          first_qwy ~threads:st.tile ~rows f
      | Pflat f ->
          view_block ~threads:st.tile ~inner:rows
            { vp = f.res.qp.p; off = c0; pitch = mrows; step = 1 }
            { vp = f.ywtp.p; off = 0; pitch = 1; step = rows }
            f.qwyp
      | Pboxed b ->
          boxed_matmul_block ~threads:st.tile ~rows_o:mrows ~cols_o:rows
            ~inner:rows
            ~geta:(fun i k -> st.q.((i * mrows) + c0 + k))
            ~getb:(fun k j -> K.conj b.ywt.((j * rows) + k))
            ~store:(fun i j s -> b.qwy.((i * rows) + j) <- s)

    (* YWTC = YWT * R[c0:, c1:] (rows x trail); C is read in place. *)
    let ywtc p =
      let st = p.st in
      let ncols = st.ncols and rows = p.rows and trail = p.trail in
      let c_at = (p.c0 * ncols) + p.c0 + st.tile in
      match p.arm with
      | Pflat f ->
          view_block ~threads:st.tile ~inner:rows (view f.ywtp)
            { vp = f.res.rp.p; off = c_at; pitch = ncols; step = 1 }
            f.ywtcp
      | Pboxed b ->
          boxed_matmul_block ~threads:st.tile ~rows_o:rows ~cols_o:trail
            ~inner:rows
            ~geta:(fun i k -> b.ywt.((i * rows) + k))
            ~getb:(fun k j -> st.r.(c_at + (k * ncols) + j))
            ~store:(fun i j s -> b.ywtc.((i * trail) + j) <- s)

    (* The two additions, one launch block each: [step idx at] adds
       element [idx] of the contiguous rows-by-cols source to word
       [at = off + i*pitch + j] of the destination, for the output
       elements of block [blk]. *)
    let add_block ~threads ~rows ~cols ~off ~pitch step blk =
      let total = rows * cols in
      let lo = blk * threads in
      let hi = min total (lo + threads) in
      (* Running (row, col) pair instead of two div/mod per element. *)
      let i = ref (lo / cols) and j = ref (lo mod cols) in
      for idx = lo to hi - 1 do
        step idx (off + (!i * pitch) + !j);
        incr j;
        if !j = cols then begin
          j := 0;
          incr i
        end
      done

    (* dst += src per element, in the boxed argument order. *)
    let flat_add (dst : planes) (src : planes) =
      let { Nd_flat.make_ctx; load; add; store; _ } = the_plan () in
      let ctx = make_ctx () in
      fun idx at ->
        load ctx dst.p at;
        add ctx src.p idx;
        store ctx dst.p at

    let boxed_add (dst : K.t array) (src : K.t array) idx at =
      dst.(at) <- K.add dst.(at) src.(idx)

    (* Q[:, c0:] += QWY. *)
    let q_add p blk =
      let st = p.st in
      add_block ~threads:st.tile ~rows:st.mrows ~cols:p.rows ~off:p.c0
        ~pitch:st.mrows
        (match p.arm with
        | Pflat f -> flat_add f.res.qp f.qwyp
        | Pboxed b -> boxed_add st.q b.qwy)
        blk

    (* R[c0:, c1:] += YWTC. *)
    let r_add p blk =
      let st = p.st in
      add_block ~threads:st.tile ~rows:p.rows ~cols:p.trail
        ~off:((p.c0 * st.ncols) + p.c0 + st.tile)
        ~pitch:st.ncols
        (match p.arm with
        | Pflat f -> flat_add f.res.rp f.ywtcp
        | Pboxed b -> boxed_add st.r b.ywtc)
        blk

    (* Thin path, u step: u[blk] = W[:, blk]^H b[c0:]. *)
    let apply_u p blk =
      let st = p.st in
      let tile = st.tile and rows = p.rows and c0 = p.c0 in
      if blk < tile then
        match p.arm with
        | Pflat f ->
            let { Nd_flat.make_ctx; clear; dot; store; _ } = the_plan () in
            let ctx = make_ctx () in
            clear ctx;
            dot ctx f.wp.p blk tile f.res.bp.p c0 1 rows;
            store ctx f.up.p blk
        | Pboxed b ->
            let sum = ref K.zero in
            for i = 0 to rows - 1 do
              sum :=
                K.add !sum
                  (K.mul (K.conj b.w.((i * tile) + blk)) st.b.(c0 + i))
            done;
            b.u.(blk) <- !sum

    (* Thin path, update: b[c0 + i] += Y[i, :] u for the rows of block
       [blk].  The sum goes through a scratch word so the addition keeps
       the boxed argument order, b first. *)
    let apply_y p blk =
      let st = p.st in
      let tile = st.tile and c0 = p.c0 in
      let lo = blk * tile in
      let hi = min p.rows (lo + tile) in
      match p.arm with
      | Pflat f ->
          let { Nd_flat.make_ctx; clear; load; dot; add; store; _ } =
            the_plan ()
          in
          let ctx = make_ctx () in
          let sum = Nd_flat.make_planes ~limbs:K.width 1 in
          for i = lo to hi - 1 do
            clear ctx;
            dot ctx f.yp.p (i * tile) 1 f.up.p 0 1 tile;
            store ctx sum 0;
            load ctx f.res.bp.p (c0 + i);
            add ctx sum 0;
            store ctx f.res.bp.p (c0 + i)
          done
      | Pboxed b ->
          for i = lo to hi - 1 do
            let sum = ref K.zero in
            for j = 0 to tile - 1 do
              sum := K.add !sum (K.mul b.y.((i * tile) + j) b.u.(j))
            done;
            st.b.(c0 + i) <- K.add st.b.(c0 + i) !sum
          done

    (* ---- The fault plane's view of the device state, on either arm.
       [Blocked_qr] builds its corruptor, ABFT probe, finiteness sweep
       and panel snapshot from these, so they read the planes on the
       flat arm and the host arrays on the boxed one. ---- *)

    let staged t = match t.repr with Flat _ -> true | Boxed -> false

    (* The regions a strike picks from, in the order and with the sizes
       of the boxed arm's host arrays: R, Q, the panel's Y and W, and the
       thin path's b.  The boxed arm always holds an mrows-by-mrows Q, so
       the flat arm reports one too and a strike on a Q it does not
       accumulate changes nothing: the strike draws stay the same. *)
    let regions p =
      let st = p.st in
      let r, q, y, w, b =
        match p.arm with
        | Pflat f ->
            ( flip_word f.res.rp,
              (if st.accumulate_q then flip_word f.res.qp
               else fun _ _ _ -> ()),
              flip_word f.yp,
              flip_word f.wp,
              flip_word f.res.bp )
        | Pboxed bx ->
            ( flip_limb st.r,
              flip_limb st.q,
              flip_limb bx.y,
              flip_limb bx.w,
              flip_limb st.b )
      in
      let yw = p.rows * st.tile in
      [
        ("R", st.mrows * st.ncols, r);
        ("Q", st.mrows * st.mrows, q);
        ("Y", yw, y);
        ("W", yw, w);
      ]
      @ if st.rhs then [ ("b", st.mrows, b) ] else []

    (* The ABFT probe through the panel's aggregated reflectors: |u| and
       |u + W (Y^H u)| for a probe vector [u] of [rows] elements, as
       floats.  Each arm runs the boxed sequences: Y^H u clears and
       accumulates Y[i, j]^H u[i] over ascending i, each output of
       u + W (Y^H u) starts from u[i] and accumulates W[i, j] (Y^H u)[j]
       over ascending j, and a norm is the square root of the ascending
       sum of squares from zero that [V.norm] is.  On the flat arm these
       are the transposed matvec of Y, one [dot] per row and one [dot]
       per norm, on the planes: only [u] is boxed, as drawn. *)
    let probe_norms p (u : K.t array) =
      let tile = p.st.tile and rows = p.rows in
      match p.arm with
      | Pflat f ->
          let { Nd_flat.make_ctx; clear; load; dot; store; _ } = the_plan () in
          let ctx = make_ctx () in
          let up = stage_vec ~n:rows ~get:(Array.get u) in
          let yhu = alloc ~rows:tile ~cols:1 and pu = alloc ~rows ~cols:1 in
          gemv_t_block ~threads:tile f.yp up yhu 0;
          for i = 0 to rows - 1 do
            load ctx up.p i;
            dot ctx f.wp.p (i * tile) 1 yhu.p 0 1 tile;
            store ctx pu.p i
          done;
          let sumsq = alloc ~rows:1 ~cols:1 in
          let norm (x : planes) =
            clear ctx;
            dot ctx x.p 0 1 x.p 0 1 rows;
            store ctx sumsq.p 0;
            K.R.to_float (K.R.sqrt (K.re (read_el sumsq 0)))
          in
          (norm up, norm pu)
      | Pboxed b ->
          let yhu =
            V.init tile (fun j ->
                let s = ref K.zero in
                for i = 0 to rows - 1 do
                  s := K.add !s (K.mul (K.conj b.y.((i * tile) + j)) u.(i))
                done;
                !s)
          in
          let pu =
            V.init rows (fun i ->
                let s = ref u.(i) in
                for j = 0 to tile - 1 do
                  s := K.add !s (K.mul b.w.((i * tile) + j) yhu.(j))
                done;
                !s)
          in
          (K.R.to_float (V.norm u), K.R.to_float (V.norm pu))

    (* Whether every limb word a panel at [c0] wrote is finite: R from
       (c0, c0) on, the columns of Q from c0 on when Q is accumulated,
       and b from c0 on. *)
    let finite_from t ~c0 =
      let ok = ref true in
      (* Rows [i0, mrows) and columns [j0, pitch) of a row-major array
         of row pitch [pitch]. *)
      let window ~i0 ~j0 ~pitch finite =
        for i = i0 to t.mrows - 1 do
          for j = j0 to pitch - 1 do
            if not (finite ((i * pitch) + j)) then ok := false
          done
        done
      in
      let r, q, b =
        match t.repr with
        | Flat { rp; qp; bp } -> (finite_el rp, finite_el qp, finite_el bp)
        | Boxed ->
            let el (a : K.t array) idx = K.is_finite a.(idx) in
            (el t.r, el t.q, el t.b)
      in
      window ~i0:c0 ~j0:c0 ~pitch:t.ncols r;
      if t.accumulate_q then window ~i0:0 ~j0:c0 ~pitch:t.mrows q;
      if t.rhs then window ~i0:c0 ~j0:0 ~pitch:1 b;
      !ok

    (* The panel snapshot: R, Q and b as they were before the panel, so
       a replay starts from them again.  [Bigarray.Array1.blit] copies
       a plane whole. *)
    type snapshot = Planes of Nd_flat.fa list | Scalars of K.t array list

    let live_planes { rp; qp; bp } =
      List.concat_map (fun (x : planes) -> Array.to_list x.p) [ rp; qp; bp ]

    let snapshot t =
      match t.repr with
      | Flat res ->
          Planes
            (List.map
               (fun pl ->
                 let saved = Nd_flat.make_plane (Nd_flat.plane_dim pl) in
                 Bigarray.Array1.blit pl saved;
                 saved)
               (live_planes res))
      | Boxed -> Scalars (List.map Array.copy [ t.r; t.q; t.b ])

    let restore t snap =
      match (snap, t.repr) with
      | Planes saved, Flat res ->
          List.iter2 Bigarray.Array1.blit saved (live_planes res)
      | Scalars saved, Boxed ->
          List.iter2
            (fun s d -> Array.blit s 0 d 0 (Array.length s))
            saved [ t.r; t.q; t.b ]
      | _ -> invalid_arg "Flat_kernels.Qr: snapshot from a different path"

    (* Zero the strictly lower part of R's leading [rows] rows, the
       numerically annihilated subdiagonal: R reads upper triangular
       wherever it leaves the factorization. *)
    let clean_lower t ~rows =
      let zero =
        match t.repr with
        | Flat { rp; _ } ->
            fun idx ->
              for pl = 0 to K.width - 1 do
                Nd_flat.set rp.p pl idx 0.0
              done
        | Boxed -> fun idx -> t.r.(idx) <- K.zero
      in
      for i = 1 to rows - 1 do
        for j = 0 to min i t.ncols - 1 do
          zero ((i * t.ncols) + j)
        done
      done

    (* Device -> host, on request ([Blocked_qr.factor], [factor_thin]):
       Q (empty unless accumulated), R and the thin path's Q^H b, as
       fresh host arrays from the planes or the boxed arm's own. *)
    let unstage t =
      clean_lower t ~rows:t.mrows;
      match t.repr with
      | Flat { rp; qp; bp } ->
          let host (x : planes) =
            let a = Array.make (x.rows * x.cols) K.zero in
            unstage x ~store:(fun i j s -> a.((i * x.cols) + j) <- s);
            a
          in
          (host qp, host rp, host bp)
      | Boxed -> (t.q, t.r, t.b)

    (* ---- The hand-off to the back substitution.  The direct solve
       keeps one device state from A to x: the back substitution adopts
       U, R's leading ncols rows (the ncols-by-ncols upper triangle,
       cleaned as [unstage] cleans it), and Q^H b where they lie.
       Unarmed planes are normalized already, so they equal an unstage
       and restage of themselves; a fault-armed factorization may leave
       raw struck words, which that round trip renormalizes, so on an
       armed run [adopt] rewrites every adopted word as the round trip
       would. ---- *)

    (* The leading [rows] rows of [x], in place. *)
    let adopt t (x : planes) ~rows =
      let words = rows * x.cols in
      let v =
        {
          x with
          rows;
          p = Array.map (fun pl -> Bigarray.Array1.sub pl 0 words) x.p;
        }
      in
      if t.fault_armed then
        for i = 0 to words - 1 do
          write_el v i (read_el v i)
        done;
      v

    (* The thin path: Q^H b is the resident b's leading ncols words. *)
    let thin_source t =
      clean_lower t ~rows:t.ncols;
      match t.repr with
      | Flat { rp; bp; _ } ->
          Bs.Staged
            { u = adopt t rp ~rows:t.ncols; b = adopt t bp ~rows:t.ncols }
      | Boxed -> Bs.Host { u = t.r; b = t.b }

    (* The square path: the body of the "Q^T*b" launch over blocks of
       [threads] outputs, Q^H b on the resident Q, and the source it
       fills.  On the planes each output is the transposed matvec's
       clear / ascending mul_add / store, the boxed loop's sequence (a
       real Q has conj = id). *)
    let square_source t ~b ~threads =
      let n = t.ncols in
      clean_lower t ~rows:n;
      match t.repr with
      | Flat { rp; qp; _ } ->
          let qp = adopt t qp ~rows:t.mrows
          and bp = stage_vec ~n:t.mrows ~get:(Array.get b)
          and yp = alloc ~rows:n ~cols:1 in
          ( gemv_t_block ~threads qp bp yp,
            Bs.Staged { u = adopt t rp ~rows:n; b = yp } )
      | Boxed ->
          let qtb = Array.make n K.zero in
          ( (fun blk ->
              let lo = blk * threads in
              for j = lo to min n (lo + threads) - 1 do
                let s = ref K.zero in
                for i = 0 to t.mrows - 1 do
                  s :=
                    K.add !s (K.mul (K.conj t.q.((i * t.mrows) + j)) b.(i))
                done;
                qtb.(j) <- !s
              done),
            Bs.Host { u = t.r; b = qtb } )
  end
end
