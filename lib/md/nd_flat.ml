(* The limb-generic flat kernel plane: allocation-free multiple double
   arithmetic computed directly on staggered limb planes, for any limb
   count m >= 1, behind one first-class dispatch record.

   The generic kernel path executes every operation through a [Scalar.S]
   record, boxing one multiple double value per addition and
   multiplication; at paper-scale dimensions the simulator's hot loops
   are then dominated by GC pressure rather than arithmetic.  The
   engines here keep every intermediate in an unboxed local float or in
   a small preallocated [float array] of a per-block {!ctx}, so the
   per-element loop bodies perform (almost) no allocation at all.

   Plane storage is a [Bigarray.Array1] of float64 per limb ({!fa}):
   flat 8-byte words outside the OCaml heap, read and written through
   [unsafe_get]/[unsafe_set] in the kernel loops (no bounds checks, no
   GC card marking on store), exactly the staggered device layout of
   the paper.  Setting MDLS_FLAT_BOUNDS=1 in the environment turns every
   plane access back into a checked one — the debug path for chasing
   indexing bugs in new kernels.

   Besides the per-element operations, a plan carries two loop-level
   ones, [dot] (one accumulator over a strided run of products) and
   [lanes] (several accumulators, each over its own strided run: the
   whole k loop of a register tile), which every dot-shaped kernel of
   [Flat_kernels] is written against.  At m = 1 and m = 2 a
   multiply-accumulate is a handful of flops, so one indirect call per
   element through this record, the per-access plane lookups and the
   round trip through [ctx.acc] cost about as much as the arithmetic:
   those two engines hand-write the loop, with the planes hoisted out
   of it and the arithmetic inlined.  Like a device thread keeping its
   accumulator in registers for the whole inner product, [lanes] holds
   the accumulators of four lanes at a time in local floats, loaded
   from [ctx.acc] once and stored back once per call, so four
   independent dependency chains overlap; the lanes left over after
   the groups of four run the one-lane loop, which is [dot].  The wider
   engines derive both loops from their own [mul_add] ([with_loops]):
   their arithmetic dwarfs a call.  Either way every accumulator
   replays the per-element [mul_add] sequence, in ascending order, so
   no output bit depends on which form ran.

   Bit-identity is the contract that makes the flat plane safe to
   dispatch on a pure capability check: each engine replays the exact
   floating point operation sequence of the boxed module it mirrors, so
   results agree limb for limb.

   - m = 1 runs the plain double operations of [Float_double.Pre]
     (one rounded multiply, one rounded add, no fused multiply-add).
     The boxed plain double path allocates a float per operation, so
     the unboxed engine pays for its staging like the wider ones do.
   - m = 2 runs the unrolled QDlib sequences of [Double_double]
     (two_sum / quick_two_sum ieee_add, fma-based two_prod).
   - m = 4 runs the QDlib sequences of [Quad_double] (merge by
     decreasing magnitude through a sliding window, three_sum towers).
   - m = 8 runs a specialized engine for octo double: the same
     [Expansion.Pre] results as the generic replay below, but
     monomorphic and straight-line — the 36 partial products of the
     truncated multiplication hand-unrolled into a 79-slot product
     buffer — and doing only the work that can change a bit: an
     all-zero buffer is +0 without sorting, otherwise only its nonzero
     terms are sorted (by the checked insertion sort the boxed path runs,
     [Renorm.sort_prefix_by_magnitude]) and distilled, and a merged sum
     is distilled without its zero tail; ties, NaNs and infinities fall
     back to the whole buffer.
   - every other m >= 3 runs an allocation-free replay of
     [Expansion.Pre]: accurate addition as merge-by-magnitude plus a
     two-pass renormalization, truncated multiplication as the exact
     partial products of order < m plus one guard order, sorted by
     magnitude and distilled — the CAMPARY-style generated arithmetic.
     This is what keeps triple double (m = 3) and hexa double (m = 16)
     on flat execution without hand-written kernels.

   The m = 2 and m = 4 engines cannot be instances of the generic one:
   their boxed counterparts are the specialized QDlib algorithms, which
   produce (correct but) different last-limb bits than the expansion
   algorithms, and bit-identity with the registry path is what the
   dispatchers and the fault plane rely on.  The m = 8 engine IS an
   instance of the expansion algorithms — it exists purely for speed and
   is pinned to the replay engine by the bit-identity suites.  Since the
   boxed and flat products share one insertion sort, those suites also
   pin both against a reference product built on the stdlib sort.  All
   are selected once, at plan resolution, never per kernel operation.

   Concurrency: a {!plan} is immutable and shared freely; a {!ctx} is
   mutable per-block scratch, so each [Sim.launch] block (or test loop)
   allocates its own with [make_ctx] and reuses it across elements. *)

(* ------------------------------------------------------------------ *)
(* Plane storage                                                       *)
(* ------------------------------------------------------------------ *)

type fa = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type planes = fa array

(* The bounds-checked debug path: one immutable global consulted by the
   access wrappers below, so the predictable branch costs nothing in the
   default (unchecked) configuration. *)
let bounds_checked =
  match Sys.getenv_opt "MDLS_FLAT_BOUNDS" with
  | Some ("1" | "true" | "on" | "yes") -> true
  | _ -> false

(* [Bigarray.Array1.create] does not zero its storage; every plane
   allocation goes through here so staged operands start well defined. *)
let make_plane n : fa =
  let a = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout n in
  Bigarray.Array1.fill a 0.0;
  a

let make_planes ~limbs n : planes = Array.init limbs (fun _ -> make_plane n)
let plane_dim (p : fa) = Bigarray.Array1.dim p

let[@inline] get (p : planes) pl i =
  if bounds_checked then Bigarray.Array1.get (Array.get p pl) i
  else Bigarray.Array1.unsafe_get (Array.unsafe_get p pl) i

let[@inline] set (p : planes) pl i v =
  if bounds_checked then Bigarray.Array1.set (Array.get p pl) i v
  else Bigarray.Array1.unsafe_set (Array.unsafe_get p pl) i v

(* One limb plane, and one word of it: what the hand-written loops
   hoist and read, under the same switch as [get]/[set]. *)
let[@inline] plane (p : planes) pl =
  if bounds_checked then Array.get p pl else Array.unsafe_get p pl

let[@inline] word (p : fa) i =
  if bounds_checked then Bigarray.Array1.get p i
  else Bigarray.Array1.unsafe_get p i

(* ------------------------------------------------------------------ *)
(* Scratch and the dispatch record                                     *)
(* ------------------------------------------------------------------ *)

(* Per-block scratch.  One concrete record serves all engines: each
   allocates only the fields its algorithms touch (the rest stay empty),
   and all float state that outlives a call lives in float arrays
   (unboxed storage).  The specialized engines keep their carries and
   cursors in local refs, which the compiler unboxes; the generic replay
   keeps them in [uv] and the mutable ints. *)
type ctx = {
  acc : float array;  (* m: the running accumulator *)
  tmp : float array;  (* m: second operand / write-back scratch *)
  prod : float array; (* m: the last product of a fused mul_add *)
  nb : float array;   (* m: negated operand of a subtraction *)
  abuf : float array; (* addition merge buffer: 2m generic, 4 for qd *)
  pbuf : float array; (* generic partial-product buffer: m^2 + 2m - 1 *)
  psave : float array; (* the sort's saved copy of pbuf, same size *)
  rt : float array;   (* qd renormalization input scratch (clobbered) *)
  out : float array;  (* renormalization output, m (od, generic) *)
  uv : float array;   (* running carry (generic) *)
  mutable mi : int;   (* merge cursor into the first operand (generic) *)
  mutable mj : int;   (* merge cursor into the second operand (generic) *)
  mutable mk : int;   (* next output slot of a merge or emission (generic) *)
}

(* The first-class kernel-ops record.  All operations read operands
   from / write results to staggered planes ([get p limb index]), with
   the running value in [ctx.acc]:

     clear    : acc := 0
     load     : acc := p[i]            store    : p[i] := acc
     add      : acc := acc + p[i]
     mul_set  : acc := a[ia] * b[ib]
     mul_add  : acc := acc + a[ia] * b[ib]
     sub_from : p[i] := p[i] - acc

   and the two loop-level operations, each exactly the loop of
   [mul_add] it names:

     dot c a ia sa b ib sb n    : for t = 0 .. n-1,
                                  c.acc += a[ia + t*sa] * b[ib + t*sb]
     lanes cs a ia sa ka b ib sb kb nl kn
                                : for k = 0 .. kn-1, for l = 0 .. nl-1,
                  cs.(l).acc += a[ia + l*sa + k*ka] * b[ib + l*sb + k*kb]

   so [dot c a ia sa b ib sb n] is [lanes [| c |] a ia 0 sa b ib 0 sb 1 n].

   Argument order mirrors the generic kernel bodies ([K.add acc x],
   [K.sub x acc]) so ties in magnitude merges break identically. *)
type plan = {
  limbs : int;
  make_ctx : unit -> ctx;
  clear : ctx -> unit;
  load : ctx -> planes -> int -> unit;
  store : ctx -> planes -> int -> unit;
  add : ctx -> planes -> int -> unit;
  mul_set : ctx -> planes -> int -> planes -> int -> unit;
  mul_add : ctx -> planes -> int -> planes -> int -> unit;
  sub_from : ctx -> planes -> int -> unit;
  dot : ctx -> planes -> int -> int -> planes -> int -> int -> int -> unit;
  lanes :
    ctx array ->
    planes -> int -> int -> int ->
    planes -> int -> int -> int ->
    int -> int -> unit;
}

let empty = [||]

let[@inline] lane (cs : ctx array) l =
  if bounds_checked then Array.get cs l else Array.unsafe_get cs l

(* The plan of an engine that does not hand-write its loops: [dot] and
   [lanes] are plain loops over its own [mul_add]. *)
let with_loops ~limbs ~make_ctx ~clear ~load ~store ~add ~mul_set ~mul_add
    ~sub_from =
  let dot c a ia sa b ib sb n =
    for t = 0 to n - 1 do
      mul_add c a (ia + (t * sa)) b (ib + (t * sb))
    done
  and lanes cs a ia sa ka b ib sb kb nl kn =
    for k = 0 to kn - 1 do
      let ik = ia + (k * ka) and jk = ib + (k * kb) in
      for l = 0 to nl - 1 do
        mul_add (lane cs l) a (ik + (l * sa)) b (jk + (l * sb))
      done
    done
  in
  { limbs; make_ctx; clear; load; store; add; mul_set; mul_add;
    sub_from; dot; lanes }

(* ------------------------------------------------------------------ *)
(* m = 1: the plain double operations of [Float_double.Pre]            *)
(* ------------------------------------------------------------------ *)

module D = struct
  let make_ctx () =
    {
      acc = Array.make 1 0.0;
      tmp = empty;
      prod = empty;
      nb = empty;
      abuf = empty;
      pbuf = empty;
      psave = empty;
      rt = empty;
      out = empty;
      uv = empty;
      mi = 0;
      mj = 0;
      mk = 0;
    }

  let[@inline] clear c = c.acc.(0) <- 0.0
  let[@inline] load c (p : planes) i = c.acc.(0) <- get p 0 i
  let[@inline] store c (p : planes) i = set p 0 i c.acc.(0)
  let[@inline] add c (p : planes) i = c.acc.(0) <- c.acc.(0) +. get p 0 i

  let[@inline] mul_set c (a : planes) ia (b : planes) ib =
    c.acc.(0) <- get a 0 ia *. get b 0 ib

  (* [K.add acc (K.mul a b)]: two roundings, deliberately not an fma. *)
  let[@inline] mul_add c (a : planes) ia (b : planes) ib =
    c.acc.(0) <- c.acc.(0) +. (get a 0 ia *. get b 0 ib)

  let[@inline] sub_from c (p : planes) i = set p 0 i (get p 0 i -. c.acc.(0))

  let dot c (a : planes) ia sa (b : planes) ib sb n =
    let a0 = plane a 0 and b0 = plane b 0 in
    let s = ref c.acc.(0) in
    for t = 0 to n - 1 do
      s := !s +. (word a0 (ia + (t * sa)) *. word b0 (ib + (t * sb)))
    done;
    c.acc.(0) <- !s

  (* Four lanes at a time, each accumulator in a local float for the
     whole k loop; the lanes left over run [dot]. *)
  let lanes cs (a : planes) ia sa ka (b : planes) ib sb kb nl kn =
    let a0 = plane a 0 and b0 = plane b 0 in
    let sa2 = 2 * sa and sb2 = 2 * sb and sa3 = 3 * sa and sb3 = 3 * sb in
    let g = ref 0 in
    while !g + 4 <= nl do
      let c0 = lane cs !g and c1 = lane cs (!g + 1) in
      let c2 = lane cs (!g + 2) and c3 = lane cs (!g + 3) in
      let ia0 = ia + (!g * sa) and ib0 = ib + (!g * sb) in
      let s0 = ref c0.acc.(0) and s1 = ref c1.acc.(0) in
      let s2 = ref c2.acc.(0) and s3 = ref c3.acc.(0) in
      for k = 0 to kn - 1 do
        let i = ia0 + (k * ka) and j = ib0 + (k * kb) in
        s0 := !s0 +. (word a0 i *. word b0 j);
        s1 := !s1 +. (word a0 (i + sa) *. word b0 (j + sb));
        s2 := !s2 +. (word a0 (i + sa2) *. word b0 (j + sb2));
        s3 := !s3 +. (word a0 (i + sa3) *. word b0 (j + sb3))
      done;
      c0.acc.(0) <- !s0;
      c1.acc.(0) <- !s1;
      c2.acc.(0) <- !s2;
      c3.acc.(0) <- !s3;
      g := !g + 4
    done;
    for l = !g to nl - 1 do
      dot (lane cs l) a (ia + (l * sa)) ka b (ib + (l * sb)) kb kn
    done

  let plan =
    { limbs = 1; make_ctx; clear; load; store; add; mul_set; mul_add;
      sub_from; dot; lanes }
end

(* ------------------------------------------------------------------ *)
(* m = 2: the unrolled QDlib sequences of [Double_double]              *)
(* ------------------------------------------------------------------ *)

module Dd = struct
  let make_ctx () =
    {
      acc = Array.make 2 0.0;
      tmp = empty;
      prod = empty;
      nb = empty;
      abuf = empty;
      pbuf = empty;
      psave = empty;
      rt = empty;
      out = empty;
      uv = empty;
      mi = 0;
      mj = 0;
      mk = 0;
    }

  let[@inline] clear c =
    c.acc.(0) <- 0.0;
    c.acc.(1) <- 0.0

  let[@inline] load c (p : planes) i =
    c.acc.(0) <- get p 0 i;
    c.acc.(1) <- get p 1 i

  let[@inline] store c (p : planes) i =
    set p 0 i c.acc.(0);
    set p 1 i c.acc.(1)

  (* acc := acc + (bhi, blo): the accurate ieee_add of
     [Double_double.Pre.add], fully unrolled (two_sum / two_sum /
     quick_two_sum / quick_two_sum). *)
  let[@inline] add_parts c bhi blo =
    let ahi = c.acc.(0) and alo = c.acc.(1) in
    (* s, e = two_sum ahi bhi *)
    let s = ahi +. bhi in
    let bb = s -. ahi in
    let e = (ahi -. (s -. bb)) +. (bhi -. bb) in
    (* t1, t2 = two_sum alo blo *)
    let t1 = alo +. blo in
    let bb2 = t1 -. alo in
    let t2 = (alo -. (t1 -. bb2)) +. (blo -. bb2) in
    let e = e +. t1 in
    (* s, e = quick_two_sum s e *)
    let s' = s +. e in
    let e' = e -. (s' -. s) in
    let e' = e' +. t2 in
    (* hi, lo = quick_two_sum s' e' *)
    let hi = s' +. e' in
    let lo = e' -. (hi -. s') in
    c.acc.(0) <- hi;
    c.acc.(1) <- lo

  let[@inline] add c (p : planes) i = add_parts c (get p 0 i) (get p 1 i)

  (* acc := a[ia] * b[ib]: [Double_double.Pre.mul], unrolled (two_prod
     via fused multiply-add, cross terms in plain double,
     quick_two_sum). *)
  let[@inline] mul_set c (a : planes) ia (b : planes) ib =
    let ahi = get a 0 ia and alo = get a 1 ia in
    let bhi = get b 0 ib and blo = get b 1 ib in
    let p = ahi *. bhi in
    let e = Float.fma ahi bhi (-.p) in
    let e = e +. ((ahi *. blo) +. (alo *. bhi)) in
    let hi = p +. e in
    let lo = e -. (hi -. p) in
    c.acc.(0) <- hi;
    c.acc.(1) <- lo

  (* acc := acc + (ahi, alo) * (bhi, blo), the fused inner step of
     every dot-shaped kernel; exactly [K.add acc (K.mul a b)]. *)
  let[@inline] mul_add_parts c ahi alo bhi blo =
    let p = ahi *. bhi in
    let e = Float.fma ahi bhi (-.p) in
    let e = e +. ((ahi *. blo) +. (alo *. bhi)) in
    let phi = p +. e in
    let plo = e -. (phi -. p) in
    add_parts c phi plo

  let[@inline] mul_add c (a : planes) ia (b : planes) ib =
    mul_add_parts c (get a 0 ia) (get a 1 ia) (get b 0 ib) (get b 1 ib)

  (* p[i] := p[i] - acc: [Double_double.Pre.sub], unrolled (two_diff
     based, not add-of-negation, to stay bit-identical). *)
  let[@inline] sub_from c (p : planes) i =
    let bhi = c.acc.(0) and blo = c.acc.(1) in
    let ahi = get p 0 i and alo = get p 1 i in
    let d = ahi -. bhi in
    let bb = d -. ahi in
    let e = (ahi -. (d -. bb)) -. (bhi +. bb) in
    let t1 = alo -. blo in
    let bb2 = t1 -. alo in
    let t2 = (alo -. (t1 -. bb2)) -. (blo +. bb2) in
    let e = e +. t1 in
    let s' = d +. e in
    let e' = e -. (s' -. d) in
    let e' = e' +. t2 in
    let hi = s' +. e' in
    let lo = e' -. (hi -. s') in
    set p 0 i hi;
    set p 1 i lo

  (* [mul_add_parts] over a strided run, with the running sum in locals
     instead of [c.acc]: the same product and ieee_add sequences, spelled
     out once more so nothing but the arithmetic stays in the loop. *)
  let dot c (a : planes) ia sa (b : planes) ib sb n =
    let a0 = plane a 0 and a1 = plane a 1 in
    let b0 = plane b 0 and b1 = plane b 1 in
    let acc_hi = ref c.acc.(0) and acc_lo = ref c.acc.(1) in
    for t = 0 to n - 1 do
      let i = ia + (t * sa) and j = ib + (t * sb) in
      let ahi = word a0 i and alo = word a1 i in
      let bhi = word b0 j and blo = word b1 j in
      (* the product (phi, plo) *)
      let p = ahi *. bhi in
      let e = Float.fma ahi bhi (-.p) in
      let e = e +. ((ahi *. blo) +. (alo *. bhi)) in
      let phi = p +. e in
      let plo = e -. (phi -. p) in
      (* acc := acc + (phi, plo), as in [add_parts] *)
      let ahi = !acc_hi and alo = !acc_lo in
      let s = ahi +. phi in
      let bb = s -. ahi in
      let e = (ahi -. (s -. bb)) +. (phi -. bb) in
      let t1 = alo +. plo in
      let bb2 = t1 -. alo in
      let t2 = (alo -. (t1 -. bb2)) +. (plo -. bb2) in
      let e = e +. t1 in
      let s' = s +. e in
      let e' = e -. (s' -. s) in
      let e' = e' +. t2 in
      let hi = s' +. e' in
      acc_hi := hi;
      acc_lo := e' -. (hi -. s')
    done;
    c.acc.(0) <- !acc_hi;
    c.acc.(1) <- !acc_lo

  (* Four lanes at a time, each accumulator's two limbs in local floats
     for the whole k loop (a helper taking the refs would box them), and
     the lanes left over run [dot]. *)
  let lanes cs (a : planes) ia sa ka (b : planes) ib sb kb nl kn =
    let a0 = plane a 0 and a1 = plane a 1 in
    let b0 = plane b 0 and b1 = plane b 1 in
    let g = ref 0 in
    while !g + 4 <= nl do
      let c0 = lane cs !g and c1 = lane cs (!g + 1) in
      let c2 = lane cs (!g + 2) and c3 = lane cs (!g + 3) in
      let ia0 = ia + (!g * sa) and ib0 = ib + (!g * sb) in
      let h0 = ref c0.acc.(0) and l0 = ref c0.acc.(1) in
      let h1 = ref c1.acc.(0) and l1 = ref c1.acc.(1) in
      let h2 = ref c2.acc.(0) and l2 = ref c2.acc.(1) in
      let h3 = ref c3.acc.(0) and l3 = ref c3.acc.(1) in
      for k = 0 to kn - 1 do
        let i0 = ia0 + (k * ka) and j0 = ib0 + (k * kb) in
        let i1 = i0 + sa and j1 = j0 + sb in
        let i2 = i1 + sa and j2 = j1 + sb in
        let i3 = i2 + sa and j3 = j2 + sb in
        (* lane 0: acc := acc + a * b, as in [mul_add_parts] *)
        let ahi = word a0 i0 and alo = word a1 i0 in
        let bhi = word b0 j0 and blo = word b1 j0 in
        let p = ahi *. bhi in
        let e = Float.fma ahi bhi (-.p) in
        let e = e +. ((ahi *. blo) +. (alo *. bhi)) in
        let phi = p +. e in
        let plo = e -. (phi -. p) in
        let ahi = !h0 and alo = !l0 in
        let s = ahi +. phi in
        let bb = s -. ahi in
        let e = (ahi -. (s -. bb)) +. (phi -. bb) in
        let t1 = alo +. plo in
        let bb2 = t1 -. alo in
        let t2 = (alo -. (t1 -. bb2)) +. (plo -. bb2) in
        let e = e +. t1 in
        let s' = s +. e in
        let e' = e -. (s' -. s) in
        let e' = e' +. t2 in
        let hi = s' +. e' in
        h0 := hi;
        l0 := e' -. (hi -. s');
        (* lane 1: acc := acc + a * b, as in [mul_add_parts] *)
        let ahi = word a0 i1 and alo = word a1 i1 in
        let bhi = word b0 j1 and blo = word b1 j1 in
        let p = ahi *. bhi in
        let e = Float.fma ahi bhi (-.p) in
        let e = e +. ((ahi *. blo) +. (alo *. bhi)) in
        let phi = p +. e in
        let plo = e -. (phi -. p) in
        let ahi = !h1 and alo = !l1 in
        let s = ahi +. phi in
        let bb = s -. ahi in
        let e = (ahi -. (s -. bb)) +. (phi -. bb) in
        let t1 = alo +. plo in
        let bb2 = t1 -. alo in
        let t2 = (alo -. (t1 -. bb2)) +. (plo -. bb2) in
        let e = e +. t1 in
        let s' = s +. e in
        let e' = e -. (s' -. s) in
        let e' = e' +. t2 in
        let hi = s' +. e' in
        h1 := hi;
        l1 := e' -. (hi -. s');
        (* lane 2: acc := acc + a * b, as in [mul_add_parts] *)
        let ahi = word a0 i2 and alo = word a1 i2 in
        let bhi = word b0 j2 and blo = word b1 j2 in
        let p = ahi *. bhi in
        let e = Float.fma ahi bhi (-.p) in
        let e = e +. ((ahi *. blo) +. (alo *. bhi)) in
        let phi = p +. e in
        let plo = e -. (phi -. p) in
        let ahi = !h2 and alo = !l2 in
        let s = ahi +. phi in
        let bb = s -. ahi in
        let e = (ahi -. (s -. bb)) +. (phi -. bb) in
        let t1 = alo +. plo in
        let bb2 = t1 -. alo in
        let t2 = (alo -. (t1 -. bb2)) +. (plo -. bb2) in
        let e = e +. t1 in
        let s' = s +. e in
        let e' = e -. (s' -. s) in
        let e' = e' +. t2 in
        let hi = s' +. e' in
        h2 := hi;
        l2 := e' -. (hi -. s');
        (* lane 3: acc := acc + a * b, as in [mul_add_parts] *)
        let ahi = word a0 i3 and alo = word a1 i3 in
        let bhi = word b0 j3 and blo = word b1 j3 in
        let p = ahi *. bhi in
        let e = Float.fma ahi bhi (-.p) in
        let e = e +. ((ahi *. blo) +. (alo *. bhi)) in
        let phi = p +. e in
        let plo = e -. (phi -. p) in
        let ahi = !h3 and alo = !l3 in
        let s = ahi +. phi in
        let bb = s -. ahi in
        let e = (ahi -. (s -. bb)) +. (phi -. bb) in
        let t1 = alo +. plo in
        let bb2 = t1 -. alo in
        let t2 = (alo -. (t1 -. bb2)) +. (plo -. bb2) in
        let e = e +. t1 in
        let s' = s +. e in
        let e' = e -. (s' -. s) in
        let e' = e' +. t2 in
        let hi = s' +. e' in
        h3 := hi;
        l3 := e' -. (hi -. s')
      done;
      c0.acc.(0) <- !h0;
      c0.acc.(1) <- !l0;
      c1.acc.(0) <- !h1;
      c1.acc.(1) <- !l1;
      c2.acc.(0) <- !h2;
      c2.acc.(1) <- !l2;
      c3.acc.(0) <- !h3;
      c3.acc.(1) <- !l3;
      g := !g + 4
    done;
    for l = !g to nl - 1 do
      dot (lane cs l) a (ia + (l * sa)) ka b (ib + (l * sb)) kb kn
    done

  let plan =
    { limbs = 2; make_ctx; clear; load; store; add; mul_set; mul_add;
      sub_from; dot; lanes }
end

(* ------------------------------------------------------------------ *)
(* m = 4: the QDlib sequences of [Quad_double]                         *)
(* ------------------------------------------------------------------ *)

module Qd = struct
  let make_ctx () =
    {
      acc = Array.make 4 0.0;
      tmp = Array.make 4 0.0;
      prod = Array.make 4 0.0;
      nb = Array.make 4 0.0;
      abuf = Array.make 4 0.0;
      pbuf = empty;
      psave = empty;
      rt = Array.make 5 0.0;
      out = empty;
      uv = empty;
      mi = 0;
      mj = 0;
      mk = 0;
    }

  let[@inline] clear4 (s : float array) =
    s.(0) <- 0.0;
    s.(1) <- 0.0;
    s.(2) <- 0.0;
    s.(3) <- 0.0

  let[@inline] load4 (s : float array) (p : planes) i =
    s.(0) <- get p 0 i;
    s.(1) <- get p 1 i;
    s.(2) <- get p 2 i;
    s.(3) <- get p 3 i

  let[@inline] store4 (s : float array) (p : planes) i =
    set p 0 i s.(0);
    set p 1 i s.(1);
    set p 2 i s.(2);
    set p 3 i s.(3)

  (* [renorm c n dst] compresses c.rt.(0 .. n-1) into dst, performing
     exactly the operations of [Renorm.renormalize ~m:4] (single pass),
     with the running carry, the commit accumulator and the cursors in
     local (unboxed) refs.  c.rt is clobbered; dst is zeroed first, as
     the reference does. *)
  let renorm c n (dst : float array) =
    let t = c.rt in
    clear4 dst;
    (* Backward two_sum ladder. *)
    let s = ref t.(n - 1) in
    for i = n - 2 downto 0 do
      let a = t.(i) and b = !s in
      let sum = a +. b in
      let bb = sum -. a in
      t.(i + 1) <- (a -. (sum -. bb)) +. (b -. bb);
      s := sum
    done;
    (* Forward pass: commit each nonzero error as the next output limb. *)
    let acc = ref !s and i = ref 1 and k = ref 0 in
    while !i < n && !k < 4 do
      let a = !acc and b = t.(!i) in
      let sum = a +. b in
      let e = b -. (sum -. a) in
      if e <> 0.0 then begin
        dst.(!k) <- sum;
        incr k;
        acc := e
      end
      else acc := sum;
      incr i
    done;
    if !k < 4 then dst.(!k) <- !acc

  (* [add4 c x y] sets x := x + y (both 4-limb arrays), the accurate
     ieee_add of [Quad_double.Pre.add]: merge the eight limbs by
     decreasing magnitude through a sliding two-term window, then
     renormalize.  The merge cursors, the output cursor and the window
     are local refs; the pops spell out the [next] closure of the boxed
     add (the first two cannot find an operand exhausted). *)
  let add4 c (x : float array) (y : float array) =
    let w = c.abuf in
    clear4 w;
    let i = ref 0 and j = ref 0 and k = ref 0 in
    let u =
      if Float.abs x.(0) > Float.abs y.(0) then begin
        i := 1;
        x.(0)
      end
      else begin
        j := 1;
        y.(0)
      end
    in
    let v =
      if Float.abs x.(!i) > Float.abs y.(!j) then begin
        let t = x.(!i) in
        incr i;
        t
      end
      else begin
        let t = y.(!j) in
        incr j;
        t
      end
    in
    (* u, v := quick_two_sum u v *)
    let s = u +. v in
    let u = ref s and v = ref (v -. (s -. u)) in
    let exhausted = ref false in
    while (not !exhausted) && !k < 4 do
      if !i >= 4 && !j >= 4 then begin
        w.(!k) <- !u;
        if !k < 3 then w.(!k + 1) <- !v;
        exhausted := true
      end
      else begin
        let t =
          if !i >= 4 then begin
            let t = y.(!j) in
            incr j;
            t
          end
          else if !j >= 4 || Float.abs x.(!i) > Float.abs y.(!j) then begin
            let t = x.(!i) in
            incr i;
            t
          end
          else begin
            let t = y.(!j) in
            incr j;
            t
          end
        in
        (* s, u', v' = quick_three_accum u v t *)
        let u0 = !u and v0 = !v in
        let s1 = v0 +. t in
        let bb1 = s1 -. v0 in
        let v' = (v0 -. (s1 -. bb1)) +. (t -. bb1) in
        let s2 = u0 +. s1 in
        let bb2 = s2 -. u0 in
        let u' = (u0 -. (s2 -. bb2)) +. (s1 -. bb2) in
        let za = u' <> 0.0 and zb = v' <> 0.0 in
        if za && zb then begin
          u := u';
          v := v';
          (* s2 is the next output limb (when nonzero) *)
          if s2 <> 0.0 then begin
            w.(!k) <- s2;
            incr k
          end
        end
        else begin
          u := s2;
          v := if not zb then u' else v'
        end
      end
    done;
    if not !exhausted then begin
      (* All four output slots filled: sweep the leftovers into the
         tail. *)
      let tail = ref 0.0 in
      for k = !i to 3 do
        tail := !tail +. x.(k)
      done;
      for k = !j to 3 do
        tail := !tail +. y.(k)
      done;
      w.(3) <- w.(3) +. !tail +. !u +. !v
    end;
    (* renorm4 w into x *)
    let rt = c.rt in
    rt.(0) <- w.(0);
    rt.(1) <- w.(1);
    rt.(2) <- w.(2);
    rt.(3) <- w.(3);
    renorm c 4 x

  (* [sub4 c x y] sets x := x - y, as [Quad_double.Pre.sub] does: the
     accurate addition of the negation. *)
  let sub4 c (x : float array) (y : float array) =
    let nb = c.nb in
    nb.(0) <- -.y.(0);
    nb.(1) <- -.y.(1);
    nb.(2) <- -.y.(2);
    nb.(3) <- -.y.(3);
    add4 c x nb

  (* [mul4 c dst a ia b ib] sets dst := a[ia] * b[ib]: the accurate
     multiplication of [Quad_double.Pre.mul], all partial products of
     order < 4 with their two_prod errors, order-4 terms folded in plain
     double, then the final renormalization of the five-term result. *)
  let mul4 c (dst : float array) (a : planes) ia (b : planes) ib =
    let a0 = get a 0 ia
    and a1 = get a 1 ia
    and a2 = get a 2 ia
    and a3 = get a 3 ia in
    let b0 = get b 0 ib
    and b1 = get b 1 ib
    and b2 = get b 2 ib
    and b3 = get b 3 ib in
    (* p, q = two_prod for every partial product of order < 3. *)
    let p0 = a0 *. b0 in
    let q0 = Float.fma a0 b0 (-.p0) in
    let p1 = a0 *. b1 in
    let q1 = Float.fma a0 b1 (-.p1) in
    let p2 = a1 *. b0 in
    let q2 = Float.fma a1 b0 (-.p2) in
    let p3 = a0 *. b2 in
    let q3 = Float.fma a0 b2 (-.p3) in
    let p4 = a1 *. b1 in
    let q4 = Float.fma a1 b1 (-.p4) in
    let p5 = a2 *. b0 in
    let q5 = Float.fma a2 b0 (-.p5) in
    (* p1, p2, q0 = three_sum p1 p2 q0 *)
    let t1 = p1 +. p2 in
    let bb = t1 -. p1 in
    let t2 = (p1 -. (t1 -. bb)) +. (p2 -. bb) in
    let s0 = q0 +. t1 in
    let bb = s0 -. q0 in
    let t3 = (q0 -. (s0 -. bb)) +. (t1 -. bb) in
    let s1 = t2 +. t3 in
    let bb = s1 -. t2 in
    let s2 = (t2 -. (s1 -. bb)) +. (t3 -. bb) in
    let p1 = s0 and p2 = s1 and q0 = s2 in
    (* p2, q1, q2 = three_sum p2 q1 q2 *)
    let t1 = p2 +. q1 in
    let bb = t1 -. p2 in
    let t2 = (p2 -. (t1 -. bb)) +. (q1 -. bb) in
    let s0 = q2 +. t1 in
    let bb = s0 -. q2 in
    let t3 = (q2 -. (s0 -. bb)) +. (t1 -. bb) in
    let s1 = t2 +. t3 in
    let bb = s1 -. t2 in
    let s2 = (t2 -. (s1 -. bb)) +. (t3 -. bb) in
    let p2 = s0 and q1 = s1 and q2 = s2 in
    (* p3, p4, p5 = three_sum p3 p4 p5 *)
    let t1 = p3 +. p4 in
    let bb = t1 -. p3 in
    let t2 = (p3 -. (t1 -. bb)) +. (p4 -. bb) in
    let s0 = p5 +. t1 in
    let bb = s0 -. p5 in
    let t3 = (p5 -. (s0 -. bb)) +. (t1 -. bb) in
    let s1 = t2 +. t3 in
    let bb = s1 -. t2 in
    let s2 = (t2 -. (s1 -. bb)) +. (t3 -. bb) in
    let p3 = s0 and p4 = s1 and p5 = s2 in
    (* (s0, s1, s2) = (p2, q1, q2) + (p3, p4, p5) *)
    let s0 = p2 +. p3 in
    let bb = s0 -. p2 in
    let t0 = (p2 -. (s0 -. bb)) +. (p3 -. bb) in
    let s1 = q1 +. p4 in
    let bb = s1 -. q1 in
    let t1 = (q1 -. (s1 -. bb)) +. (p4 -. bb) in
    let s2 = q2 +. p5 in
    let s1' = s1 +. t0 in
    let bb = s1' -. s1 in
    let t0' = (s1 -. (s1' -. bb)) +. (t0 -. bb) in
    let s1 = s1' and t0 = t0' in
    let s2 = s2 +. t0 +. t1 in
    (* O(eps^3) terms. *)
    let p6 = a0 *. b3 in
    let q6 = Float.fma a0 b3 (-.p6) in
    let p7 = a1 *. b2 in
    let q7 = Float.fma a1 b2 (-.p7) in
    let p8 = a2 *. b1 in
    let q8 = Float.fma a2 b1 (-.p8) in
    let p9 = a3 *. b0 in
    let q9 = Float.fma a3 b0 (-.p9) in
    (* Nine-two sum of q0, s1, q3, q4, q5, p6, p7, p8, p9. *)
    let u = q0 +. q3 in
    let bb = u -. q0 in
    let q3' = (q0 -. (u -. bb)) +. (q3 -. bb) in
    let q0 = u and q3 = q3' in
    let u = q4 +. q5 in
    let bb = u -. q4 in
    let q5' = (q4 -. (u -. bb)) +. (q5 -. bb) in
    let q4 = u and q5 = q5' in
    let u = p6 +. p7 in
    let bb = u -. p6 in
    let p7' = (p6 -. (u -. bb)) +. (p7 -. bb) in
    let p6 = u and p7 = p7' in
    let u = p8 +. p9 in
    let bb = u -. p8 in
    let p9' = (p8 -. (u -. bb)) +. (p9 -. bb) in
    let p8 = u and p9 = p9' in
    let t0'' = q0 +. q4 in
    let bb = t0'' -. q0 in
    let t1'' = (q0 -. (t0'' -. bb)) +. (q4 -. bb) in
    let t0 = t0'' and t1 = t1'' in
    let t1 = t1 +. q3 +. q5 in
    let r0 = p6 +. p8 in
    let bb = r0 -. p6 in
    let r1 = (p6 -. (r0 -. bb)) +. (p8 -. bb) in
    let r1 = r1 +. p7 +. p9 in
    let q3 = t0 +. r0 in
    let bb = q3 -. t0 in
    let q4 = (t0 -. (q3 -. bb)) +. (r0 -. bb) in
    let q4 = q4 +. t1 +. r1 in
    let t0 = q3 +. s1 in
    let bb = t0 -. q3 in
    let t1 = (q3 -. (t0 -. bb)) +. (s1 -. bb) in
    let t1 = t1 +. q4 in
    (* O(eps^4) terms. *)
    let t1 =
      t1 +. (a1 *. b3) +. (a2 *. b2) +. (a3 *. b1) +. q6 +. q7 +. q8 +. q9
      +. s2
    in
    let rt = c.rt in
    rt.(0) <- p0;
    rt.(1) <- p1;
    rt.(2) <- s0;
    rt.(3) <- t0;
    rt.(4) <- t1;
    renorm c 5 dst

  let clear c = clear4 c.acc
  let load c p i = load4 c.acc p i
  let store c p i = store4 c.acc p i

  (* acc := acc + p[i], exactly [K.add acc x]. *)
  let add c p i =
    load4 c.tmp p i;
    add4 c c.acc c.tmp

  let mul_set c a ia b ib = mul4 c c.acc a ia b ib

  (* acc := acc + a[ia] * b[ib], exactly [K.add acc (K.mul a b)]. *)
  let mul_add c a ia b ib =
    mul4 c c.prod a ia b ib;
    add4 c c.acc c.prod

  (* p[i] := p[i] - acc, exactly [K.sub x acc]. *)
  let sub_from c p i =
    load4 c.tmp p i;
    sub4 c c.tmp c.acc;
    store4 c.tmp p i

  let plan =
    with_loops ~limbs:4 ~make_ctx ~clear ~load ~store ~add ~mul_set ~mul_add
      ~sub_from
end

(* ------------------------------------------------------------------ *)
(* m = 8: the specialized octo double engine                           *)
(* ------------------------------------------------------------------ *)

(* Octo double is the precision where flat execution should pay off the
   most — the paper's cost-of-arithmetic-to-memory ratio peaks at 8
   limbs.  This engine computes the SAME results as [Expansion.Pre] (so
   the bit-identity suites pin it against [Octo_double]) with everything
   monomorphic: the 36 partial products hand-unrolled into straight-line
   fma code, the merge and renormalization ladders over fixed-size
   scratch with unchecked accesses and their carries in registers.  It
   skips the work that cannot change a bit.  Operands with zero limbs
   (single doubles, the identity Q starts from) leave most of the
   79-slot product buffer zero, and the zeros sort last and pass through
   both distillation passes as +0: an all-zero buffer is +0 outright,
   and otherwise the nonzero terms, compacted in emission order, are
   sorted by the checked insertion sort of the boxed path
   ([Renorm.sort_prefix_by_magnitude]) and distilled alone.  When the
   sort reports that the order matters (ties or NaN), or the distilled
   result is not finite, the whole buffer in emission order is sorted
   into the stdlib's order and distilled, as the boxed product does.
   Sums trim the zero tail of their merge the same way. *)
module Od = struct
  (* m^2 + 2m - 1 at m = 8: 36 two_prod pairs + 7 guard products. *)
  let pcount8 = 79

  let make_ctx () =
    {
      acc = Array.make 8 0.0;
      tmp = Array.make 8 0.0;
      prod = Array.make 8 0.0;
      nb = Array.make 8 0.0;
      abuf = Array.make 16 0.0;
      pbuf = Array.make pcount8 0.0;
      psave = Array.make pcount8 0.0;
      rt = empty;
      out = Array.make 8 0.0;
      uv = empty;
      mi = 0;
      mj = 0;
      mk = 0;
    }

  let[@inline] clear c =
    let a = c.acc in
    Array.unsafe_set a 0 0.0;
    Array.unsafe_set a 1 0.0;
    Array.unsafe_set a 2 0.0;
    Array.unsafe_set a 3 0.0;
    Array.unsafe_set a 4 0.0;
    Array.unsafe_set a 5 0.0;
    Array.unsafe_set a 6 0.0;
    Array.unsafe_set a 7 0.0

  let[@inline] load8 (s : float array) (p : planes) i =
    Array.unsafe_set s 0 (get p 0 i);
    Array.unsafe_set s 1 (get p 1 i);
    Array.unsafe_set s 2 (get p 2 i);
    Array.unsafe_set s 3 (get p 3 i);
    Array.unsafe_set s 4 (get p 4 i);
    Array.unsafe_set s 5 (get p 5 i);
    Array.unsafe_set s 6 (get p 6 i);
    Array.unsafe_set s 7 (get p 7 i)

  let[@inline] store8 (s : float array) (p : planes) i =
    set p 0 i (Array.unsafe_get s 0);
    set p 1 i (Array.unsafe_get s 1);
    set p 2 i (Array.unsafe_get s 2);
    set p 3 i (Array.unsafe_get s 3);
    set p 4 i (Array.unsafe_get s 4);
    set p 5 i (Array.unsafe_get s 5);
    set p 6 i (Array.unsafe_get s 6);
    set p 7 i (Array.unsafe_get s 7)

  let load c p i = load8 c.acc p i
  let store c p i = store8 c.acc p i

  let[@inline] zero8 (s : float array) =
    Array.unsafe_set s 0 0.0;
    Array.unsafe_set s 1 0.0;
    Array.unsafe_set s 2 0.0;
    Array.unsafe_set s 3 0.0;
    Array.unsafe_set s 4 0.0;
    Array.unsafe_set s 5 0.0;
    Array.unsafe_set s 6 0.0;
    Array.unsafe_set s 7 0.0

  (* [distill8 c buf n]: [Renorm.renormalize ~passes:2 ~m:8] over
     buf.(0 .. n-1), n >= 1, into c.out — the operation sequence of
     [Gen.renorm_into] at m = 8, monomorphic, with the running carry, the
     commit accumulator and the cursors in local (unboxed) refs.  buf is
     clobbered.

     The callers trim the zeros off the end of a sorted or merged buffer
     first.  That changes no bit while every value stays finite: a zero
     tail only carries +-0 into the last nonzero term x (x + -0 = x, with
     error +0) on the first pass and +0 on the second, and a two_sum
     error, hence every term but the first after a pass, is never -0;
     so the trimmed prefix distills exactly as in the full buffer, and
     the commit pass over the remaining +0 slots commits nothing and
     leaves its (never -0) accumulator as it is.  An infinity or NaN
     among the terms, or an overflow in the ladders, makes out.(0)
     non-finite (non-finite values absorb every later carry), and the
     callers then redo the distillation over the whole buffer. *)
  let distill8 c (buf : float array) n =
    for _pass = 1 to 2 do
      let s = ref (Array.unsafe_get buf (n - 1)) in
      for i = n - 2 downto 0 do
        let a = Array.unsafe_get buf i and b = !s in
        let t = a +. b in
        let bb = t -. a in
        Array.unsafe_set buf (i + 1) ((a -. (t -. bb)) +. (b -. bb));
        s := t
      done;
      Array.unsafe_set buf 0 !s
    done;
    let out = c.out in
    zero8 out;
    let acc = ref (Array.unsafe_get buf 0) and i = ref 1 and k = ref 0 in
    while !i < n && !k < 8 do
      let a = !acc and b = Array.unsafe_get buf !i in
      let s = a +. b in
      let e = b -. (s -. a) in
      if e <> 0.0 then begin
        Array.unsafe_set out !k s;
        incr k;
        acc := e
      end
      else acc := s;
      incr i
    done;
    if !k < 8 then Array.unsafe_set out !k !acc

  let[@inline] finite_out c = Float.is_finite (Array.unsafe_get c.out 0)

  let[@inline] blit_out8 c (dst : float array) =
    let o = c.out in
    Array.unsafe_set dst 0 (Array.unsafe_get o 0);
    Array.unsafe_set dst 1 (Array.unsafe_get o 1);
    Array.unsafe_set dst 2 (Array.unsafe_get o 2);
    Array.unsafe_set dst 3 (Array.unsafe_get o 3);
    Array.unsafe_set dst 4 (Array.unsafe_get o 4);
    Array.unsafe_set dst 5 (Array.unsafe_get o 5);
    Array.unsafe_set dst 6 (Array.unsafe_get o 6);
    Array.unsafe_set dst 7 (Array.unsafe_get o 7)

  (* [merge8 w x y]: [Renorm.merge_by_magnitude] of x and y (both
     8-limb) into w.(0 .. 15) (ties break on [>=], first operand wins, as
     in the boxed merge); returns the length of w without its zero tail. *)
  let merge8 (w : float array) (x : float array) (y : float array) =
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < 8 && !j < 8 do
      let a = Array.unsafe_get x !i and b = Array.unsafe_get y !j in
      if Float.abs a >= Float.abs b then begin
        Array.unsafe_set w !k a;
        incr i
      end
      else begin
        Array.unsafe_set w !k b;
        incr j
      end;
      incr k
    done;
    while !i < 8 do
      Array.unsafe_set w !k (Array.unsafe_get x !i);
      incr i;
      incr k
    done;
    while !j < 8 do
      Array.unsafe_set w !k (Array.unsafe_get y !j);
      incr j;
      incr k
    done;
    let n = ref 16 in
    while !n > 0 && Array.unsafe_get w (!n - 1) = 0.0 do
      decr n
    done;
    !n

  (* [add_arrays8 c x y]: x := x + y (both 8-limb, normalized hence
     magnitude-sorted): the merge followed by the two-pass
     renormalization — exactly [Expansion.Pre.add] at m = 8.  An all-zero
     merge distills to +0 in every limb (after two passes every slot is
     +0); a non-finite result of the trimmed merge is redone in full. *)
  let add_arrays8 c (x : float array) (y : float array) =
    let w = c.abuf in
    let n = merge8 w x y in
    if n = 0 then zero8 c.out
    else begin
      distill8 c w n;
      if n < 16 && not (finite_out c) then begin
        ignore (merge8 w x y);
        distill8 c w 16
      end
    end;
    blit_out8 c x

  (* Whether x is zero (either sign, every limb) and y finite: then every
     partial product and its error is a zero, and the product is +0. *)
  let[@inline] zero_times_finite x0 x1 x2 x3 x4 x5 x6 x7 y0 y1 y2 y3 y4 y5
      y6 y7 =
    x0 = 0.0 && x1 = 0.0 && x2 = 0.0 && x3 = 0.0 && x4 = 0.0 && x5 = 0.0
    && x6 = 0.0 && x7 = 0.0 && Float.is_finite y0 && Float.is_finite y1
    && Float.is_finite y2 && Float.is_finite y3 && Float.is_finite y4
    && Float.is_finite y5 && Float.is_finite y6 && Float.is_finite y7

  (* One exact partial product into slots k, k+1 of the buffer. *)
  let[@inline] pp (u : float array) k x y =
    let p = x *. y in
    Array.unsafe_set u k p;
    Array.unsafe_set u (k + 1) (Float.fma x y (-.p))

  (* [mul8 c dst a ia b ib]: dst := a[ia] * b[ib], exactly
     [Expansion.Pre.mul] at m = 8 — the partial products emitted by
     increasing order o = i + j (each split by fma two_prod), one guard
     order of plain products, sorted by decreasing magnitude and
     distilled in two passes.  The emission is fully unrolled with
     static buffer slots; the slot order is the boxed loop's. *)
  let mul8 c (dst : float array) (a : planes) ia (b : planes) ib =
    let a0 = get a 0 ia
    and a1 = get a 1 ia
    and a2 = get a 2 ia
    and a3 = get a 3 ia
    and a4 = get a 4 ia
    and a5 = get a 5 ia
    and a6 = get a 6 ia
    and a7 = get a 7 ia in
    let b0 = get b 0 ib
    and b1 = get b 1 ib
    and b2 = get b 2 ib
    and b3 = get b 3 ib
    and b4 = get b 4 ib
    and b5 = get b 5 ib
    and b6 = get b 6 ib
    and b7 = get b 7 ib in
    if
      zero_times_finite a0 a1 a2 a3 a4 a5 a6 a7 b0 b1 b2 b3 b4 b5 b6 b7
      || zero_times_finite b0 b1 b2 b3 b4 b5 b6 b7 a0 a1 a2 a3 a4 a5 a6 a7
    then zero8 c.out
    else begin
      let u = c.pbuf in
      (* order 0 *)
      pp u 0 a0 b0;
      (* order 1 *)
      pp u 2 a0 b1;
      pp u 4 a1 b0;
      (* order 2 *)
      pp u 6 a0 b2;
      pp u 8 a1 b1;
      pp u 10 a2 b0;
      (* order 3 *)
      pp u 12 a0 b3;
      pp u 14 a1 b2;
      pp u 16 a2 b1;
      pp u 18 a3 b0;
      (* order 4 *)
      pp u 20 a0 b4;
      pp u 22 a1 b3;
      pp u 24 a2 b2;
      pp u 26 a3 b1;
      pp u 28 a4 b0;
      (* order 5 *)
      pp u 30 a0 b5;
      pp u 32 a1 b4;
      pp u 34 a2 b3;
      pp u 36 a3 b2;
      pp u 38 a4 b1;
      pp u 40 a5 b0;
      (* order 6 *)
      pp u 42 a0 b6;
      pp u 44 a1 b5;
      pp u 46 a2 b4;
      pp u 48 a3 b3;
      pp u 50 a4 b2;
      pp u 52 a5 b1;
      pp u 54 a6 b0;
      (* order 7 *)
      pp u 56 a0 b7;
      pp u 58 a1 b6;
      pp u 60 a2 b5;
      pp u 62 a3 b4;
      pp u 64 a4 b3;
      pp u 66 a5 b2;
      pp u 68 a6 b1;
      pp u 70 a7 b0;
      (* the guard order, plain products at i + j = 8 *)
      Array.unsafe_set u 72 (a1 *. b7);
      Array.unsafe_set u 73 (a2 *. b6);
      Array.unsafe_set u 74 (a3 *. b5);
      Array.unsafe_set u 75 (a4 *. b4);
      Array.unsafe_set u 76 (a5 *. b3);
      Array.unsafe_set u 77 (a6 *. b2);
      Array.unsafe_set u 78 (a7 *. b1);
      (* Sort and distill the nonzero terms alone, compacted into c.psave
         in emission order; u keeps the emission for the fallback. *)
      let v = c.psave in
      let n = ref 0 in
      for k = 0 to pcount8 - 1 do
        let x = Array.unsafe_get u k in
        Array.unsafe_set v !n x;
        n := !n + Bool.to_int (x <> 0.0)
      done;
      let n = !n in
      if n = 0 then zero8 c.out
      else begin
        let order_matters = Renorm.sort_prefix_by_magnitude v n in
        if not order_matters then distill8 c v n;
        if order_matters || not (finite_out c) then begin
          Renorm.heapsort_by_magnitude u;
          distill8 c u pcount8
        end
      end
    end;
    blit_out8 c dst

  (* acc := acc + p[i], exactly [K.add acc x]. *)
  let add c (p : planes) i =
    load8 c.tmp p i;
    add_arrays8 c c.acc c.tmp

  let mul_set c a ia b ib = mul8 c c.acc a ia b ib

  (* acc := acc + a[ia] * b[ib], exactly [K.add acc (K.mul a b)]. *)
  let mul_add c a ia b ib =
    mul8 c c.prod a ia b ib;
    add_arrays8 c c.acc c.prod

  (* p[i] := p[i] - acc, exactly [K.sub x acc] = add x (neg acc). *)
  let sub_from c (p : planes) i =
    let t = c.tmp and nb = c.nb and a = c.acc in
    load8 t p i;
    Array.unsafe_set nb 0 (-.Array.unsafe_get a 0);
    Array.unsafe_set nb 1 (-.Array.unsafe_get a 1);
    Array.unsafe_set nb 2 (-.Array.unsafe_get a 2);
    Array.unsafe_set nb 3 (-.Array.unsafe_get a 3);
    Array.unsafe_set nb 4 (-.Array.unsafe_get a 4);
    Array.unsafe_set nb 5 (-.Array.unsafe_get a 5);
    Array.unsafe_set nb 6 (-.Array.unsafe_get a 6);
    Array.unsafe_set nb 7 (-.Array.unsafe_get a 7);
    add_arrays8 c c.tmp c.nb;
    store8 c.tmp p i

  let plan =
    with_loops ~limbs:8 ~make_ctx ~clear ~load ~store ~add ~mul_set ~mul_add
      ~sub_from
end

(* ------------------------------------------------------------------ *)
(* Any other m >= 3: allocation-free replay of [Expansion.Pre]         *)
(* ------------------------------------------------------------------ *)

module Gen = struct
  (* Size of the truncated-product buffer of [Expansion.Pre.mul]: two
     doubles per exact partial product of order < m, one per guard term
     of order m. *)
  let pcount m = (m * m) + (2 * m) - 1

  let make_ctx m () =
    {
      acc = Array.make m 0.0;
      tmp = Array.make m 0.0;
      prod = Array.make m 0.0;
      nb = Array.make m 0.0;
      abuf = Array.make (2 * m) 0.0;
      pbuf = Array.make (pcount m) 0.0;
      psave = Array.make (pcount m) 0.0;
      rt = empty;
      out = Array.make m 0.0;
      uv = Array.make 1 0.0;
      mi = 0;
      mj = 0;
      mk = 0;
    }

  (* [renorm_into c buf n m passes] is [Renorm.renormalize ~passes ~m]
     over buf.(0 .. n-1), writing c.out; buf is clobbered.  Same
     backward two_sum ladder(s), same forward quick_two_sum commit with
     the same zero tests, with the running carry in c.uv.(0) instead of
     a ref. *)
  let renorm_into c (buf : float array) n m passes =
    for _ = 1 to passes do
      c.uv.(0) <- buf.(n - 1);
      for i = n - 2 downto 0 do
        let a = buf.(i) and b = c.uv.(0) in
        let s = a +. b in
        let bb = s -. a in
        let e = (a -. (s -. bb)) +. (b -. bb) in
        c.uv.(0) <- s;
        buf.(i + 1) <- e
      done;
      buf.(0) <- c.uv.(0)
    done;
    for k = 0 to m - 1 do
      c.out.(k) <- 0.0
    done;
    c.mi <- 1;
    c.mk <- 0;
    c.uv.(0) <- buf.(0);
    while c.mi < n && c.mk < m do
      let a = c.uv.(0) and b = buf.(c.mi) in
      let s = a +. b in
      let e = b -. (s -. a) in
      if e <> 0.0 then begin
        c.out.(c.mk) <- s;
        c.mk <- c.mk + 1;
        c.uv.(0) <- e
      end
      else c.uv.(0) <- s;
      c.mi <- c.mi + 1
    done;
    if c.mk < m then c.out.(c.mk) <- c.uv.(0)

  (* [add_arrays c m x y] sets x := x + y (both m-limb, normalized hence
     magnitude-sorted): [Renorm.merge_by_magnitude] into c.abuf followed
     by the two-pass renormalization — exactly [Expansion.Pre.add]. *)
  let add_arrays c m (x : float array) (y : float array) =
    let w = c.abuf in
    c.mi <- 0;
    c.mj <- 0;
    c.mk <- 0;
    while c.mi < m && c.mj < m do
      if Float.abs x.(c.mi) >= Float.abs y.(c.mj) then begin
        w.(c.mk) <- x.(c.mi);
        c.mi <- c.mi + 1
      end
      else begin
        w.(c.mk) <- y.(c.mj);
        c.mj <- c.mj + 1
      end;
      c.mk <- c.mk + 1
    done;
    while c.mi < m do
      w.(c.mk) <- x.(c.mi);
      c.mi <- c.mi + 1;
      c.mk <- c.mk + 1
    done;
    while c.mj < m do
      w.(c.mk) <- y.(c.mj);
      c.mj <- c.mj + 1;
      c.mk <- c.mk + 1
    done;
    renorm_into c w (2 * m) m 2;
    Array.blit c.out 0 x 0 m

  (* [mul_into c m dst a ia b ib]: dst := a[ia] * b[ib], exactly
     [Expansion.Pre.mul] — partial products emitted by increasing order
     (each order-< m product split by fma two_prod), one guard order of
     plain products, sorted by decreasing magnitude, distilled in two
     passes.  The sort runs on the exact-sized buffer, as in the boxed
     path, so a tie fallback sees the same input. *)
  let mul_into c m (dst : float array) (a : planes) ia (b : planes) ib =
    let buf = c.pbuf in
    c.mk <- 0;
    for o = 0 to m - 1 do
      for i = 0 to o do
        let j = o - i in
        let x = get a i ia and y = get b j ib in
        let p = x *. y in
        let e = Float.fma x y (-.p) in
        buf.(c.mk) <- p;
        c.mk <- c.mk + 1;
        buf.(c.mk) <- e;
        c.mk <- c.mk + 1
      done
    done;
    for i = 1 to m - 1 do
      buf.(c.mk) <- get a i ia *. get b (m - i) ib;
      c.mk <- c.mk + 1
    done;
    Renorm.sort_by_magnitude ~saved:c.psave buf;
    renorm_into c buf (pcount m) m 2;
    Array.blit c.out 0 dst 0 m

  let clear c =
    let a = c.acc in
    for k = 0 to Array.length a - 1 do
      a.(k) <- 0.0
    done

  let load m c (p : planes) i =
    for pl = 0 to m - 1 do
      c.acc.(pl) <- get p pl i
    done

  let store m c (p : planes) i =
    for pl = 0 to m - 1 do
      set p pl i c.acc.(pl)
    done

  (* acc := acc + p[i], exactly [K.add acc x]. *)
  let add m c (p : planes) i =
    for pl = 0 to m - 1 do
      c.tmp.(pl) <- get p pl i
    done;
    add_arrays c m c.acc c.tmp

  let mul_set m c a ia b ib = mul_into c m c.acc a ia b ib

  (* acc := acc + a[ia] * b[ib], exactly [K.add acc (K.mul a b)]. *)
  let mul_add m c a ia b ib =
    mul_into c m c.prod a ia b ib;
    add_arrays c m c.acc c.prod

  (* p[i] := p[i] - acc, exactly [K.sub x acc] = add x (neg acc). *)
  let sub_from m c (p : planes) i =
    for pl = 0 to m - 1 do
      c.tmp.(pl) <- get p pl i;
      c.nb.(pl) <- -.c.acc.(pl)
    done;
    add_arrays c m c.tmp c.nb;
    for pl = 0 to m - 1 do
      set p pl i c.tmp.(pl)
    done

  let plan m =
    with_loops ~limbs:m ~make_ctx:(make_ctx m) ~clear ~load:(load m)
      ~store:(store m) ~add:(add m) ~mul_set:(mul_set m) ~mul_add:(mul_add m)
      ~sub_from:(sub_from m)
end

(* ------------------------------------------------------------------ *)
(* The single dispatch point                                           *)
(* ------------------------------------------------------------------ *)

let supported m = m >= 1

let plan ~limbs =
  if limbs = 1 then Some D.plan
  else if limbs = 2 then Some Dd.plan
  else if limbs = 4 then Some Qd.plan
  else if limbs = 8 then Some Od.plan
  else if supported limbs then Some (Gen.plan limbs)
  else None
