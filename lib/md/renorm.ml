(* Renormalization of floating-point expansions.

   A multiple double number with [m] limbs is an unevaluated sum
   [x0 + x1 + ... + x(m-1)] with the limbs sorted by decreasing magnitude
   and pairwise non-overlapping.  The functions here compress a raw sequence
   of doubles (as produced by the arithmetic kernels) back into that
   normal form, generalizing QDlib's renorm and CAMPARY's fast
   renormalization to any number of limbs. *)

(* [renormalize ~m src] compresses the limbs of [src] (roughly decreasing
   magnitude) into a fresh normalized array of [m] limbs.

   First a backward [two_sum] ladder turns [src] into a non-overlapping
   sequence; then a forward pass commits each nonzero error term as the
   next output limb, exactly as QDlib's renorm does with its zero tests.
   With [passes > 1] the backward distillation ladder is repeated, which is
   needed when the input holds many overlapping terms of similar magnitude
   (partial products); one pass suffices for nearly normalized inputs. *)
let renormalize ?(passes = 1) ~m src =
  let n = Array.length src in
  let out = Array.make m 0.0 in
  if n = 0 then out
  else begin
    let t = Array.copy src in
    for _ = 1 to passes do
      let s = ref t.(n - 1) in
      for i = n - 2 downto 0 do
        let hi, lo = Eft.two_sum t.(i) !s in
        s := hi;
        t.(i + 1) <- lo
      done;
      t.(0) <- !s
    done;
    let k = ref 0 in
    let acc = ref t.(0) in
    (let i = ref 1 in
     while !i < n && !k < m do
       let hi, lo = Eft.quick_two_sum !acc t.(!i) in
       if lo <> 0.0 then begin
         out.(!k) <- hi;
         incr k;
         acc := lo
       end
       else acc := hi;
       incr i
     done);
    if !k < m then out.(!k) <- !acc;
    out
  end

(* [renormalize_into ~m src dst off] is [renormalize] writing the limbs at
   offsets [off], [off+1], ... of [dst]; avoids the allocation in hot code. *)
let renormalize_into ~m src dst off =
  let r = renormalize ~m src in
  Array.blit r 0 dst off m

(* [grow e x] exactly adds the double [x] to the expansion [e] (most
   significant limb first), returning the carry that falls off the least
   significant end.  This is Shewchuk's grow-expansion adapted to the
   decreasing-magnitude convention: the result remains an expansion with the
   same number of limbs, plus the returned tail. *)
let grow e x =
  let m = Array.length e in
  let q = ref x in
  for i = m - 1 downto 0 do
    let hi, lo = Eft.two_sum e.(i) !q in
    e.(i) <- hi;
    q := lo
  done;
  !q

(* The two comparison tests of {!heapsort_by_magnitude}.  Only the sign
   of [cmp x y = Float.compare (Float.abs y) (Float.abs x)] is ever
   consumed; NaN orders below everything and equal to itself, as both
   [Float.compare] and the polymorphic compare do on floats. *)
let[@inline] cmp_lt x y =
  (* cmp x y < 0 *)
  let ax = Float.abs x and ay = Float.abs y in
  ay < ax || (ay <> ay && ax = ax)

let[@inline] cmp_gt x y =
  (* cmp x y > 0 *)
  let ax = Float.abs x and ay = Float.abs y in
  ay > ax || (ax <> ax && ay = ay)

(* Index of the largest of up to three sons of [i] in the heap a.(0 .. l-1),
   or [-1 - i] when [i] has no son (the stdlib's [Bottom i] exception). *)
let maxson (a : float array) l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x =
      if cmp_lt (Array.unsafe_get a i31) (Array.unsafe_get a (i31 + 1)) then
        i31 + 1
      else i31
    in
    if cmp_lt (Array.unsafe_get a x) (Array.unsafe_get a (i31 + 2)) then
      i31 + 2
    else x
  end
  else if
    i31 + 1 < l
    && cmp_lt (Array.unsafe_get a i31) (Array.unsafe_get a (i31 + 1))
  then i31 + 1
  else if i31 < l then i31
  else -1 - i

(* [heapsort_by_magnitude a] sorts in place by decreasing absolute value
   with the EXACT permutation of the stdlib [Array.sort] called with
   [fun x y -> compare (Float.abs y) (Float.abs x)]: a field-for-field
   replica of the stdlib ternary heapsort with the comparison inlined on
   floats, its recursive [trickledown]/[bubbledown]/[trickleup] written
   as loops over local cursors so that the sort allocates nothing.  It
   is the fallback of {!sort_by_magnitude} for the inputs whose result
   depends on the permutation, so it must reproduce the stdlib's tie
   order. *)
let heapsort_by_magnitude (a : float array) =
  let l = Array.length a in
  (* Build the heap: trickledown l i a.(i) for each inner node. *)
  for i0 = ((l + 1) / 3) - 1 downto 0 do
    let e = Array.unsafe_get a i0 in
    let i = ref i0 and go = ref true in
    while !go do
      let j = maxson a l !i in
      if j < 0 then begin
        Array.unsafe_set a (-1 - j) e;
        go := false
      end
      else if cmp_gt (Array.unsafe_get a j) e then begin
        Array.unsafe_set a !i (Array.unsafe_get a j);
        i := j
      end
      else begin
        Array.unsafe_set a !i e;
        go := false
      end
    done
  done;
  for n = l - 1 downto 2 do
    let e = Array.unsafe_get a n in
    Array.unsafe_set a n (Array.unsafe_get a 0);
    (* bubbledown n 0: move the hole at the root down to a leaf ... *)
    let i = ref 0 and go = ref true in
    while !go do
      let j = maxson a n !i in
      if j < 0 then go := false
      else begin
        Array.unsafe_set a !i (Array.unsafe_get a j);
        i := j
      end
    done;
    (* ... then trickleup from that leaf with e. *)
    let go = ref true in
    while !go do
      let father = (!i - 1) / 3 in
      if cmp_lt (Array.unsafe_get a father) e then begin
        Array.unsafe_set a !i (Array.unsafe_get a father);
        if father > 0 then i := father
        else begin
          Array.unsafe_set a 0 e;
          go := false
        end
      end
      else begin
        Array.unsafe_set a !i e;
        go := false
      end
    done
  done;
  if l > 1 then begin
    let e = Array.unsafe_get a 1 in
    Array.unsafe_set a 1 (Array.unsafe_get a 0);
    Array.unsafe_set a 0 e
  end

(* [sort_prefix_by_magnitude a n] sorts a.(0 .. n-1) in place by
   decreasing absolute value with a stable insertion sort and returns
   whether the order among them can reach the renormalized bits, in
   which case the sorted prefix must not be used: the caller sorts the
   input by {!heapsort_by_magnitude} instead.

   The product buffers arrive nearly sorted (emitted by increasing order
   i + j), so the insertion sort does the work.  Its result can differ
   from the stdlib order (which defines the products' bits) only among
   elements of equal magnitude, and that difference is invisible after
   [renormalize]:

   - equal magnitude and equal sign means bit-identical values (or the
     zeros below), so swapping them changes nothing;
   - zeros (+0 and -0) always sort to the tail, and the first backward
     two_sum pass of [renormalize] writes +0 into every tail slot and
     carries the last nonzero value x through unchanged (x + -0 = x,
     with error +0), whatever the order and signs of the tail; when every
     element is zero, the carry is -0 after one pass exactly when all
     are -0, and +0 after the second.

   The remaining cases are x next to -x (finite or infinite) and NaN,
   where the order does reach the result.  Each inserted element is
   checked against its new predecessor w (|w| >= |x| once sorted): w and
   x differ although |w| > |x| fails exactly when they are opposite
   nonzero values of one magnitude or a NaN is involved (+0 and -0
   compare equal).  The first member of an equal-magnitude run to carry
   the other sign always lands right behind a member of the first sign,
   and a NaN anywhere meets this test as a key or as the predecessor of
   the second element (so a lone NaN in a one-element prefix goes
   unreported).  Exempting the zeros keeps the fallback off the common
   exact-double operands whose products are half zero. *)
let sort_prefix_by_magnitude (a : float array) n =
  let order_matters = ref false in
  for i = 1 to n - 1 do
    let x = Array.unsafe_get a i in
    let ax = Float.abs x in
    let j = ref (i - 1) in
    while !j >= 0 && Float.abs (Array.unsafe_get a !j) < ax do
      Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
      decr j
    done;
    Array.unsafe_set a (!j + 1) x;
    if !j >= 0 then begin
      let w = Array.unsafe_get a !j in
      if (not (Float.abs w > ax)) && w <> x then order_matters := true
    end
  done;
  !order_matters

(* [sort_by_magnitude ~saved a] sorts [a] in place by decreasing absolute
   value, to order partial products (or merged limbs) before
   [renormalize]; [saved] is scratch of length at least [Array.length a].
   The insertion sort of {!sort_prefix_by_magnitude} runs over the whole
   array; when it reports that the order matters, the input, saved
   before sorting, is restored and sorted by {!heapsort_by_magnitude}. *)
let sort_by_magnitude ~saved (a : float array) =
  let n = Array.length a in
  Array.blit a 0 saved 0 n;
  if sort_prefix_by_magnitude a n then begin
    Array.blit saved 0 a 0 n;
    heapsort_by_magnitude a
  end

(* [merge_by_magnitude a b] merges two arrays that are each already
   sorted by decreasing absolute value (as normalized expansions are)
   into a fresh decreasing array — the O(m) fast path of expansion
   addition. *)
let merge_by_magnitude (a : float array) (b : float array) =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (na + nb) 0.0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < na && !j < nb do
    if Float.abs a.(!i) >= Float.abs b.(!j) then begin
      out.(!k) <- a.(!i);
      incr i
    end
    else begin
      out.(!k) <- b.(!j);
      incr j
    end;
    incr k
  done;
  while !i < na do
    out.(!k) <- a.(!i);
    incr i;
    incr k
  done;
  while !j < nb do
    out.(!k) <- b.(!j);
    incr j;
    incr k
  done;
  out
