(* Generic multiple double arithmetic on [m]-limb expansions, in the style
   of the code the CAMPARY software generates for an arbitrary number of
   limbs.  [Octo_double] instantiates this functor at m = 8; the test suite
   also instantiates it at m = 2 and m = 4 to cross-check the specialized
   [Double_double] and [Quad_double] implementations limb by limb. *)

module type SIZE = sig
  val limbs : int
  val name : string
end

module Pre (Z : SIZE) = struct
  type t = float array

  let limbs = Z.limbs
  let name = Z.name
  let zero = Array.make limbs 0.0

  let one =
    let a = Array.make limbs 0.0 in
    a.(0) <- 1.0;
    a

  let of_float x =
    let a = Array.make limbs 0.0 in
    a.(0) <- x;
    a

  let to_float (x : t) = x.(0)
  let of_limbs a = Renorm.renormalize ~m:limbs a
  let of_limbs_exact (a : float array) : t = Array.copy a
  let to_limbs (x : t) = Array.copy x
  let blit_limbs (x : t) (dst : float array) off = Array.blit x 0 dst off limbs

  (* Addition merges the 2m limbs by decreasing magnitude and distills
     them back to m limbs (Priest-style certified addition).  Both
     operands are normalized, hence already magnitude-sorted: a linear
     merge replaces the sort. *)
  let add (a : t) (b : t) : t =
    Renorm.renormalize ~passes:2 ~m:limbs (Renorm.merge_by_magnitude a b)

  let neg (a : t) : t = Array.map (fun x -> -.x) a
  let sub a b = add a (neg b)
  let abs (a : t) : t = if a.(0) < 0.0 then neg a else Array.copy a

  (* Truncated product: the exact partial products a_i * b_j of order
     i + j < m (each split by two_prod into a term of order i+j and an
     error of order i+j+1), plus one guard order of plain products at
     i + j = m, distilled back to m limbs. *)
  let mul (a : t) (b : t) : t =
    let count = ref 0 in
    for i = 0 to limbs - 1 do
      for j = 0 to limbs - 1 do
        if i + j < limbs then count := !count + 2
        else if i + j = limbs then incr count
      done
    done;
    let buf = Array.make !count 0.0 in
    let k = ref 0 in
    (* Emit by increasing order so the buffer is roughly magnitude-sorted. *)
    for o = 0 to limbs - 1 do
      for i = 0 to o do
        let j = o - i in
        if j < limbs then begin
          let p, e = Eft.two_prod a.(i) b.(j) in
          buf.(!k) <- p;
          incr k;
          buf.(!k) <- e;
          incr k
        end
      done
    done;
    for i = 0 to limbs - 1 do
      let j = limbs - i in
      if j >= 0 && j < limbs then begin
        buf.(!k) <- a.(i) *. b.(j);
        incr k
      end
    done;
    Renorm.sort_by_magnitude ~saved:(Array.make !count 0.0) buf;
    Renorm.renormalize ~passes:2 ~m:limbs buf

  let add_float a b =
    Renorm.renormalize ~passes:2 ~m:limbs
      (Renorm.merge_by_magnitude a [| b |])

  let mul_float (a : t) (b : float) : t =
    let buf = Array.make (2 * limbs) 0.0 in
    for i = 0 to limbs - 1 do
      let p, e = Eft.two_prod a.(i) b in
      buf.(2 * i) <- p;
      buf.((2 * i) + 1) <- e
    done;
    Renorm.sort_by_magnitude ~saved:(Array.make (2 * limbs) 0.0) buf;
    Renorm.renormalize ~passes:2 ~m:limbs buf

  (* Long division as in QDlib: peel off one double of quotient at a time
     against the leading limb of the divisor, m + 1 terms in total. *)
  let div (a : t) (b : t) : t =
    let q = Array.make (limbs + 1) 0.0 in
    let r = ref (Array.copy a) in
    for k = 0 to limbs do
      let qk = !r.(0) /. b.(0) in
      q.(k) <- qk;
      if k < limbs then r := sub !r (mul_float b qk)
    done;
    Renorm.renormalize ~m:limbs q

  let mul_pwr2 (a : t) (p : float) : t = Array.map (fun x -> x *. p) a

  let floor (a : t) : t =
    let out = Array.make limbs 0.0 in
    let rec go i =
      if i < limbs then begin
        let f = Float.floor a.(i) in
        out.(i) <- f;
        if f = a.(i) then go (i + 1)
      end
    in
    go 0;
    Renorm.renormalize ~m:limbs out

  let is_finite (a : t) = Array.for_all Float.is_finite a
end

module Make (Z : SIZE) : Md_sig.S = Md_build.Make (Pre (Z))
