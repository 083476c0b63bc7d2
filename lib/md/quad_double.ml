(* Quad double arithmetic: an unevaluated sum of four doubles giving
   roughly 64 decimal digits.  The algorithms follow the accurate
   ("IEEE-style") variants of QDlib [8]; the test suite cross-checks every
   operation against the generic [Expansion] functor at m = 4. *)

module Pre = struct
  type t = { x0 : float; x1 : float; x2 : float; x3 : float }

  let limbs = 4
  let name = "quad double"
  let zero = { x0 = 0.0; x1 = 0.0; x2 = 0.0; x3 = 0.0 }
  let one = { x0 = 1.0; x1 = 0.0; x2 = 0.0; x3 = 0.0 }
  let of_float x = { zero with x0 = x }
  let to_float q = q.x0

  let of_array a =
    { x0 = a.(0); x1 = a.(1); x2 = a.(2); x3 = a.(3) }

  let of_limbs a = of_array (Renorm.renormalize ~m:4 a)
  let of_limbs_exact = of_array
  let to_limbs q = [| q.x0; q.x1; q.x2; q.x3 |]

  let blit_limbs q (dst : float array) off =
    dst.(off) <- q.x0;
    dst.(off + 1) <- q.x1;
    dst.(off + 2) <- q.x2;
    dst.(off + 3) <- q.x3

  let renorm4 c = of_array (Renorm.renormalize ~m:4 c)

  (* [quick_three_accum u v t] accumulates [t] into the two-term window
     [(u, v)]; returns the component that overflowed out of the window
     (0 when everything still fits), together with the updated window. *)
  let quick_three_accum u v t =
    let s, v' = Eft.two_sum v t in
    let s, u' = Eft.two_sum u s in
    let za = u' <> 0.0 and zb = v' <> 0.0 in
    if za && zb then (s, u', v')
    else if not zb then (0.0, s, u')
    else (0.0, s, v')

  (* Accurate addition: merge the eight limbs by decreasing magnitude,
     accumulating through a sliding two-term window (QDlib ieee_add). *)
  let add a b =
    let aa = to_limbs a and bb = to_limbs b in
    let x = [| 0.0; 0.0; 0.0; 0.0 |] in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    let next () =
      if !i >= 4 then begin
        let t = bb.(!j) in
        incr j;
        t
      end
      else if !j >= 4 || Float.abs aa.(!i) > Float.abs bb.(!j) then begin
        let t = aa.(!i) in
        incr i;
        t
      end
      else begin
        let t = bb.(!j) in
        incr j;
        t
      end
    in
    let u = ref (next ()) in
    let v = ref (next ()) in
    (let s, e = Eft.quick_two_sum !u !v in
     u := s;
     v := e);
    (try
       while !k < 4 do
         if !i >= 4 && !j >= 4 then begin
           x.(!k) <- !u;
           if !k < 3 then begin
             incr k;
             x.(!k) <- !v
           end;
           raise Exit
         end;
         let t = next () in
         let s, u', v' = quick_three_accum !u !v t in
         u := u';
         v := v';
         if s <> 0.0 then begin
           x.(!k) <- s;
           incr k
         end
       done;
       (* All four output slots filled: sweep the leftovers into the tail. *)
       let tail = ref 0.0 in
       for k = !i to 3 do
         tail := !tail +. aa.(k)
       done;
       for k = !j to 3 do
         tail := !tail +. bb.(k)
       done;
       x.(3) <- x.(3) +. !tail +. !u +. !v
     with Exit -> ());
    renorm4 x

  let neg a = { x0 = -.a.x0; x1 = -.a.x1; x2 = -.a.x2; x3 = -.a.x3 }
  let sub a b = add a (neg b)
  let abs a = if a.x0 < 0.0 then neg a else a

  (* Accurate multiplication (QDlib ieee style): all partial products of
     order < 4 with their two_prod errors, order-4 terms folded in plain
     double, then a final renormalization. *)
  let mul a b =
    let p0, q0 = Eft.two_prod a.x0 b.x0 in
    let p1, q1 = Eft.two_prod a.x0 b.x1 in
    let p2, q2 = Eft.two_prod a.x1 b.x0 in
    let p3, q3 = Eft.two_prod a.x0 b.x2 in
    let p4, q4 = Eft.two_prod a.x1 b.x1 in
    let p5, q5 = Eft.two_prod a.x2 b.x0 in
    (* Start accumulation. *)
    let p1, p2, q0 = Eft.three_sum p1 p2 q0 in
    (* Six-three sum of p2, q1, q2, p3, p4, p5. *)
    let p2, q1, q2 = Eft.three_sum p2 q1 q2 in
    let p3, p4, p5 = Eft.three_sum p3 p4 p5 in
    (* (s0, s1, s2) = (p2, q1, q2) + (p3, p4, p5). *)
    let s0, t0 = Eft.two_sum p2 p3 in
    let s1, t1 = Eft.two_sum q1 p4 in
    let s2 = q2 +. p5 in
    let s1, t0 = Eft.two_sum s1 t0 in
    let s2 = s2 +. t0 +. t1 in
    (* O(eps^3) terms. *)
    let p6, q6 = Eft.two_prod a.x0 b.x3 in
    let p7, q7 = Eft.two_prod a.x1 b.x2 in
    let p8, q8 = Eft.two_prod a.x2 b.x1 in
    let p9, q9 = Eft.two_prod a.x3 b.x0 in
    (* Nine-two sum of q0, s1, q3, q4, q5, p6, p7, p8, p9. *)
    let q0, q3 = Eft.two_sum q0 q3 in
    let q4, q5 = Eft.two_sum q4 q5 in
    let p6, p7 = Eft.two_sum p6 p7 in
    let p8, p9 = Eft.two_sum p8 p9 in
    let t0, t1 = Eft.two_sum q0 q4 in
    let t1 = t1 +. q3 +. q5 in
    let r0, r1 = Eft.two_sum p6 p8 in
    let r1 = r1 +. p7 +. p9 in
    let q3, q4 = Eft.two_sum t0 r0 in
    let q4 = q4 +. t1 +. r1 in
    let t0, t1 = Eft.two_sum q3 s1 in
    let t1 = t1 +. q4 in
    (* O(eps^4) terms. *)
    let t1 =
      t1 +. (a.x1 *. b.x3) +. (a.x2 *. b.x2) +. (a.x3 *. b.x1) +. q6 +. q7
      +. q8 +. q9 +. s2
    in
    of_array (Renorm.renormalize ~m:4 [| p0; p1; s0; t0; t1 |])

  let mul_float a b =
    let p0, q0 = Eft.two_prod a.x0 b in
    let p1, q1 = Eft.two_prod a.x1 b in
    let p2, q2 = Eft.two_prod a.x2 b in
    let p3 = a.x3 *. b in
    (* Terms listed by increasing order of magnitude decay. *)
    of_array
      (Renorm.renormalize ~passes:2 ~m:4 [| p0; p1; q0; p2; q1; p3; q2 |])

  let add_float a b =
    let buf = [| a.x0; a.x1; a.x2; a.x3; b |] in
    Renorm.sort_by_magnitude ~saved:(Array.make 5 0.0) buf;
    of_array (Renorm.renormalize ~passes:2 ~m:4 buf)

  (* Accurate division: five rounds of long division against the leading
     limb, subtracting the full quad double product each time. *)
  let div a b =
    let q0 = a.x0 /. b.x0 in
    let r = sub a (mul_float b q0) in
    let q1 = r.x0 /. b.x0 in
    let r = sub r (mul_float b q1) in
    let q2 = r.x0 /. b.x0 in
    let r = sub r (mul_float b q2) in
    let q3 = r.x0 /. b.x0 in
    let r = sub r (mul_float b q3) in
    let q4 = r.x0 /. b.x0 in
    of_array (Renorm.renormalize ~m:4 [| q0; q1; q2; q3; q4 |])

  let mul_pwr2 a p =
    { x0 = a.x0 *. p; x1 = a.x1 *. p; x2 = a.x2 *. p; x3 = a.x3 *. p }

  let floor a =
    let out = [| 0.0; 0.0; 0.0; 0.0 |] in
    let src = to_limbs a in
    let rec go i =
      if i < 4 then begin
        let f = Float.floor src.(i) in
        out.(i) <- f;
        if f = src.(i) then go (i + 1)
      end
    in
    go 0;
    renorm4 out

  let is_finite a =
    Float.is_finite a.x0 && Float.is_finite a.x1 && Float.is_finite a.x2
    && Float.is_finite a.x3
end

include Md_build.Make (Pre)
