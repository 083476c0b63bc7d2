(* Multiple double operation tallies for a kernel launch, converted to
   double precision flops with the Table 1 multipliers — the same
   accounting the paper performs ("for every kernel ... a small function
   accumulates the number of arithmetical operations", §4.1). *)

type ops = { adds : float; muls : float; divs : float; sqrts : float }

let zero = { adds = 0.0; muls = 0.0; divs = 0.0; sqrts = 0.0 }

let make ?(adds = 0.0) ?(muls = 0.0) ?(divs = 0.0) ?(sqrts = 0.0) () =
  { adds; muls; divs; sqrts }

let add a b =
  {
    adds = a.adds +. b.adds;
    muls = a.muls +. b.muls;
    divs = a.divs +. b.divs;
    sqrts = a.sqrts +. b.sqrts;
  }

let scale a f =
  {
    adds = a.adds *. f;
    muls = a.muls *. f;
    divs = a.divs *. f;
    sqrts = a.sqrts *. f;
  }

let total a = a.adds +. a.muls +. a.divs +. a.sqrts

(* Complex operations expand into real ones before costing: a complex
   multiplication is four real multiplications and two additions, a complex
   addition two real additions, a complex division adds the modulus work. *)
let complexify a =
  {
    adds = (2.0 *. a.adds) +. (2.0 *. a.muls) +. (3.0 *. a.divs);
    muls = (4.0 *. a.muls) +. (6.0 *. a.divs);
    divs = 2.0 *. a.divs;
    sqrts = a.sqrts;
  }

(* Table 1's multipliers as floats, tabulated once per precision: the
   roofline converts a tally into flops at every launch. *)
let weights_of p =
  let module P = Multidouble.Precision in
  {
    adds = float_of_int (P.add_flops p);
    muls = float_of_int (P.mul_flops p);
    divs = float_of_int (P.div_flops p);
    sqrts = float_of_int (P.sqrt_flops p);
  }

let weights_d = weights_of Multidouble.Precision.D
let weights_dd = weights_of Multidouble.Precision.DD
let weights_qd = weights_of Multidouble.Precision.QD
let weights_od = weights_of Multidouble.Precision.OD

let weights : Multidouble.Precision.tag -> ops = function
  | D -> weights_d
  | DD -> weights_dd
  | QD -> weights_qd
  | OD -> weights_od

(* Double precision flops under precision [p]. *)
let flops p a =
  let w = weights p in
  (a.adds *. w.adds) +. (a.muls *. w.muls) +. (a.divs *. w.divs)
  +. (a.sqrts *. w.sqrts)

let of_tally (t : Multidouble.Counted.tally) =
  {
    adds = float_of_int t.Multidouble.Counted.adds;
    muls = float_of_int t.Multidouble.Counted.muls;
    divs = float_of_int t.Multidouble.Counted.divs;
    sqrts = float_of_int t.Multidouble.Counted.sqrts;
  }

let pp fmt a =
  Format.fprintf fmt "{adds=%.0f muls=%.0f divs=%.0f sqrts=%.0f}" a.adds
    a.muls a.divs a.sqrts
