(* Precision descriptors and the operation-count table.

   Table 1 of the paper tallies how many double precision operations one
   multiple double operation costs; those multipliers convert operation
   counts into double precision flops everywhere in the benchmarks. *)

type tag = D | DD | QD | OD

let all = [ D; DD; QD; OD ]
let limbs = function D -> 1 | DD -> 2 | QD -> 4 | OD -> 8
let name = function
  | D -> "double"
  | DD -> "double double"
  | QD -> "quad double"
  | OD -> "octo double"

(* Short labels used in the paper's table headers: 1d, 2d, 4d, 8d. *)
let label = function D -> "1d" | DD -> "2d" | QD -> "4d" | OD -> "8d"

let of_limbs = function
  | 1 -> D
  | 2 -> DD
  | 4 -> QD
  | 8 -> OD
  | n -> invalid_arg (Printf.sprintf "Precision.of_limbs: %d" n)

let of_label = function
  | "1d" | "d" -> D
  | "2d" | "dd" -> DD
  | "4d" | "qd" -> QD
  | "8d" | "od" -> OD
  | s -> invalid_arg ("Precision.of_label: " ^ s)

(* Double precision operations needed by one multiple double operation,
   split by the kind of double operation performed. *)
type op_cost = { adds : int; subs : int; muls : int; divs : int }

let cost_total { adds; subs; muls; divs } = adds + subs + muls + divs

type cost_table = { add : op_cost; mul : op_cost; div : op_cost }

(* Table 1 of the paper. *)
let costs = function
  | D ->
    {
      add = { adds = 1; subs = 0; muls = 0; divs = 0 };
      mul = { adds = 0; subs = 0; muls = 1; divs = 0 };
      div = { adds = 0; subs = 0; muls = 0; divs = 1 };
    }
  | DD ->
    {
      add = { adds = 8; subs = 12; muls = 0; divs = 0 };
      mul = { adds = 5; subs = 9; muls = 9; divs = 0 };
      div = { adds = 33; subs = 18; muls = 16; divs = 3 };
    }
  | QD ->
    {
      add = { adds = 35; subs = 54; muls = 0; divs = 0 };
      mul = { adds = 99; subs = 164; muls = 73; divs = 0 };
      div = { adds = 266; subs = 510; muls = 112; divs = 5 };
    }
  | OD ->
    {
      add = { adds = 95; subs = 174; muls = 0; divs = 0 };
      mul = { adds = 529; subs = 954; muls = 259; divs = 0 };
      div = { adds = 1599; subs = 3070; muls = 448; divs = 9 };
    }

let add_flops p = cost_total (costs p).add
let mul_flops p = cost_total (costs p).mul
let div_flops p = cost_total (costs p).div

(* Square roots are not tallied in Table 1; the Newton iteration of
   [Md_build.sqrt] costs a few full multiplications and additions. *)
let sqrt_flops p =
  let steps =
    let rec bits k n = if n >= limbs p then k else bits (k + 1) (n * 2) in
    bits 1 1
  in
  ((steps * 4) + 3) * mul_flops p
  + (((steps * 2) + 2) * add_flops p)

(* Average double precision operations per multiple double operation:
   37.7 for double double, 439.3 for quad double, 2379.0 for octo double.
   The paper uses these averages to predict cost overhead factors. *)
let average_flops p =
  float_of_int (add_flops p + mul_flops p + div_flops p) /. 3.0

(* Predicted cost overhead factor when doubling precision [lo] -> [hi],
   e.g. 439.3 / 37.7 ~ 11.7 from double double to quad double. *)
let predicted_overhead ~lo ~hi = average_flops hi /. average_flops lo

(* Bytes of one number in the staggered representation. *)
let bytes p = 8 * limbs p

(* Roughly sixteen decimal digits per limb word: the first precision
   with 16·limbs − less ≥ digits, i.e. whose digits cover both. *)
let cheapest ~less ~digits =
  List.find_opt
    (fun p -> (16.0 *. float_of_int (limbs p)) -. less >= digits)
    all
