(** Precision descriptors and the paper's Table 1 operation-count model.

    One multiple double operation expands into a fixed number of double
    precision operations; those multipliers convert operation tallies
    into double precision flops throughout the benchmarks, exactly as the
    paper computes its gigaflops. *)

type tag = D | DD | QD | OD

val all : tag list

val limbs : tag -> int
(** 1, 2, 4 or 8 doubles per number. *)

val of_limbs : int -> tag
(** Inverse of {!limbs}; raises [Invalid_argument] otherwise. *)

val name : tag -> string
(** E.g. "quad double". *)

val label : tag -> string
(** The paper's table headers: "1d", "2d", "4d", "8d". *)

val of_label : string -> tag
(** Accepts "1d".."8d" and "d"/"dd"/"qd"/"od". *)

(** Double precision operations needed by one multiple double operation,
    split by the kind of double operation performed. *)
type op_cost = { adds : int; subs : int; muls : int; divs : int }

val cost_total : op_cost -> int

type cost_table = { add : op_cost; mul : op_cost; div : op_cost }

val costs : tag -> cost_table
(** Table 1 of the paper. *)

val add_flops : tag -> int
(** 20 / 89 / 269 for dd / qd / od (1 for plain doubles). *)

val mul_flops : tag -> int
(** 23 / 336 / 1742. *)

val div_flops : tag -> int
(** 70 / 893 / 5126. *)

val sqrt_flops : tag -> int
(** Estimated cost of the Newton square root (not tallied in Table 1). *)

val average_flops : tag -> float
(** 37.7 / 439.3 / 2379.0 — the averages the paper predicts cost overhead
    factors from. *)

val predicted_overhead : lo:tag -> hi:tag -> float
(** [predicted_overhead ~lo:DD ~hi:QD] is the paper's 11.7;
    [~lo:QD ~hi:OD] is 5.4. *)

val bytes : tag -> int
(** Bytes of one number in the staggered device representation. *)

val cheapest : less:float -> digits:float -> tag option
(** The paper's §1.1 trade of digits for cost: the first tag of {!all}
    whose roughly sixteen decimal digits per limb, less [less], still
    hold [digits] ([16·limbs − less ≥ digits]).  [None] when not even
    octo double does, as for a NaN or +∞ [digits]. *)
