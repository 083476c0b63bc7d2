(** Multiple double operation tallies for kernel launches, converted to
    double precision flops with the Table 1 multipliers — the accounting
    the paper performs per kernel (§4.1). *)

type ops = { adds : float; muls : float; divs : float; sqrts : float }

val zero : ops

val make :
  ?adds:float -> ?muls:float -> ?divs:float -> ?sqrts:float -> unit -> ops

val add : ops -> ops -> ops
val scale : ops -> float -> ops
val total : ops -> float

val complexify : ops -> ops
(** Expands complex operations into real ones before costing: a complex
    multiplication is 4 real multiplications and 2 additions, etc. *)

val weights : Multidouble.Precision.tag -> ops
(** Double precision flops per operation of each kind (Table 1's
    multipliers, and the Newton square root's estimate), as floats. *)

val flops : Multidouble.Precision.tag -> ops -> float
(** Double precision flops under the given precision: the tally's dot
    product with {!weights}, in field order. *)

val of_tally : Multidouble.Counted.tally -> ops
(** From the dynamic instrumentation counters. *)

val pp : Format.formatter -> ops -> unit
