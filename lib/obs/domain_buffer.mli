(** Per-domain state.  {!Cells} gives each domain its own cell (found
    through a DLS slot; the registry mutex is taken only for a domain's
    first use in a generation); the append buffer below is built on it.
    {!Tracer} keeps its events and {!Log} its buffered records in a
    buffer, and {!Metrics} its counter and histogram shards in cells. *)

module Cells : sig
  type 'a t

  val create : (unit -> 'a) -> 'a t
  (** Cells made by the function, one per domain, on first use. *)

  val get : 'a t -> 'a
  (** The calling domain's cell.  Systhreads of one domain share it. *)

  val all : 'a t -> (int * 'a) list
  (** Every registered cell of the current generation, tagged with its
      domain's id, including cells of domains that have exited. *)

  val reset : 'a t -> unit
  (** Starts a new generation: every cell is dropped from the registry,
      and each domain makes a fresh one at its next {!get}. *)
end

type 'a t
(** A per-domain append buffer: each domain pushes onto its own cell. *)

val create : unit -> 'a t

val reset : 'a t -> unit
(** Starts a new generation: every item pushed so far is dropped. *)

val push : 'a t -> 'a -> unit

val contents : 'a t -> (int * 'a list) list
(** Every domain's items, in push order, tagged with the pushing
    domain's id; the buffer keeps them. *)

val drain : 'a t -> (int * 'a list) list
(** Like {!contents}, but takes the items: safe against concurrent
    {!push}es, each item is returned by exactly one drain. *)
