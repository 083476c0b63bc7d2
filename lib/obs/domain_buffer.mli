(** A per-domain append buffer: each domain pushes onto a cell it alone
    appends to (found through a DLS slot; the registry mutex is taken
    only for a domain's first push of a generation).  {!Tracer} keeps
    its events and {!Log} its buffered records in one. *)

type 'a t

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
