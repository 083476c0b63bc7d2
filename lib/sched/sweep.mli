(** Job generators that reproduce a whole table of the paper's
    evaluation section as one batch — the sweeps behind
    [lsq_cli batch --sweep NAME], the bench's table printers and the
    performance ledger's paper_tables workload. *)

val names : string list
(** The available sweeps: ["table3"] .. ["table10"], plus ["fleet"] — a
    mixed stream of {!Job.auto_device} jobs (memory-bound double double
    beside compute-bound octo double) for the fleet's roofline
    placement — and ["tallskinny"] — overdetermined m >> n solves
    through all three solver engines (direct QR, CG on the normal
    equations, LSQR) side by side. *)

val jobs : string -> Job.t list
(** The job list of a named sweep; raises [Invalid_argument] on unknown
    names.  Job ids are of the form ["table4-v100-4d"]. *)
