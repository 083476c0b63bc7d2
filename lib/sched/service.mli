(** The service loop behind [lsq_cli serve]: JSON job lines in, one
    line out per job, over a {!Fleet} and an optional write-ahead
    {!Journal}.  One {!run} is one service lifetime:

    + with [resume], committed journal lines are emitted first,
      byte-identically and in commit order, and unsettled intents are
      resubmitted (blocking, so a backlog larger than the queues runs);
    + each input line gets the defaults of {!Job.with_defaults}, is
      journaled as an intent and submitted without blocking; a refusal
      answers with a {!Fleet.reject_to_json} line and a journal
      [reject] record, an undecodable line is skipped and counted;
    + each outcome line is committed to the journal {e before} it is
      emitted, so a resumed run yields exactly one line per job;
    + end of input or SIGTERM (a drain: admissions stop, admitted jobs
      still settle and commit) ends the loop; the fleet then quiesces
      and shuts down. *)

type summary = {
  submitted : int;  (** admitted jobs, resubmitted intents included *)
  rejected : int;  (** submissions refused by admission control *)
  skipped : int;  (** input lines that did not decode as a job *)
  replayed : int;  (** committed lines re-emitted from the journal *)
  drained : bool;  (** the input was cut short by SIGTERM *)
  stats : Fleet.stats list;  (** {!Fleet.stats} at shutdown *)
}

val run :
  ?journal:string ->
  ?resume:bool ->
  ?fault:Fault.Plan.config ->
  ?solver:Lsq_core.Solver.method_ ->
  Fleet.Config.t ->
  Unix.file_descr ->
  emit:(string -> unit) ->
  summary
(** [run config input ~emit] serves the job lines of [input] ([Unix.stdin]
    for a command-line service; read directly, not through a channel)
    until end of input or SIGTERM, whose previous disposition it
    restores.  [emit] gets every output line without its newline, one
    call at a time, though outcomes arrive from worker domains.
    [config.retain_outcomes] is forced off: a service must not grow
    with its uptime.

    Raises [Invalid_argument] before any I/O when [resume] comes
    without a [journal] or {!Fleet.Config.validate} rejects [config];
    [Sys_error] when the journal cannot be opened. *)
