(* The serve loop: journal replay, then per line intent -> submit, with
   every outcome committed before it is emitted. *)

module Json = Obs.Json

type summary = {
  submitted : int;
  rejected : int;
  skipped : int;
  replayed : int;
  drained : bool;
  stats : Fleet.stats list;
}

(* The SIGTERM handler's wake-up pipe: one per process and never
   closed, so a handler still running on another domain after [run]
   returns cannot write into a reused descriptor. *)
let wake_pipe =
  lazy
    (let r, w = Unix.pipe ~cloexec:true () in
     Unix.set_nonblock w;
     (r, w))

(* Calls [f] on each line of [fd] (a final line without its newline
   included) until end of input or [stop].  OCaml runs a signal handler
   on whichever domain polls first, and the kernel may deliver the
   signal to any thread, so SIGTERM cannot be relied on to interrupt a
   blocking read: the loop waits in [select] on [fd] and on the wake-up
   pipe, which the handler writes to after setting [stop]. *)
let iter_lines fd ~stop ~wake f =
  let chunk = Bytes.create 65536 in
  let rec go data pos =
    match String.index_from_opt data pos '\n' with
    | Some i ->
      f (String.sub data pos (i - pos));
      if not (Atomic.get stop) then go data (i + 1)
    | None when Atomic.get stop -> ()
    | None -> (
      let rest = String.sub data pos (String.length data - pos) in
      match Unix.select [ fd; wake ] [] [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go rest 0
      | ready, _, _ when not (List.mem fd ready) ->
        (* Woken: [stop] is set, or the byte is a stale one. *)
        ignore (Unix.read wake chunk 0 64);
        go rest 0
      | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> if rest <> "" then f rest
        | n -> go (rest ^ Bytes.sub_string chunk 0 n) 0))
  in
  go "" 0

let run ?journal:path ?(resume = false) ?fault ?solver config input ~emit =
  if resume && path = None then
    invalid_arg "Service.run: resume requires a journal";
  Result.iter_error invalid_arg (Fleet.Config.validate config);
  (* Replay happens before the journal reopens for appending, so the
     reader never sees this process's own writes. *)
  let replayed =
    match path with
    | Some p when resume -> Journal.replay p
    | _ -> { Journal.committed = []; pending = []; malformed = 0 }
  in
  let journal = Option.map Journal.create path in
  (* Outcome lines arrive from the worker domains; one lock keeps the
     sink line-atomic. *)
  let lock = Mutex.create () in
  let emit line = Mutex.protect lock (fun () -> emit line) in
  (* Exactly-once emission across a crash: the outcome line is durable
     in the journal before it reaches the client. *)
  let on_outcome (o : Engine.outcome) =
    let line = Json.to_string (Engine.outcome_to_json o) in
    Option.iter (fun j -> Journal.commit j ~job_id:o.Engine.job.Job.id ~line)
      journal;
    emit line
  in
  let fleet =
    Fleet.create ~on_outcome { config with Fleet.Config.retain_outcomes = false }
  in
  List.iter (fun (_, line) -> emit line) replayed.Journal.committed;
  if replayed.Journal.malformed > 0 then
    Obs.Log.warn "serve.journal_malformed"
      ~fields:[ ("lines", Obs.Log.Int replayed.Journal.malformed) ];
  let submitted = ref 0 and rejected = ref 0 and skipped = ref 0 in
  (* Already journaled; blocking, so a backlog larger than the queues
     still runs. *)
  List.iter
    (fun job ->
      ignore (Fleet.submit_blocking fleet job);
      incr submitted)
    replayed.Journal.pending;
  let admit line =
    match Job.of_json (Json.of_string line) with
    | exception Json.Error m ->
      incr skipped;
      Printf.eprintf "serve: skipping bad job line: %s\n%!" m
    | job -> (
      let job = Job.with_defaults ?solver ?fault job in
      Option.iter (fun j -> Journal.intent j job) journal;
      match Fleet.submit fleet job with
      | Ok _ -> incr submitted
      | Error r ->
        incr rejected;
        Option.iter (fun j -> Journal.reject j ~job_id:job.Job.id) journal;
        emit (Json.to_string (Fleet.reject_to_json job r)))
  in
  (* SIGTERM means drain, not die: admissions stop, every admitted job
     still settles (and commits) before [run] returns. *)
  let wake_r, wake_w = Lazy.force wake_pipe in
  let stop = Atomic.make false in
  let on_sigterm _ =
    Atomic.set stop true;
    try ignore (Unix.single_write_substring wake_w "!" 0 1)
    with Unix.Unix_error _ -> ()
  in
  let previous = Sys.signal Sys.sigterm (Sys.Signal_handle on_sigterm) in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigterm previous)
    (fun () ->
      iter_lines input ~stop ~wake:wake_r (fun line ->
          if String.trim line <> "" then admit line));
  let drained = Atomic.get stop in
  if drained then Obs.Log.warn "serve.sigterm_drain";
  Fleet.quiesce fleet;
  Fleet.shutdown fleet;
  Option.iter Journal.close journal;
  {
    submitted = !submitted;
    rejected = !rejected;
    skipped = !skipped;
    replayed = List.length replayed.Journal.committed;
    drained;
    stats = Fleet.stats fleet;
  }
