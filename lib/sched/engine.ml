(* The per-job execution engine: one job's full lifecycle (validation,
   bounded retry with exponential backoff, cooperative timeout) settling
   into a structured outcome, plus the versioned JSON-lines outcome
   codec.  The fleet service drives every job through [settle]; neither ever sees an exception escape it. *)

module Json = Obs.Json
module Report = Harness.Report

type failure = { message : string; timed_out : bool; retryable : bool }

type status = Completed of Report.t | Failed of failure

type timing = {
  queue_wait_ms : float;
  attempt_ms : float list;
  backoff_ms : float;
}

(* Where the fleet put the job: the instance that executed it, how it
   got there, how deep the admitted queue was, and — when the resilience
   plane had to move it — the trail of instances it was reclaimed from. *)
type placement = {
  device_id : string;
  admitted_to : string;
  steals : int;
  queue_depth : int;
  migrations : string list;
}

type outcome = {
  job : Job.t;
  index : int;
  order : int;
  attempts : int;
  elapsed_ms : float;
  timing : timing;
  placement : placement option;
  status : status;
}

(* v8: the embedded report is schema 5 (executed runs report
   themselves); v7 the placement record lost its duplicate-execution
   flag; v6 the solver-engine seam (jobs carry an optional solver method,
   reports their solver record), v5 the resilience plane's migration
   trail, v4 fleet placement, v3 the retryable classification, v2
   per-attempt timing. *)
let schema_version = 8

exception Injected_failure

(* Only transient faults are worth another attempt: the testing hook and
   escaped injected faults from the simulator's fault plane.  Everything
   else — validation errors, bad arguments, deterministic numeric
   failures — would fail identically again, so it settles immediately
   without burning retries or backoff sleeps. *)
let classify = function
  | Injected_failure -> ("injected failure", true)
  | Fault.Plan.Injected _ as e -> (Printexc.to_string e, true)
  | e -> (Printexc.to_string e, false)

let now_ms () = Unix.gettimeofday () *. 1000.0

(* Seeded per-job jitter on the exponential backoff: a retry stampede of
   jobs knocked over together by one dying device must not hammer its
   replacement in lockstep.  The multiplier for the [attempt]-th pause is
   uniform in [1, 2), drawn from a splitmix stream keyed on (job id,
   fault seed, attempt) — so two jobs back off differently, but any one
   job replays its exact pause sequence from the job record alone. *)
let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code c)))
          0x100000001b3L)
    s;
  Int64.to_int !h

let backoff_pause_ms ~backoff_ms (job : Job.t) ~attempt =
  let seed =
    fnv1a64 job.Job.id
    lxor (job.Job.fault_seed * 0x9e3779b9)
    lxor (attempt * 0x85ebca6b)
  in
  let u = Dompool.Prng.float (Dompool.Prng.create seed) in
  backoff_ms *. Float.of_int (1 lsl (attempt - 1)) *. (1.0 +. u)

(* One synchronous run of the job proper; [Harness.Runners.run] decides
   how (plan, executed run, or the fault-tolerant solve). *)
let run_job job = Harness.Runners.run (Job.request job)

(* The full lifecycle of one job: validation, then up to [1 + retries]
   attempts under the cooperative wall-clock budget, with exponential
   backoff between attempts.  Never raises. *)
let settle ~backoff_ms ~queued_at (job : Job.t) =
  let started = now_ms () in
  let elapsed () = now_ms () -. started in
  let queue_wait_ms = Float.max 0.0 (started -. queued_at) in
  let attempt_times = ref [] in
  let backoff_total = ref 0.0 in
  let finish attempts status =
    let timing =
      {
        queue_wait_ms;
        attempt_ms = List.rev !attempt_times;
        backoff_ms = !backoff_total;
      }
    in
    (attempts, elapsed (), timing, status)
  in
  let timed_out_failure message =
    Obs.Tracer.instant ~cat:"sched"
      ~args:[ ("job", Obs.Tracer.Str job.Job.id) ]
      "timeout";
    Obs.Log.warn "job.timeout"
      ~fields:
        [
          ("job", Obs.Log.Str job.Job.id);
          ("message", Obs.Log.Str message);
        ];
    Failed { message; timed_out = true; retryable = false }
  in
  let deadline =
    match job.Job.timeout_ms with
    | Some ms -> started +. ms
    | None -> Float.infinity
  in
  match Job.validate job with
  | Error message ->
    finish 0 (Failed { message; timed_out = false; retryable = false })
  | Ok () when Job.is_auto job ->
    (* Never placed: the wildcard is only resolvable by a fleet. *)
    finish 0
      (Failed
         {
           message =
             Printf.sprintf
               "job '%s': device 'auto' needs fleet placement" job.Job.id;
           timed_out = false;
           retryable = false;
         })
  | Ok () ->
    let max_attempts = 1 + job.Job.retries in
    let rec go attempt =
      if now_ms () > deadline then
        finish (attempt - 1)
          (timed_out_failure
             (Printf.sprintf "timed out after %d attempt%s" (attempt - 1)
                (if attempt - 1 = 1 then "" else "s")))
      else
        let result =
          Obs.Tracer.span ~cat:"sched"
            ~args:
              [
                ("job", Obs.Tracer.Str job.Job.id);
                ("attempt", Obs.Tracer.Int attempt);
              ]
            "attempt"
            (fun () ->
              let t0 = now_ms () in
              let r =
                try
                  if attempt <= job.Job.inject_failures then
                    raise Injected_failure
                  else Ok (run_job job)
                with e -> Error (classify e)
              in
              attempt_times := (now_ms () -. t0) :: !attempt_times;
              r)
        in
        match result with
        | Ok report ->
          if now_ms () > deadline then
            finish attempt
              (timed_out_failure
                 (Printf.sprintf
                    "completed past the deadline on attempt %d (result \
                     discarded)"
                    attempt))
          else finish attempt (Completed report)
        | Error (message, retryable) ->
          if retryable && attempt < max_attempts then begin
            Obs.Log.warn "job.retry"
              ~fields:
                [
                  ("job", Obs.Log.Str job.Job.id);
                  ("attempt", Obs.Log.Int attempt);
                  ("of", Obs.Log.Int max_attempts);
                  ("error", Obs.Log.Str message);
                ];
            let pause = backoff_pause_ms ~backoff_ms job ~attempt /. 1000.0 in
            if pause > 0.0 then begin
              backoff_total := !backoff_total +. (pause *. 1000.0);
              Obs.Tracer.span ~cat:"sched"
                ~args:[ ("job", Obs.Tracer.Str job.Job.id) ]
                "backoff"
                (fun () -> Unix.sleepf pause)
            end;
            go (attempt + 1)
          end
          else
            (* Permanent failures settle on the spot: a deterministic
               error would only fail the same way again. *)
            finish attempt (Failed { message; timed_out = false; retryable })
    in
    go 1

(* ---- serialization ---- *)

let json_of_timing t =
  Json.Obj
    [
      ("queue_wait_ms", Json.Float t.queue_wait_ms);
      ( "attempt_ms",
        Json.Arr (List.map (fun ms -> Json.Float ms) t.attempt_ms) );
      ("backoff_sleep_ms", Json.Float t.backoff_ms);
    ]

let timing_of_json j =
  {
    queue_wait_ms = Json.get_float (Json.member "queue_wait_ms" j);
    attempt_ms =
      List.map Json.get_float (Json.get_list (Json.member "attempt_ms" j));
    backoff_ms = Json.get_float (Json.member "backoff_sleep_ms" j);
  }

let json_of_placement p =
  Json.Obj
    [
      ("device_id", Json.Str p.device_id);
      ("admitted_to", Json.Str p.admitted_to);
      ("steals", Json.Int p.steals);
      ("queue_depth", Json.Int p.queue_depth);
      ("migrations", Json.Arr (List.map (fun i -> Json.Str i) p.migrations));
    ]

let placement_of_json j =
  {
    device_id = Json.get_string (Json.member "device_id" j);
    admitted_to = Json.get_string (Json.member "admitted_to" j);
    steals = Json.get_int (Json.member "steals" j);
    queue_depth = Json.get_int (Json.member "queue_depth" j);
    migrations =
      List.map Json.get_string (Json.get_list (Json.member "migrations" j));
  }

let outcome_to_json o =
  Json.Obj
    ([
       ("schema", Json.Int schema_version);
       ("index", Json.Int o.index);
       ("order", Json.Int o.order);
       ("attempts", Json.Int o.attempts);
       ("elapsed_ms", Json.Float o.elapsed_ms);
       ("timing", json_of_timing o.timing);
     ]
    @ (match o.placement with
      | Some p -> [ ("placement", json_of_placement p) ]
      | None -> [])
    @ [ ("job", Job.to_json o.job) ]
    @
    match o.status with
    | Completed report ->
      [ ("status", Json.Str "completed"); ("report", Report.to_json report) ]
    | Failed f ->
      [
        ("status", Json.Str "failed");
        ( "error",
          Json.Obj
            [
              ("message", Json.Str f.message);
              ("timed_out", Json.Bool f.timed_out);
              ("retryable", Json.Bool f.retryable);
            ] );
      ])

let outcome_of_json j =
  let v = Json.get_int (Json.member "schema" j) in
  if v <> schema_version then
    raise
      (Json.Error
         (Printf.sprintf "outcome schema %d, this build reads schema %d" v
            schema_version));
  let status =
    match Json.get_string (Json.member "status" j) with
    | "completed" -> Completed (Report.of_json (Json.member "report" j))
    | "failed" ->
      let e = Json.member "error" j in
      Failed
        {
          message = Json.get_string (Json.member "message" e);
          timed_out = Json.get_bool (Json.member "timed_out" e);
          retryable = Json.get_bool (Json.member "retryable" e);
        }
    | s -> raise (Json.Error (Printf.sprintf "unknown status '%s'" s))
  in
  {
    job = Job.of_json (Json.member "job" j);
    index = Json.get_int (Json.member "index" j);
    order = Json.get_int (Json.member "order" j);
    attempts = Json.get_int (Json.member "attempts" j);
    elapsed_ms = Json.get_float (Json.member "elapsed_ms" j);
    timing = timing_of_json (Json.member "timing" j);
    placement = Json.to_option placement_of_json (Json.member "placement" j);
    status;
  }

let write_jsonl oc outcomes =
  List.iter
    (fun o ->
      output_string oc (Json.to_string (outcome_to_json o));
      output_char oc '\n')
    outcomes

let read_jsonl ic =
  let rec go acc =
    match input_line ic with
    | line ->
      if String.trim line = "" then go acc
      else go (outcome_of_json (Json.of_string line) :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []
