(* The fleet service: a long-running pool of simulated devices behind a
   submission API.

   Each pool entry is an *instance*, a modeled device and plain data: a
   work queue, a device class, a health state and a [running] flag.
   [min instances cores] worker domains serve them, each claiming a job
   for an idle instance and running it as that instance, so an instance
   runs one job at a time.  Classed instances (several C2050s, P100s,
   V100s, RTX 2080s) give the fleet its heterogeneity: roofline-aware
   placement routes memory-bound jobs (double double — the paper's
   bandwidth-bound regime) to bandwidth-rich classes and compute-bound
   jobs (octo double) to compute-rich ones.  Generic instances (device
   = None) are plain capacity honoring whatever device each job names;
   the batch wrapper [run] uses an all-generic pool.

   Admission control bounds every queue: a submission finding all its
   candidate queues at [max_queue_depth] is rejected — backpressure the
   caller sees synchronously.  An idle instance steals the oldest entry
   from the deepest queue of a busy one, so a hot class drains across
   the fleet.

   The resilience plane (all opt-in through [Config]) layers on top:

   - Device chaos ([Fault.Chaos]): seeded campaigns deal each instance
     a crash or a hang (it is never served again; the worker that found
     it struck serves the others) or a brownout (every kernel costed
     [factor] times slower) after a drawn number of executed jobs.

   - Recovery: jobs stranded on a crashed or hung instance — queued and
     claimed-but-unstarted alike — are handed back by the striking
     worker and re-placed through the same roofline policy, never
     silently dropped; the hop is recorded in the outcome's migration
     trail.  A job migrated more than [max_migrations] times is
     quarantined: settled as a permanent failure rather than bounced
     forever.

   Locking: one mutex guards the queues, counters, instance states and
   the result table.  Jobs execute outside the lock, and their launches
   go to the shared default domain pool like any other caller's.
   Quarantined outcomes produced while migrating under the lock are
   emitted after it is released. *)

module D = Gpusim.Device
module Metrics = Obs.Metrics
module R = Harness.Runners
module Chaos = Fault.Chaos

module Config = struct
  type t = {
    pool : (D.t option * int) list;
    max_queue_depth : int;
    backoff_ms : float;
    steal : bool;
    retain_outcomes : bool;
    chaos : Chaos.config option;
    max_migrations : int;
  }

  let unbounded = max_int

  let default =
    {
      pool =
        [
          (Some D.c2050, 2);
          (Some D.p100, 2);
          (Some D.v100, 2);
          (Some D.rtx2080, 2);
        ];
      max_queue_depth = 64;
      backoff_ms = 1.0;
      steal = true;
      retain_outcomes = true;
      chaos = None;
      max_migrations = 3;
    }

  let batch ?(parallel = 4) ?(backoff_ms = 1.0) () =
    {
      default with
      pool = [ (None, max 1 parallel) ];
      max_queue_depth = unbounded;
      backoff_ms;
    }

  (* "v100=2,rtx2080=1" (or "v100,p100" with implicit count 1). *)
  let pool_of_string s =
    String.split_on_char ',' s
    |> List.filter_map (fun part ->
           let part = String.trim part in
           if part = "" then None
           else
             let name, count =
               match String.index_opt part '=' with
               | None -> (part, 1)
               | Some i ->
                 let n = String.sub part 0 i in
                 let c = String.sub part (i + 1) (String.length part - i - 1) in
                 (match int_of_string_opt (String.trim c) with
                 | Some c -> (String.trim n, c)
                 | None ->
                   invalid_arg
                     (Printf.sprintf "pool spec '%s': bad count '%s'" part c))
             in
             if count <= 0 then
               invalid_arg
                 (Printf.sprintf "pool spec '%s': count must be positive" part);
             Some (Some (D.by_name name), count))

  (* Structured validation instead of runtime misbehavior: a negative
     depth would admit nothing, a negative backoff would crash the
     first retry sleep.  [backoff_ms = 0] stays legal — it is the documented
     "retry without sleeping" setting the deterministic tests use — and
     unbounded queues are requested explicitly through {!unbounded}. *)
  let validate (c : t) =
    if c.pool = [] then Error "pool must not be empty"
    else if List.exists (fun (_, count) -> count <= 0) c.pool then
      Error "pool entry with non-positive instance count"
    else if c.max_queue_depth <= 0 then
      Error
        (Printf.sprintf
           "max_queue_depth %d must be positive (use Config.unbounded for no \
            bound)"
           c.max_queue_depth)
    else if Float.is_nan c.backoff_ms || c.backoff_ms < 0.0 then
      Error (Printf.sprintf "backoff_ms %g must be non-negative" c.backoff_ms)
    else if c.max_migrations < 0 then
      Error
        (Printf.sprintf "max_migrations %d must be non-negative"
           c.max_migrations)
    else Ok ()
end

type reject =
  | Queue_full of { device_id : string; queue_depth : int }
  | Draining

let reject_message = function
  | Queue_full { device_id; queue_depth } ->
    Printf.sprintf "queue full: %s at depth %d" device_id queue_depth
  | Draining -> "fleet is draining"

type ticket = int

type queued = {
  q_job : Job.t;
  q_ticket : ticket;
  q_admitted_at : float;
  q_depth : int;  (* queue depth at admission *)
  q_admitted_to : int;  (* instance index *)
  q_migrations : string list;  (* instances reclaimed from, newest first *)
}

(* Instance life under chaos.  [Browned] instances keep executing (just
   slower); [Hung] and [Crashed] ones are excluded from placement and
   their stranded work is migrated away. *)
type state = Healthy | Browned of float | Hung | Crashed

let state_name = function
  | Healthy -> "ok"
  | Browned _ -> "browned"
  | Hung -> "hung"
  | Crashed -> "crashed"

type instance = {
  id : string;
  device : D.t option;
  index : int;
  queue : queued Queue.t;
  mutable running : bool;  (* a worker is executing a job as this instance *)
  mutable executed : int;
  mutable stolen : int;  (* jobs it claimed from foreign queues *)
  mutable busy_ms : float;
  mutable state : state;
  chaos_event : Chaos.event option;
}

type t = {
  config : Config.t;
  on_outcome : (Engine.outcome -> unit) option;
  lock : Mutex.t;
  work : Condition.t;  (* workers wait here for admissions *)
  changed : Condition.t;  (* clients wait here for claims/settlements *)
  instances : instance array;
  results : (ticket, Engine.outcome) Hashtbl.t;
  mutable next_ticket : int;
  mutable unsettled : int;  (* admitted but not yet settled *)
  mutable stopping : bool;
  mutable started : bool;
  n_workers : int;
  mutable workers : unit Domain.t array;
  order : int Atomic.t;  (* completion rank *)
  total_steals : int Atomic.t;
  mutable started_at : float;  (* for utilization *)
  mutable sink_failure : (exn * Printexc.raw_backtrace) option;
      (* the first exception an [on_outcome] call raised *)
}

(* ---- metrics ---- *)

let m_counter name = Metrics.counter (Metrics.default ()) name
let m_gauge name = Metrics.gauge (Metrics.default ()) name

(* [Metrics.once], not [lazy]: worker domains race on the first
   settlement, and a concurrently forced lazy raises. *)
let m_submitted = Metrics.once (fun () -> m_counter "fleet.submitted")
let m_rejected = Metrics.once (fun () -> m_counter "fleet.rejected")
let m_completed = Metrics.once (fun () -> m_counter "fleet.completed")
let m_failed = Metrics.once (fun () -> m_counter "fleet.failed")
let m_attempts = Metrics.once (fun () -> m_counter "fleet.attempts")
let m_steals = Metrics.once (fun () -> m_counter "fleet.steals")

let class_slug = function Some d -> D.slug d | None -> "any"

(* Per-class latency histogram on the fine ladder: p50/p95/p99 per
   device class are read straight off the snapshot. *)
let latency_histogram inst =
  Metrics.histogram ~buckets:Metrics.latency_buckets (Metrics.default ())
    ("fleet.latency_ms." ^ class_slug inst.device)

let depth_gauge inst = m_gauge ("fleet.queue_depth." ^ inst.id)
let util_gauge inst = m_gauge ("fleet.util." ^ inst.id)

(* 1.0 while the instance is executing a job — the live counterpart of
   the time-averaged [util_gauge]. *)
let inflight_gauge inst = m_gauge ("fleet.inflight." ^ inst.id)

(* ---- roofline placement ---- *)

(* Fault-free roofline stage plans of a job shape on a named device,
   memoized on the request (a million-job stream re-plans nothing);
   [None] marks unplannable shapes and unknown devices. *)
let roofline_memo : (R.request, Obs.Roofline.stage list option) Hashtbl.t =
  Hashtbl.create 64

let roofline_lock = Mutex.create ()

let roofline_stages (job : Job.t) ~device =
  match
    Job.request ~device:(D.by_name device)
      { job with Job.fault_rate = 0.0; execute = false }
  with
  | exception Invalid_argument _ -> None
  | key -> (
    Mutex.lock roofline_lock;
    let cached = Hashtbl.find_opt roofline_memo key in
    Mutex.unlock roofline_lock;
    match cached with
    | Some s -> s
    | None ->
      (* A what-if plan, not a launch of any job: one placement span
         records its host time, and its launches stay out of the trace,
         where they would read as kernels outside every job attempt, and
         out of the launch metrics, which count the jobs' launches. *)
      let stages =
        Obs.Tracer.span ~cat:"sched" "placement plan" (fun () ->
            Gpusim.Sim.what_if (fun () ->
                try Some (R.roofline key) with _ -> None))
      in
      Mutex.lock roofline_lock;
      Hashtbl.replace roofline_memo key stages;
      Mutex.unlock roofline_lock;
      stages)

(* Jobs are classified compute- vs memory-bound on a fixed reference
   device (the V100, the paper's flagship) so the verdict — and with it
   the placement — is deterministic and pool-independent: double double
   comes out memory-bound, octo double compute-bound, the paper's CGMA
   shape.  The iterative engines classify memory-bound at every
   precision (BLAS-1/2 kernels), routing their jobs to bandwidth-rich
   classes regardless of what the direct plan of the same shape would
   say.  An unplannable (invalid) shape hardly matters: the job will
   settle as a validation failure anyway. *)
let classify_job (job : Job.t) =
  match roofline_stages job ~device:"v100" with
  | Some stages -> (Obs.Roofline.total stages).Obs.Roofline.bound
  | None -> Obs.Roofline.Memory

(* Fault-free roofline stage predictions on the device a job actually
   executed with, feeding the health plane's cost-model drift detector:
   fault-free measured breakdowns reproduce these exactly, so any gap is
   a miscalibrated model.  Only jobs that run what the plan prices have
   one.  A fault-armed job also re-accounts relaunched kernels and
   reruns replayed stages, and an executed CG or LSQR solve reports the
   precision ladder it ran, not the plan's one rung: neither has a
   prediction. *)
let predicted_stages (job : Job.t) =
  if
    job.Job.fault_rate > 0.0
    || (job.Job.execute && Lsq_core.Solver.is_iterative job.Job.solver)
  then None
  else
    Option.map
      (List.map (fun (s : Obs.Roofline.stage) ->
           (s.Obs.Roofline.stage, s.Obs.Roofline.ms)))
      (roofline_stages job ~device:job.Job.device)

(* Distinct device classes of the pool, in pool order. *)
let classes t =
  Array.to_list t.instances
  |> List.filter_map (fun i -> i.device)
  |> List.fold_left
       (fun acc d -> if List.exists (fun d' -> d'.D.name = d.D.name) acc then acc else d :: acc)
       []
  |> List.rev

(* Candidate instance groups for one job, most preferred group first.
   Auto jobs rank classes by the roofline verdict: memory-bound work
   prefers bandwidth-rich classes (descending bytes-per-flop),
   compute-bound work compute-rich ones (descending DP peak).  Pinned
   jobs prefer instances of their own class, then generic capacity,
   then anything (the named device is simulated wherever the job runs —
   instances are capacity, the simulation uses [job.device]). *)
let candidate_groups t (job : Job.t) =
  let instances = Array.to_list t.instances in
  let of_class d =
    List.filter
      (fun i -> match i.device with Some d' -> d'.D.name = d.D.name | None -> false)
      instances
  in
  let generic = List.filter (fun i -> i.device = None) instances in
  if Job.is_auto job then begin
    let ranked =
      let cs = classes t in
      match classify_job job with
      | Obs.Roofline.Memory ->
        List.sort
          (fun a b ->
            match compare (D.bytes_per_flop b) (D.bytes_per_flop a) with
            | 0 -> compare b.D.dram_gb_s a.D.dram_gb_s
            | c -> c)
          cs
      | Obs.Roofline.Compute ->
        List.sort
          (fun a b ->
            match compare b.D.dp_peak_gflops a.D.dp_peak_gflops with
            | 0 -> compare b.D.dram_gb_s a.D.dram_gb_s
            | c -> c)
          cs
    in
    List.map of_class ranked @ [ generic ]
  end
  else
    match D.by_name job.Job.device with
    | d ->
      let same = of_class d in
      let rest =
        List.filter (fun i -> not (List.memq i same || List.memq i generic)) instances
      in
      [ same; generic; rest ]
    | exception Invalid_argument _ ->
      (* Unknown device: any capacity will do, the job settles as a
         validation failure. *)
      [ instances ]

let queue_full t depth = depth >= t.config.max_queue_depth

(* ---- instance availability ---- *)

let alive inst =
  match inst.state with
  | Healthy | Browned _ -> true
  | Hung | Crashed -> false

(* Admission placement: shortest live queue of the most preferred
   group with room; [Error] names the preferred instance we would have
   used, for the rejection record. *)
let place t job =
  let groups =
    candidate_groups t job
    |> List.map (List.filter alive)
    |> List.filter (fun g -> g <> [])
  in
  let by_depth g =
    List.stable_sort (fun a b -> compare (Queue.length a.queue) (Queue.length b.queue)) g
  in
  let rec go preferred = function
    | [] -> (
      match preferred with
      | Some i -> Error (Queue_full { device_id = i.id; queue_depth = Queue.length i.queue })
      | None -> Error (Queue_full { device_id = "-"; queue_depth = 0 }))
    | g :: rest -> (
      match by_depth g with
      | [] -> go preferred rest
      | best :: _ as sorted -> (
        let preferred = if preferred = None then Some best else preferred in
        match List.find_opt (fun i -> not (queue_full t (Queue.length i.queue))) sorted with
        | Some i -> Ok i
        | None -> go preferred rest))
  in
  go None groups

(* Re-placement for reclaimed jobs: first live group in preference
   order, shortest queue, ignoring the depth bound — a migrated job is
   never dropped for want of queue room.  [None] iff nothing is left
   alive. *)
let place_forced t job =
  let rec first = function
    | [] -> None
    | g :: rest -> (
      match List.filter alive g with
      | [] -> first rest
      | i :: is ->
        Some
          (List.fold_left
             (fun best c ->
               if Queue.length c.queue < Queue.length best.queue then c
               else best)
             i is))
  in
  first (candidate_groups t job)

(* ---- lifecycle ---- *)

let instance_of ?chaos ~index (device, slot) =
  {
    id = Printf.sprintf "%s#%d" (class_slug device) slot;
    device;
    index;
    queue = Queue.create ();
    running = false;
    executed = 0;
    stolen = 0;
    busy_ms = 0.0;
    state = Healthy;
    chaos_event =
      (match chaos with Some cfg -> Chaos.draw cfg ~instance:index | None -> None);
  }

(* The device an auto job executes on when a generic instance claims
   it: the pool's compute flagship, or the V100 on an all-generic
   pool. *)
let reference_device t =
  match classes t with
  | [] -> D.v100
  | cs ->
    List.fold_left
      (fun best d -> if d.D.dp_peak_gflops > best.D.dp_peak_gflops then d else best)
      (List.hd cs) (List.tl cs)

let effective_job t inst (job : Job.t) =
  if Job.is_auto job then
    let d = match inst.device with Some d -> d | None -> reference_device t in
    { job with Job.device = D.slug d }
  else job

let utilization t inst ~now =
  let span = now -. t.started_at in
  if span <= 0.0 then 0.0 else Float.min 1.0 (inst.busy_ms /. span)

(* ---- migration and quarantine ---- *)

(* A quarantined job still settles — as a permanent failure carrying
   its migration trail — so a campaign keeps its one-outcome-per-job
   shape.  Built with the lock held; the caller emits outside it. *)
let quarantine_outcome t entry ~trail ~message ~now =
  let outcome =
    {
      Engine.job = entry.q_job;
      index = entry.q_ticket;
      order = Atomic.fetch_and_add t.order 1;
      attempts = 0;
      elapsed_ms = Float.max 0.0 (now -. entry.q_admitted_at);
      timing =
        {
          Engine.queue_wait_ms = Float.max 0.0 (now -. entry.q_admitted_at);
          attempt_ms = [];
          backoff_ms = 0.0;
        };
      placement =
        Some
          {
            Engine.device_id = "-";
            admitted_to = t.instances.(entry.q_admitted_to).id;
            steals = 0;
            queue_depth = entry.q_depth;
            migrations = List.rev trail;
          };
      status =
        Engine.Failed { message; timed_out = false; retryable = false };
    }
  in
  Metrics.Counter.incr (m_failed ());
  Chaos.note_quarantine ~job:entry.q_job.Job.id;
  if t.config.retain_outcomes then
    Hashtbl.replace t.results entry.q_ticket outcome;
  t.unsettled <- t.unsettled - 1;
  outcome

(* Move stranded entries off a dead or hung instance.  Called with the
   lock held; returns the quarantined outcomes for the caller to emit
   (and broadcast) once the lock is released. *)
let migrate_entries t ~from_id entries ~now =
  let quarantined = ref [] in
  let migrated = ref 0 in
  List.iter
    (fun entry ->
      let trail = from_id :: entry.q_migrations in
      if List.length trail > t.config.max_migrations then
        quarantined :=
          quarantine_outcome t entry ~trail
            ~message:
              (Printf.sprintf
                 "quarantined after %d migration%s (last instance: %s)"
                 (List.length trail)
                 (if List.length trail = 1 then "" else "s")
                 from_id)
            ~now
          :: !quarantined
      else
        match place_forced t entry.q_job with
        | Some target ->
          Queue.push { entry with q_migrations = trail } target.queue;
          incr migrated;
          Metrics.Gauge.set (depth_gauge target)
            (float_of_int (Queue.length target.queue))
        | None ->
          quarantined :=
            quarantine_outcome t entry ~trail
              ~message:
                (Printf.sprintf
                   "lost instance %s and no live instance remains" from_id)
              ~now
            :: !quarantined)
    entries;
  if !migrated > 0 then begin
    Chaos.note_migration ~instance:from_id ~jobs:!migrated;
    Condition.broadcast t.work
  end;
  List.rev !quarantined

(* A struck instance hands back its claimed entry and everything still
   queued on it.  Called with the lock held; returns the
   quarantined outcomes, as [migrate_entries]. *)
let strand t inst entry =
  let stranded = entry :: List.of_seq (Queue.to_seq inst.queue) in
  Queue.clear inst.queue;
  Metrics.Gauge.set (depth_gauge inst) 0.0;
  migrate_entries t ~from_id:inst.id stranded ~now:(Engine.now_ms ())

(* ---- execution ---- *)

(* Hands settled outcomes to [on_outcome].  A raising sink must not
   take a worker down with jobs still queued, so the worker serves on
   and the first exception reaches the caller at [shutdown]. *)
let deliver t outcomes =
  Option.iter
    (fun f ->
      List.iter
        (fun o ->
          try f o
          with e ->
            let bt = Printexc.get_raw_backtrace () in
            Mutex.protect t.lock (fun () ->
                if t.sink_failure = None then t.sink_failure <- Some (e, bt)))
        outcomes)
    t.on_outcome

(* One claimed entry, start to finish; runs outside the fleet lock. *)
let execute t inst entry ~stolen =
  let job = effective_job t inst entry.q_job in
  let admitted_to = t.instances.(entry.q_admitted_to).id in
  if stolen then begin
    Atomic.incr t.total_steals;
    Metrics.Counter.incr (m_steals ());
    Obs.Tracer.instant ~cat:"fleet"
      ~args:
        [
          ("job", Obs.Tracer.Str job.Job.id);
          ("by", Obs.Tracer.Str inst.id);
          ("owner", Obs.Tracer.Str admitted_to);
        ]
      "steal";
    Obs.Log.info "fleet.steal"
      ~fields:
        [
          ("job", Obs.Log.Str job.Job.id);
          ("by", Obs.Log.Str inst.id);
          ("owner", Obs.Log.Str admitted_to);
        ]
  end;
  let slowdown = match inst.state with Browned f -> f | _ -> 1.0 in
  let settle () =
    Engine.settle ~backoff_ms:t.config.backoff_ms
      ~queued_at:entry.q_admitted_at job
  in
  let attempts, elapsed_ms, timing, status =
    if slowdown > 1.0 then Gpusim.Sim.with_slowdown slowdown settle
    else settle ()
  in
  let now = Engine.now_ms () in
  let latency_ms = Float.max 0.0 (now -. entry.q_admitted_at) in
  Mutex.lock t.lock;
  inst.running <- false;
  inst.executed <- inst.executed + 1;
  if stolen then inst.stolen <- inst.stolen + 1;
  inst.busy_ms <- inst.busy_ms +. elapsed_ms;
  let outcome =
    {
      Engine.job;
      index = entry.q_ticket;
      order = Atomic.fetch_and_add t.order 1;
      attempts;
      elapsed_ms;
      timing;
      placement =
        Some
          {
            Engine.device_id = inst.id;
            admitted_to;
            steals = (if stolen then 1 else 0);
            queue_depth = entry.q_depth;
            migrations = List.rev entry.q_migrations;
          };
      status;
    }
  in
  if t.config.retain_outcomes then
    Hashtbl.replace t.results entry.q_ticket outcome;
  t.unsettled <- t.unsettled - 1;
  let ok = match status with Engine.Completed _ -> true | _ -> false in
  Condition.broadcast t.changed;
  Mutex.unlock t.lock;
  Metrics.Gauge.set (util_gauge inst) (utilization t inst ~now);
  Metrics.Gauge.set (inflight_gauge inst) 0.0;
  Metrics.Counter.add (m_attempts ()) attempts;
  Metrics.Counter.incr ((if ok then m_completed else m_failed) ());
  Metrics.Histogram.observe (latency_histogram inst) latency_ms;
  let cls = class_slug inst.device in
  Obs.Health.observe ~cls ~ok ~latency_ms;
  (match status with
  | Engine.Completed report ->
    Obs.Log.debug "fleet.job_completed"
      ~fields:
        [
          ("job", Obs.Log.Str job.Job.id);
          ("instance", Obs.Log.Str inst.id);
          ("attempts", Obs.Log.Int attempts);
          ("latency_ms", Obs.Log.Float latency_ms);
        ];
    (* Drift: fault-free roofline prediction vs the measured breakdown,
       stage by stage, for the jobs that have a prediction. *)
    (match predicted_stages job with
    | Some predicted ->
      List.iter
        (fun (row : Harness.Report.Row.t) ->
          match List.assoc_opt row.Harness.Report.Row.stage predicted with
          | Some predicted_ms ->
            Obs.Health.observe_model ~stage:row.Harness.Report.Row.stage
              ~predicted_ms ~measured_ms:row.Harness.Report.Row.ms
          | None -> ())
        report.Harness.Report.stages
    | None -> ())
  | Engine.Failed f ->
    Obs.Log.error "fleet.job_failed"
      ~fields:
        [
          ("job", Obs.Log.Str job.Job.id);
          ("instance", Obs.Log.Str inst.id);
          ("attempts", Obs.Log.Int attempts);
          ("message", Obs.Log.Str f.Engine.message);
          ("timed_out", Obs.Log.Bool f.Engine.timed_out);
        ]);
  deliver t [ outcome ]

let idle inst = alive inst && not inst.running

(* The next job a free worker serves: [(inst, source, entry)] runs
   [entry], popped from [source]'s queue, as instance [inst].  Own
   queues first: of the idle live instances with queued work, the one
   whose head was admitted first.  Then, when stealing is on, the
   oldest entry of the deepest queue whose owner is executing, run by
   the first idle live instance in the job's placement order.  A queued
   idle owner always takes its own head, so stealing never beats the
   placement policy to a job the preferred device can start at once.
   Called with the lock held. *)
let next_claim t =
  let head i = (Queue.peek i.queue).q_ticket in
  let oldest best i =
    match best with
    | _ when (not (idle i)) || Queue.is_empty i.queue -> best
    | Some b when head b < head i -> best
    | _ -> Some i
  in
  let deepest best i =
    match best with
    | _ when (not i.running) || Queue.is_empty i.queue -> best
    | Some b when Queue.length b.queue >= Queue.length i.queue -> best
    | _ -> Some i
  in
  match Array.fold_left oldest None t.instances with
  | Some i -> Some (i, i, Queue.pop i.queue)
  | None when not t.config.steal -> None
  | None -> (
    match Array.fold_left deepest None t.instances with
    | None -> None
    | Some victim ->
      let entry = Queue.peek victim.queue in
      List.find_opt idle (List.concat (candidate_groups t entry.q_job))
      |> Option.map (fun thief -> (thief, victim, Queue.pop victim.queue)))

(* The chaos event destined for an instance fires the first time a
   worker claims an entry for it after it executed [after] jobs.
   Called with the lock held. *)
let chaos_due inst =
  match (inst.state, inst.chaos_event) with
  | Healthy, Some ev when inst.executed >= ev.Chaos.after -> Some ev
  | _ -> None

let worker t () =
  let rec serve () =
    Mutex.lock t.lock;
    match next_claim t with
    | Some (inst, source, entry) -> (
      match chaos_due inst with
      | Some { Chaos.kind = (Chaos.Crash | Chaos.Hang) as kind; _ } ->
        (* The instance dies or freezes with work on its hands: the
           claimed entry and everything still queued on it migrate, and
           the worker goes on serving the other instances. *)
        inst.state <- (if kind = Chaos.Crash then Crashed else Hung);
        let quarantined = strand t inst entry in
        if quarantined <> [] then Condition.broadcast t.changed;
        Mutex.unlock t.lock;
        Chaos.note_triggered kind ~instance:inst.id;
        deliver t quarantined;
        serve ()
      | due ->
        (match due with
        | Some { Chaos.kind = Chaos.Brownout; factor; _ } ->
          inst.state <- Browned factor;
          Chaos.note_triggered Chaos.Brownout ~instance:inst.id
        | _ -> ());
        inst.running <- true;
        Metrics.Gauge.set (inflight_gauge inst) 1.0;
        Metrics.Gauge.set (depth_gauge source)
          (float_of_int (Queue.length source.queue));
        (* Work left queued may be claimable by an idle worker now
           (a busy owner's queue is stealable). *)
        if Array.exists (fun i -> not (Queue.is_empty i.queue)) t.instances
        then Condition.signal t.work;
        Condition.broadcast t.changed;
        Mutex.unlock t.lock;
        execute t inst entry ~stolen:(source != inst);
        serve ())
    | None when t.stopping -> Mutex.unlock t.lock
    | None ->
      Condition.wait t.work t.lock;
      Mutex.unlock t.lock;
      serve ()
  in
  serve ()

let start t =
  Mutex.lock t.lock;
  let spawn = (not t.started) && not t.stopping in
  if spawn then begin
    t.started <- true;
    t.started_at <- Engine.now_ms ()
  end;
  Mutex.unlock t.lock;
  if spawn then
    t.workers <- Array.init t.n_workers (fun _ -> Domain.spawn (worker t))

let create ?on_outcome ?(autostart = true) ?workers (config : Config.t) =
  (match Config.validate config with
  | Ok () -> ()
  | Error message -> invalid_arg ("Fleet.create: " ^ message));
  let slots =
    List.concat_map
      (fun (device, count) -> List.init count (fun slot -> (device, slot)))
      config.Config.pool
  in
  let workers =
    min (List.length slots)
      (match workers with
      | Some n -> max 1 n
      | None -> Domain.recommended_domain_count ())
  in
  let t =
    {
      config;
      on_outcome;
      lock = Mutex.create ();
      work = Condition.create ();
      changed = Condition.create ();
      instances =
        Array.of_list
          (List.mapi
             (fun index s ->
               instance_of ?chaos:config.Config.chaos ~index s)
             slots);
      results = Hashtbl.create 64;
      next_ticket = 0;
      unsettled = 0;
      stopping = false;
      started = false;
      n_workers = workers;
      workers = [||];
      order = Atomic.make 0;
      total_steals = Atomic.make 0;
      started_at = Engine.now_ms ();
      sink_failure = None;
    }
  in
  if autostart then start t;
  t

(* ---- submission ---- *)

let submit t (job : Job.t) =
  (* Classification plans on the cost model; do it before the lock so a
     slow first classification never stalls the admission path. *)
  if Job.is_auto job then ignore (classify_job job);
  Mutex.lock t.lock;
  let result =
    if t.stopping then Error Draining
    else
      match place t job with
      | Error r as e ->
        Metrics.Counter.incr (m_rejected ());
        Obs.Tracer.instant ~cat:"fleet"
          ~args:[ ("job", Obs.Tracer.Str job.Job.id) ]
          "reject";
        Obs.Log.warn "fleet.reject"
          ~fields:
            [
              ("job", Obs.Log.Str job.Job.id);
              ("reason", Obs.Log.Str (reject_message r));
            ];
        e
      | Ok inst ->
        let ticket = t.next_ticket in
        t.next_ticket <- ticket + 1;
        let depth = Queue.length inst.queue in
        Queue.push
          {
            q_job = job;
            q_ticket = ticket;
            q_admitted_at = Engine.now_ms ();
            q_depth = depth;
            q_admitted_to = inst.index;
            q_migrations = [];
          }
          inst.queue;
        t.unsettled <- t.unsettled + 1;
        Metrics.Counter.incr (m_submitted ());
        Metrics.Gauge.set (depth_gauge inst) (float_of_int (Queue.length inst.queue));
        Obs.Tracer.instant ~cat:"fleet"
          ~args:
            [
              ("job", Obs.Tracer.Str job.Job.id);
              ("to", Obs.Tracer.Str inst.id);
              ("depth", Obs.Tracer.Int depth);
            ]
          "admit";
        Obs.Log.debug "fleet.admit"
          ~fields:
            [
              ("job", Obs.Log.Str job.Job.id);
              ("to", Obs.Log.Str inst.id);
              ("depth", Obs.Log.Int depth);
            ];
        Condition.broadcast t.work;
        Ok ticket
  in
  Mutex.unlock t.lock;
  result

let rec submit_blocking t job =
  match submit t job with
  | Ok ticket -> ticket
  | Error Draining -> invalid_arg "Fleet.submit_blocking: fleet is draining"
  | Error (Queue_full _) ->
    (* Backpressure as blocking: wait for a claim or settlement to free
       queue space, then try again. *)
    Mutex.lock t.lock;
    if t.unsettled > 0 && not t.stopping then Condition.wait t.changed t.lock;
    Mutex.unlock t.lock;
    submit_blocking t job

let await t ticket =
  Mutex.lock t.lock;
  if ticket < 0 || ticket >= t.next_ticket then begin
    Mutex.unlock t.lock;
    invalid_arg (Printf.sprintf "Fleet.await: unknown ticket %d" ticket)
  end;
  if not t.config.retain_outcomes then begin
    Mutex.unlock t.lock;
    invalid_arg "Fleet.await: outcomes are not retained (retain_outcomes)"
  end;
  let rec wait () =
    match Hashtbl.find_opt t.results ticket with
    | Some o ->
      Mutex.unlock t.lock;
      o
    | None ->
      Condition.wait t.changed t.lock;
      wait ()
  in
  wait ()

let quiesce t =
  Mutex.lock t.lock;
  while t.unsettled > 0 do
    Condition.wait t.changed t.lock
  done;
  Mutex.unlock t.lock

let drain t =
  quiesce t;
  Mutex.lock t.lock;
  let outcomes =
    Hashtbl.fold (fun _ o acc -> o :: acc) t.results []
    |> List.sort (fun a b -> compare a.Engine.index b.Engine.index)
  in
  Mutex.unlock t.lock;
  outcomes

let shutdown t =
  Mutex.lock t.lock;
  t.stopping <- true;
  Condition.broadcast t.work;
  Condition.broadcast t.changed;
  Mutex.unlock t.lock;
  if Array.length t.workers > 0 then begin
    Array.iter Domain.join t.workers;
    t.workers <- [||];
    let now = Engine.now_ms () in
    Array.iter
      (fun inst -> Metrics.Gauge.set (util_gauge inst) (utilization t inst ~now))
      t.instances
  end;
  Option.iter
    (fun (e, bt) -> Printexc.raise_with_backtrace e bt)
    t.sink_failure

(* A batch over a fresh fleet: submit everything (blocking on
   backpressure instead of rejecting — a batch has no client to answer),
   await each ticket, shut the fleet down.  Outcomes come back in
   submission order; [retain_outcomes] is forced on since [await] needs
   the results kept. *)
let run ?on_outcome (config : Config.t) jobs =
  if jobs = [] then []
  else begin
    let fleet =
      create ?on_outcome { config with Config.retain_outcomes = true }
    in
    let tickets = List.map (submit_blocking fleet) jobs in
    let outcomes = List.map (await fleet) tickets in
    shutdown fleet;
    outcomes
  end

(* ---- introspection ---- *)

type stats = {
  id : string;
  device : D.t option;
  executed : int;
  stolen : int;
  queue_depth : int;
  busy_ms : float;
  utilization : float;
  state : string;
}

let stats t =
  let now = Engine.now_ms () in
  Mutex.lock t.lock;
  let s =
    Array.to_list t.instances
    |> List.map (fun (i : instance) ->
           {
             id = i.id;
             device = i.device;
             executed = i.executed;
             stolen = i.stolen;
             queue_depth = Queue.length i.queue;
             busy_ms = i.busy_ms;
             utilization = utilization t i ~now;
             state = state_name i.state;
           })
  in
  Mutex.unlock t.lock;
  s

let steals t = Atomic.get t.total_steals
let size t = Array.length t.instances
let config t = t.config

let reject_to_json job r =
  let device_id, queue_depth =
    match r with
    | Queue_full { device_id; queue_depth } -> (device_id, queue_depth)
    | Draining -> ("-", 0)
  in
  Obs.Json.(
    Obj
      [
        ("schema", Int Engine.schema_version);
        ("status", Str "rejected");
        ("job", Job.to_json job);
        ( "error",
          Obj
            [
              ("message", Str (reject_message r));
              ("device_id", Str device_id);
              ("queue_depth", Int queue_depth);
            ] );
      ])
