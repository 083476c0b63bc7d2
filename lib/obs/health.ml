(* Health/SLO plane over the fleet's outcome stream.

   Two signals, both cheap enough to update on every job completion:

   - Per-class rolling latency windows (a fixed ring of the most recent
     samples) checked against optional p95 SLO targets, plus failure
     counting against a per-class error budget.  Classes here are the
     fleet's outcome classes ("ok", "degraded", "failed", ...) or any
     caller-chosen partition.

   - A cost-model drift detector: callers feed (predicted, measured)
     stage times — predictions from the roofline cost model, measures
     from the simulator's breakdown — and the detector keeps per-stage
     accumulators.  When the measured/predicted ratio leaves the
     tolerance band it raises a structured [model_drift] warning through
     {!Log}, once per stage per excursion.

   Updates are guarded by one mutex: the callers are fleet workers at
   job-completion frequency, far off any hot path. *)

let window_capacity = 512

type window = {
  mutable samples : float array;
  mutable filled : int;  (* valid entries *)
  mutable next : int;  (* ring cursor *)
  mutable total : int;  (* outcomes ever observed *)
  mutable failures : int;  (* failed outcomes ever observed *)
}

type cls_state = { name : string; w : window }

type drift_state = {
  stage : string;
  mutable predicted_ms : float;
  mutable measured_ms : float;
  mutable samples : int;
  mutable warned : bool;  (* current excursion already reported *)
}

let lock = Mutex.create ()
let classes : (string, cls_state) Hashtbl.t = Hashtbl.create 8
let slos : (string, float) Hashtbl.t = Hashtbl.create 8
let budgets : (string, float) Hashtbl.t = Hashtbl.create 8
let stages : (string, drift_state) Hashtbl.t = Hashtbl.create 8
let tolerance = Atomic.make 0.25

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let reset () =
  locked (fun () ->
      Hashtbl.reset classes;
      Hashtbl.reset slos;
      Hashtbl.reset budgets;
      Hashtbl.reset stages);
  Atomic.set tolerance 0.25

let set_slo ~cls ~p95_ms =
  if not (Float.is_finite p95_ms) || p95_ms <= 0.0 then
    invalid_arg "Health.set_slo: p95_ms must be positive";
  locked (fun () -> Hashtbl.replace slos cls p95_ms)

(* [fraction] is the tolerated failed share of all outcomes, e.g. 0.05
   allows one failure in twenty.  It is positive, so the share of the
   budget used is always finite. *)
let set_error_budget ~cls fraction =
  if not (Float.is_finite fraction) || fraction <= 0.0 || fraction > 1.0 then
    invalid_arg "Health.set_error_budget: fraction must be in (0,1]";
  locked (fun () -> Hashtbl.replace budgets cls fraction)

let set_drift_tolerance tol =
  if not (Float.is_finite tol) || tol <= 0.0 then
    invalid_arg "Health.set_drift_tolerance: tolerance must be positive";
  Atomic.set tolerance tol

let drift_tolerance () = Atomic.get tolerance

let cls_state name =
  match Hashtbl.find_opt classes name with
  | Some s -> s
  | None ->
    let s =
      {
        name;
        w =
          { samples = Array.make 16 0.0; filled = 0; next = 0; total = 0;
            failures = 0 };
      }
    in
    Hashtbl.replace classes name s;
    s

let observe ~cls ~ok ~latency_ms =
  locked (fun () ->
      let s = cls_state cls in
      let w = s.w in
      if
        w.filled = Array.length w.samples
        && Array.length w.samples < window_capacity
      then begin
        (* Grow towards the cap; the ring is full so it reads in order
           from [next]. *)
        let n = min window_capacity (2 * Array.length w.samples) in
        let grown = Array.make n 0.0 in
        for i = 0 to w.filled - 1 do
          grown.(i) <- w.samples.((w.next + i) mod w.filled)
        done;
        w.samples <- grown;
        w.next <- w.filled
      end;
      w.samples.(w.next) <- latency_ms;
      w.next <- (w.next + 1) mod Array.length w.samples;
      if w.filled < Array.length w.samples then w.filled <- w.filled + 1;
      w.total <- w.total + 1;
      if not ok then w.failures <- w.failures + 1)

let window_p95 w =
  if w.filled = 0 then None
  else begin
    let xs = Array.sub w.samples 0 w.filled in
    Array.sort Float.compare xs;
    (* Nearest-rank p95 over the window. *)
    let rank = int_of_float (ceil (0.95 *. float_of_int w.filled)) - 1 in
    Some xs.(max 0 (min (w.filled - 1) rank))
  end

type class_status = {
  cls : string;
  window : int;  (* samples in the rolling window *)
  p95_ms : float option;
  slo_ms : float option;
  slo_ok : bool;
  total : int;
  failures : int;
  budget : float option;
  budget_used : float;  (* fraction of the budget consumed; 0 when unset *)
  budget_ok : bool;
}

let class_status_locked s =
  let p95_ms = window_p95 s.w in
  let slo_ms = Hashtbl.find_opt slos s.name in
  let slo_ok =
    match (p95_ms, slo_ms) with
    | Some p, Some target -> p <= target
    | _ -> true
  in
  let budget = Hashtbl.find_opt budgets s.name in
  let failure_rate =
    if s.w.total = 0 then 0.0
    else float_of_int s.w.failures /. float_of_int s.w.total
  in
  let budget_used =
    match budget with Some b -> failure_rate /. b | None -> 0.0
  in
  let budget_ok = budget = None || budget_used <= 1.0 in
  {
    cls = s.name;
    window = s.w.filled;
    p95_ms;
    slo_ms;
    slo_ok;
    total = s.w.total;
    failures = s.w.failures;
    budget;
    budget_used;
    budget_ok;
  }

let status () =
  locked (fun () ->
      Hashtbl.fold (fun _ s acc -> class_status_locked s :: acc) classes []
      |> List.sort (fun a b -> String.compare a.cls b.cls))

(* ---- cost-model drift ---- *)

type stage_drift = {
  stage : string;
  predicted_ms : float;
  measured_ms : float;
  ratio : float;  (* measured / predicted *)
  samples : int;
  drifted : bool;
}

let stage_drift_locked tol (d : drift_state) =
  let ratio =
    if d.predicted_ms > 0.0 then d.measured_ms /. d.predicted_ms else 1.0
  in
  {
    stage = d.stage;
    predicted_ms = d.predicted_ms;
    measured_ms = d.measured_ms;
    ratio;
    samples = d.samples;
    drifted = d.samples > 0 && Float.abs (ratio -. 1.0) > tol;
  }

let observe_model ~stage ~predicted_ms ~measured_ms =
  if
    Float.is_finite predicted_ms && Float.is_finite measured_ms
    && predicted_ms >= 0.0 && measured_ms >= 0.0
  then begin
    let report =
      locked (fun () ->
          let d =
            match Hashtbl.find_opt stages stage with
            | Some d -> d
            | None ->
              let d =
                { stage; predicted_ms = 0.0; measured_ms = 0.0; samples = 0;
                  warned = false }
              in
              Hashtbl.replace stages stage d;
              d
          in
          d.predicted_ms <- d.predicted_ms +. predicted_ms;
          d.measured_ms <- d.measured_ms +. measured_ms;
          d.samples <- d.samples + 1;
          let s = stage_drift_locked (Atomic.get tolerance) d in
          if s.drifted && not d.warned then begin
            d.warned <- true;
            Some s
          end
          else begin
            if not s.drifted then d.warned <- false;
            None
          end)
    in
    (* The warning is raised outside the lock — the Channel sink writes
       synchronously. *)
    match report with
    | Some s ->
      Log.warn "model_drift"
        ~fields:
          [
            ("stage", Log.Str s.stage);
            ("predicted_ms", Log.Float s.predicted_ms);
            ("measured_ms", Log.Float s.measured_ms);
            ("ratio", Log.Float s.ratio);
            ("tolerance", Log.Float (Atomic.get tolerance));
            ("samples", Log.Int s.samples);
          ]
    | None -> ()
  end

let drift () =
  let tol = Atomic.get tolerance in
  locked (fun () ->
      Hashtbl.fold (fun _ d acc -> stage_drift_locked tol d :: acc) stages []
      |> List.sort (fun a b -> String.compare a.stage b.stage))
