(* The simulated accelerator: kernel launches execute their data-parallel
   body on a domain pool (blocks in parallel, the threads of one block
   sequentially, which preserves the data-parallel semantics of the
   algorithms), while the cost model accounts the milliseconds the same
   launch takes on a given physical device.

   With [execute = false] a launch is costed without running its body, so
   the large-dimension experiments of the paper can be timed without
   executing trillions of host flops; the test suite validates the
   numerical results with execution on at smaller dimensions.

   Every launch and transfer is observable: when [Obs.Tracer] is
   recording, launches emit kernel spans (grid/block dims, stage,
   modeled ms, op tally) plus a counter track carrying the simulated
   device clock, and transfers emit instant events; the process-wide
   [Obs.Metrics] registry always tallies launches, transfers and the
   modeled kernel milliseconds.

   Plan-only jobs at the paper's dimensions are thousands of launches
   whose only work is this accounting, so one launch evaluates the
   roofline once and feeds the profile's unboxed sums straight from it;
   with the tracer off and no fault plan armed it allocates no closure
   either.  Two more things are resolved once per simulator rather than
   once per launch, and neither moves an output bit:

   - The occupancy term.  It depends only on the device and the launch's
     (blocks, threads), and a plan repeats a few hundred shapes, so each
     simulator keeps a small direct-mapped memo of it ([Cost.memo]).  A
     hit returns the value [Cost.occupancy] computed for that key, and
     the roofline body is the one [Cost.evaluate] runs.  The memo is
     per simulator, not global, because one simulator's accounting runs
     on one domain while fleet workers plan concurrently.
   - The [sim.launches] and [sim.kernel_ms] shards of the creating
     domain.  A launch accounted there adds to them directly; the
     registry path would reach the same shards with the same values in
     the same order.  A launch accounted on any other domain falls back
     to the registry path, which writes that domain's own shard, so no
     shard is ever written by two domains.

   The traced path samples a running device-ms total kept in [clock], in
   launch order, instead of folding the profile on every launch;
   [kernel_ms] and the reports keep the fold. *)

(* The wall-clock terms outside the kernels, and the running device
   clock the trace's counter track samples.  A flat float record, so the
   per-launch updates store unboxed. *)
type clock = {
  mutable transfer_ms : float;
  mutable host_ms : float;
  mutable peak_bytes : float; (* largest resident data set, for RAM model *)
  mutable device_ms : float; (* kernel ms, summed in launch order *)
}

(* A domain's ambient simulator settings: whether it is in a what-if
   scope (see [what_if]) and its brownout slowdown (see
   [with_slowdown]).  The record's identity also tells the domain that
   created a simulator from any other.  Not all floats, so [slowdown]
   stays boxed and a launch passes it on without boxing it again. *)
type domain_state = { mutable what_if : bool; mutable slowdown : float }

let domain_key =
  Domain.DLS.new_key (fun () -> { what_if = false; slowdown = 1.0 })

(* The [sim.*] metric shards of the domain that created the simulator,
   taken once at [create]. *)
type meter = {
  home : domain_state;
  launches_shard : Obs.Metrics.Counter.shard;
  kernel_ms_shard : Obs.Metrics.Histogram.shard;
}

type t = {
  device : Device.t;
  prec : Multidouble.Precision.tag;
  pool : Dompool.Domain_pool.t;
  mutable execute : bool;
  profile : Profile.t;
  clock : clock;
  memo : Cost.memo;
  meter : meter;
  fault : Fault.Plan.t option;
  mutable corruptor : (Dompool.Prng.t -> string) option;
  metered : bool;
}

(* Handles resolve on first use via [Metrics.once]: a plain [lazy]
   raises under the concurrent first force the fleet's worker domains
   produce. *)
let m_launches =
  Obs.Metrics.once (fun () ->
      Obs.Metrics.counter (Obs.Metrics.default ()) "sim.launches")

let m_transfers =
  Obs.Metrics.once (fun () ->
      Obs.Metrics.counter (Obs.Metrics.default ()) "sim.transfers")

let m_kernel_ms =
  Obs.Metrics.once (fun () ->
      Obs.Metrics.histogram (Obs.Metrics.default ()) "sim.kernel_ms")

(* What-if scope: a simulator created in it accrues its launches and
   transfers as any other but counts them in no [sim.*] metric, and the
   domain's trace records nothing while it lasts. *)
let what_if f =
  let d = Domain.DLS.get domain_key in
  let was = d.what_if in
  d.what_if <- true;
  Fun.protect
    ~finally:(fun () -> d.what_if <- was)
    (fun () -> Obs.Tracer.muted f)

let create ?(execute = true) ?pool ?fault ?(fault_salt = 0) ~device ~prec () =
  let pool =
    match pool with Some p -> p | None -> Dompool.Domain_pool.get_default ()
  in
  let here = Domain.DLS.get domain_key in
  {
    device;
    prec;
    pool;
    execute;
    profile = Profile.create ();
    clock =
      { transfer_ms = 0.0; host_ms = 0.0; peak_bytes = 0.0; device_ms = 0.0 };
    memo = Cost.memo device;
    meter =
      {
        home = here;
        launches_shard = Obs.Metrics.Counter.shard (m_launches ());
        kernel_ms_shard = Obs.Metrics.Histogram.shard (m_kernel_ms ());
      };
    fault = Option.map (fun cfg -> Fault.Plan.arm ~salt:fault_salt cfg) fault;
    corruptor = None;
    metered = not here.what_if;
  }

(* Ambient brownout slowdown: a browned-out device runs every kernel and
   transfer [factor] times slower.  Domain-local, so a fleet worker can
   wrap one job's execution without perturbing the cost model of jobs
   running concurrently on healthy instances.  Read at accounting time on
   the launching domain (kernel bodies may run on pool domains, but
   [account]/[transfer] never do). *)
let ambient_slowdown () = (Domain.DLS.get domain_key).slowdown

let with_slowdown factor f =
  if Float.is_nan factor || factor < 1.0 then
    invalid_arg
      (Printf.sprintf "Gpusim.Sim.with_slowdown: factor %g must be >= 1"
         factor);
  let d = Domain.DLS.get domain_key in
  let prev = d.slowdown in
  d.slowdown <- prev *. factor;
  Fun.protect ~finally:(fun () -> d.slowdown <- prev) f

let fault_plan t = t.fault
let fault_tally t = Option.map Fault.Plan.snapshot t.fault
let set_corruptor t c = t.corruptor <- c

let reset t =
  Profile.reset t.profile;
  t.clock.transfer_ms <- 0.0;
  t.clock.host_ms <- 0.0;
  t.clock.peak_bytes <- 0.0;
  t.clock.device_ms <- 0.0

(* Cost accounting of one launch: one roofline evaluation (at the
   memoized occupancy) feeds the modeled milliseconds and time terms to
   the profile and the running device clock, the per-launch host cost
   goes to [host_ms], and the registry tallies (unless the simulator is
   a what-if's) — through the shards taken at [create] on the creating
   domain, through the registry on any other.  Returns the evaluation,
   which the tracer reads; a float result would be boxed on every
   launch. *)
let account t ~stage ~(cost : Cost.launch) =
  let here = Domain.DLS.get domain_key in
  let slowdown = here.slowdown in
  let e = Cost.evaluate_memo t.memo t.prec cost in
  Profile.record t.profile ~stage ~slowdown cost e;
  let ms = e.Cost.ms *. slowdown in
  t.clock.device_ms <- t.clock.device_ms +. ms;
  t.clock.host_ms <-
    t.clock.host_ms
    +. (float_of_int cost.Cost.count *. Cost.host_launch_ms t.device);
  if t.metered then begin
    if here == t.meter.home then begin
      Obs.Metrics.Counter.shard_add t.meter.launches_shard cost.Cost.count;
      Obs.Metrics.Histogram.shard_observe t.meter.kernel_ms_shard ms
    end
    else begin
      Obs.Metrics.Counter.add (m_launches ()) cost.Cost.count;
      Obs.Metrics.Histogram.observe (m_kernel_ms ()) ms
    end
  end;
  e

(* Runs [run] under a kernel span carrying the launch's shape and cost,
   then samples the simulated device clock as a counter track (the host
   span shows when the simulator worked, the counter what the device
   clock advanced to). *)
let traced t ~stage ~(cost : Cost.launch) (e : Cost.eval) run =
  if not (Obs.Tracer.enabled ()) then run ()
  else begin
    let ms = e.Cost.ms *. ambient_slowdown () in
    let args =
      [
        ("blocks", Obs.Tracer.Int cost.Cost.blocks);
        ("threads", Obs.Tracer.Int cost.Cost.threads);
        ("count", Obs.Tracer.Int cost.Cost.count);
        ("device_ms", Obs.Tracer.Float ms);
        ("ops", Obs.Tracer.Float (Counter.total cost.Cost.ops));
      ]
    in
    Obs.Tracer.span ~cat:"kernel" ~args stage run;
    Obs.Tracer.counter "sim.device_ms" t.clock.device_ms
  end

(* Fault envelope around one kernel launch.  Drawn once per issued
   launch from the plan's injection stream (the driver issues launches
   sequentially, so the stream — and with it the whole campaign — is
   deterministic).  A [Launch_fail] costs a relaunch (the cost model is
   charged again) up to the plan's relaunch budget, then escalates; a
   [Bitflip] lets the kernel run and then corrupts live data through the
   registered corruptor. *)
let run_faulted t plan ~stage ~cost run =
  let rec attempt relaunches =
    let can_corrupt = t.execute && t.corruptor <> None in
    match Fault.Plan.draw_launch plan ~can_corrupt with
    | None | Some Fault.Plan.Transfer_corrupt -> run ()
    | Some Fault.Plan.Launch_fail ->
        Fault.Plan.note_launch_fail plan ~stage;
        if relaunches < Fault.Plan.max_relaunches plan then begin
          ignore (account t ~stage ~cost : Cost.eval);
          Fault.Plan.note_relaunch plan ~stage;
          attempt (relaunches + 1)
        end
        else begin
          Fault.Plan.note_escalation plan ~stage;
          Obs.Log.warn "sim.fault_escalation"
            ~fields:
              [
                ("fault", Obs.Log.Str "launch_fail");
                ("stage", Obs.Log.Str stage);
                ("relaunches", Obs.Log.Int relaunches);
              ];
          raise (Fault.Plan.Injected (Fault.Plan.Launch_fail, stage))
        end
    | Some Fault.Plan.Bitflip ->
        run ();
        Fault.Plan.note_bitflip plan ~stage;
        (match t.corruptor with
        | Some flip when t.execute ->
            let what = flip (Fault.Plan.aux_rng plan) in
            Fault.Plan.note_corruption plan ~stage ~what
        | _ -> ())
  in
  attempt 0

let with_faults t ~protected ~stage ~cost run =
  match t.fault with
  | Some plan when not protected -> run_faulted t plan ~stage ~cost run
  | _ -> run ()

(* Runs the grid when executing: blocks in parallel on the pool. *)
let run_grid t ~(cost : Cost.launch) body =
  if t.execute then
    if cost.Cost.blocks = 1 then body 0
    else Dompool.Domain_pool.parallel_for ~chunk:1 t.pool 0 cost.Cost.blocks body

(* [launch t ~stage ~cost body] accounts one kernel under [stage] and, when
   executing, runs [body block] for every block of the grid in parallel.
   [protected] launches (the solvers' ABFT check kernels) are exempt from
   fault injection.  With the tracer off and no fault plan to draw from,
   [traced] and [with_faults] would only call through, so the grid runs
   directly and the launch allocates no closure. *)
let launch ?(protected = false) t ~stage ~cost body =
  let e = account t ~stage ~cost in
  if (protected || Option.is_none t.fault) && not (Obs.Tracer.enabled ()) then
    run_grid t ~cost body
  else
    traced t ~stage ~cost e (fun () ->
        with_faults t ~protected ~stage ~cost (fun () ->
            run_grid t ~cost body))

(* Host <-> device staging of [bytes]; shows up in wall clock only.
   Transfer corruption is always caught (staged planes carry checksums
   verified at unpack), so the fault path retransfers — charging the
   transfer time again — up to the relaunch budget, then escalates. *)
let transfer t bytes =
  t.clock.peak_bytes <- Float.max t.clock.peak_bytes bytes;
  let ms = Cost.transfer_ms t.device bytes *. ambient_slowdown () in
  t.clock.transfer_ms <- t.clock.transfer_ms +. ms;
  if t.metered then Obs.Metrics.Counter.incr (m_transfers ());
  if Obs.Tracer.enabled () then
    Obs.Tracer.instant ~cat:"transfer"
      ~args:
        [ ("bytes", Obs.Tracer.Float bytes); ("device_ms", Obs.Tracer.Float ms) ]
      "transfer";
  match t.fault with
  | None -> ()
  | Some plan ->
      let rec settle retransfers =
        match Fault.Plan.draw_transfer plan with
        | None -> ()
        | Some _ ->
            Fault.Plan.note_transfer_fault plan;
            if retransfers < Fault.Plan.max_relaunches plan then begin
              t.clock.transfer_ms <- t.clock.transfer_ms +. ms;
              Fault.Plan.note_retransfer plan;
              settle (retransfers + 1)
            end
            else begin
              Fault.Plan.note_escalation plan ~stage:"transfer";
              Obs.Log.warn "sim.fault_escalation"
                ~fields:
                  [
                    ("fault", Obs.Log.Str "transfer_corrupt");
                    ("stage", Obs.Log.Str "transfer");
                    ("retransfers", Obs.Log.Int retransfers);
                  ];
              raise
                (Fault.Plan.Injected (Fault.Plan.Transfer_corrupt, "transfer"))
            end
      in
      settle 0

let kernel_ms t = Profile.total_ms t.profile

let wall_ms t =
  kernel_ms t +. t.clock.transfer_ms +. t.clock.host_ms
  +. Cost.host_pressure_ms t.device t.clock.peak_bytes

let launches t = Profile.total_launches t.profile

(* The per-stage rows (ms, launches, op tallies, traffic), in
   first-recorded order.  Each simulator owns its profile, so a batch of
   concurrent jobs — one (or a few) simulators per job, all sharing one
   domain pool — reads its own breakdown without seeing a neighbour's
   launches. *)
let breakdown t = Profile.rows t.profile

(* Per-stage roofline diagnostics against this simulator's device. *)
let roofline t = Profile.roofline t.device t.prec (Profile.rows t.profile)

(* Gigaflops over the time spent by the kernels ("kernel flops"). *)
let kernel_gflops t =
  let ms = kernel_ms t in
  if ms <= 0.0 then 0.0
  else Counter.flops t.prec (Profile.total_ops t.profile) /. (ms *. 1e6)

(* Gigaflops over the wall clock ("wall flops"). *)
let wall_gflops t =
  let ms = wall_ms t in
  if ms <= 0.0 then 0.0
  else Counter.flops t.prec (Profile.total_ops t.profile) /. (ms *. 1e6)
