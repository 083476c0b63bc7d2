(* The layer phase: microbenchmarks that call each library's public
   functions directly, one metric per layer boundary of the north-star
   stack (EFT arithmetic -> Nd_flat engines -> Flat_kernels -> pool ->
   Sim accounting -> JSON codecs -> Fleet dispatch).  Each metric is the
   median of repeated samples taken for a fixed slice of the run. *)

module P = Multidouble.Precision
module Nd = Multidouble.Nd_flat
module Scalar = Mdlinalg.Scalar
module Json = Harness.Json

(* Per-call host ms of [f], sampled for [slice] seconds (at least [min]
   samples): each sample times a batch of calls sized to about 2 ms, so
   the shortest calls stay clear of the clock's granularity and a
   metric keeps a few hundred samples at most. *)
let sample ?(min = 5) ~slice f =
  let first, () = Host.timed_ms f in
  let batch = max 1 (int_of_float (2.0 /. Float.max first 1e-4)) in
  let t0 = Host.now () in
  let rec go acc n =
    if n >= min && Host.now () -. t0 >= slice then List.rev acc
    else
      let ms, () =
        Host.timed_ms (fun () ->
            for _ = 1 to batch do
              f ()
            done)
      in
      go ((ms /. float_of_int batch) :: acc) (n + 1)
  in
  go [] 0

(* [record l name ~scale samples]: the median of the samples, each
   multiplied by [scale] (a unit change or a per-operation share). *)
let record (l : Ledger.t) ?(scale = 1.0) name samples =
  Ledger.median_of l name (List.map (fun x -> x *. scale) samples)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* ---- md: one multiply-accumulate, flat engine against boxed scalar ---- *)

module Md (K : Scalar.S) = struct
  let n = 1024

  let run (l : Ledger.t) ~slice =
    let label = P.label K.prec in
    let plan = Option.get (Nd.plan ~limbs:K.width) in
    let rng = Dompool.Prng.create 11 in
    let xs = Array.init n (fun _ -> K.random rng) in
    let ys = Array.init n (fun _ -> K.random rng) in
    let stage v =
      let p = Nd.make_planes ~limbs:K.width n in
      Array.iteri
        (fun i x -> Array.iteri (fun k w -> Nd.set p k i w) (K.to_planes x))
        v;
      p
    in
    let xp = stage xs and yp = stage ys in
    let out = Nd.make_planes ~limbs:K.width 1 in
    let c = plan.Nd.make_ctx () in
    let flat () =
      plan.Nd.clear c;
      for i = 0 to n - 1 do
        plan.Nd.mul_add c xp i yp i
      done;
      plan.Nd.store c out 0
    in
    let boxed_acc = ref K.zero in
    let boxed () =
      let acc = ref K.zero in
      for i = 0 to n - 1 do
        acc := K.add !acc (K.mul xs.(i) ys.(i))
      done;
      boxed_acc := !acc
    in
    let ns = 1e6 /. float_of_int n in
    let flat_ns = List.map (fun ms -> ms *. ns) (sample ~slice flat) in
    record l ("md.flat_mul_add_ns." ^ label) flat_ns;
    record l ~scale:ns ("md.boxed_mul_add_ns." ^ label) (sample ~slice boxed);
    (* The flat engine replays the boxed operation sequence: the two
       accumulators must agree limb for limb. *)
    let flat_limbs = Array.init K.width (fun k -> Nd.get out k 0) in
    if not (same_bits flat_limbs (K.to_planes !boxed_acc)) then
      Ledger.error l "md %s: flat and boxed multiply-accumulate disagree" label;
    Stats.median flat_ns
end

module Md2 = Md (Scalar.Dd)
module Md4 = Md (Scalar.Qd)
module Md8 = Md (Scalar.Od)

(* ---- linalg: the matmul microkernel, staging and unstaging ---- *)

module Flat (K : Scalar.S) = struct
  module F = Mdlinalg.Flat_kernels.Make (K)
  module M = Mdlinalg.Mat.Make (K)
  module Rand = Mdlinalg.Randmat.Make (K)

  (* A 32 x 32 product over an inner dimension of 32, in blocks of 32
     output elements spread over the default pool as [Sim.launch] does;
     staging is timed on a 128 x 128 operand. *)
  let n = 32
  let threads = 32
  let staged = 128

  let run (l : Ledger.t) ~slice =
    let label = P.label K.prec in
    let pool = Dompool.Domain_pool.get_default () in
    let rng = Dompool.Prng.create 13 in
    let a = Rand.matrix rng n n and b = Rand.matrix rng n n in
    let big = Rand.matrix rng staged staged in
    let ap = F.stage ~rows:n ~cols:n ~get:(M.get a) in
    let bp = F.stage ~rows:n ~cols:n ~get:(M.get b) in
    let cp = F.alloc ~rows:n ~cols:n in
    let bigp = F.stage ~rows:staged ~cols:staged ~get:(M.get big) in
    let sink = M.create staged staged in
    let matmul () =
      Dompool.Domain_pool.parallel_for ~chunk:1 pool 0 (n * n / threads)
        (F.matmul_block ~threads ap bp cp)
    in
    let stage () = ignore (F.stage ~rows:staged ~cols:staged ~get:(M.get big)) in
    let unstage () = F.unstage bigp ~store:(M.set sink) in
    record l ("flat.matmul_ms." ^ label) (sample ~slice matmul);
    record l ("flat.stage_ms." ^ label) (sample ~slice:(slice /. 2.0) stage);
    record l ("flat.unstage_ms." ^ label) (sample ~slice:(slice /. 2.0) unstage);
    (* The staged product against the boxed reference, and the
       stage/unstage round trip against its input. *)
    let c = M.create n n in
    F.unstage cp ~store:(M.set c);
    if not (M.equal c (M.matmul a b)) then
      Ledger.error l "flat %s: staged matmul differs from the boxed product" label;
    if not (M.equal sink big) then
      Ledger.error l "flat %s: stage/unstage does not round-trip" label
end

module Flat2 = Flat (Scalar.Dd)
module Flat4 = Flat (Scalar.Qd)
module Flat8 = Flat (Scalar.Od)

(* ---- parallel: an empty 64-block parallel_for ---- *)

let pool (l : Ledger.t) ~slice =
  let pool = Dompool.Domain_pool.get_default () in
  let hits = Atomic.make 0 in
  record l ~scale:1000.0 "pool.parallel_for_us"
    (sample ~slice (fun () ->
         Dompool.Domain_pool.parallel_for ~chunk:1 pool 0 64 (fun _ -> ())));
  Dompool.Domain_pool.parallel_for ~chunk:1 pool 0 64 (fun _ -> Atomic.incr hits);
  if Atomic.get hits <> 64 then Ledger.error l "pool: parallel_for skipped blocks"

(* ---- gpusim: cost accounting per launch of a planning run ---- *)

let sim (l : Ledger.t) ~slice =
  let module S = Lsq_core.Solver.Make (Scalar.Dd) in
  let plan () =
    S.plan ~method_:Lsq_core.Solver.Qr_direct ~device:Gpusim.Device.v100
      ~rows:1024 ~cols:1024 ~tile:128 ()
  in
  let launches = float_of_int (plan ()).S.launches in
  record l ~scale:(1000.0 /. launches) "sim.plan_us_per_launch"
    (sample ~slice (fun () -> ignore (plan ())))

(* ---- harness: the JSON codecs on the serve path ---- *)

let table10_job =
  Sched.Job.make ~id:"table10-v100-2d" ~kind:Sched.Job.Solve ~device:"V100"
    ~prec:P.DD ~dim:1024 ~tile:128 ()

let fault_job_line =
  Sched.Job.make ~id:"serve-fault" ~kind:Sched.Job.Solve
    ~device:Sched.Job.auto_device ~prec:P.DD ~dim:64 ~tile:16 ~execute:true
    ~fault_rate:0.05 ~fault_seed:7 ()
  |> Sched.Job.to_json |> Json.to_string

let harness (l : Ledger.t) ~slice =
  let report = Sched.Engine.run_job table10_job in
  let attempts, elapsed_ms, timing, status =
    Sched.Engine.settle ~backoff_ms:1.0 ~queued_at:(Sched.Engine.now_ms ())
      table10_job
  in
  let outcome =
    {
      Sched.Engine.job = table10_job;
      index = 0;
      order = 0;
      attempts;
      elapsed_ms;
      timing;
      placement = None;
      status;
    }
  in
  let us name f = record l ~scale:1000.0 name (sample ~slice f) in
  let encoded = ref "" and outcome_line = ref "" and decoded = ref None in
  us "harness.report_encode_us" (fun () ->
      encoded := Harness.Report.to_json_string report);
  us "harness.outcome_encode_us" (fun () ->
      outcome_line := Json.to_string (Sched.Engine.outcome_to_json outcome));
  us "harness.job_decode_us" (fun () ->
      decoded := Some (Sched.Job.of_json (Json.of_string fault_job_line)));
  if Harness.Report.of_json_string !encoded <> report then
    Ledger.error l "harness: report does not round-trip";
  if Json.to_string (Sched.Job.to_json (Option.get !decoded)) <> fault_job_line
  then Ledger.error l "harness: job line does not round-trip";
  if
    Json.to_string
      (Sched.Engine.outcome_to_json
         (Sched.Engine.outcome_of_json (Json.of_string !outcome_line)))
    <> !outcome_line
  then Ledger.error l "harness: outcome line does not round-trip"

(* ---- sched: submit-to-outcome on an idle two-instance fleet ---- *)

let fleet (l : Ledger.t) ~slice =
  let config =
    {
      Sched.Fleet.Config.default with
      pool = Sched.Fleet.Config.pool_of_string "v100=1,rtx2080=1";
    }
  in
  let fleet = Sched.Fleet.create config in
  let k = ref 0 in
  let waits = ref [] in
  let roundtrip () =
    incr k;
    let job =
      Sched.Job.make ~id:(Printf.sprintf "fleet-%d" !k) ~kind:Sched.Job.Qr
        ~device:"V100" ~prec:P.DD ~dim:64 ~tile:16 ()
    in
    match Sched.Fleet.submit fleet job with
    | Ok ticket -> (
      match Sched.Fleet.await fleet ticket with
      | { Sched.Engine.status = Sched.Engine.Completed _; timing; _ } ->
        waits := timing.Sched.Engine.queue_wait_ms :: !waits
      | _ -> Ledger.error l "fleet: job %d failed" !k)
    | Error _ -> Ledger.error l "fleet: job %d was rejected" !k
  in
  let samples =
    Fun.protect
      ~finally:(fun () -> Sched.Fleet.shutdown fleet)
      (fun () -> sample ~slice roundtrip)
  in
  record l ~scale:1000.0 "fleet.roundtrip_us" samples;
  if !waits <> [] then record l ~scale:1000.0 "fleet.queue_wait_us" !waits

(* The whole phase; [budget] seconds split over the layers. *)
let run (l : Ledger.t) ~budget =
  let slice = budget /. 16.0 in
  let f2 = Md2.run l ~slice in
  let f4 = Md4.run l ~slice in
  let f8 = Md8.run l ~slice in
  Ledger.metric l "md.host_overhead.4d_over_2d" (f4 /. f2);
  Ledger.metric l "md.host_overhead.8d_over_4d" (f8 /. f4);
  Flat2.run l ~slice;
  Flat4.run l ~slice;
  Flat8.run l ~slice;
  pool l ~slice;
  sim l ~slice;
  harness l ~slice:(slice /. 3.0);
  fleet l ~slice
