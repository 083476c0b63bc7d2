(* Tests for the fault-injection plane: plan configs and seeded draw
   streams, checksum and validator detectors, simulator-level
   retransfer/escalation, executed recovery through the runners, and
   the scheduler's retryable-vs-permanent failure classification. *)

module P = Multidouble.Precision
module Plan = Fault.Plan
module Checksum = Fault.Checksum
module Detect = Fault.Detect
module Sim = Gpusim.Sim
module Device = Gpusim.Device
module R = Harness.Runners
module Report = Harness.Report
module Json = Harness.Json
module Job = Sched.Job
module S = Sched.Engine
module Fleet = Sched.Fleet

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let device = Device.v100

(* ---- plan configs ---- *)

let rejects what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s accepted" what

let test_config_validation () =
  rejects "NaN rate" (fun () -> Plan.config ~seed:1 ~rate:Float.nan ());
  rejects "negative rate" (fun () -> Plan.config ~seed:1 ~rate:(-0.1) ());
  rejects "rate above one" (fun () -> Plan.config ~seed:1 ~rate:1.5 ());
  rejects "empty kinds" (fun () ->
      Plan.config ~kinds:[] ~seed:1 ~rate:0.5 ());
  rejects "negative relaunch budget" (fun () ->
      Plan.config ~max_relaunches:(-1) ~seed:1 ~rate:0.5 ());
  rejects "negative replay budget" (fun () ->
      Plan.config ~max_replays:(-1) ~seed:1 ~rate:0.5 ());
  let c = Plan.config ~seed:7 ~rate:0.25 () in
  check "defaults: all kinds armed" true (c.Plan.kinds = Plan.all_kinds);
  checki "defaults: two relaunches" 2 c.Plan.max_relaunches;
  checki "defaults: two replays" 2 c.Plan.max_replays;
  (* The boundary rates are legal: 0 is an armed-but-silent plan. *)
  ignore (Plan.config ~seed:1 ~rate:0.0 ());
  ignore (Plan.config ~seed:1 ~rate:1.0 ())

let test_kind_names () =
  List.iter
    (fun k ->
      check
        ("round-trip " ^ Plan.kind_name k)
        true
        (Plan.kind_of_string (Plan.kind_name k) = k))
    Plan.all_kinds;
  check "bit-flip alias" true (Plan.kind_of_string "bit-flip" = Plan.Bitflip);
  check "launch-fail alias" true
    (Plan.kind_of_string "launch-fail" = Plan.Launch_fail);
  check "corrupt alias" true
    (Plan.kind_of_string "corrupt" = Plan.Transfer_corrupt);
  check "case and padding tolerated" true
    (Plan.kind_of_string " Flip " = Plan.Bitflip);
  rejects "unknown kind" (fun () -> Plan.kind_of_string "gamma-ray")

let draw_sequence ?salt cfg n =
  let p = Plan.arm ?salt cfg in
  List.init n (fun i -> Plan.draw_launch p ~can_corrupt:(i mod 2 = 0))

let test_draw_determinism () =
  let cfg = Plan.config ~seed:42 ~rate:0.5 () in
  check "same seed, same strikes" true
    (draw_sequence cfg 200 = draw_sequence cfg 200);
  check "salt decorrelates the stream" true
    (draw_sequence cfg 200 <> draw_sequence ~salt:1 cfg 200);
  check "different seeds differ" true
    (draw_sequence cfg 200
    <> draw_sequence (Plan.config ~seed:43 ~rate:0.5 ()) 200);
  (* Rate 0 never strikes; rate 1 with one armed kind always does. *)
  let silent = Plan.arm (Plan.config ~seed:3 ~rate:0.0 ()) in
  check "rate 0 never strikes" true
    (List.for_all
       (fun o -> o = None)
       (List.init 100 (fun _ -> Plan.draw_launch silent ~can_corrupt:true)));
  let always =
    Plan.arm (Plan.config ~kinds:[ Plan.Launch_fail ] ~seed:3 ~rate:1.0 ())
  in
  check "rate 1 always strikes" true
    (List.for_all
       (fun o -> o = Some Plan.Launch_fail)
       (List.init 100 (fun _ -> Plan.draw_launch always ~can_corrupt:false)));
  (* Bitflips need a corruptor: with none registered the draw cannot
     pick one, so a bitflip-only plan never strikes launches. *)
  let flips_only =
    Plan.arm (Plan.config ~kinds:[ Plan.Bitflip ] ~seed:3 ~rate:1.0 ())
  in
  check "bitflip needs can_corrupt" true
    (List.for_all
       (fun o -> o = None)
       (List.init 50 (fun _ -> Plan.draw_launch flips_only ~can_corrupt:false)));
  let transfers =
    Plan.arm (Plan.config ~kinds:[ Plan.Transfer_corrupt ] ~seed:3 ~rate:1.0 ())
  in
  check "transfer draws corrupt transfers" true
    (Plan.draw_transfer transfers = Some Plan.Transfer_corrupt);
  check "launch-only plans spare transfers" true
    (Plan.draw_transfer always = None)

let test_tally () =
  let p = Plan.arm (Plan.config ~seed:1 ~rate:0.5 ()) in
  check "fresh plan starts at zero" true (Plan.snapshot p = Plan.zero_tally);
  Plan.note_launch_fail p ~stage:"beta";
  Plan.note_relaunch p ~stage:"beta";
  Plan.note_bitflip p ~stage:"vb";
  Plan.note_detected p ~stage:"vb";
  Plan.note_replay p ~stage:"vb";
  Plan.note_transfer_fault p;
  Plan.note_retransfer p;
  Plan.note_escalation p ~stage:"beta";
  let t = Plan.snapshot p in
  checki "bitflips" 1 t.Plan.bitflips;
  checki "launch fails" 1 t.Plan.launch_fails;
  checki "transfer faults" 1 t.Plan.transfer_faults;
  (* Launch failures and transfer corruption are always observed, so
     they count as detections alongside the explicit detector hit. *)
  checki "detected" 3 t.Plan.detected;
  checki "relaunches" 1 t.Plan.relaunches;
  checki "retransfers" 1 t.Plan.retransfers;
  checki "replays" 1 t.Plan.replays;
  checki "escalations" 1 t.Plan.escalations;
  checki "injected sums the kinds" 3 (Plan.injected t);
  checki "recovered sums the recoveries" 3 (Plan.recovered t);
  check "merge with zero is identity" true (Plan.merge Plan.zero_tally t = t);
  checki "merge adds" 6 (Plan.injected (Plan.merge t t))

let test_flip_bit () =
  check "flipping changes the value" true (Plan.flip_bit 1.0 52 <> 1.0);
  check "sign bit negates" true (Plan.flip_bit 1.0 63 = -1.0);
  List.iter
    (fun bit ->
      List.iter
        (fun x ->
          check "flip is an involution" true
            (Plan.flip_bit (Plan.flip_bit x bit) bit = x))
        [ 1.0; -3.25; 1e-30; 0.0 ])
    [ 0; 17; 51; 52; 62; 63 ]

(* ---- detectors ---- *)

let test_checksum_detects_flips () =
  let data = Array.init 64 (fun i -> sin (float_of_int i) *. 1e3) in
  let digest = Checksum.of_array data in
  check "identical data matches" true
    (Checksum.matches digest (Checksum.of_array (Array.copy data)));
  checki "count recorded" 64 digest.Checksum.count;
  List.iter
    (fun (i, bit) ->
      let corrupt = Array.copy data in
      corrupt.(i) <- Plan.flip_bit corrupt.(i) bit;
      check
        (Printf.sprintf "flip of bit %d at %d detected" bit i)
        false
        (Checksum.matches digest (Checksum.of_array corrupt)))
    [ (1, 0); (13, 1); (31, 52); (63, 62); (40, 63) ];
  (* A swap preserves the plain sum; the index weighting catches it. *)
  let swapped = Array.copy data in
  let tmp = swapped.(3) in
  swapped.(3) <- swapped.(40);
  swapped.(40) <- tmp;
  check "swap detected" false
    (Checksum.matches digest (Checksum.of_array swapped))

let test_checksum_planes_and_scalars () =
  let a = Array.init 16 (fun i -> float_of_int (i + 1)) in
  let b = Array.init 16 (fun i -> 1.0 /. float_of_int (i + 1)) in
  check "planes digest = flattened digest" true
    (Checksum.matches
       (Checksum.of_planes [| a; b |])
       (Checksum.of_array (Array.append a b)));
  let to_planes x = [| x; x *. 0x1p-60 |] in
  let xs = Array.init 8 (fun i -> cos (float_of_int i)) in
  let digest = Checksum.of_scalars ~to_planes xs in
  check "scalar digest reproducible" true
    (Checksum.matches digest (Checksum.of_scalars ~to_planes xs));
  let corrupt = Array.copy xs in
  corrupt.(5) <- Plan.flip_bit corrupt.(5) 3;
  check "scalar limb flip detected" false
    (Checksum.matches digest (Checksum.of_scalars ~to_planes corrupt));
  (* NaN-safe: a digest over NaN data still matches itself bit-wise. *)
  let poisoned = [| 1.0; Float.nan; 3.0 |] in
  check "NaN digests compare bit-wise" true
    (Checksum.matches (Checksum.of_array poisoned)
       (Checksum.of_array (Array.copy poisoned)))

let test_validators () =
  check "finite accepts finite data" true (Detect.finite [| 1.0; -2.5; 0.0 |]);
  check "finite rejects NaN" false (Detect.finite [| 1.0; Float.nan |]);
  check "finite rejects infinity" false
    (Detect.finite [| Float.infinity; 0.0 |]);
  check "finite_planes checks every plane" false
    (Detect.finite_planes [| [| 1.0 |]; [| Float.nan |] |]);
  check "finite_planes accepts" true
    (Detect.finite_planes [| [| 1.0 |]; [| 2.0 |] |]);
  check "normalized accepts a clean expansion" true
    (Detect.normalized [| 1.0; 0x1p-53; 0x1p-107 |]);
  check "normalized accepts trailing zeros" true
    (Detect.normalized [| 1.0; 0x1p-53; 0.0; 0.0 |]);
  check "normalized accepts all zeros" true (Detect.normalized [| 0.0; 0.0 |]);
  check "overlapping limbs rejected" false (Detect.normalized [| 1.0; 0.5 |]);
  check "misordered limbs rejected" false (Detect.normalized [| 0x1p-53; 1.0 |]);
  check "resurrected limb after zero rejected" false
    (Detect.normalized [| 1.0; 0.0; 1e-60 |]);
  check "non-finite limb rejected" false (Detect.normalized [| Float.nan |]);
  (* The renormalizer's output must always satisfy the validator — this
     is the invariant the bit-flip detectors probe. *)
  let raw = [| 1.0; 0.5; 0.25; 1e-10; -3e-11; 7e-22; 0.0; 1e-30 |] in
  let settled =
    Multidouble.Renorm.renormalize ~m:4
      (Multidouble.Renorm.renormalize ~m:8 raw)
  in
  check "renormalized data passes" true (Detect.normalized settled)

(* ---- simulator fault paths ---- *)

let transfer_sim cfg =
  Sim.create ~execute:false ?fault:cfg ~device ~prec:P.DD ()

let test_sim_retransfers () =
  (* Rate 1 with budget 2: every transfer strikes three times (initial
     plus two retransfers), then escalates out of the simulator. *)
  let cfg =
    Plan.config ~kinds:[ Plan.Transfer_corrupt ] ~max_relaunches:2 ~seed:5
      ~rate:1.0 ()
  in
  let sim = transfer_sim (Some cfg) in
  (match Sim.transfer sim 1e6 with
  | exception Plan.Injected (Plan.Transfer_corrupt, _) -> ()
  | () -> Alcotest.fail "exhausted retransfer budget did not escalate");
  (match Sim.fault_tally sim with
  | Some t ->
    checki "three corrupted transfers" 3 t.Plan.transfer_faults;
    checki "two retransfers" 2 t.Plan.retransfers;
    checki "one escalation" 1 t.Plan.escalations
  | None -> Alcotest.fail "armed simulator lost its tally");
  (* A mild rate recovers every strike within the budget and the
     retransfer time lands in the wall clock. *)
  let mild =
    transfer_sim
      (Some
         (Plan.config ~kinds:[ Plan.Transfer_corrupt ] ~max_relaunches:8
            ~seed:17 ~rate:0.4 ()))
  in
  for _ = 1 to 50 do
    Sim.transfer mild 1e6
  done;
  (match Sim.fault_tally mild with
  | Some t ->
    check "strikes happened" true (t.Plan.transfer_faults > 0);
    checki "every strike retransferred" t.Plan.transfer_faults
      t.Plan.retransfers;
    checki "no escalation" 0 t.Plan.escalations
  | None -> Alcotest.fail "armed simulator lost its tally");
  let clean = transfer_sim None in
  for _ = 1 to 50 do
    Sim.transfer clean 1e6
  done;
  check "faulted transfers cost more wall clock" true
    (Sim.wall_ms mild > Sim.wall_ms clean);
  check "unarmed simulator has no tally" true (Sim.fault_tally clean = None)

(* ---- runners under fault ---- *)

let run ?fault ?execute ?(prec = P.DD) kind ~dim ~tile =
  R.run (R.request ?fault ?execute ~kind ~prec ~device ~dim ~tile ())

let residual_of (r : Report.t) = Option.get r.Report.residual

let test_plan_runner_tallies () =
  let cfg kinds rate =
    Plan.config ~kinds ~max_relaunches:16 ~seed:23 ~rate ()
  in
  let faulted =
    run ~fault:(cfg [ Plan.Launch_fail ] 0.2) R.Qr ~dim:128 ~tile:32
  in
  (match faulted.Report.faults with
  | Some f ->
    check "launch failures injected" true (f.Report.launch_fails > 0);
    checki "all relaunched within budget" f.Report.launch_fails
      f.Report.relaunches;
    checki "nothing escalated" 0 f.Report.escalations;
    checki "no bitflips from a launch-only plan" 0 f.Report.bitflips;
    check "refinement never ran in plan mode" false f.Report.refined
  | None -> Alcotest.fail "armed run carries no fault record");
  let again =
    run ~fault:(cfg [ Plan.Launch_fail ] 0.2) R.Qr ~dim:128 ~tile:32
  in
  check "campaign replays bit-identically" true
    (faulted.Report.faults = again.Report.faults
    && faulted.Report.wall_ms = again.Report.wall_ms);
  (* Relaunches are charged to the cost model. *)
  let clean = R.qr P.DD device ~n:128 ~tile:32 in
  check "clean run carries no fault record" true (clean.Report.faults = None);
  check "relaunches cost kernel time" true
    (faulted.Report.kernel_ms > clean.Report.kernel_ms);
  (* An armed-but-silent plan (rate 0) tallies nothing; it still pays
     for the ABFT check kernels arming adds, but not for recovery. *)
  let silent = run ~fault:(cfg Plan.all_kinds 0.0) R.Qr ~dim:128 ~tile:32 in
  (match silent.Report.faults with
  | Some f -> checki "rate 0 injects nothing" 0 (Report.faults_injected f)
  | None -> Alcotest.fail "armed run carries no fault record");
  check "rate 0 pays only the check kernels" true
    (silent.Report.wall_ms >= clean.Report.wall_ms
    && silent.Report.wall_ms < faulted.Report.wall_ms);
  (* Plan mode never executes, so a bitflip-only plan cannot strike. *)
  let flips =
    run ~fault:(cfg [ Plan.Bitflip ] 1.0) R.Backsub ~dim:128 ~tile:32
  in
  match flips.Report.faults with
  | Some f -> checki "no bitflips without execution" 0 (Report.faults_injected f)
  | None -> Alcotest.fail "armed run carries no fault record"

let test_plan_runner_escalates () =
  let cfg =
    Plan.config ~kinds:[ Plan.Launch_fail ] ~max_relaunches:1 ~seed:2
      ~rate:1.0 ()
  in
  match run ~fault:cfg R.Qr ~dim:64 ~tile:32 with
  | exception Plan.Injected (Plan.Launch_fail, _) -> ()
  | _ -> Alcotest.fail "rate-1 launch failures did not escalate"

let test_executed_recovery_is_exact () =
  (* Launch failures strike before the kernel body runs, so a recovered
     run executes every body exactly once: the residual must be
     bit-identical to the clean run's. *)
  let clean = residual_of (run ~execute:true R.Qr ~dim:16 ~tile:4) in
  let faulted =
    residual_of
      (run ~execute:true
         ~fault:
           (Plan.config ~kinds:[ Plan.Launch_fail ] ~max_relaunches:16 ~seed:9
              ~rate:0.2 ())
         R.Qr ~dim:16 ~tile:4)
  in
  check "clean verification passes" true clean.Report.ok;
  check "recovered run is bit-identical to the clean run" true
    (faulted = clean)

let test_solve_ft () =
  let solve_ft fault ~dim ~tile =
    run ~execute:true ~fault R.Solve ~dim ~tile
  in
  let clean = run ~execute:true R.Solve ~dim:32 ~tile:8 in
  check "clean executed solve has no fault record" true
    (clean.Report.faults = None);
  check "clean executed solve passes" true (residual_of clean).Report.ok;
  let cfg seed = Plan.config ~seed ~rate:1e-2 () in
  let first = solve_ft (cfg 11) ~dim:32 ~tile:8 in
  check "faulted solve recovers" true
    (match first.Report.residual with Some v -> v.Report.ok | None -> false);
  check "faulted solve carries its tally" true
    (first.Report.faults <> None);
  let second = solve_ft (cfg 11) ~dim:32 ~tile:8 in
  check "solve_ft replays bit-identically" true
    (first.Report.faults = second.Report.faults
    && first.Report.residual = second.Report.residual);
  (* A pure bit-flip campaign at a heavy rate: corruption is injected
     into live data and the final verdict still passes. *)
  let flips =
    solve_ft
      (Plan.config ~kinds:[ Plan.Bitflip ] ~seed:29 ~rate:0.05 ())
      ~dim:32 ~tile:8
  in
  (match flips.Report.faults with
  | Some f -> check "bitflips struck" true (f.Report.bitflips > 0)
  | None -> Alcotest.fail "armed run carries no fault record");
  check "bitflip campaign recovers" true
    (match flips.Report.residual with Some v -> v.Report.ok | None -> false)

let test_tall_solve_ft () =
  (* A tall system cannot take [Refine]'s square refinement: an escaped
     corruption is repaired by a clean re-solve instead (seed 2 strikes
     one that the final forward-error check catches). *)
  let r =
    R.run
      (R.request ~rows:64 ~execute:true ~kind:R.Solve ~prec:P.DD ~device
         ~fault:(Plan.config ~kinds:[ Plan.Bitflip ] ~seed:2 ~rate:0.05 ())
         ~dim:16 ~tile:4 ())
  in
  (match r.Report.faults with
  | Some f -> check "refined by a clean re-solve" true f.Report.refined
  | None -> Alcotest.fail "armed run carries no fault record");
  let v = residual_of r in
  Alcotest.(check string) "names the tall shape" "solve-ft 2d 64x16 tile=4"
    v.Report.what;
  check "tall bitflip campaign recovers" true v.Report.ok

let test_od_flat_fault () =
  (* Octo double executes on the flat limb planes since the limb-generic
     kernel plane landed: the bit-flip corruptor strikes the raw staged
     planes and the ABFT checksums digest those same planes, so the
     detect/recover ladder must work unchanged at m = 8. *)
  check "od runs the flat path" true
    (Mdlinalg.Scalar.Od.flat_ok
    && Multidouble.Nd_flat.supported Mdlinalg.Scalar.Od.width);
  let flips =
    run ~execute:true ~prec:P.OD
      ~fault:(Plan.config ~kinds:[ Plan.Bitflip ] ~seed:23 ~rate:0.05 ())
      R.Solve ~dim:16 ~tile:4
  in
  (match flips.Report.faults with
  | Some f -> check "bitflips struck the od planes" true (f.Report.bitflips > 0)
  | None -> Alcotest.fail "armed od run carries no fault record");
  check "od bitflip campaign recovers" true
    (match flips.Report.residual with Some v -> v.Report.ok | None -> false)

let test_od_bigarray_corrupt_detected () =
  (* The staged planes live in Bigarray storage: a raw strike on the flat arm must mutate exactly the words
     [Bs.iter_u_limbs] feeds the checksum, U flips convicting the digest
     and b/x flips leaving it untouched — the contract the stage-2
     detect/recover ladder stands on. *)
  let module K = Mdlinalg.Scalar.Od in
  let module F = Mdlinalg.Flat_kernels.Make (K) in
  let dim = 6 in
  let rng = Dompool.Prng.create 71 in
  let el () = K.of_float (Dompool.Prng.sym_float rng) in
  let v = Array.init (dim * dim) (fun _ -> el ()) in
  let bd = Array.init dim (fun _ -> el ()) in
  let struck_u = ref 0 in
  (* Fresh state per trial: one strike against a clean digest. *)
  for _ = 1 to 24 do
    let st = F.Bs.create ~dim (F.Bs.of_host ~dim ~u:v ~b:bd) in
    let digest = Fault.Checksum.of_iter (F.Bs.iter_u_limbs st) in
    check "digest reproducible" true
      (Fault.Checksum.matches digest
         (Fault.Checksum.of_iter (F.Bs.iter_u_limbs st)));
    let where =
      Plan.strike ~limbs:K.width ~raw:(F.Bs.staged st) (F.Bs.regions st) rng
    in
    let now = Fault.Checksum.of_iter (F.Bs.iter_u_limbs st) in
    if String.length where > 0 && where.[0] = 'U' then begin
      incr struck_u;
      check
        (Printf.sprintf "U strike convicts the digest (%s)" where)
        false
        (Fault.Checksum.matches digest now)
    end
    else
      check
        (Printf.sprintf "b/x strike leaves U digest intact (%s)" where)
        true
        (Fault.Checksum.matches digest now)
  done;
  check "campaign struck U at least once" true (!struck_u > 0)

(* ---- the fault-armed QR runs flat, limb for limb as the boxed arm ----

   With the flat switch on, a fault-armed factorization of a real
   scalar runs on the limb planes: strikes flip raw plane words, and
   the probe, the finiteness sweep and the panel snapshots read the
   planes.  With it off, the same campaign runs on the boxed host
   arrays.  The two must agree on R, Q and Q^H b bit for bit, on the
   tally, on the escalated site if any, and on every corruption site
   but for the " (raw)" that marks a strike on the planes — which is
   also what shows the flat arm ran. *)

let corruption_sites () =
  Json.of_string (Obs.Tracer.export ())
  |> Json.member "traceEvents" |> Json.get_list
  |> List.filter (fun e ->
         Json.(get_string (member "name" e)) = "fault.corrupted")
  |> List.map (fun e -> Json.(get_string (member "what" (member "args" e))))

(* Runs [f] on one arm with the tracer on: its result or escalated
   site, and the corruption sites the trace recorded. *)
let on_arm ~flat f =
  let prev = !Mdlinalg.Flat_kernels.enabled in
  Mdlinalg.Flat_kernels.enabled := flat;
  Fun.protect
    ~finally:(fun () ->
      Obs.Tracer.stop ();
      Mdlinalg.Flat_kernels.enabled := prev)
    (fun () ->
      Obs.Tracer.start ();
      let out =
        match f () with
        | out -> Ok out
        | exception Plan.Injected (k, site) ->
            Error (Plan.kind_name k ^ " at " ^ site)
      in
      (out, corruption_sites ()))

module Armed_qr (K : Mdlinalg.Scalar.S) = struct
  module M = Mdlinalg.Mat.Make (K)
  module Qr = Lsq_core.Blocked_qr.Make (K)
  module Rand = Mdlinalg.Randmat.Make (K)

  let bits (a : K.t array) =
    Array.map (fun x -> Array.map Int64.bits_of_float (K.to_planes x)) a

  let campaign ~flat cfg f =
    let sim = Sim.create ~device ~prec:K.prec ~fault:cfg () in
    let out, sites = on_arm ~flat (fun () -> f sim) in
    (out, Option.get (Sim.fault_tally sim), sites)

  let raw = " (raw)"

  let strip site =
    if String.ends_with ~suffix:raw site then
      String.sub site 0 (String.length site - String.length raw)
    else Alcotest.failf "flat strike %S is not on the planes" site

  (* [same what cfg ~rows ~cols ~tile] runs [factor] and [factor_thin]
     on both arms and returns the flat arm's tallies. *)
  let same what cfg ~rows ~cols ~tile =
    let rng = Dompool.Prng.create 4242 in
    let a = Rand.matrix rng rows cols in
    let b = Array.init rows (fun _ -> K.random rng) in
    let compare what run =
      let out_f, tally_f, sites_f = campaign ~flat:true cfg run in
      let out_b, tally_b, sites_b = campaign ~flat:false cfg run in
      let what = Printf.sprintf "%s %s" (P.name K.prec) what in
      check (what ^ ": corruptions recorded") true (sites_f <> []);
      check (what ^ ": identical results") true (out_f = out_b);
      check (what ^ ": identical tallies") true (tally_f = tally_b);
      Alcotest.(check (list string))
        (what ^ ": identical sites") sites_b (List.map strip sites_f);
      tally_f
    in
    [
      compare (what ^ " qr") (fun sim ->
          let q, r = Qr.factor sim a ~tile in
          (bits q.M.a, bits r.M.a));
      compare (what ^ " thin qr") (fun sim ->
          let b = Array.copy b in
          let r = Qr.factor_thin sim a ~b ~tile in
          (bits r.M.a, bits b));
    ]

  let test () =
    (* Seed 13 strikes an off-diagonal word of Q in the first panel
       before its Q*WY^T, so the first panel must take the full
       product. *)
    let flips =
      same "bit flips"
        (Plan.config ~kinds:[ Plan.Bitflip ] ~seed:13 ~rate:0.1 ())
        ~rows:24 ~cols:16 ~tile:4
    in
    List.iter
      (fun (t : Plan.tally) -> check "bit flips struck" true (t.bitflips > 0))
      flips;
    (* The golden exec-qr-fault-replay job's campaign: every kind at
       rate 0.5, seed 2, on a 32-by-32 tile-8 matrix. *)
    let replays =
      same "exec-qr-fault-replay" (Plan.config ~seed:2 ~rate:0.5 ())
        ~rows:32 ~cols:32 ~tile:8
    in
    check "a panel replayed from its snapshot" true
      (List.exists (fun (t : Plan.tally) -> t.replays > 0) replays)
end

let test_fault_armed_qr_is_flat () =
  let module D = Armed_qr (Mdlinalg.Scalar.D) in
  let module Dd = Armed_qr (Mdlinalg.Scalar.Dd) in
  let module Qd = Armed_qr (Mdlinalg.Scalar.Qd) in
  let module Od = Armed_qr (Mdlinalg.Scalar.Od) in
  D.test ();
  Dd.test ();
  Qd.test ();
  Od.test ()

(* ---- the fault-armed direct solve hands off flat, limb for limb ----

   The executed direct solve keeps one device state from A to x: the
   QR's planes, Q^H b and the back substitution.  Under a campaign that
   strikes both phases, the flat arm and the boxed arm must agree on x
   bit for bit (or on the escalated site), on the merged tally and on
   every corruption site but for the flat arm's " (raw)". *)

module Armed_solve (K : Mdlinalg.Scalar.S) = struct
  module A = Armed_qr (K)
  module S = Lsq_core.Solver.Make (K)
  module Rand = Mdlinalg.Randmat.Make (K)

  let campaign ~flat cfg ~a ~b ~tile =
    on_arm ~flat (fun () ->
        let res =
          S.solve ~method_:Lsq_core.Solver.Qr_direct ~fault:cfg ~device ~a ~b
            ~tile ()
        in
        (A.bits res.S.x, Option.get res.S.faults))

  (* Runs every campaign on both arms; returns how many struck. *)
  let test () =
    let struck = ref 0 in
    List.iter
      (fun (what, rows) ->
        let rng = Dompool.Prng.create 4242 in
        let a = Rand.matrix rng rows 16 in
        let b = Array.init rows (fun _ -> K.random rng) in
        List.iter
          (fun rate ->
            for seed = 1 to 10 do
              let cfg = Plan.config ~seed ~rate () in
              let out_f, sites_f = campaign ~flat:true cfg ~a ~b ~tile:4 in
              let out_b, sites_b = campaign ~flat:false cfg ~a ~b ~tile:4 in
              let what =
                Printf.sprintf "%s %s solve, rate %g seed %d"
                  (P.name K.prec) what rate seed
              in
              if sites_f <> [] then incr struck;
              check (what ^ ": identical outcomes") true (out_f = out_b);
              Alcotest.(check (list string))
                (what ^ ": identical sites") sites_b
                (List.map A.strip sites_f)
            done)
          [ 0.05; 0.5 ])
      [ ("square", 16); ("thin", 24) ];
    !struck
end

let test_fault_armed_solve_is_flat () =
  let module D = Armed_solve (Mdlinalg.Scalar.D) in
  let module Dd = Armed_solve (Mdlinalg.Scalar.Dd) in
  let module Qd = Armed_solve (Mdlinalg.Scalar.Qd) in
  let module Od = Armed_solve (Mdlinalg.Scalar.Od) in
  let struck = D.test () + Dd.test () + Qd.test () + Od.test () in
  check "the campaigns struck" true (struck > 0)

(* ---- every recovery site of the stage-level ladder, pinned ----

   Each case runs one armed double double stage to completion or to
   escalation and checks the escalated site (or "ok"), the fault tally
   and the ladder's breadcrumbs in order: every corruption the strike
   reported and every detection, replay and escalation.  The QR and
   back substitution cases read their simulator's tally; the iterative
   solver keeps its simulators to itself, so its cases read the fault
   counters' deltas instead. *)

module Kdd = Mdlinalg.Scalar.Dd
module Qdd = Lsq_core.Blocked_qr.Make (Kdd)
module Bdd = Lsq_core.Tiled_back_sub.Make (Kdd)
module Sdd = Lsq_core.Solver.Make (Kdd)
module Rdd = Mdlinalg.Randmat.Make (Kdd)

let ladder_crumbs () =
  Json.of_string (Obs.Tracer.export ())
  |> Json.member "traceEvents" |> Json.get_list
  |> List.filter_map (fun e ->
         let arg k = Json.(get_string (member k (member "args" e))) in
         match Json.(get_string (member "name" e)) with
         | "fault.corrupted" -> Some (arg "what")
         | ("fault.detected" | "fault.replay" | "fault.escalate") as name ->
           Some (String.sub name 6 (String.length name - 6) ^ "@" ^ arg "stage")
         | _ -> None)

let escalated_site f =
  Obs.Tracer.start ();
  Fun.protect ~finally:Obs.Tracer.stop (fun () ->
      match f () with
      | () -> "ok"
      | exception Plan.Injected (k, site) ->
        Printf.sprintf "%s at %s" (Plan.kind_name k) site)

let on_sim fault f =
  let sim = Sim.create ~fault ~device ~prec:P.DD () in
  let site = escalated_site (fun () -> f sim) in
  let tally = Option.get (Sim.fault_tally sim) in
  (site, Format.asprintf "%a" Plan.pp_tally tally, ladder_crumbs ())

let qr_case fault =
  on_sim fault (fun sim ->
      let a = Rdd.matrix (Dompool.Prng.create 4242) 32 32 in
      ignore (Qdd.factor sim a ~tile:8))

let bs_case fault =
  on_sim fault (fun sim ->
      let rng = Dompool.Prng.create 3434 in
      let u = Rdd.upper rng 32 in
      let b, _ = Rdd.rhs_for rng u in
      ignore (Bdd.solve sim u b ~tile:8))

let solver_case method_ ?max_iterations fault =
  let names = [ "injected"; "detected"; "recovered"; "escaped" ] in
  let count name =
    Obs.Metrics.(Counter.value (counter (default ()) ("faults." ^ name)))
  in
  let before = List.map count names in
  let site =
    escalated_site (fun () ->
        let rng = Dompool.Prng.create 2424 in
        let a = Rdd.matrix rng 256 16 in
        let b, _ = Rdd.rhs_for rng a in
        ignore
          (Sdd.solve ~method_ ?max_iterations ~fault ~device ~a ~b ~tile:16
             ()))
  in
  let deltas =
    List.map2
      (fun name b -> Printf.sprintf "%s %d" name (count name - b))
      names before
  in
  (site, String.concat " " deltas, ladder_crumbs ())

let flips ?max_replays ~seed ~rate () =
  Plan.config ~kinds:[ Plan.Bitflip ] ?max_replays ~seed ~rate ()

(* No relaunches: every launch failure escalates into its stage. *)
let launches ?max_replays ~seed ~rate () =
  Plan.config ~kinds:[ Plan.Launch_fail ] ~max_relaunches:0 ?max_replays
    ~seed ~rate ()

let boxed f =
  let prev = !Mdlinalg.Flat_kernels.enabled in
  Mdlinalg.Flat_kernels.enabled := false;
  Fun.protect ~finally:(fun () -> Mdlinalg.Flat_kernels.enabled := prev) f

let recovery_sites =
  let open Lsq_core.Solver in
  [
    ( "qr.panel escalates",
      (fun () -> qr_case (flips ~max_replays:0 ~seed:1 ~rate:0.05 ())),
      "bitflip at qr.panel",
      "injected 4 (flip 4, launch 0, transfer 0) detected 1 "
      ^ "recovered 0 (relaunch 0, retransfer 0, replay 0) escalated 1",
      [
        "Y[26] plane 1 bit 30 (raw)";
        "Q[421] plane 0 bit 1 (raw)";
        "Q[358] plane 0 bit 53 (raw)";
        "Y[16] plane 0 bit 56 (raw)";
        "detected@qr.panel";
        "escalate@qr.panel";
      ] );
    ( "qr.panel replays a detection",
      (fun () -> qr_case (flips ~seed:7 ~rate:0.02 ())),
      "ok",
      "injected 5 (flip 5, launch 0, transfer 0) detected 1 "
      ^ "recovered 1 (relaunch 0, retransfer 0, replay 1) escalated 0",
      [
        "Q[825] plane 0 bit 20 (raw)";
        "Q[242] plane 1 bit 34 (raw)";
        "R[81] plane 0 bit 38 (raw)";
        "W[59] plane 1 bit 37 (raw)";
        "Y[65] plane 0 bit 36 (raw)";
        "detected@qr.panel";
        "replay@qr.panel";
      ] );
    ( "qr.panel replays escalated launches",
      (fun () -> qr_case (launches ~seed:2 ~rate:0.01 ())),
      "ok",
      "injected 2 (flip 0, launch 2, transfer 0) detected 2 "
      ^ "recovered 2 (relaunch 0, retransfer 0, replay 2) escalated 2",
      [
        "escalate@beta, v";
        "replay@qr.panel";
        "escalate@compute W";
        "replay@qr.panel";
      ] );
    ( "qr.panel re-raises past its budget",
      (fun () -> qr_case (launches ~max_replays:1 ~seed:9 ~rate:0.01 ())),
      "launch at update R",
      "injected 2 (flip 0, launch 2, transfer 0) detected 2 "
      ^ "recovered 1 (relaunch 0, retransfer 0, replay 1) escalated 2",
      [
        "escalate@update R";
        "replay@qr.panel";
        "escalate@update R";
      ] );
    ( "bs.tile escalates",
      (fun () -> bs_case (flips ~max_replays:0 ~seed:1 ~rate:0.1 ())),
      "bitflip at bs.tile",
      "injected 1 (flip 1, launch 0, transfer 0) detected 1 "
      ^ "recovered 0 (relaunch 0, retransfer 0, replay 0) escalated 1",
      [
        "b[26] plane 1 bit 30 (raw)";
        "detected@bs.tile";
        "escalate@bs.tile";
      ] );
    ( "bs.tile replays a detection",
      (fun () -> bs_case (flips ~seed:1 ~rate:0.1 ())),
      "ok",
      "injected 1 (flip 1, launch 0, transfer 0) detected 1 "
      ^ "recovered 1 (relaunch 0, retransfer 0, replay 1) escalated 0",
      [
        "b[26] plane 1 bit 30 (raw)";
        "detected@bs.tile";
        "replay@bs.tile";
      ] );
    ( "bs.tile replays an escalated launch",
      (fun () -> bs_case (launches ~seed:1 ~rate:0.1 ())),
      "ok",
      "injected 1 (flip 0, launch 1, transfer 0) detected 1 "
      ^ "recovered 1 (relaunch 0, retransfer 0, replay 1) escalated 1",
      [
        "escalate@multiply with inverses";
        "replay@bs.tile";
      ] );
    ( "bs.update escalates",
      (fun () -> bs_case (flips ~max_replays:0 ~seed:658 ~rate:0.1 ())),
      "bitflip at bs.update",
      "injected 1 (flip 1, launch 0, transfer 0) detected 1 "
      ^ "recovered 0 (relaunch 0, retransfer 0, replay 0) escalated 1",
      [
        "U[208] plane 0 bit 62 (raw)";
        "detected@bs.update";
        "escalate@bs.update";
      ] );
    ( "bs.update escalates at once on a struck U",
      (fun () -> bs_case (flips ~seed:658 ~rate:0.1 ())),
      "bitflip at bs.update",
      "injected 1 (flip 1, launch 0, transfer 0) detected 1 "
      ^ "recovered 0 (relaunch 0, retransfer 0, replay 0) escalated 1",
      [
        "U[208] plane 0 bit 62 (raw)";
        "detected@bs.update";
        "escalate@bs.update";
      ] );
    ( "bs.update replays a struck b",
      (* Every b word is 1.5 (exponent 0x3ff), so flipping bit 62 of
         plane 0 makes it infinite; U stays intact and a replay from
         the snapshot repairs it. *)
      (fun () ->
        on_sim (flips ~seed:36134 ~rate:0.3 ()) (fun sim ->
            let u = Rdd.upper (Dompool.Prng.create 3434) 8 in
            let b = Array.make 8 (Kdd.of_float 1.5) in
            ignore (Bdd.solve sim u b ~tile:4))),
      "ok",
      "injected 1 (flip 1, launch 0, transfer 0) detected 1 "
      ^ "recovered 1 (relaunch 0, retransfer 0, replay 1) escalated 0",
      [ "b[1] plane 0 bit 62 (raw)"; "detected@bs.update"; "replay@bs.update" ]
    );
    ( "bs.update replays an escalated launch",
      (fun () -> bs_case (launches ~seed:11 ~rate:0.1 ())),
      "launch at back substitution",
      "injected 2 (flip 0, launch 2, transfer 0) detected 2 "
      ^ "recovered 1 (relaunch 0, retransfer 0, replay 1) escalated 2",
      [
        "escalate@back substitution";
        "replay@bs.update";
        "escalate@back substitution";
      ] );
    ( "cg.recurrence escalates",
      (fun () ->
        solver_case Cg_normal (flips ~max_replays:0 ~seed:1 ~rate:0.05 ())),
      "bitflip at cg.recurrence",
      "injected 4 detected 1 recovered 0 escaped 1",
      [
        "A[3867] plane 0 bit 50 (raw)";
        "A[4016] plane 0 bit 40 (raw)";
        "q[10] plane 0 bit 32 (raw)";
        "A[3269] plane 0 bit 28 (raw)";
        "detected@cg.recurrence";
        "escalate@cg.recurrence";
      ] );
    ( "lsqr.recurrence escalates",
      (fun () -> solver_case Lsqr (flips ~max_replays:0 ~seed:1 ~rate:0.05 ())),
      "bitflip at lsqr.recurrence",
      "injected 3 detected 1 recovered 0 escaped 1",
      [
        "A[2459] plane 0 bit 50 (raw)";
        "tn[0] plane 0 bit 40 (raw)";
        "A[3898] plane 0 bit 32 (raw)";
        "detected@lsqr.recurrence";
        "escalate@lsqr.recurrence";
      ] );
    ( "bs.tile escalates on the boxed arm",
      (fun () ->
        boxed (fun () ->
            bs_case (flips ~max_replays:0 ~seed:1 ~rate:0.1 ()))),
      "bitflip at bs.tile",
      "injected 1 (flip 1, launch 0, transfer 0) detected 1 "
      ^ "recovered 0 (relaunch 0, retransfer 0, replay 0) escalated 1",
      [
        "b[26] plane 1 bit 30";
        "detected@bs.tile";
        "escalate@bs.tile";
      ] );
    ( "cg.recurrence escalates on the boxed arm",
      (fun () ->
        boxed (fun () ->
            solver_case Cg_normal (flips ~max_replays:0 ~seed:1 ~rate:0.05 ()))),
      "bitflip at cg.recurrence",
      "injected 4 detected 1 recovered 0 escaped 1",
      [
        "A[3867] plane 0 bit 50";
        "A[4016] plane 0 bit 40";
        "q[10] plane 0 bit 32";
        "A[3269] plane 0 bit 28";
        "detected@cg.recurrence";
        "escalate@cg.recurrence";
      ] );
    ( "solver.converged escalates",
      (fun () ->
        solver_case Cg_normal ~max_iterations:1 (flips ~seed:1 ~rate:0.0 ())),
      "bitflip at solver.converged",
      "injected 0 detected 1 recovered 0 escaped 1",
      [
        "detected@solver.converged";
        "escalate@solver.converged";
      ] );
  ]

let test_recovery_sites () =
  List.iter
    (fun (name, run, site, tally, crumbs) ->
      let site', tally', crumbs' = run () in
      Alcotest.(check string) (name ^ ": site") site site';
      Alcotest.(check string) (name ^ ": tally") tally tally';
      Alcotest.(check (list string)) (name ^ ": breadcrumbs") crumbs crumbs')
    recovery_sites


(* ---- scheduler classification and job validation ---- *)

let solve_job ?(rate = 0.0) ?(seed = 1) ~id () =
  Job.make ~execute:true ~fault_rate:rate ~fault_seed:seed ~id ~kind:Job.Solve
    ~device:"v100" ~prec:P.DD ~dim:32 ~tile:8 ()

let qr_job ?retries ?inject_failures ?timeout_ms ?tile ~id () =
  Job.make ?retries ?inject_failures ?timeout_ms ~id ~kind:Job.Qr
    ~device:"v100" ~prec:P.DD ~dim:64
    ~tile:(Option.value tile ~default:32)
    ()

let invalid what job =
  match Job.validate job with
  | Error _ -> ()
  | Ok () -> Alcotest.failf "%s validated" what

let test_job_validation () =
  invalid "NaN timeout"
    (qr_job ~timeout_ms:Float.nan ~id:"nan-timeout" ());
  invalid "negative timeout" (qr_job ~timeout_ms:(-5.0) ~id:"neg-timeout" ());
  invalid "NaN fault rate" (solve_job ~rate:Float.nan ~id:"nan-rate" ());
  invalid "negative fault rate" (solve_job ~rate:(-0.5) ~id:"neg-rate" ());
  invalid "fault rate above one" (solve_job ~rate:1.5 ~id:"big-rate" ());
  invalid "armed plan with no kinds"
    (Job.make ~fault_rate:0.5 ~fault_kinds:[] ~id:"no-kinds" ~kind:Job.Qr
       ~device:"v100" ~prec:P.DD ~dim:64 ~tile:32 ());
  (match Job.validate (solve_job ~rate:0.01 ~id:"armed" ()) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "valid armed job rejected: %s" m);
  check "rate 0 leaves the plane disarmed" true
    (Job.fault_config (solve_job ~id:"clean" ()) = None);
  check "positive rate arms the plane" true
    (Job.fault_config (solve_job ~rate:0.01 ~id:"armed" ()) <> None)

let failed o =
  match o.S.status with
  | S.Failed f -> f
  | S.Completed _ -> Alcotest.failf "%s unexpectedly completed" o.S.job.Job.id

let test_failure_classification () =
  (* The injection hook models a transient fault: retryable, burns the
     retry budget. *)
  (match
     Fleet.run (Fleet.Config.batch ~parallel:1 ~backoff_ms:0.0 ())
       [ qr_job ~retries:1 ~inject_failures:99 ~id:"transient" () ]
   with
  | [ o ] ->
    let f = failed o in
    check "injected failures are retryable" true f.S.retryable;
    check "not a timeout" false f.S.timed_out;
    checki "retries burned" 2 o.S.attempts
  | _ -> Alcotest.fail "expected one outcome");
  (* Validation failures are permanent: no attempt, no retry. *)
  (match
     Fleet.run (Fleet.Config.batch ~parallel:1 ~backoff_ms:0.0 ())
       [ qr_job ~tile:30 ~id:"permanent" () ]
   with
  | [ o ] ->
    let f = failed o in
    check "validation failures are permanent" false f.S.retryable;
    checki "never attempted" 0 o.S.attempts
  | _ -> Alcotest.fail "expected one outcome");
  (* Exhausted timeouts are permanent too. *)
  match
    Fleet.run (Fleet.Config.batch ~parallel:1 ~backoff_ms:5.0 ())
      [
        qr_job ~retries:5 ~inject_failures:99 ~timeout_ms:1.0 ~id:"deadline" ();
      ]
  with
  | [ o ] ->
    let f = failed o in
    check "timed out" true f.S.timed_out;
    check "timeouts are permanent" false f.S.retryable
  | _ -> Alcotest.fail "expected one outcome"

let test_faulted_job_completes () =
  (* An executed solve job with an armed fault plane dispatches to the
     fault-tolerant solver and lands a report with the tally. *)
  let r = S.run_job (solve_job ~rate:1e-2 ~seed:11 ~id:"ft-solve" ()) in
  check "fault tally attached" true (r.Report.faults <> None);
  check "residual passes" true
    (match r.Report.residual with Some v -> v.Report.ok | None -> false);
  let clean = S.run_job (solve_job ~id:"clean-solve" ()) in
  check "clean job carries no fault record" true (clean.Report.faults = None)

let test_retry_draws_a_fresh_campaign () =
  (* Armed at rate 0.1, seed 8, this QR's first campaign escalates at a
     panel check.  A retry replaying that campaign could only fail the
     same way; the second attempt draws its own and completes. *)
  let job =
    Job.make ~execute:true ~fault_rate:0.1 ~fault_seed:8 ~retries:1
      ~id:"retried" ~kind:Job.Qr ~device:"v100" ~prec:P.DD ~dim:32 ~tile:8 ()
  in
  (match S.run_job job with
  | exception Plan.Injected (Plan.Bitflip, "qr.panel") -> ()
  | _ -> Alcotest.fail "the first campaign no longer escalates");
  let attempts, _, timing, status =
    S.settle ~backoff_ms:0.0 ~queued_at:(S.now_ms ()) job
  in
  checki "two attempts" 2 attempts;
  checki "two attempt times" 2 (List.length timing.S.attempt_ms);
  match status with
  | S.Completed r ->
    check "the retry's report carries its tally" true (r.Report.faults <> None)
  | S.Failed f -> Alcotest.failf "the retry failed too: %s" f.S.message

let test_serialization () =
  (* Outcomes round-trip with the classification flag, for both values. *)
  let outcomes =
    Fleet.run (Fleet.Config.batch ~parallel:1 ~backoff_ms:0.0 ())
      [
        qr_job ~retries:0 ~inject_failures:99 ~id:"retryable" ();
        qr_job ~tile:30 ~id:"permanent" ();
        qr_job ~id:"ok" ();
      ]
  in
  List.iter
    (fun o ->
      check "outcome round-trips" true
        (S.outcome_of_json (S.outcome_to_json o) = o))
    outcomes;
  check "both classifications covered" true
    ((failed (List.nth outcomes 0)).S.retryable
    && not (failed (List.nth outcomes 1)).S.retryable);
  (* Fault fields only serialize when the plane is armed, so clean job
     documents are unchanged from the pre-fault schema. *)
  let keys j =
    match Job.to_json j with
    | Json.Obj fields -> List.map fst fields
    | _ -> Alcotest.fail "job is not an object"
  in
  check "clean jobs have no fault keys" false
    (List.exists
       (fun k -> List.mem k (keys (solve_job ~id:"clean" ())))
       [ "fault_rate"; "fault_seed"; "fault_kinds" ]);
  let armed =
    Job.make ~execute:true ~fault_rate:0.05 ~fault_seed:99
      ~fault_kinds:[ Plan.Bitflip; Plan.Launch_fail ] ~id:"armed"
      ~kind:Job.Solve ~device:"v100" ~prec:P.QD ~dim:32 ~tile:8 ()
  in
  check "armed jobs serialize the plane" true
    (List.mem "fault_rate" (keys armed));
  check "armed job round-trips" true (Job.of_json (Job.to_json armed) = armed);
  (match
     Job.of_json
       (Json.of_string
          {|{"id": "bad", "kind": "qr", "device": "v100", "prec": "2d",
             "dim": 64, "tile": 16, "fault_rate": 0.5,
             "fault_kinds": ["gamma-ray"]}|})
   with
  | exception Json.Error _ -> ()
  | _ -> Alcotest.fail "unknown fault kind accepted");
  let j =
    Job.of_json
      (Json.of_string
         {|{"id": "named", "kind": "solve", "device": "v100", "prec": "2d",
            "dim": 32, "tile": 8, "fault_rate": 0.25, "fault_seed": 4,
            "fault_kinds": ["launch", "transfer"]}|})
  in
  check "named kinds parse" true
    (j.Job.fault_kinds = [ Plan.Launch_fail; Plan.Transfer_corrupt ]
    && j.Job.fault_rate = 0.25 && j.Job.fault_seed = 4)

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "kind names" `Quick test_kind_names;
          Alcotest.test_case "draw determinism" `Quick test_draw_determinism;
          Alcotest.test_case "tally accounting" `Quick test_tally;
          Alcotest.test_case "flip_bit" `Quick test_flip_bit;
        ] );
      ( "detectors",
        [
          Alcotest.test_case "checksum detects flips" `Quick
            test_checksum_detects_flips;
          Alcotest.test_case "checksum planes and scalars" `Quick
            test_checksum_planes_and_scalars;
          Alcotest.test_case "validators" `Quick test_validators;
        ] );
      ( "simulator",
        [ Alcotest.test_case "retransfers" `Quick test_sim_retransfers ] );
      ( "runners",
        [
          Alcotest.test_case "plan-mode tallies" `Quick
            test_plan_runner_tallies;
          Alcotest.test_case "plan-mode escalation" `Quick
            test_plan_runner_escalates;
          Alcotest.test_case "executed recovery is exact" `Quick
            test_executed_recovery_is_exact;
          Alcotest.test_case "fault-tolerant solve" `Quick test_solve_ft;
          Alcotest.test_case "tall fault-tolerant solve" `Quick
            test_tall_solve_ft;
          Alcotest.test_case "od bitflips over the flat path" `Quick
            test_od_flat_fault;
          Alcotest.test_case "raw strikes on Bigarray planes detected" `Quick
            test_od_bigarray_corrupt_detected;
          Alcotest.test_case "fault-armed QR is flat and identical" `Quick
            test_fault_armed_qr_is_flat;
          Alcotest.test_case "fault-armed direct solve is flat and identical"
            `Quick test_fault_armed_solve_is_flat;
          Alcotest.test_case "recovery sites" `Quick test_recovery_sites;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "job validation" `Quick test_job_validation;
          Alcotest.test_case "failure classification" `Quick
            test_failure_classification;
          Alcotest.test_case "faulted job completes" `Quick
            test_faulted_job_completes;
          Alcotest.test_case "a retry draws a fresh campaign" `Quick
            test_retry_draws_a_fresh_campaign;
          Alcotest.test_case "serialization" `Quick test_serialization;
        ] );
    ]
