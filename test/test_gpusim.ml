(* Tests for the GPU simulator substrate: device catalog, occupancy and
   wave quantization, the roofline kernel-time model, the transfer and
   host-pressure models, operation counters and per-stage profiles, and
   the execution semantics of the simulator itself. *)

open Gpusim
module P = Multidouble.Precision

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---- devices ---- *)

let test_catalog () =
  checki "five devices" 5 (List.length Device.catalog);
  let v = Device.by_name "v100" in
  checki "v100 sms" 80 v.Device.sm_count;
  checki "v100 cores" 5120 (Device.cores v);
  let r = Device.by_name "RTX 2080" in
  checki "rtx sms" 46 r.Device.sm_count;
  (try
     ignore (Device.by_name "a100");
     Alcotest.fail "unknown device accepted"
   with Invalid_argument _ -> ());
  (* Table 2 data *)
  List.iter
    (fun (name, mp, cores_mp) ->
      let d = Device.by_name name in
      checki (name ^ " mp") mp d.Device.sm_count;
      checki (name ^ " cores/mp") cores_mp d.Device.cores_per_sm)
    [
      ("c2050", 14, 32); ("k20c", 13, 192); ("p100", 56, 64);
      ("v100", 80, 64); ("rtx2080", 46, 64);
    ]

let test_peaks () =
  (* The theoretical double precision peaks quoted in the paper: 4.7 and
     7.9 teraflops, ratio 1.68. *)
  let p = Device.p100 and v = Device.v100 in
  check "p100 peak" true (Float.abs (p.Device.dp_peak_gflops -. 4700.0) < 1.0);
  check "v100 peak" true (Float.abs (v.Device.dp_peak_gflops -. 7900.0) < 1.0);
  check "ratio 1.68" true
    (Float.abs ((v.Device.dp_peak_gflops /. p.Device.dp_peak_gflops) -. 1.68)
    < 0.01)

(* ---- occupancy ---- *)

let test_occupancy_bounds () =
  List.iter
    (fun d ->
      List.iter
        (fun blocks ->
          List.iter
            (fun threads ->
              let o = Cost.occupancy d ~blocks ~threads in
              check "in (0, 1]" true (o > 0.0 && o <= 1.0))
            [ 1; 32; 33; 128; 256 ])
        [ 1; 2; 80; 81; 4096 ])
    Device.catalog

let test_occupancy_monotone_blocks () =
  (* With a full wave, more blocks never hurt. *)
  let d = Device.v100 in
  let o80 = Cost.occupancy d ~blocks:80 ~threads:256 in
  let o160 = Cost.occupancy d ~blocks:160 ~threads:256 in
  let o640 = Cost.occupancy d ~blocks:640 ~threads:256 in
  check "80 full" true (o80 >= 0.99);
  check "160 full" true (o160 >= 0.99);
  check "640 full" true (o640 >= 0.99)

let test_wave_quantization () =
  (* 80 blocks fill the V100 exactly but leave the P100's second wave
     mostly idle — the paper's explanation of the Table 8 gap. *)
  let v = Cost.occupancy Device.v100 ~blocks:80 ~threads:256 in
  let p = Cost.occupancy Device.p100 ~blocks:80 ~threads:256 in
  check "v100 full" true (v >= 0.99);
  check "p100 second wave" true (p < 0.75 && p > 0.6)

let test_warp_rounding () =
  (* With latency hiding saturated (many blocks), a 33-thread block wastes
     almost half of each second warp. *)
  let d = Device.v100 in
  let o32 = Cost.occupancy d ~blocks:4096 ~threads:32 in
  let o33 = Cost.occupancy d ~blocks:4096 ~threads:33 in
  check "33 threads waste a warp" true (o33 < 0.6 *. o32)

let test_latency_hiding () =
  (* One warp per SM cannot hide latency; many can. *)
  let d = Device.v100 in
  let one = Cost.occupancy d ~blocks:80 ~threads:32 in
  let many = Cost.occupancy d ~blocks:80 ~threads:256 in
  check "hiding grows" true (many > 2.0 *. one)

(* ---- kernel time ---- *)

let ops n = Counter.make ~adds:n ~muls:n ()

let big_launch ?(strided = false) ?(working_set = 0.0) ?(thread_bytes = 0.0)
    n =
  Cost.launch ~blocks:4096 ~threads:256 ~strided ~working_set ~thread_bytes
    (ops n)

let test_kernel_time_monotone () =
  let d = Device.v100 in
  let t1 = Cost.kernel_ms d P.QD (big_launch 1e6) in
  let t2 = Cost.kernel_ms d P.QD (big_launch 1e7) in
  let t3 = Cost.kernel_ms d P.QD (big_launch 1e8) in
  check "monotone" true (t1 < t2 && t2 < t3)

let test_kernel_time_precision () =
  (* Same operation count costs more at higher precision. *)
  let d = Device.v100 in
  let l = big_launch 1e7 in
  let td = Cost.kernel_ms d P.D l in
  let tdd = Cost.kernel_ms d P.DD l in
  let tqd = Cost.kernel_ms d P.QD l in
  let tod = Cost.kernel_ms d P.OD l in
  check "ordered" true (td < tdd && tdd < tqd && tqd < tod);
  (* The compute-bound ratios approach the Table 1 work ratios. *)
  let r = tqd /. tdd in
  check "qd/dd near work ratio" true (r > 5.0 && r < 15.0)

let test_launch_overhead () =
  let d = Device.v100 in
  let empty = Cost.launch ~blocks:1 ~threads:32 (ops 0.0) in
  let t = Cost.kernel_ms d P.QD empty in
  check "at least the launch overhead" true
    (t >= d.Device.launch_us /. 1e3);
  let five = Cost.launch ~count:5 ~blocks:1 ~threads:32 (ops 0.0) in
  let t5 = Cost.kernel_ms d P.QD five in
  check "count multiplies overhead" true
    (Float.abs (t5 -. (5.0 *. t)) < 1e-9)

let test_cache_spill () =
  let d = Device.v100 in
  let bytes = 1e9 in
  let fits =
    Cost.kernel_ms d P.DD
      (big_launch ~strided:true ~working_set:1e6 ~thread_bytes:bytes 1.0)
  in
  let spilled =
    Cost.kernel_ms d P.DD
      (big_launch ~strided:true ~working_set:1e9 ~thread_bytes:bytes 1.0)
  in
  let streamed =
    Cost.kernel_ms d P.DD
      (big_launch ~strided:false ~working_set:1e9 ~thread_bytes:bytes 1.0)
  in
  check "spill is slower" true (spilled > 5.0 *. fits);
  check "streaming spill is cheaper than strided" true (streamed < spilled)

let test_transfer_and_pressure () =
  let d = Device.v100 in
  let t1 = Cost.transfer_ms d 1e9 in
  let t2 = Cost.transfer_ms d 2e9 in
  check "transfer linear" true (Float.abs ((2.0 *. t1) -. t2) < 1e-9);
  check "no pressure small" true (Cost.host_pressure_ms d 1e9 = 0.0);
  (* 13.4 GB of octo double data on the 32 GB host: pressure. *)
  check "pressure big" true (Cost.host_pressure_ms d 13.4e9 > 1000.0);
  (* The P100 host has 256 GB: no pressure at the same size. *)
  check "p100 host is fine" true
    (Cost.host_pressure_ms Device.p100 13.4e9 = 0.0)

let test_ridge () =
  List.iter
    (fun d ->
      let r = Cost.ridge d in
      check "ridge positive" true (r > 0.0 && r < 50.0))
    Device.catalog;
  (* dd sits below the V100 ridge, od above: the CGMA argument. *)
  let intensity p = float_of_int (P.add_flops p + P.mul_flops p) /. float_of_int (2 * P.bytes p) in
  check "dd memory bound" true (intensity P.DD < Cost.ridge Device.v100);
  check "od compute bound" true (intensity P.OD > Cost.ridge Device.v100)

(* ---- counters ---- *)

let test_counter_flops () =
  let o = Counter.make ~adds:2.0 ~muls:3.0 ~divs:1.0 () in
  let f = Counter.flops P.QD o in
  check "table-1 flops" true
    (Float.abs (f -. ((2.0 *. 89.0) +. (3.0 *. 336.0) +. 893.0)) < 1e-9);
  let sum = Counter.add o o in
  check "add" true (Counter.total sum = 2.0 *. Counter.total o);
  let sc = Counter.scale o 10.0 in
  check "scale" true (Counter.total sc = 10.0 *. Counter.total o)

let test_counter_complexify () =
  (* A complex multiplication is 4 real multiplications and 2 additions. *)
  let o = Counter.complexify (Counter.make ~muls:1.0 ()) in
  check "muls" true (o.Counter.muls = 4.0);
  check "adds" true (o.Counter.adds = 2.0);
  let a = Counter.complexify (Counter.make ~adds:1.0 ()) in
  check "add -> 2 adds" true (a.Counter.adds = 2.0 && a.Counter.muls = 0.0)

(* ---- profile and sim ---- *)

let test_profile () =
  let p = Profile.create () in
  let record ?(count = 1) stage ms o =
    Profile.record p ~stage ~slowdown:1.0
      (Cost.launch ~count ~blocks:1 ~threads:1 o)
      { Cost.ms; compute_s = 0.0; dram_s = 0.0; cache_s = 0.0 }
  in
  record "a" 1.0 (ops 10.0);
  record "b" 2.0 (ops 20.0);
  record ~count:3 "a" 0.5 (ops 5.0);
  Alcotest.(check (list string)) "order" [ "a"; "b" ] (Profile.stages p);
  check "a ms" true (Float.abs (Profile.stage_ms p "a" -. 1.5) < 1e-12);
  checki "a launches" 4 (Profile.stage_launches p "a");
  checki "total launches" 5 (Profile.total_launches p);
  check "total ms" true (Float.abs (Profile.total_ms p -. 3.5) < 1e-12);
  check "missing stage" true (Profile.stage_ms p "zzz" = 0.0)

(* ---- accounting: bit-exact against the model's formulas ---- *)

(* The roofline as it read when [Cost.kernel_ms] and [Cost.terms] each
   evaluated it on their own: the reference the single evaluation behind
   both must reproduce bit for bit. *)
let ref_kernel_ms (d : Device.t) p (l : Cost.launch) =
  let timing_ops = match l.Cost.padded with Some o -> o | None -> l.Cost.ops in
  let flops = Counter.flops p timing_ops in
  let occ = Cost.occupancy d ~blocks:l.Cost.blocks ~threads:l.Cost.threads in
  let peak = d.Device.dp_peak_gflops *. 1e9 *. Cost.arithmetic_efficiency in
  let compute_s = flops /. (peak *. Float.max occ 1e-6) in
  let dram_s = l.Cost.cold_bytes /. (d.Device.dram_gb_s *. 1e9) in
  let cache_bw =
    if l.Cost.working_set <= Cost.l2_reach *. d.Device.l2_mb *. 1e6 then
      d.Device.l2_gb_s *. 1e9
    else if l.Cost.strided then
      Cost.scatter_efficiency *. d.Device.dram_gb_s *. 1e9
    else d.Device.dram_gb_s *. 1e9
  in
  let cache_s = l.Cost.thread_bytes /. cache_bw in
  (float_of_int l.Cost.count *. d.Device.launch_us /. 1e3)
  +. (1e3 *. Float.max compute_s (Float.max dram_s cache_s))

let ref_terms (d : Device.t) p (l : Cost.launch) =
  let timing_ops = match l.Cost.padded with Some o -> o | None -> l.Cost.ops in
  let flops = Counter.flops p timing_ops in
  let occ = Cost.occupancy d ~blocks:l.Cost.blocks ~threads:l.Cost.threads in
  let peak = d.Device.dp_peak_gflops *. 1e9 *. Cost.arithmetic_efficiency in
  let compute_s = flops /. (peak *. Float.max occ 1e-6) in
  let dram_s = l.Cost.cold_bytes /. (d.Device.dram_gb_s *. 1e9) in
  let spilled = l.Cost.working_set > Cost.l2_reach *. d.Device.l2_mb *. 1e6 in
  let cache_bw =
    if not spilled then d.Device.l2_gb_s *. 1e9
    else if l.Cost.strided then
      Cost.scatter_efficiency *. d.Device.dram_gb_s *. 1e9
    else d.Device.dram_gb_s *. 1e9
  in
  let cache_s = l.Cost.thread_bytes /. cache_bw in
  let binding =
    if compute_s >= dram_s && compute_s >= cache_s then Cost.Compute
    else if dram_s >= cache_s then Cost.Dram
    else if spilled && l.Cost.strided then Cost.Spill
    else Cost.Cache
  in
  (compute_s *. 1e3, dram_s *. 1e3, cache_s *. 1e3, binding)

let bits = Int64.bits_of_float
let check_bits what a b = Alcotest.(check int64) what (bits a) (bits b)

(* Launches covering every branch of the model: padded tallies, strided
   and compact spills, [count > 1], empty grids and zero-op kernels. *)
let accounting_grid =
  let o = Counter.make ~adds:3e6 ~muls:3e6 ~divs:7.0 ~sqrts:2.0 () in
  [
    ("plain", Cost.launch ~blocks:160 ~threads:128 ~cold_bytes:4e6
       ~thread_bytes:9e7 ~working_set:1e5 o);
    ("padded", Cost.launch ~blocks:33 ~threads:96 ~cold_bytes:1e5
       ~thread_bytes:2e6 ~padded:(Counter.scale o 1.75) o);
    ("strided spill", Cost.launch ~blocks:512 ~threads:256 ~cold_bytes:8e7
       ~thread_bytes:6e9 ~working_set:5e8 ~strided:true o);
    ("compact spill", Cost.launch ~blocks:512 ~threads:256 ~cold_bytes:8e7
       ~thread_bytes:6e9 ~working_set:5e8 o);
    ("strided in cache", Cost.launch ~blocks:7 ~threads:33 ~cold_bytes:1e3
       ~thread_bytes:4e4 ~working_set:1e3 ~strided:true o);
    ("count", Cost.launch ~count:127 ~blocks:64 ~threads:64 ~cold_bytes:2e6
       ~thread_bytes:3e6 (Counter.make ~adds:1e5 ~muls:1e5 ()));
    ("zero ops", Cost.launch ~blocks:1 ~threads:1 Counter.zero);
    ("empty grid", Cost.launch ~blocks:0 ~threads:0 ~cold_bytes:5e5 o);
  ]

let test_accounting_bit_exact () =
  List.iter
    (fun (d : Device.t) ->
      List.iter
        (fun p ->
          List.iter
            (fun slow ->
              let sim = Sim.create ~execute:false ~device:d ~prec:p () in
              (* Hand accumulation, per stage, of today's formulas. *)
              let acc = Hashtbl.create 8 in
              Sim.with_slowdown slow (fun () ->
                  for round = 1 to 3 do
                    List.iter
                      (fun (stage, (l : Cost.launch)) ->
                        let tag = Printf.sprintf "%s %s %s" d.Device.name
                            (P.label p) stage in
                        check_bits (tag ^ " kernel_ms") (ref_kernel_ms d p l)
                          (Cost.kernel_ms d p l);
                        let c, dr, ca, b = ref_terms d p l in
                        let c', dr', ca', b' = Cost.terms d p l in
                        check_bits (tag ^ " compute") c c';
                        check_bits (tag ^ " dram") dr dr';
                        check_bits (tag ^ " cache") ca ca';
                        check (tag ^ " binding") true (b = b');
                        (* Two stages share a row, to interleave sums. *)
                        let stage = if round = 2 then "shared" else stage in
                        Sim.launch sim ~stage ~cost:l (fun _ -> ());
                        let ms, o, n, cold, thr, cms, mms =
                          Option.value (Hashtbl.find_opt acc stage)
                            ~default:(0.0, Counter.zero, 0, 0.0, 0.0, 0.0, 0.0)
                        in
                        Hashtbl.replace acc stage
                          ( ms +. (ref_kernel_ms d p l *. slow),
                            Counter.add o l.Cost.ops,
                            n + l.Cost.count,
                            cold +. l.Cost.cold_bytes,
                            thr +. l.Cost.thread_bytes,
                            cms +. (c *. slow),
                            mms +. (Float.max dr ca *. slow) ))
                      accounting_grid
                  done);
              List.iter
                (fun (r : Profile.row) ->
                  let tag = Printf.sprintf "%s %s x%g %s" d.Device.name
                      (P.label p) slow r.Profile.stage in
                  let ms, o, n, cold, thr, cms, mms =
                    Hashtbl.find acc r.Profile.stage
                  in
                  check_bits (tag ^ " ms") ms r.Profile.ms;
                  check_bits (tag ^ " adds") o.Counter.adds r.Profile.ops.Counter.adds;
                  check_bits (tag ^ " muls") o.Counter.muls r.Profile.ops.Counter.muls;
                  check_bits (tag ^ " divs") o.Counter.divs r.Profile.ops.Counter.divs;
                  check_bits (tag ^ " sqrts") o.Counter.sqrts
                    r.Profile.ops.Counter.sqrts;
                  checki (tag ^ " launches") n r.Profile.launches;
                  check_bits (tag ^ " cold") cold r.Profile.cold_bytes;
                  check_bits (tag ^ " thread") thr r.Profile.thread_bytes;
                  check_bits (tag ^ " compute_ms") cms r.Profile.compute_ms;
                  check_bits (tag ^ " memory_ms") mms r.Profile.memory_ms)
                (Sim.breakdown sim);
              checki "every stage has a row" (Hashtbl.length acc)
                (List.length (Sim.breakdown sim)))
            [ 1.0; 1.5 ])
        P.all)
    Device.catalog

(* ---- stages are keyed by content ---- *)

let unit_launch = Cost.launch ~blocks:4 ~threads:32 (Counter.make ~adds:64.0 ())

let test_stage_runtime_name () =
  (* A label built at run time is physically distinct from the literal
     but must land on the literal's row, whichever comes first. *)
  let sim = Sim.create ~execute:false ~device:Device.v100 ~prec:P.DD () in
  let ywtc = "YWT*C" and beta_v = "beta, v" in
  let built () = String.concat "" [ "YWT"; "*C" ] in
  check "distinct strings" false (built () == ywtc);
  Sim.launch sim ~stage:ywtc ~cost:unit_launch ignore;
  Sim.launch sim ~stage:(built ()) ~cost:unit_launch ignore;
  Sim.launch sim ~stage:(String.concat " " [ "beta,"; "v" ]) ~cost:unit_launch
    ignore;
  Sim.launch sim ~stage:beta_v ~cost:unit_launch ignore;
  Alcotest.(check (list string)) "two rows" [ "YWT*C"; "beta, v" ]
    (List.map (fun (r : Profile.row) -> r.Profile.stage) (Sim.breakdown sim));
  List.iter
    (fun (r : Profile.row) -> checki r.Profile.stage 2 r.Profile.launches)
    (Sim.breakdown sim)

let test_stage_reset () =
  (* [Sim.reset] forgets the lookup cache along with the table: a stale
     cache would account the old row's string into a dropped entry. *)
  let sim = Sim.create ~execute:false ~device:Device.v100 ~prec:P.DD () in
  (* One physical string throughout, so the lookup can hit by address. *)
  let a = "a" and b = "b" in
  Sim.launch sim ~stage:a ~cost:unit_launch ignore;
  Sim.launch sim ~stage:a ~cost:unit_launch ignore;
  Sim.reset sim;
  checki "reset empties" 0 (Sim.launches sim);
  Sim.launch sim ~stage:b ~cost:unit_launch ignore;
  Sim.launch sim ~stage:a ~cost:unit_launch ignore;
  Alcotest.(check (list string)) "fresh order" [ "b"; "a" ]
    (List.map (fun (r : Profile.row) -> r.Profile.stage) (Sim.breakdown sim));
  checki "a counted once" 1 (Profile.stage_launches sim.Sim.profile a);
  checki "total" 2 (Sim.launches sim);
  check_bits "kernel ms"
    (2.0 *. Cost.kernel_ms Device.v100 P.DD unit_launch)
    (Sim.kernel_ms sim)

let test_stage_overflow () =
  (* Far more stages than any lookup cache holds, interleaved over
     several rounds: every row still accounts exactly. *)
  let sim = Sim.create ~execute:false ~device:Device.p100 ~prec:P.QD () in
  let n = 50 and rounds = 4 in
  let cost i =
    Cost.launch ~count:(1 + (i mod 3)) ~blocks:(1 + i) ~threads:64
      ~cold_bytes:(1e4 *. float_of_int i)
      (Counter.make ~adds:(float_of_int (100 * i)) ())
  in
  for _ = 1 to rounds do
    for i = 0 to n - 1 do
      Sim.launch sim ~stage:(Printf.sprintf "stage %d" i) ~cost:(cost i) ignore
    done
  done;
  let rows = Sim.breakdown sim in
  checki "one row per stage" n (List.length rows);
  List.iteri
    (fun i (r : Profile.row) ->
      let c = cost i in
      let ms = ref 0.0 in
      for _ = 1 to rounds do
        ms := !ms +. Cost.kernel_ms Device.p100 P.QD c
      done;
      Alcotest.(check string) "first-recorded order"
        (Printf.sprintf "stage %d" i) r.Profile.stage;
      checki (r.Profile.stage ^ " launches") (rounds * c.Cost.count)
        r.Profile.launches;
      check_bits (r.Profile.stage ^ " ms") !ms r.Profile.ms;
      check_bits (r.Profile.stage ^ " adds")
        (float_of_int (rounds * 100 * i))
        r.Profile.ops.Counter.adds)
    rows

let test_sim_execution () =
  let sim = Sim.create ~device:Device.v100 ~prec:P.QD () in
  let hits = Atomic.make 0 in
  let cost = Cost.launch ~blocks:7 ~threads:4 (ops 100.0) in
  Sim.launch sim ~stage:"s" ~cost (fun _ -> Atomic.incr hits);
  checki "all blocks ran" 7 (Atomic.get hits);
  checki "one launch" 1 (Sim.launches sim);
  check "kernel time positive" true (Sim.kernel_ms sim > 0.0);
  (* transfers go to wall clock only *)
  let k = Sim.kernel_ms sim in
  Sim.transfer sim 1e8;
  check "kernel unchanged" true (Sim.kernel_ms sim = k);
  check "wall grew" true (Sim.wall_ms sim > k);
  check "gflops sane" true (Sim.kernel_gflops sim >= 0.0)

let test_sim_no_execute () =
  let sim = Sim.create ~execute:false ~device:Device.v100 ~prec:P.QD () in
  let hits = ref 0 in
  let cost = Cost.launch ~blocks:3 ~threads:4 (ops 1.0) in
  Sim.launch sim ~stage:"s" ~cost (fun _ -> incr hits);
  checki "body skipped" 0 !hits;
  checki "still accounted" 1 (Sim.launches sim)

let test_sim_body_exception () =
  (* A raising kernel body must surface as an error on the launching
     domain, not vanish into the pool. *)
  let sim = Sim.create ~device:Device.v100 ~prec:P.QD () in
  let cost = Cost.launch ~blocks:7 ~threads:4 (ops 1.0) in
  (try
     Sim.launch sim ~stage:"s" ~cost (fun b ->
         if b = 3 then failwith "kernel bug");
     Alcotest.fail "kernel exception swallowed"
   with Failure m -> check "surfaced" true (m = "kernel bug"));
  (* The simulator (and its pool) stays usable after the failure. *)
  let hits = Atomic.make 0 in
  Sim.launch sim ~stage:"s" ~cost (fun _ -> Atomic.incr hits);
  checki "subsequent launch runs" 7 (Atomic.get hits)

let () =
  Alcotest.run "gpusim"
    [
      ( "devices",
        [
          Alcotest.test_case "catalog" `Quick test_catalog;
          Alcotest.test_case "peaks" `Quick test_peaks;
        ] );
      ( "occupancy",
        [
          Alcotest.test_case "bounds" `Quick test_occupancy_bounds;
          Alcotest.test_case "monotone in blocks" `Quick
            test_occupancy_monotone_blocks;
          Alcotest.test_case "wave quantization" `Quick test_wave_quantization;
          Alcotest.test_case "warp rounding" `Quick test_warp_rounding;
          Alcotest.test_case "latency hiding" `Quick test_latency_hiding;
        ] );
      ( "kernel time",
        [
          Alcotest.test_case "monotone in work" `Quick
            test_kernel_time_monotone;
          Alcotest.test_case "precision ordering" `Quick
            test_kernel_time_precision;
          Alcotest.test_case "launch overhead" `Quick test_launch_overhead;
          Alcotest.test_case "cache spill" `Quick test_cache_spill;
          Alcotest.test_case "transfer and pressure" `Quick
            test_transfer_and_pressure;
          Alcotest.test_case "ridge points" `Quick test_ridge;
        ] );
      ( "counters",
        [
          Alcotest.test_case "flops" `Quick test_counter_flops;
          Alcotest.test_case "complexify" `Quick test_counter_complexify;
        ] );
      ( "profile and sim",
        [
          Alcotest.test_case "profile" `Quick test_profile;
          Alcotest.test_case "sim executes" `Quick test_sim_execution;
          Alcotest.test_case "sim plan mode" `Quick test_sim_no_execute;
          Alcotest.test_case "sim body exception" `Quick
            test_sim_body_exception;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "bit-exact against the formulas" `Quick
            test_accounting_bit_exact;
          Alcotest.test_case "run-time stage names" `Quick
            test_stage_runtime_name;
          Alcotest.test_case "reset clears the lookup" `Quick test_stage_reset;
          Alcotest.test_case "more stages than the cache" `Quick
            test_stage_overflow;
        ] );
    ]
