(* Tests for the parallel substrate: the domain pool (the engine under
   every simulated kernel launch) and the deterministic PRNG. *)

open Dompool

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---- prng ---- *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 1000 do
    check "same stream" true (Prng.next_int64 a = Prng.next_int64 b)
  done;
  let c = Prng.create 43 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prng.next_int64 a <> Prng.next_int64 c then differs := true
  done;
  check "different seeds differ" true !differs

let test_prng_ranges () =
  let r = Prng.create 7 in
  for _ = 1 to 10000 do
    let f = Prng.float r in
    check "float in [0,1)" true (f >= 0.0 && f < 1.0);
    let s = Prng.sym_float r in
    check "sym in [-1,1)" true (s >= -1.0 && s < 1.0);
    let i = Prng.int r 17 in
    check "int in range" true (i >= 0 && i < 17)
  done;
  (try
     ignore (Prng.int r 0);
     Alcotest.fail "int 0 accepted"
   with Invalid_argument _ -> ())

let test_prng_distribution () =
  (* Coarse uniformity: mean of [0,1) samples near 1/2. *)
  let r = Prng.create 99 in
  let n = 100000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.float r
  done;
  let mean = !sum /. float_of_int n in
  check "mean near half" true (Float.abs (mean -. 0.5) < 0.01);
  (* All 64 bits toggle. *)
  let seen_or = ref 0L and seen_and = ref (-1L) in
  for _ = 1 to 1000 do
    let v = Prng.next_int64 r in
    seen_or := Int64.logor !seen_or v;
    seen_and := Int64.logand !seen_and v
  done;
  check "all bits set sometimes" true (!seen_or = -1L);
  check "no bit always set" true (!seen_and = 0L)

let test_prng_split () =
  let parent = Prng.create 5 in
  let child = Prng.split parent in
  (* Child and parent streams decorrelate. *)
  let same = ref 0 in
  for _ = 1 to 100 do
    if Prng.next_int64 parent = Prng.next_int64 child then incr same
  done;
  checki "no collisions" 0 !same;
  (* Copy preserves state. *)
  let a = Prng.create 11 in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  check "copy same stream" true (Prng.next_int64 a = Prng.next_int64 b)

(* ---- domain pool ---- *)

let test_pool_parallel_for () =
  let pool = Domain_pool.create 4 in
  let n = 10000 in
  let marks = Array.make n 0 in
  Domain_pool.parallel_for pool 0 n (fun i -> marks.(i) <- marks.(i) + 1);
  check "each index exactly once" true (Array.for_all (fun x -> x = 1) marks);
  (* Reusable. *)
  Domain_pool.parallel_for ~chunk:1 pool 0 n (fun i ->
      marks.(i) <- marks.(i) + 1);
  check "reusable" true (Array.for_all (fun x -> x = 2) marks);
  (* Empty and single ranges. *)
  Domain_pool.parallel_for pool 5 5 (fun _ -> Alcotest.fail "empty range");
  let hit = ref 0 in
  Domain_pool.parallel_for pool 3 4 (fun i ->
      hit := i);
  checki "single" 3 !hit;
  Domain_pool.shutdown pool

let test_pool_chunking () =
  let pool = Domain_pool.create 3 in
  let sum = Atomic.make 0 in
  Domain_pool.parallel_for ~chunk:7 pool 0 1000 (fun i ->
      ignore (Atomic.fetch_and_add sum i));
  checki "sum" (999 * 1000 / 2) (Atomic.get sum);
  Domain_pool.shutdown pool

(* Spins until [ready ()], for at most [limit] seconds; a rendezvous
   between domains that cannot hang when the other never arrives. *)
let await ?(limit = 5.0) ready =
  let t0 = Unix.gettimeofday () in
  while (not (ready ())) && Unix.gettimeofday () -. t0 < limit do
    Domain.cpu_relax ()
  done;
  ready ()

let test_pool_exception_propagates () =
  let pool = Domain_pool.create 2 in
  (* A chunk that a helper ran raises, slowly: the exception surfaces on
     the caller, and only once every chunk (the raising one included)
     has finished. *)
  let caller = Domain.self () in
  let n = 8 in
  let helper_in = Atomic.make false and ended = Atomic.make 0 in
  (try
     Domain_pool.parallel_for ~chunk:1 pool 0 n (fun i ->
         if Domain.self () <> caller && not (Atomic.get helper_in) then begin
           Atomic.set helper_in true;
           Unix.sleepf 0.02;
           Atomic.incr ended;
           failwith "boom"
         end;
         (* The caller's first chunk holds until a helper has one. *)
         if i = 0 then ignore (await (fun () -> Atomic.get helper_in));
         Atomic.incr ended);
     Alcotest.fail
       (if Atomic.get helper_in then "exception swallowed"
        else "no helper took a chunk")
   with Failure m ->
     check "original exception" true (m = "boom");
     checki "raised after every chunk finished" n (Atomic.get ended));
  (* One exception surfaces even when every chunk raises. *)
  (try
     Domain_pool.parallel_for ~chunk:1 pool 0 8 (fun _ -> failwith "multi");
     Alcotest.fail "exception swallowed"
   with Failure m -> check "a chunk's exception" true (m = "multi"));
  (* The pool must not wedge or die: it is reusable afterwards. *)
  let hits = Atomic.make 0 in
  Domain_pool.parallel_for ~chunk:1 pool 0 4 (fun _ -> Atomic.incr hits);
  checki "pool survives exceptions" 4 (Atomic.get hits);
  Domain_pool.shutdown pool

let test_parallel_for_exception_propagates () =
  let pool = Domain_pool.create 3 in
  (* A raising iteration surfaces from parallel_for. *)
  (try
     Domain_pool.parallel_for ~chunk:1 pool 0 100 (fun i ->
         if i = 37 then failwith "iter boom");
     Alcotest.fail "exception swallowed"
   with Failure m -> check "original exception" true (m = "iter boom"));
  (* Sequential small-range path propagates directly too. *)
  (try
     Domain_pool.parallel_for pool 0 1 (fun _ -> failwith "seq boom");
     Alcotest.fail "exception swallowed"
   with Failure m -> check "sequential path" true (m = "seq boom"));
  (* Still fully functional afterwards. *)
  let n = 1000 in
  let marks = Array.make n 0 in
  Domain_pool.parallel_for ~chunk:7 pool 0 n (fun i ->
      marks.(i) <- marks.(i) + 1);
  check "pool still covers ranges" true (Array.for_all (fun x -> x = 1) marks);
  Domain_pool.shutdown pool

let test_raise_while_helper_parked () =
  (* Workers park at spawn and after their bounded spin: an iteration
     that raises while the helper sleeps still fails the call, and the
     caller runs every other chunk itself if the helper never wakes. *)
  let pool = Domain_pool.create 2 in
  Unix.sleepf 0.05;
  let n = 64 in
  let marks = Array.make n 0 in
  (match
     Domain_pool.parallel_for ~chunk:1 pool 0 n (fun i ->
         if i = 0 then failwith "parked";
         marks.(i) <- marks.(i) + 1)
   with
  | () -> Alcotest.fail "exception swallowed"
  | exception Failure m -> check "the iteration's exception" true (m = "parked"));
  check "every other chunk ran once" true
    (Array.for_all (fun x -> x = 1) (Array.sub marks 1 (n - 1)));
  Domain_pool.shutdown pool

let test_pool_concurrent_failures () =
  (* Two chunks rendezvous so both are genuinely in flight, then both
     raise: the call must still return and exactly one of the two
     exceptions must surface on the caller. *)
  let pool = Domain_pool.create 4 in
  let ready = Atomic.make 0 in
  let ok = ref false in
  (match
     Domain_pool.parallel_for ~chunk:1 pool 0 3 (fun i ->
         if i = 2 then ok := true
         else begin
           Atomic.incr ready;
           (* Bounded, so chunks run one after another (a single core)
              cannot hang. *)
           ignore (await ~limit:1.0 (fun () -> Atomic.get ready >= 2));
           failwith (if i = 0 then "first" else "second")
         end)
   with
  | () -> Alcotest.fail "both exceptions swallowed"
  | exception Failure m ->
    check "one of the two exceptions" true (m = "first" || m = "second"));
  check "sibling ok-chunk completed" true !ok;
  (* Many simultaneously failing chunks behave the same. *)
  let covered = Atomic.make 0 in
  (match
     Domain_pool.parallel_for ~chunk:1 pool 0 64 (fun i ->
         ignore (Atomic.fetch_and_add covered 1);
         if i mod 2 = 0 then failwith (Printf.sprintf "even %d" i))
   with
  | () -> Alcotest.fail "exceptions swallowed"
  | exception Failure m ->
    check "an even iteration's exception" true
      (String.length m > 5 && String.sub m 0 5 = "even "));
  checki "every chunk attempted" 64 (Atomic.get covered);
  (* The pool must neither wedge nor lose workers: it still covers a
     full range afterwards. *)
  let n = 500 in
  let marks = Array.make n 0 in
  Domain_pool.parallel_for ~chunk:3 pool 0 n (fun i ->
      marks.(i) <- marks.(i) + 1);
  check "pool reusable after concurrent failures" true
    (Array.for_all (fun x -> x = 1) marks);
  Domain_pool.shutdown pool

let test_concurrent_callers () =
  (* Two foreign domains dispatch on one pool at once, round after
     round: each call covers its own range exactly once. *)
  let pool = Domain_pool.create 2 in
  let rounds = 200 and n = 97 in
  let caller () =
    let marks = Array.make n 0 in
    for _ = 1 to rounds do
      Domain_pool.parallel_for ~chunk:1 pool 0 n (fun i ->
          marks.(i) <- marks.(i) + 1)
    done;
    Array.for_all (fun x -> x = rounds) marks
  in
  let a = Domain.spawn caller and b = Domain.spawn caller in
  check "first caller's ranges exact" true (Domain.join a);
  check "second caller's ranges exact" true (Domain.join b);
  Domain_pool.shutdown pool

exception Boom of int * int

let test_external_callers_fail_apart () =
  (* Three plain domains — none of them a pool worker, as the fleet's
     workers are not — dispatch 50 calls each on one 2-domain pool.
     Caller [c] makes its call [r] raise (one index of it) unless
     [r mod 3 = c], so raising calls of different callers overlap
     often: each call still hits every index exactly once, and each
     failure re-raises in the caller that made it, never in another. *)
  let pool = Domain_pool.create 2 in
  let calls = 50 and n = 257 in
  let caller c () =
    let ok = ref true and raised = ref [] in
    for r = 0 to calls - 1 do
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      (match
         Domain_pool.parallel_for ~chunk:1 pool 0 n (fun i ->
             Atomic.incr hits.(i);
             if r mod 3 <> c && i = 7 * c then raise (Boom (c, r)))
       with
      | () -> ()
      | exception Boom (c', r') -> raised := (c', r') :: !raised);
      if not (Array.for_all (fun h -> Atomic.get h = 1) hits) then ok := false
    done;
    (!ok, List.rev !raised)
  in
  let callers = List.init 3 (fun c -> Domain.spawn (caller c)) in
  List.iteri
    (fun c d ->
      let ok, raised = Domain.join d in
      check (Printf.sprintf "caller %d: every index once per call" c) true ok;
      let own =
        List.filter_map
          (fun r -> if r mod 3 <> c then Some (c, r) else None)
          (List.init calls Fun.id)
      in
      check
        (Printf.sprintf "caller %d: exactly its own failures" c)
        true (raised = own))
    callers;
  Domain_pool.shutdown pool

let test_create_shutdown_cycles () =
  (* A worker still spinning after its last task must see [stop]. *)
  for _ = 1 to 50 do
    let pool = Domain_pool.create 2 in
    let hits = Atomic.make 0 in
    Domain_pool.parallel_for ~chunk:1 pool 0 8 (fun _ -> Atomic.incr hits);
    checki "ran" 8 (Atomic.get hits);
    Domain_pool.shutdown pool
  done

let test_pool_nested () =
  (* parallel_for from inside a chunk must not deadlock and must still
     cover the nested range, whether the caller or a helper ran the
     outer chunk. *)
  let pool = Domain_pool.create 3 in
  let outer = 6 and inner = 50 in
  let marks = Array.init outer (fun _ -> Array.make inner 0) in
  Domain_pool.parallel_for ~chunk:1 pool 0 outer (fun i ->
      Domain_pool.parallel_for ~chunk:5 pool 0 inner (fun j ->
          marks.(i).(j) <- marks.(i).(j) + 1));
  Array.iteri
    (fun i row ->
      check
        (Printf.sprintf "outer %d complete" i)
        true
        (Array.for_all (fun x -> x = 1) row))
    marks;
  Domain_pool.shutdown pool

let test_pool_size_one () =
  (* A single-worker pool runs everything on the caller, in order. *)
  let pool = Domain_pool.create 1 in
  checki "size" 1 (Domain_pool.size pool);
  let order = ref [] in
  Domain_pool.parallel_for pool 0 5 (fun i -> order := i :: !order);
  Alcotest.(check (list int)) "in order" [ 4; 3; 2; 1; 0 ] !order;
  Domain_pool.shutdown pool;
  (* The default pool has one domain per core the process may use, so
     on one core every launch runs inline like this. *)
  checki "default pool size"
    (Domain.recommended_domain_count ())
    (Domain_pool.size (Domain_pool.get_default ()))

let test_pool_actually_parallel () =
  (* With several workers, chunks overlap in time: measure that a range
     of busy chunks finishes faster than serial execution would.  On a
     host with a single core there is nothing to overlap on, so only the
     completion of the work can be checked. *)
  let pool = Domain_pool.create 4 in
  if Domain.recommended_domain_count () < 2 then begin
    let hits = Atomic.make 0 in
    Domain_pool.parallel_for ~chunk:1 pool 0 8 (fun _ -> Atomic.incr hits);
    checki "all ran (single core)" 8 (Atomic.get hits)
  end
  else begin
    let spin _ =
      (* ~10ms of busy work *)
      let t0 = Unix.gettimeofday () in
      while Unix.gettimeofday () -. t0 < 0.01 do
        ()
      done
    in
    (* Measure serial first so the check is relative to this machine's
       current load rather than an absolute wall time. *)
    let t0 = Unix.gettimeofday () in
    for i = 0 to 7 do
      spin i
    done;
    let serial = Unix.gettimeofday () -. t0 in
    let t0 = Unix.gettimeofday () in
    Domain_pool.parallel_for ~chunk:1 pool 0 8 spin;
    let parallel = Unix.gettimeofday () -. t0 in
    check "overlapped" true (parallel < 0.8 *. serial)
  end;
  Domain_pool.shutdown pool

let () =
  Alcotest.run "parallel"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "ranges" `Quick test_prng_ranges;
          Alcotest.test_case "distribution" `Quick test_prng_distribution;
          Alcotest.test_case "split/copy" `Quick test_prng_split;
        ] );
      ( "domain pool",
        [
          Alcotest.test_case "parallel_for" `Quick test_pool_parallel_for;
          Alcotest.test_case "chunking" `Quick test_pool_chunking;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "parallel_for exceptions" `Quick
            test_parallel_for_exception_propagates;
          Alcotest.test_case "raise while helper parked" `Quick
            test_raise_while_helper_parked;
          Alcotest.test_case "concurrent failures" `Quick
            test_pool_concurrent_failures;
          Alcotest.test_case "concurrent callers" `Quick
            test_concurrent_callers;
          Alcotest.test_case "external callers fail apart" `Quick
            test_external_callers_fail_apart;
          Alcotest.test_case "create/shutdown cycles" `Quick
            test_create_shutdown_cycles;
          Alcotest.test_case "nested parallelism" `Quick test_pool_nested;
          Alcotest.test_case "size one" `Quick test_pool_size_one;
          Alcotest.test_case "overlaps work" `Slow test_pool_actually_parallel;
        ] );
    ]
