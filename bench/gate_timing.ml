(* The timed side of a wall-clock gate (telemetry-smoke, chaos-smoke).
   One sweep of a gate's workload takes a few tens of ms, so one
   descheduling would move a side's time by more than the gate's budget:
   a side repeats the workload until it has run [min_side_s], and reports
   seconds per repetition.  For the gates' self-test, [slow] then busy
   waits until the side's wall is [slow] times what the repetitions
   took. *)

let min_side_s = 0.1

let per_rep ?(slow = 1.0) f =
  let t0 = Unix.gettimeofday () in
  let n = ref 0 in
  while !n = 0 || Unix.gettimeofday () -. t0 < min_side_s do
    f ();
    incr n
  done;
  let until = t0 +. (slow *. (Unix.gettimeofday () -. t0)) in
  while Unix.gettimeofday () < until do
    ()
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int !n
