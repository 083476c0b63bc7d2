(* Host clock, bench-owned spans and process memory. *)

(* Seconds on CLOCK_MONOTONIC, to the nanosecond; [Unix.gettimeofday]
   rounds to about a quarter microsecond at today's epoch values, which
   quantizes the shortest samples. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed_ms f =
  let t0 = now () in
  let r = f () in
  ((now () -. t0) *. 1000.0, r)

(* Every call the bench makes into the program runs under a
   [bench.<kind>] span carrying a request id, so the traced phase can
   attribute the kernel spans beneath it; with the tracer off the span
   is one atomic load. *)
let req = ref 0

let call ~kind ?(args = []) f =
  incr req;
  Obs.Tracer.span ~cat:"bench"
    ~args:(("req", Obs.Tracer.Int !req) :: args)
    ("bench." ^ kind) f

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf
          (String.sub line 6 (String.length line - 6))
          " %d" (fun kb -> Some (float_of_int kb /. 1024.0))
      | _ -> scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* [rotate k xs]: the case order of round [k], so drift in the machine
   is spread over the cases instead of landing on whichever runs last. *)
let rotate k xs =
  match xs with
  | [] -> []
  | _ ->
    let n = List.length xs in
    let k = ((k mod n) + n) mod n in
    List.filteri (fun i _ -> i >= k) xs @ List.filteri (fun i _ -> i < k) xs

(* The reference kernel: fixed work written in the bench itself, so no
   change to the program can move it — a boxed double-double sum of
   squares over 400k doubles (error-free transformations and minor-heap
   allocation, the instruction mix of the multiple double code).  The
   shared machine this ledger runs on changes speed by up to 1.75x over
   minutes; the kernel's time tracks those swings (a paper-tables pass
   held within 12% of it while its own time ranged over 1.75x), so the
   end-to-end timings are reported at the kernel's nominal speed. *)
let ref_xs = Array.init 400_000 (fun i -> 1.0 +. (float_of_int i *. 1e-6))

let reference_ms () =
  fst
    (timed_ms (fun () ->
         let acc = ref (0.0, 0.0) in
         Array.iter
           (fun x ->
             let p = x *. x in
             let e = Float.fma x x (-.p) in
             let h, l = !acc in
             let s = h +. p in
             let bb = s -. h in
             acc := (s, l +. e +. ((h -. (s -. bb)) +. (p -. bb))))
           ref_xs;
         ignore (Sys.opaque_identity !acc)))

(* The kernel's time at nominal speed (its median on the 2-vCPU box the
   ledger was calibrated on). *)
let nominal_ms = 4.0

(* [scaled ms r0 r1] is a host time taken between two runs of the
   reference kernel, of [r0] and [r1] ms, rescaled to nominal speed. *)
let scaled ms r0 r1 = ms *. nominal_ms /. ((r0 +. r1) /. 2.0)
