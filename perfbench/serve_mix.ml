(* The served workload: JSON job lines written to an [lsq_cli serve]
   subprocess by one client that sends the next job as soon as the
   previous outcome line comes back — the only workload through fleet
   admission and roofline placement, the engine's settle path, the job
   and outcome codecs and the pipes.  Latency is timed from the write of
   a job line to the read of its outcome line.

   A closed loop with one job in flight, not an open loop: on the shared
   machine this ledger runs on, an open loop's queueing turned the
   machine's swings in speed into 12% (typical latency) to 20% (p95)
   run-to-run spread over ten seeds, and two jobs in flight still left
   8 to 10%; one job at a time, rescaled by the reference kernel between
   blocks like the in-process workloads, stays within 5%.  The price is
   that work stealing, which needs a backlog, is not exercised.  The
   bench process only writes and reads pipes (a single-threaded select
   loop). *)

module P = Multidouble.Precision
module Json = Harness.Json
module Job = Sched.Job
module Engine = Sched.Engine

let pool = "v100=1,rtx2080=1"
let in_flight = 1

(* ---- the job stream ---- *)

type job = {
  id : string;
  cls : string;  (** table | exec | cg | lsqr | fault *)
  kind : string;  (** [cls], or the paper-table job's own id *)
  line : string;
}

(* A block of 22 jobs: 16 plan-only paper-table jobs, 3 executed 2d
   n = 64 solves, one executed 2d 1024 x 32 CG and one LSQR solve, and
   one executed 2d n = 64 solve under a 0.05 fault rate, the executed
   jobs at fixed, evenly spaced slots.  The table jobs walk a seeded
   permutation of all 88; the fault-armed job of block k draws the same
   strikes under every seed. *)
let classes =
  Array.init 22 (fun i ->
      match i with
      | 3 | 10 | 17 -> "exec"
      | 6 -> "cg"
      | 13 -> "lsqr"
      | 20 -> "fault"
      | _ -> "table")

let tables_per_block = 16

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Dompool.Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

type stream = { seed : int; tables : Job.t array }

let stream ~seed =
  let tables = Array.of_list (Closed.table_jobs ()) in
  shuffle (Dompool.Prng.create (seed + 7_777)) tables;
  { seed; tables }

let block s k =
  let t = ref 0 in
  Array.mapi
    (fun i cls ->
      let id suffix = Printf.sprintf "s%d-b%03d-%02d-%s" s.seed k i suffix in
      let solve = Job.make ~kind:Job.Solve ~device:Job.auto_device ~prec:P.DD in
      let iter solver =
        solve ~id:(id cls) ~rows:1024 ~dim:32 ~tile:32 ~solver ~execute:true ()
      in
      let kind, job =
        match cls with
        | "table" ->
          let tj =
            s.tables.(((k * tables_per_block) + !t) mod Array.length s.tables)
          in
          incr t;
          (tj.Job.id, { tj with Job.id = id tj.Job.id })
        | "exec" -> (cls, solve ~id:(id cls) ~dim:64 ~tile:16 ~execute:true ())
        | "cg" -> (cls, iter Lsq_core.Solver.Cg_normal)
        | "lsqr" -> (cls, iter Lsq_core.Solver.Lsqr)
        | _ ->
          ( cls,
            solve ~id:(id cls) ~dim:64 ~tile:16 ~execute:true ~fault_rate:0.05
              ~fault_seed:(k + 1) () )
      in
      { id = job.Job.id; cls; kind; line = Json.to_string (Job.to_json job) })
    classes

(* ---- the subprocess ---- *)

type child = {
  pid : int;
  to_child : Unix.file_descr;
  from_child : Unix.file_descr;
  pending : Buffer.t;  (** bytes after the last complete line *)
  mutable lines : (string * float) list;  (** with read time; newest first *)
  mutable eof : bool;
}

(* Services still running, so an aborted run can stop them. *)
let live : child list ref = ref []

let spawn ~cli ?trace () =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let args =
    [ cli; "serve"; "--pool"; pool; "--log-level"; "warn" ]
    @ match trace with Some f -> [ "--trace"; f ] | None -> []
  in
  let pid = Unix.create_process cli (Array.of_list args) in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  let c =
    {
      pid;
      to_child = in_w;
      from_child = out_r;
      pending = Buffer.create 65536;
      lines = [];
      eof = false;
    }
  in
  live := c :: !live;
  c

let chunk = Bytes.create 65536

(* Reads whatever the service has written within [timeout] seconds,
   stamping each complete line with the time it was read. *)
let pump c ~timeout =
  if not c.eof then
    match Unix.select [ c.from_child ] [] [] (Float.max 0.0 timeout) with
    | [], _, _ -> ()
    | _ ->
      let n = Unix.read c.from_child chunk 0 (Bytes.length chunk) in
      if n = 0 then c.eof <- true
      else begin
        let t = Host.now () in
        Buffer.add_subbytes c.pending chunk 0 n;
        let s = Buffer.contents c.pending in
        match String.rindex_opt s '\n' with
        | None -> ()
        | Some i ->
          Buffer.clear c.pending;
          Buffer.add_string c.pending (String.sub s (i + 1) (String.length s - i - 1));
          String.split_on_char '\n' (String.sub s 0 i)
          |> List.iter (fun line -> if line <> "" then c.lines <- (line, t) :: c.lines)
      end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let send c line =
  let s = line ^ "\n" in
  ignore (Unix.write_substring c.to_child s 0 (String.length s) : int)

(* Ends the service: closing its stdin drains the fleet, which writes
   the remaining outcomes (and the trace, if asked) and exits. *)
let finish c ~deadline =
  (try Unix.close c.to_child with Unix.Unix_error _ -> ());
  while (not c.eof) && Host.now () < deadline do
    pump c ~timeout:(deadline -. Host.now ())
  done;
  if not c.eof then Unix.kill c.pid Sys.sigkill;
  let _, status = Unix.waitpid [] c.pid in
  Unix.close c.from_child;
  live := List.filter (fun c' -> c' != c) !live;
  status = Unix.WEXITED 0 && c.eof

let kill c =
  (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ());
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ c.to_child; c.from_child ];
  live := List.filter (fun c' -> c' != c) !live

let kill_all () = List.iter kill !live

let line_id line =
  match Json.member "id" (Json.member "job" (Json.of_string line)) with
  | Json.Str id -> Some id
  | _ -> None
  | exception Json.Error _ -> None

(* Set-up: spawn the service and wait for a probe job's outcome, which
   includes the fleet's start and its first placement. *)
let start ~cli ?trace ~probe () =
  let c = spawn ~cli ?trace () in
  let id = Printf.sprintf "probe-%d" probe in
  let job =
    Job.make ~id ~kind:Job.Qr ~device:"V100" ~prec:P.DD ~dim:64 ~tile:16 ()
  in
  send c (Json.to_string (Job.to_json job));
  let deadline = Host.now () +. 60.0 in
  let seen () = List.exists (fun (l, _) -> line_id l = Some id) c.lines in
  while (not (seen ())) && (not c.eof) && Host.now () < deadline do
    pump c ~timeout:(deadline -. Host.now ())
  done;
  if not (seen ()) then begin
    kill c;
    failwith "serve: the probe job got no outcome"
  end;
  c.lines <- [];
  c

(* ---- driving the service ---- *)

type op = {
  job : job;
  block_no : int;
  latency_ms : float;  (** outcome read minus job write *)
  scaled_ms : float;  (** at the reference speed *)
  answers : Json.t list;  (** the outcome lines carrying the job's id *)
}

(* Blocks 0, 1, ... while [more k] holds, [in_flight] jobs in flight
   within a block.  Between blocks the service is idle: the
   reference kernel runs there, and each block's latencies are rescaled
   by the kernel times on either side of it. *)
let drive c s ~more =
  let ops = ref [] in
  let r_prev = ref (Host.reference_ms ()) in
  let k = ref 0 in
  while more !k do
    let jobs = block s !k in
    let sent = Hashtbl.create 32 in
    let next = ref 0 and answered = ref 0 in
    let deadline = Host.now () +. 60.0 in
    c.lines <- [];
    while !answered < Array.length jobs do
      while !next - !answered < in_flight && !next < Array.length jobs do
        send c jobs.(!next).line;
        Hashtbl.replace sent jobs.(!next).id (Host.now ());
        incr next
      done;
      pump c ~timeout:(deadline -. Host.now ());
      answered := List.length c.lines;
      if c.eof || Host.now () > deadline then
        failwith (Printf.sprintf "serve: block %d got no answer in time" !k)
    done;
    let r = Host.reference_ms () in
    let answers = Hashtbl.create 32 in
    List.iter
      (fun (line, t) ->
        match (Json.of_string line, line_id line) with
        | j, Some id ->
          Hashtbl.replace answers id
            ((j, t) :: Option.value ~default:[] (Hashtbl.find_opt answers id))
        | _ | (exception Json.Error _) -> ())
      c.lines;
    Array.iter
      (fun j ->
        let got = Option.value ~default:[] (Hashtbl.find_opt answers j.id) in
        let read = List.fold_left (fun acc (_, t) -> Float.max acc t) 0.0 got in
        let ms = (read -. Hashtbl.find sent j.id) *. 1000.0 in
        ops :=
          {
            job = j;
            block_no = !k;
            latency_ms = ms;
            scaled_ms = Host.scaled ms !r_prev r;
            answers = List.map fst got;
          }
          :: !ops)
      jobs;
    r_prev := r;
    incr k
  done;
  List.rev !ops

(* ---- checks and numbers ---- *)

(* Every job gets exactly one outcome line; it must be a completed
   outcome, and executed jobs must carry a residual that passed.
   Returns the settled outcomes. *)
let settle (l : Ledger.t) ops =
  List.filter_map
    (fun op ->
      let id = op.job.id in
      let r =
        match op.answers with
        | [ json ] -> (
          match Engine.outcome_of_json json with
          | o -> (
            match o.Engine.status with
            | Engine.Completed r -> (
              match (op.job.cls, r.Harness.Report.residual) with
              | "table", _ -> Some (op, o)
              | _, Some res when res.Harness.Report.ok -> Some (op, o)
              | _ ->
                Ledger.error l "%s: executed without a passing residual" id;
                None)
            | Engine.Failed f ->
              Ledger.error l "%s failed: %s" id f.Engine.message;
              None)
          | exception Json.Error m ->
            Ledger.error l "%s: %s" id m;
            None)
        | [] ->
          Ledger.error l "%s: no outcome line" id;
          None
        | _ ->
          Ledger.error l "%s: more than one outcome line" id;
          None
      in
      Ledger.op l ~ok:(r <> None);
      r)
    ops

let attempt_ms (o : Engine.outcome) =
  List.fold_left ( +. ) 0.0 o.Engine.timing.Engine.attempt_ms

(* Report-only figures of the served window, from the outcome lines:
   where the latency went (queue wait, attempts, and the service's own
   parse / encode / pipe time), how busy each instance was and how often
   work was stolen. *)
let layer_notes (l : Ledger.t) settled ~window_s =
  let q p xs = if xs = [] then 0.0 else Stats.percentile p xs in
  let waits =
    List.map (fun (_, o) -> o.Engine.timing.Engine.queue_wait_ms) settled
  in
  let attempts = List.map (fun (_, o) -> attempt_ms o) settled in
  let overhead =
    List.map
      (fun (op, o) ->
        op.latency_ms -. o.Engine.timing.Engine.queue_wait_ms -. o.Engine.elapsed_ms)
      settled
  in
  Ledger.note l "fleet.queue_wait_ms.p50" (q 50.0 waits);
  Ledger.note l "fleet.queue_wait_ms.p95" (q 95.0 waits);
  Ledger.note l "engine.attempt_ms.p50" (q 50.0 attempts);
  Ledger.note l "engine.attempt_ms.p95" (q 95.0 attempts);
  Ledger.note l "serve.overhead_ms.p50" (q 50.0 overhead);
  let placements = List.filter_map (fun (_, o) -> o.Engine.placement) settled in
  Ledger.note l "fleet.steals"
    (float_of_int
       (List.fold_left (fun acc p -> acc + p.Engine.steals) 0 placements));
  let busy = Hashtbl.create 4 in
  List.iter
    (fun (_, (o : Engine.outcome)) ->
      match o.Engine.placement with
      | Some p ->
        let id = p.Engine.device_id in
        Hashtbl.replace busy id
          (attempt_ms o +. Option.value ~default:0.0 (Hashtbl.find_opt busy id))
      | None -> ())
    settled;
  Hashtbl.iter
    (fun id ms -> Ledger.note l ("fleet.busy_share." ^ id) (ms /. 1000.0 /. window_s))
    busy

(* The fault plane's tally over the fault-armed jobs of blocks 1 to 8,
   which every run of a seed serves: exact, like the modeled figures. *)
let fault_tally (l : Ledger.t) settled =
  let armed =
    List.filter
      (fun (op, _) -> op.job.cls = "fault" && op.block_no >= 1 && op.block_no <= 8)
      settled
  in
  if List.length armed = 8 then begin
    let module R = Harness.Report in
    let tally f =
      List.fold_left
        (fun acc (_, (o : Engine.outcome)) ->
          match o.Engine.status with
          | Engine.Completed { R.faults = Some fr; _ } -> acc + f fr
          | _ -> acc)
        0 armed
    in
    Ledger.exact l "fault.injected" (float_of_int (tally R.faults_injected));
    Ledger.exact l "fault.detected" (float_of_int (tally (fun f -> f.R.detected)));
    Ledger.exact l "fault.replays" (float_of_int (tally (fun f -> f.R.replays)));
    Ledger.exact l "fault.refined"
      (float_of_int (tally (fun f -> if f.R.refined then 1 else 0)))
  end
