(* The closed-loop workloads: one caller, the next operation issued when
   the previous one returns, on inputs the bench generates from the
   seed.  Each operation is one call into a public entry point —
   [Sched.Engine.run_job] or [Lsq_core.Solver.Make(K).solve] — timed on
   the host clock, and its output is checked before the next one. *)

module P = Multidouble.Precision
module Solver = Lsq_core.Solver

type case = {
  name : string;
  reps : int;  (** operations per round *)
  once : Ledger.t -> float;
      (** one operation: runs it, records its checks, returns its host ms *)
}

type t = {
  setup : seed:int -> case list;  (** input generation *)
  warmup : int;  (** untimed rounds before measuring *)
}

let device = Gpusim.Device.v100

(* ---- paper_tables: the paper's tables on the cost model ---- *)

(* Tables 3-10 of the paper as plan-only jobs: no arithmetic runs, so
   the simulator's accounting and the report assembly take the time. *)
let tables = [ "table3"; "table4"; "table5"; "table6"; "table7"; "table8"; "table9"; "table10" ]

let table_jobs () = List.concat_map Sched.Sweep.jobs tables

(* One case per table: an operation plans all of its jobs. *)
let paper_tables =
  let setup ~seed:_ =
    List.map
      (fun name ->
        let jobs = Sched.Sweep.jobs name in
        let once (l : Ledger.t) =
          let ms, reports =
            Host.timed_ms (fun () ->
                List.map
                  (fun job ->
                    Host.call ~kind:"plan_job" (fun () -> Sched.Engine.run_job job))
                  jobs)
          in
          List.iter2
            (fun (job : Sched.Job.t) (r : Harness.Report.t) ->
              Ledger.exact l ("model.kernel_ms." ^ job.Sched.Job.id) r.Harness.Report.kernel_ms;
              Ledger.exact l ("sim.launches." ^ job.Sched.Job.id)
                (float_of_int r.Harness.Report.launches))
            jobs reports;
          Ledger.op l ~ok:true;
          ms
        in
        { name; reps = 1; once })
      tables
  in
  { setup; warmup = 2 }

(* ---- executed solves ---- *)

(* One seeded system and a case per engine solving it.  Every solve
   must reach the known solution within 1e6 eps (seed 1 stays within
   15 eps), and repeated solves of one input must agree bit for bit. *)
let solves ~seed ~prec ~rows ~cols ~tile engines =
  let (module K) = Solver.scalar_of prec in
  let module S = Solver.Make (K) in
  let module M = Mdlinalg.Mat.Make (K) in
  let module V = Mdlinalg.Vec.Make (K) in
  let module Rand = Mdlinalg.Randmat.Make (K) in
  let rng =
    Dompool.Prng.create
      ((seed * 1_000_003) + Hashtbl.hash (P.label prec, rows, cols, tile))
  in
  let a = Rand.matrix rng rows cols in
  let b, x_true = Rand.rhs_for rng a in
  let norm v = K.R.to_float (V.norm v) in
  List.map
    (fun (name, method_, reps) ->
      let first = ref None in
      let once (l : Ledger.t) =
        let a = M.copy a and b = V.copy b in
        let ms, r =
          Host.timed_ms (fun () ->
              Host.call ~kind:"solve"
                ~args:[ ("case", Obs.Tracer.Str name) ]
                (fun () -> S.solve ~method_ ~device ~a ~b ~tile ()))
        in
        let err = norm (V.sub r.S.x x_true) /. norm x_true /. K.R.eps in
        let limbs = Array.map K.to_planes r.S.x in
        let repeatable =
          match !first with
          | None ->
            first := Some limbs;
            true
          | Some l0 -> Array.for_all2 Layers.same_bits l0 limbs
        in
        if not repeatable then
          Ledger.error l "%s: solve is not bit-identical to the first one" name;
        let ok = Float.is_finite err && err <= 1e6 in
        if not ok then Ledger.error l "%s: forward error %.3g eps" name err;
        Ledger.op l ~ok;
        Ledger.exact l ("forward_err_eps." ^ name) err;
        Ledger.exact l ("sim.launches." ^ name) (float_of_int r.S.launches);
        Ledger.exact l ("model.kernel_ms." ^ name) r.S.kernel_ms;
        Option.iter
          (fun (it : Solver.iter_info) ->
            Ledger.exact l ("solver.iterations." ^ name)
              (float_of_int it.Solver.iterations);
            Ledger.exact l ("solver.ladder_rungs." ^ name)
              (float_of_int (List.length it.Solver.ladder)))
          r.S.iter;
        ms
      in
      { name; reps; once })
    engines

(* exec_square: executed QR + back substitution on square systems, the
   same n at three precisions (the host's cost of doubling precision)
   plus a larger double double system with many more launches. *)
let exec_square =
  let setup ~seed =
    let qr = Solver.Qr_direct in
    List.concat
      [
        solves ~seed ~prec:P.DD ~rows:32 ~cols:32 ~tile:8 [ ("2d_n32", qr, 8) ];
        solves ~seed ~prec:P.QD ~rows:32 ~cols:32 ~tile:8 [ ("4d_n32", qr, 4) ];
        solves ~seed ~prec:P.OD ~rows:32 ~cols:32 ~tile:8 [ ("8d_n32", qr, 1) ];
        solves ~seed ~prec:P.DD ~rows:128 ~cols:128 ~tile:32 [ ("2d_n128", qr, 2) ];
      ]
  in
  { setup; warmup = 1 }

(* exec_tall: one tall double double system through all three engines. *)
let exec_tall =
  let setup ~seed =
    solves ~seed ~prec:P.DD ~rows:512 ~cols:64 ~tile:32
      [
        ("qr", Solver.Qr_direct, 1);
        ("cg", Solver.Cg_normal, 3);
        ("lsqr", Solver.Lsqr, 3);
      ]
  in
  { setup; warmup = 1 }

(* ---- rounds ---- *)

type timings = {
  raw : (string, float list) Hashtbl.t;  (** host ms by case, newest first *)
  scaled : (string, float list) Hashtbl.t;  (** at the reference speed *)
  mutable rounds : float list;  (** per-round host ms, newest first *)
  mutable last_ref : float option;
}

let timings () =
  { raw = Hashtbl.create 8; scaled = Hashtbl.create 8; rounds = []; last_ref = None }

let push tbl k v =
  Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))

(* One round: every case's operations in the round's rotation, each
   run through [each] and followed by the reference kernel, so each
   operation is rescaled by the machine speed measured on either side
   of it. *)
let round (l : Ledger.t) tm cases ~each k =
  let total = ref 0.0 in
  List.iter
    (fun c ->
      for _ = 1 to c.reps do
        let r0 =
          match tm.last_ref with Some r -> r | None -> Host.reference_ms ()
        in
        let ms = each (fun () -> c.once l) in
        let r1 = Host.reference_ms () in
        tm.last_ref <- Some r1;
        total := !total +. ms;
        push tm.raw c.name ms;
        push tm.scaled c.name (Host.scaled ms r0 r1)
      done)
    (Host.rotate k cases);
  tm.rounds <- !total :: tm.rounds

(* Rounds until [seconds] have passed, at least [min_rounds]; [k]
   counts rounds across phases so the rotation continues.  [each] wraps
   every operation (the traced phase records one trace per
   operation). *)
let rounds (l : Ledger.t) cases ~k ~seconds ?(min_rounds = 1)
    ?(each = fun f -> f ()) () =
  let tm = timings () in
  let t0 = Host.now () in
  let n = ref 0 in
  while !n < min_rounds || Host.now () -. t0 < seconds do
    round l tm cases ~each !k;
    incr k;
    incr n
  done;
  tm

let samples tbl name = List.rev (Option.value ~default:[] (Hashtbl.find_opt tbl name))

let of_name = function
  | "paper_tables" -> Some paper_tables
  | "exec_square" -> Some exec_square
  | "exec_tall" -> Some exec_tall
  | _ -> None
