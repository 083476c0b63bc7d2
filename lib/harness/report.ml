(* The unified experiment report shared by the runners, the CLI, the
   table generators and the batch scheduler; serializes to a versioned
   JSON schema that round-trips exactly (17-digit floats). *)

module Part = struct
  type t = {
    name : string;
    kernel_ms : float;
    wall_ms : float;
    kernel_gflops : float;
    wall_gflops : float;
  }
end

module Row = struct
  type t = {
    stage : string;
    ms : float;
    launches : int;
    ops : Gpusim.Counter.ops;
  }

  let of_profile (r : Gpusim.Profile.row) =
    {
      stage = r.Gpusim.Profile.stage;
      ms = r.Gpusim.Profile.ms;
      launches = r.Gpusim.Profile.launches;
      ops = r.Gpusim.Profile.ops;
    }
end

type residual = { what : string; residual : float; eps : float; ok : bool }

(* The fault story of one run: the injection/detection/recovery tally of
   the armed plan plus whether the refinement fallback had to repair the
   solution.  Absent on fault-free runs, so their reports are unchanged. *)
type faults = {
  bitflips : int;
  launch_fails : int;
  transfer_faults : int;
  detected : int;
  relaunches : int;
  retransfers : int;
  replays : int;
  escalations : int;
  refined : bool;
}

let faults_of_tally ?(refined = false) (tl : Fault.Plan.tally) =
  {
    bitflips = tl.Fault.Plan.bitflips;
    launch_fails = tl.Fault.Plan.launch_fails;
    transfer_faults = tl.Fault.Plan.transfer_faults;
    detected = tl.Fault.Plan.detected;
    relaunches = tl.Fault.Plan.relaunches;
    retransfers = tl.Fault.Plan.retransfers;
    replays = tl.Fault.Plan.replays;
    escalations = tl.Fault.Plan.escalations;
    refined;
  }

let faults_injected f = f.bitflips + f.launch_fails + f.transfer_faults

(* The iterative-engine story of one run: which engine solved it and how
   the refinement ladder went.  Absent on direct (QR) runs, so their
   reports are unchanged modulo the version stamp. *)
type solver = {
  method_ : Lsq_core.Solver.method_;
  iterations : int;
  residual_history : float list;
  ladder : (Multidouble.Precision.tag * int) list;
  ladder_start : Multidouble.Precision.tag;
  cond_estimate : float option;
  converged : bool;
}

let solver_of_iter method_ (it : Lsq_core.Solver.iter_info) =
  {
    method_;
    iterations = it.Lsq_core.Solver.iterations;
    residual_history = it.Lsq_core.Solver.residual_history;
    ladder = it.Lsq_core.Solver.ladder;
    ladder_start = it.Lsq_core.Solver.ladder_start;
    cond_estimate = it.Lsq_core.Solver.cond_estimate;
    converged = it.Lsq_core.Solver.converged;
  }

type t = {
  label : string;
  stages : Row.t list;
  parts : Part.t list;
  kernel_ms : float;
  wall_ms : float;
  kernel_gflops : float;
  wall_gflops : float;
  launches : int;
  residual : residual option;
  metrics : Obs.Metrics.snapshot option;
  faults : faults option;
  solver : solver option;
}

(* v2: stage rows carry launches and operation tallies, and a report can
   embed a metrics snapshot.  v3: optional per-run fault tally.
   v4: optional solver record (engine method + refinement-ladder
   trajectory of the iterative engines).  v5: no new field; an executed
   report describes the executed run, not a fault-free plan. *)
let schema_version = 5

let part t name = List.find (fun p -> p.Part.name = name) t.parts

let part_opt t name = List.find_opt (fun p -> p.Part.name = name) t.parts

let stage_ms t = List.map (fun r -> (r.Row.stage, r.Row.ms)) t.stages

(* ---- JSON ---- *)

let json_of_part (p : Part.t) =
  Json.Obj
    [
      ("name", Json.Str p.Part.name);
      ("kernel_ms", Json.Float p.Part.kernel_ms);
      ("wall_ms", Json.Float p.Part.wall_ms);
      ("kernel_gflops", Json.Float p.Part.kernel_gflops);
      ("wall_gflops", Json.Float p.Part.wall_gflops);
    ]

let part_of_json j =
  {
    Part.name = Json.(get_string (member "name" j));
    kernel_ms = Json.(get_float (member "kernel_ms" j));
    wall_ms = Json.(get_float (member "wall_ms" j));
    kernel_gflops = Json.(get_float (member "kernel_gflops" j));
    wall_gflops = Json.(get_float (member "wall_gflops" j));
  }

let json_of_row (r : Row.t) =
  Json.Obj
    [
      ("stage", Json.Str r.Row.stage);
      ("ms", Json.Float r.Row.ms);
      ("launches", Json.Int r.Row.launches);
      ("adds", Json.Float r.Row.ops.Gpusim.Counter.adds);
      ("muls", Json.Float r.Row.ops.Gpusim.Counter.muls);
      ("divs", Json.Float r.Row.ops.Gpusim.Counter.divs);
      ("sqrts", Json.Float r.Row.ops.Gpusim.Counter.sqrts);
    ]

let row_of_json j =
  {
    Row.stage = Json.(get_string (member "stage" j));
    ms = Json.(get_float (member "ms" j));
    launches = Json.(get_int (member "launches" j));
    ops =
      {
        Gpusim.Counter.adds = Json.(get_float (member "adds" j));
        muls = Json.(get_float (member "muls" j));
        divs = Json.(get_float (member "divs" j));
        sqrts = Json.(get_float (member "sqrts" j));
      };
  }

let json_of_residual r =
  Json.Obj
    [
      ("what", Json.Str r.what);
      ("residual", Json.Float r.residual);
      ("eps", Json.Float r.eps);
      ("ok", Json.Bool r.ok);
    ]

let residual_of_json j =
  {
    what = Json.(get_string (member "what" j));
    residual = Json.(get_float (member "residual" j));
    eps = Json.(get_float (member "eps" j));
    ok = Json.(get_bool (member "ok" j));
  }

let json_of_faults f =
  Json.Obj
    [
      ("bitflips", Json.Int f.bitflips);
      ("launch_fails", Json.Int f.launch_fails);
      ("transfer_faults", Json.Int f.transfer_faults);
      ("detected", Json.Int f.detected);
      ("relaunches", Json.Int f.relaunches);
      ("retransfers", Json.Int f.retransfers);
      ("replays", Json.Int f.replays);
      ("escalations", Json.Int f.escalations);
      ("refined", Json.Bool f.refined);
    ]

let faults_of_json j =
  {
    bitflips = Json.(get_int (member "bitflips" j));
    launch_fails = Json.(get_int (member "launch_fails" j));
    transfer_faults = Json.(get_int (member "transfer_faults" j));
    detected = Json.(get_int (member "detected" j));
    relaunches = Json.(get_int (member "relaunches" j));
    retransfers = Json.(get_int (member "retransfers" j));
    replays = Json.(get_int (member "replays" j));
    escalations = Json.(get_int (member "escalations" j));
    refined = Json.(get_bool (member "refined" j));
  }

let json_of_solver s =
  Json.Obj
    [
      ("method", Json.Str (Lsq_core.Solver.method_name s.method_));
      ("iterations", Json.Int s.iterations);
      ( "residual_history",
        Json.Arr (List.map (fun r -> Json.Float r) s.residual_history) );
      ( "ladder",
        Json.Arr
          (List.map
             (fun (tag, iters) ->
               Json.Obj
                 [
                   ("prec", Json.Str (Multidouble.Precision.label tag));
                   ("iterations", Json.Int iters);
                 ])
             s.ladder) );
      ("ladder_start", Json.Str (Multidouble.Precision.label s.ladder_start));
      ( "cond_estimate",
        match s.cond_estimate with Some c -> Json.Float c | None -> Json.Null
      );
      ("converged", Json.Bool s.converged);
    ]

let solver_of_json j =
  {
    method_ =
      Lsq_core.Solver.method_of_string Json.(get_string (member "method" j));
    iterations = Json.(get_int (member "iterations" j));
    residual_history =
      List.map Json.get_float Json.(get_list (member "residual_history" j));
    ladder =
      List.map
        (fun r ->
          ( Multidouble.Precision.of_label Json.(get_string (member "prec" r)),
            Json.(get_int (member "iterations" r)) ))
        Json.(get_list (member "ladder" j));
    ladder_start =
      Multidouble.Precision.of_label
        Json.(get_string (member "ladder_start" j));
    cond_estimate = Json.to_option Json.get_float (Json.member "cond_estimate" j);
    converged = Json.(get_bool (member "converged" j));
  }

let to_json t =
  Json.Obj
    [
      ("schema", Json.Int schema_version);
      ("label", Json.Str t.label);
      ("stages", Json.Arr (List.map json_of_row t.stages));
      ("parts", Json.Arr (List.map json_of_part t.parts));
      ("kernel_ms", Json.Float t.kernel_ms);
      ("wall_ms", Json.Float t.wall_ms);
      ("kernel_gflops", Json.Float t.kernel_gflops);
      ("wall_gflops", Json.Float t.wall_gflops);
      ("launches", Json.Int t.launches);
      ( "residual",
        match t.residual with Some r -> json_of_residual r | None -> Json.Null
      );
      ( "metrics",
        match t.metrics with
        | Some m -> Obs.Metrics.to_json m
        | None -> Json.Null );
      ( "faults",
        match t.faults with Some f -> json_of_faults f | None -> Json.Null );
      ( "solver",
        match t.solver with Some s -> json_of_solver s | None -> Json.Null );
    ]

let of_json j =
  let v = Json.(get_int (member "schema" j)) in
  if v <> schema_version then
    raise
      (Json.Error
         (Printf.sprintf "report schema %d, this build reads schema %d" v
            schema_version));
  {
    label = Json.(get_string (member "label" j));
    stages = List.map row_of_json Json.(get_list (member "stages" j));
    parts = List.map part_of_json Json.(get_list (member "parts" j));
    kernel_ms = Json.(get_float (member "kernel_ms" j));
    wall_ms = Json.(get_float (member "wall_ms" j));
    kernel_gflops = Json.(get_float (member "kernel_gflops" j));
    wall_gflops = Json.(get_float (member "wall_gflops" j));
    launches = Json.(get_int (member "launches" j));
    residual = Json.to_option residual_of_json (Json.member "residual" j);
    metrics = Json.to_option Obs.Metrics.of_json (Json.member "metrics" j);
    faults = Json.to_option faults_of_json (Json.member "faults" j);
    solver = Json.to_option solver_of_json (Json.member "solver" j);
  }

let to_json_string t = Json.to_string (to_json t)
let of_json_string s = of_json (Json.of_string s)
