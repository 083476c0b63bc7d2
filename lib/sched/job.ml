(* One least-squares job of a batch; serializes to the versioned JSON
   schema shared with the scheduler's outcome records. *)

module P = Multidouble.Precision
module Json = Obs.Json
module Solver = Lsq_core.Solver

type kind = Qr | Backsub | Solve

type t = {
  id : string;
  kind : kind;
  device : string;
  prec : P.tag;
  complex : bool;
  dim : int;
  rows : int option;
  tile : int;
  solver : Solver.method_;
  execute : bool;
  timeout_ms : float option;
  retries : int;
  inject_failures : int;
  fault_rate : float;
  fault_seed : int;
  fault_kinds : Fault.Plan.kind list;
}

(* Placement wildcard: the fleet resolves ["auto"] to a concrete device
   class with its roofline policy; outside a fleet it is not runnable. *)
let auto_device = "auto"

let is_auto t = String.lowercase_ascii (String.trim t.device) = auto_device

let make ?(complex = false) ?rows ?(solver = Solver.Qr_direct)
    ?(execute = false) ?timeout_ms ?(retries = 1) ?(inject_failures = 0)
    ?(fault_rate = 0.0) ?(fault_seed = 1)
    ?(fault_kinds = Fault.Plan.all_kinds) ~id ~kind ~device ~prec ~dim ~tile
    () =
  {
    id;
    kind;
    device;
    prec;
    complex;
    dim;
    rows;
    tile;
    solver;
    execute;
    timeout_ms;
    retries;
    inject_failures;
    fault_rate;
    fault_seed;
    fault_kinds;
  }

(* The armed fault plan of the job, or [None] for the (default)
   fault-free run — keeping the zero-rate path bit-identical to a build
   without the fault plane. *)
let fault_config t =
  if t.fault_rate > 0.0 then
    Some
      (Fault.Plan.config ~kinds:t.fault_kinds ~seed:t.fault_seed
         ~rate:t.fault_rate ())
  else None

let with_defaults ?solver ?fault t =
  let t =
    match solver with
    | Some solver when t.kind = Solve && t.solver = Solver.Qr_direct ->
      { t with solver }
    | _ -> t
  in
  match fault with
  | Some { Fault.Plan.rate; seed; kinds; _ } when t.fault_rate = 0.0 ->
    { t with fault_rate = rate; fault_seed = seed; fault_kinds = kinds }
  | _ -> t

let string_of_kind = function
  | Qr -> "qr"
  | Backsub -> "backsub"
  | Solve -> "solve"

let kind_of_string s =
  match String.lowercase_ascii s with
  | "qr" -> Qr
  | "backsub" | "bs" -> Backsub
  | "solve" -> Solve
  | s -> invalid_arg (Printf.sprintf "unknown job kind '%s'" s)

let validate t =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if t.id = "" then err "job has an empty id"
  else if t.dim <= 0 then err "job '%s': dimension %d <= 0" t.id t.dim
  else if t.tile <= 0 || t.dim mod t.tile <> 0 then
    err "job '%s': tile %d does not divide dimension %d" t.id t.tile t.dim
  else if
    match t.rows with Some m -> m < t.dim | None -> false
  then err "job '%s': rows < cols" t.id
  else if t.rows <> None && t.kind = Backsub then
    err "job '%s': rows only applies to qr and solve jobs" t.id
  else if Solver.is_iterative t.solver && t.kind <> Solve then
    err "job '%s': solver '%s' only applies to solve jobs" t.id
      (Solver.method_name t.solver)
  else if t.retries < 0 then err "job '%s': negative retries" t.id
  else if t.inject_failures < 0 then
    err "job '%s': negative inject_failures" t.id
  else if
    (* [not (ms > 0)] rather than [ms <= 0] so NaN is rejected too. *)
    match t.timeout_ms with Some ms -> not (ms > 0.0) | None -> false
  then err "job '%s': timeout must be a positive number" t.id
  else if Float.is_nan t.fault_rate then
    err "job '%s': fault rate must not be NaN" t.id
  else if t.fault_rate < 0.0 || t.fault_rate > 1.0 then
    err "job '%s': fault rate %g outside [0, 1]" t.id t.fault_rate
  else if t.fault_rate > 0.0 && t.fault_kinds = [] then
    err "job '%s': fault rate %g with no fault kinds armed" t.id t.fault_rate
  else if is_auto t then Ok ()
  else
    match Gpusim.Device.by_name t.device with
    | (_ : Gpusim.Device.t) -> Ok ()
    | exception Invalid_argument m -> err "job '%s': %s" t.id m

let to_json t =
  Json.Obj
    ([
       ("id", Json.Str t.id);
       ("kind", Json.Str (string_of_kind t.kind));
       ("device", Json.Str t.device);
       ("prec", Json.Str (P.label t.prec));
       ("complex", Json.Bool t.complex);
       ("dim", Json.Int t.dim);
     ]
    @ (match t.rows with Some m -> [ ("rows", Json.Int m) ] | None -> [])
    @ [ ("tile", Json.Int t.tile) ]
    (* Direct-engine jobs serialize exactly as before the engine seam. *)
    @ (if t.solver <> Solver.Qr_direct then
         [ ("solver", Json.Str (Solver.method_name t.solver)) ]
       else [])
    @ [ ("execute", Json.Bool t.execute) ]
    @ (match t.timeout_ms with
      | Some ms -> [ ("timeout_ms", Json.Float ms) ]
      | None -> [])
    @ [ ("retries", Json.Int t.retries) ]
    @ (if t.inject_failures > 0 then
         [ ("inject_failures", Json.Int t.inject_failures) ]
       else [])
    @
    (* Fault-free jobs serialize exactly as before the fault plane. *)
    if t.fault_rate > 0.0 then
      [
        ("fault_rate", Json.Float t.fault_rate);
        ("fault_seed", Json.Int t.fault_seed);
        ( "fault_kinds",
          Json.Arr
            (List.map
               (fun k -> Json.Str (Fault.Plan.kind_name k))
               t.fault_kinds) );
      ]
    else [])

let of_json j =
  let opt get key = Json.to_option get (Json.member key j) in
  let default d = function Some v -> v | None -> d in
  let prec_label = Json.get_string (Json.member "prec" j) in
  let prec =
    try P.of_label (String.lowercase_ascii prec_label)
    with Invalid_argument m -> raise (Json.Error m)
  in
  let kind =
    try kind_of_string (Json.get_string (Json.member "kind" j))
    with Invalid_argument m -> raise (Json.Error m)
  in
  {
    id = Json.get_string (Json.member "id" j);
    kind;
    device = default auto_device (opt Json.get_string "device");
    prec;
    complex = default false (opt Json.get_bool "complex");
    dim = Json.get_int (Json.member "dim" j);
    rows = opt Json.get_int "rows";
    tile = Json.get_int (Json.member "tile" j);
    solver =
      (match opt Json.get_string "solver" with
      | None -> Solver.Qr_direct
      | Some s -> (
        try Solver.method_of_string s
        with Invalid_argument m -> raise (Json.Error m)));
    execute = default false (opt Json.get_bool "execute");
    timeout_ms = opt Json.get_float "timeout_ms";
    retries = default 1 (opt Json.get_int "retries");
    inject_failures = default 0 (opt Json.get_int "inject_failures");
    fault_rate = default 0.0 (opt Json.get_float "fault_rate");
    fault_seed = default 1 (opt Json.get_int "fault_seed");
    fault_kinds =
      (match opt Json.get_list "fault_kinds" with
      | None -> Fault.Plan.all_kinds
      | Some ks ->
        List.map
          (fun k ->
            try Fault.Plan.kind_of_string (Json.get_string k)
            with Invalid_argument m -> raise (Json.Error m))
          ks);
  }

let load_file path =
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let first_nonspace =
    let rec go i =
      if i >= String.length text then None
      else
        match text.[i] with
        | ' ' | '\t' | '\n' | '\r' -> go (i + 1)
        | c -> Some c
    in
    go 0
  in
  match first_nonspace with
  | Some '[' -> List.map of_json (Json.get_list (Json.of_string text))
  | _ ->
    String.split_on_char '\n' text
    |> List.filter_map (fun line ->
           if String.trim line = "" then None
           else Some (of_json (Json.of_string line)))
