(* The structured leveled logger: one JSON-lines event stream for the
   fleet service and the simulator's fault paths.

   Recording follows the tracer's discipline: after the level check (one
   atomic load) a record is either written straight to a channel (the
   operator-facing mode, one mutex around the write) or pushed onto the
   same per-domain {!Domain_buffer} the tracer records into — a push
   only ever contends with the telemetry drainer, never with another
   worker — so logging from every fleet worker at once stays lock-free
   on the hot path.  [drain] hands the buffered records to whoever
   exports them (the telemetry ticker, or a flush at exit).

   A global cap bounds buffered memory: past [capacity] records the
   logger drops and counts instead of growing, so a serve loop whose
   exporter stalls cannot leak. *)

type level = Debug | Info | Warn | Error

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "debug" -> Debug
  | "info" -> Info
  | "warn" | "warning" -> Warn
  | "error" -> Error
  | s -> invalid_arg (Printf.sprintf "unknown log level '%s'" s)

type field = Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of field list
  | Obj of (string * field) list

type record = {
  ts_ms : float;  (* epoch milliseconds *)
  level : level;
  domain : int;
  event : string;
  fields : (string * field) list;
}

type sink = Off | Buffered | Channel of out_channel

let current_level = Atomic.make Info
let current_sink = Atomic.make Off

let set_level l = Atomic.set current_level l
let level () = Atomic.get current_level
let enabled l = severity l >= severity (Atomic.get current_level)

(* ---- buffered mode ----

   A global cap around the shared per-domain buffer bounds memory: past
   [capacity] records a push drops and counts instead. *)

let records : record Domain_buffer.t = Domain_buffer.create ()
let buffered_records = Atomic.make 0
let dropped_records = Atomic.make 0
let capacity = 65536

let push r =
  if Atomic.get buffered_records >= capacity then Atomic.incr dropped_records
  else begin
    Atomic.incr buffered_records;
    Domain_buffer.push records r
  end

let buffered () = Atomic.get buffered_records
let dropped () = Atomic.get dropped_records

let drain () =
  let all = List.concat_map snd (Domain_buffer.drain records) in
  ignore (Atomic.fetch_and_add buffered_records (-List.length all));
  List.stable_sort (fun a b -> Float.compare a.ts_ms b.ts_ms) all

(* ---- JSON codec ----

   The ["type"] tag keeps log lines distinguishable inside a telemetry
   stream. *)

let to_json r =
  Json.Obj
    [
      ("type", Json.Str "log");
      ("ts_ms", Json.Float r.ts_ms);
      ("level", Json.Str (level_name r.level));
      ("domain", Json.Int r.domain);
      ("event", Json.Str r.event);
      ("fields", Json.Obj r.fields);
    ]

let to_json_line r = Json.to_string (Json.finite (to_json r))

let of_json j =
  {
    ts_ms = Json.(get_float (member "ts_ms" j));
    level = level_of_string Json.(get_string (member "level" j));
    domain = Json.(get_int (member "domain" j));
    event = Json.(get_string (member "event" j));
    fields =
      (match Json.member "fields" j with
      | Json.Obj kvs -> kvs
      | Json.Null -> []
      | _ -> raise (Json.Error "log fields must be an object"));
  }

(* ---- recording ---- *)

let channel_lock = Mutex.create ()

let set_sink s =
  (match s with
  | Buffered ->
    (* Fresh stream: retire every existing buffer. *)
    Domain_buffer.reset records;
    Atomic.set buffered_records 0;
    Atomic.set dropped_records 0
  | Off | Channel _ -> ());
  Atomic.set current_sink s

let sink () = Atomic.get current_sink

let log lvl ?(fields = []) event =
  match Atomic.get current_sink with
  | Off -> ()
  | (Buffered | Channel _) as s ->
    if enabled lvl then begin
      let r =
        {
          ts_ms = Unix.gettimeofday () *. 1000.0;
          level = lvl;
          domain = (Domain.self () :> int);
          event;
          fields;
        }
      in
      match s with
      | Buffered -> push r
      | Channel oc ->
        let line = to_json_line r in
        Mutex.lock channel_lock;
        output_string oc line;
        output_char oc '\n';
        flush oc;
        Mutex.unlock channel_lock
      | Off -> ()
    end

let debug ?fields event = log Debug ?fields event
let info ?fields event = log Info ?fields event
let warn ?fields event = log Warn ?fields event
let error ?fields event = log Error ?fields event
