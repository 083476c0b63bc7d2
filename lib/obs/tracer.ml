(* The event tracer: per-domain event sinks with a Chrome trace-event
   JSON exporter, so a run opens directly in Perfetto or
   chrome://tracing.

   Recording is lock-free on the hot path: each domain appends to its own
   cell of one {!Domain_buffer}, which [start] resets.  Timestamps are
   microseconds of the monotonic host clock relative to [start]; the
   simulated device clock is published as a counter track by the
   simulator (see {!Gpusim.Sim}), so both clocks appear side by side in
   the viewer.

   This library sits below every other one (its only dependency is
   [Unix] for the clock), which is what lets the domain pool, the GPU
   simulator and the scheduler all instrument themselves without a
   dependency cycle. *)

type arg = Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of arg list
  | Obj of (string * arg) list

type event =
  | Complete of {
      name : string;
      cat : string;
      ts : float; (* microseconds since [start] *)
      dur : float;
      args : (string * arg) list;
    }
  | Instant of {
      name : string;
      cat : string;
      ts : float;
      args : (string * arg) list;
    }
  | Counter of { name : string; ts : float; value : float }

let enabled_flag = Atomic.make false
let start_us = Atomic.make 0.0
let events : event Domain_buffer.t = Domain_buffer.create ()

(* Per-domain mute ([muted]): the domain's own recording is off while
   the trace runs on. *)
let mute_key = Domain.DLS.new_key (fun () -> ref false)

let enabled () =
  Atomic.get enabled_flag && not !(Domain.DLS.get mute_key)

let muted f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let m = Domain.DLS.get mute_key in
    let was = !m in
    m := true;
    Fun.protect ~finally:(fun () -> m := was) f
  end

let now_us () = (Unix.gettimeofday () *. 1e6) -. Atomic.get start_us

let start () =
  Domain_buffer.reset events;
  Atomic.set start_us (Unix.gettimeofday () *. 1e6);
  Atomic.set enabled_flag true

let stop () = Atomic.set enabled_flag false

let add e = Domain_buffer.push events e

let span ?(cat = "app") ?(args = []) name f =
  if not (enabled ()) then f ()
  else begin
    let t0 = now_us () in
    let record () =
      let dur = Float.max 0.0 (now_us () -. t0) in
      add (Complete { name; cat; ts = t0; dur; args })
    in
    match f () with
    | v ->
      record ();
      v
    | exception e ->
      record ();
      raise e
  end

let instant ?(cat = "app") ?(args = []) name =
  if enabled () then add (Instant { name; cat; ts = now_us (); args })

let counter name value =
  if enabled () then add (Counter { name; ts = now_us (); value })

let event_count () =
  List.fold_left
    (fun acc (_, es) -> acc + List.length es)
    0
    (Domain_buffer.contents events)

(* ---- Chrome trace-event JSON ---- *)

let event_json tid e =
  let common ~name ~cat ~ph ~ts =
    [
      ("name", Json.Str name);
      ("cat", Json.Str cat);
      ("ph", Json.Str ph);
      ("ts", Json.Float ts);
      ("pid", Json.Int 1);
      ("tid", Json.Int tid);
    ]
  in
  Json.Obj
    (match e with
    | Complete { name; cat; ts; dur; args } ->
      common ~name ~cat ~ph:"X" ~ts
      @ [ ("dur", Json.Float dur); ("args", Json.Obj args) ]
    | Instant { name; cat; ts; args } ->
      common ~name ~cat ~ph:"i" ~ts
      @ [ ("s", Json.Str "t"); ("args", Json.Obj args) ]
    | Counter { name; ts; value } ->
      common ~name ~cat:"counter" ~ph:"C" ~ts
      @ [ ("args", Json.Obj [ ("value", Json.Float value) ]) ])

let event_ts = function
  | Complete { ts; _ } | Instant { ts; _ } | Counter { ts; _ } -> ts

(* A trace can hold half a million events, so each is printed into the
   document as it is built rather than as one tree. *)
let export () =
  let all =
    List.concat_map
      (fun (tid, es) -> List.map (fun e -> (tid, e)) es)
      (Domain_buffer.contents events)
  in
  let all =
    List.stable_sort
      (fun (_, a) (_, b) -> Float.compare (event_ts a) (event_ts b))
      all
  in
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i (tid, e) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Json.to_string (Json.finite (event_json tid e))))
    all;
  Buffer.add_string b "]}";
  Buffer.contents b

let export_file path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (export ());
      output_char oc '\n')
