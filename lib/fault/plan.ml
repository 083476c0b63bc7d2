(* Seeded fault plans: where faults strike, what the detectors saw, and
   the running tally of the recovery ladder.  Everything deterministic
   from (seed, config) — the injection stream advances exactly once per
   launch/transfer site, and detector probes draw from a separate
   stream so that detection never perturbs injection. *)

module Prng = Dompool.Prng

type kind = Bitflip | Launch_fail | Transfer_corrupt

let all_kinds = [ Bitflip; Launch_fail; Transfer_corrupt ]

let kind_name = function
  | Bitflip -> "bitflip"
  | Launch_fail -> "launch"
  | Transfer_corrupt -> "transfer"

let kind_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "bitflip" | "bit-flip" | "flip" -> Bitflip
  | "launch" | "launch-fail" | "launchfail" -> Launch_fail
  | "transfer" | "transfer-corrupt" | "corrupt" -> Transfer_corrupt
  | other ->
      invalid_arg
        (Printf.sprintf
           "Fault.Plan.kind_of_string: unknown fault kind %S (expected \
            bitflip, launch or transfer)"
           other)

exception Injected of kind * string

let () =
  Printexc.register_printer (function
    | Injected (k, site) ->
        Some
          (Printf.sprintf "Fault.Plan.Injected(%s at %s)" (kind_name k) site)
    | _ -> None)

type config = {
  seed : int;
  rate : float;
  kinds : kind list;
  max_relaunches : int;
  max_replays : int;
}

let rate_invalid rate = Float.is_nan rate || rate < 0.0 || rate > 1.0

let config ?(kinds = all_kinds) ?(max_relaunches = 2) ?(max_replays = 2) ~seed
    ~rate () =
  if rate_invalid rate then
    invalid_arg
      (Printf.sprintf
         "Fault.Plan.config: fault rate %g is not within [0, 1]" rate);
  if kinds = [] then invalid_arg "Fault.Plan.config: no fault kinds armed";
  if max_relaunches < 0 || max_replays < 0 then
    invalid_arg "Fault.Plan.config: recovery budgets must be non-negative";
  { seed; rate; kinds; max_relaunches; max_replays }

type t = {
  cfg : config;
  inject_rng : Prng.t;
  aux_rng : Prng.t;
  mutable bitflips : int;
  mutable launch_fails : int;
  mutable transfer_faults : int;
  mutable detected : int;
  mutable relaunches : int;
  mutable retransfers : int;
  mutable replays : int;
  mutable escalations : int;
}

let arm ?(salt = 0) cfg =
  let root = Prng.create (cfg.seed + (salt * 0x2545f4914f6cdd1d)) in
  let inject_rng = Prng.split root in
  let aux_rng = Prng.split root in
  {
    cfg;
    inject_rng;
    aux_rng;
    bitflips = 0;
    launch_fails = 0;
    transfer_faults = 0;
    detected = 0;
    relaunches = 0;
    retransfers = 0;
    replays = 0;
    escalations = 0;
  }

let max_relaunches t = t.cfg.max_relaunches
let aux_rng t = t.aux_rng

(* Metrics handles, resolved on first use against the default registry
   (the registry may be reset between campaigns; handles stay valid).
   [Metrics.once], not [lazy]: armed runs on concurrent fleet workers
   may hit the first strike together, and a raced lazy raises. *)
let registry () = Obs.Metrics.default ()

let m_injected =
  Obs.Metrics.once (fun () -> Obs.Metrics.counter (registry ()) "faults.injected")

let m_detected =
  Obs.Metrics.once (fun () -> Obs.Metrics.counter (registry ()) "faults.detected")

let m_recovered =
  Obs.Metrics.once (fun () -> Obs.Metrics.counter (registry ()) "faults.recovered")

let m_escaped =
  Obs.Metrics.once (fun () -> Obs.Metrics.counter (registry ()) "faults.escaped")

let incr c = Obs.Metrics.Counter.incr (c ())

let instant name ~stage =
  if Obs.Tracer.enabled () then
    Obs.Tracer.instant ~cat:"fault"
      ~args:[ ("stage", Obs.Tracer.Str stage) ]
      name

let draw_launch t ~can_corrupt =
  if t.cfg.rate = 0.0 then None
  else if Prng.float t.inject_rng >= t.cfg.rate then None
  else
    let eligible =
      List.filter
        (function
          | Transfer_corrupt -> false
          | Bitflip -> can_corrupt
          | Launch_fail -> true)
        t.cfg.kinds
    in
    match eligible with
    | [] -> None
    | [ k ] -> Some k
    | ks -> Some (List.nth ks (Prng.int t.inject_rng (List.length ks)))

let draw_transfer t =
  if t.cfg.rate = 0.0 then None
  else if Prng.float t.inject_rng >= t.cfg.rate then None
  else if List.mem Transfer_corrupt t.cfg.kinds then Some Transfer_corrupt
  else None

let note_launch_fail t ~stage =
  t.launch_fails <- t.launch_fails + 1;
  (* The driver always observes a failed launch, so injection implies
     detection for this kind. *)
  t.detected <- t.detected + 1;
  incr m_injected;
  incr m_detected;
  instant "fault.launch_fail" ~stage

let note_bitflip t ~stage =
  t.bitflips <- t.bitflips + 1;
  incr m_injected;
  instant "fault.bitflip" ~stage

let note_transfer_fault t =
  t.transfer_faults <- t.transfer_faults + 1;
  (* Staged limb planes carry checksums verified at unpack, so transfer
     corruption is always caught. *)
  t.detected <- t.detected + 1;
  incr m_injected;
  incr m_detected;
  instant "fault.transfer" ~stage:"transfer"

let note_corruption t ~stage ~what =
  ignore t;
  if Obs.Tracer.enabled () then
    Obs.Tracer.instant ~cat:"fault"
      ~args:[ ("stage", Obs.Tracer.Str stage); ("what", Obs.Tracer.Str what) ]
      "fault.corrupted"

let note_detected t ~stage =
  t.detected <- t.detected + 1;
  incr m_detected;
  instant "fault.detected" ~stage

let note_relaunch t ~stage =
  t.relaunches <- t.relaunches + 1;
  incr m_recovered;
  instant "fault.relaunch" ~stage

let note_retransfer t =
  t.retransfers <- t.retransfers + 1;
  incr m_recovered;
  instant "fault.retransfer" ~stage:"transfer"

let note_replay t ~stage =
  t.replays <- t.replays + 1;
  incr m_recovered;
  instant "fault.replay" ~stage

let note_escalation t ~stage =
  t.escalations <- t.escalations + 1;
  incr m_escaped;
  instant "fault.escalate" ~stage

type tally = {
  bitflips : int;
  launch_fails : int;
  transfer_faults : int;
  detected : int;
  relaunches : int;
  retransfers : int;
  replays : int;
  escalations : int;
}

let zero_tally =
  {
    bitflips = 0;
    launch_fails = 0;
    transfer_faults = 0;
    detected = 0;
    relaunches = 0;
    retransfers = 0;
    replays = 0;
    escalations = 0;
  }

let snapshot (t : t) : tally =
  {
    bitflips = t.bitflips;
    launch_fails = t.launch_fails;
    transfer_faults = t.transfer_faults;
    detected = t.detected;
    relaunches = t.relaunches;
    retransfers = t.retransfers;
    replays = t.replays;
    escalations = t.escalations;
  }

let merge a b =
  {
    bitflips = a.bitflips + b.bitflips;
    launch_fails = a.launch_fails + b.launch_fails;
    transfer_faults = a.transfer_faults + b.transfer_faults;
    detected = a.detected + b.detected;
    relaunches = a.relaunches + b.relaunches;
    retransfers = a.retransfers + b.retransfers;
    replays = a.replays + b.replays;
    escalations = a.escalations + b.escalations;
  }

let injected tl = tl.bitflips + tl.launch_fails + tl.transfer_faults
let recovered tl = tl.relaunches + tl.retransfers + tl.replays

let flip_bit x bit =
  Int64.float_of_bits
    (Int64.logxor (Int64.bits_of_float x) (Int64.shift_left 1L (bit land 63)))

(* ---- the stage-level recovery ladder ---- *)

type region = string * int * (int -> int -> (float -> float) -> unit)

(* The one strike: an element weighted by region size, then a limb,
   then a bit, all from the aux stream in that order. *)
let strike ~limbs ~raw regions rng =
  let total = List.fold_left (fun acc (_, size, _) -> acc + size) 0 regions in
  if total = 0 then "nothing resident"
  else
    let rec find idx = function
      | [] -> assert false
      | (name, size, flip) :: rest ->
          if idx < size then (name, idx, flip) else find (idx - size) rest
    in
    let name, idx, flip = find (Prng.int rng total) regions in
    let limb = Prng.int rng limbs in
    let bit = Prng.int rng 64 in
    flip idx limb (fun w -> flip_bit w bit);
    Printf.sprintf "%s[%d] plane %d bit %d%s" name idx limb bit
      (if raw then " (raw)" else "")

type cause = Detected | Escalated of exn

let rung ?budget t ~stage ~replays cause =
  (match cause with Detected -> note_detected t ~stage | Escalated _ -> ());
  if replays < Option.value budget ~default:t.cfg.max_replays then
    note_replay t ~stage
  else
    match cause with
    | Detected ->
        note_escalation t ~stage;
        raise (Injected (Bitflip, stage))
    | Escalated e -> raise e

let pp_tally ppf tl =
  Format.fprintf ppf
    "injected %d (flip %d, launch %d, transfer %d) detected %d recovered %d \
     (relaunch %d, retransfer %d, replay %d) escalated %d"
    (injected tl) tl.bitflips tl.launch_fails tl.transfer_faults tl.detected
    (recovered tl) tl.relaunches tl.retransfers tl.replays tl.escalations
