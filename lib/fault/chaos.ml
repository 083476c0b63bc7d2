(* Seeded device-chaos plans: which fleet instances fail, how, and
   after how many executed jobs.  [draw] is pure in (config, instance
   index) — each instance gets its own splitmix64 stream split off the
   campaign seed — so a campaign replays bit-identically and a restarted
   fleet deals the same hand. *)

module Prng = Dompool.Prng

type kind = Crash | Hang | Brownout

let all_kinds = [ Crash; Hang; Brownout ]

let kind_name = function
  | Crash -> "crash"
  | Hang -> "hang"
  | Brownout -> "brownout"

let kind_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "crash" | "die" | "kill" -> Crash
  | "hang" | "stall" | "freeze" -> Hang
  | "brownout" | "brown-out" | "slow" -> Brownout
  | other ->
      invalid_arg
        (Printf.sprintf
           "Fault.Chaos.kind_of_string: unknown chaos kind %S (expected \
            crash, hang or brownout)"
           other)

type config = {
  seed : int;
  rate : float;
  kinds : kind list;
  after_jobs : int * int;
  brownout_factor : float;
}

let rate_invalid rate = Float.is_nan rate || rate < 0.0 || rate > 1.0

let config ?(kinds = all_kinds) ?(after_jobs = (1, 4)) ?(brownout_factor = 4.0)
    ~seed ~rate () =
  if rate_invalid rate then
    invalid_arg
      (Printf.sprintf
         "Fault.Chaos.config: chaos rate %g is not within [0, 1]" rate);
  if kinds = [] then invalid_arg "Fault.Chaos.config: no chaos kinds armed";
  (let lo, hi = after_jobs in
   if lo < 0 || hi < lo then
     invalid_arg
       (Printf.sprintf
          "Fault.Chaos.config: after_jobs range (%d, %d) must satisfy 0 <= \
           lo <= hi"
          lo hi));
  if Float.is_nan brownout_factor || brownout_factor <= 1.0 then
    invalid_arg
      (Printf.sprintf
         "Fault.Chaos.config: brownout factor %g must be > 1" brownout_factor);
  { seed; rate; kinds; after_jobs; brownout_factor }

type event = { kind : kind; after : int; factor : float }

let draw cfg ~instance =
  (* One private stream per instance, so adding or reordering draws for
     one instance never shifts another's fate. *)
  let rng = Prng.create (cfg.seed + ((instance + 1) * 0x2545f4914f6cdd1d)) in
  if Prng.float rng >= cfg.rate then None
  else
    let kind =
      match cfg.kinds with
      | [ k ] -> k
      | ks -> List.nth ks (Prng.int rng (List.length ks))
    in
    let lo, hi = cfg.after_jobs in
    let after = lo + Prng.int rng (hi - lo + 1) in
    let factor = match kind with Brownout -> cfg.brownout_factor | _ -> 1.0 in
    Some { kind; after; factor }

(* Metrics handles resolved on first use ([Metrics.once], not [lazy]:
   concurrent fleet workers may record the first event together). *)
let registry () = Obs.Metrics.default ()

let m_crash =
  Obs.Metrics.once (fun () ->
      Obs.Metrics.counter (registry ()) "fleet.chaos.crashes")

let m_hang =
  Obs.Metrics.once (fun () ->
      Obs.Metrics.counter (registry ()) "fleet.chaos.hangs")

let m_brownout =
  Obs.Metrics.once (fun () ->
      Obs.Metrics.counter (registry ()) "fleet.chaos.brownouts")

let m_migrated =
  Obs.Metrics.once (fun () ->
      Obs.Metrics.counter (registry ()) "fleet.chaos.migrations")

let m_quarantined =
  Obs.Metrics.once (fun () ->
      Obs.Metrics.counter (registry ()) "fleet.chaos.quarantined")

let incr c = Obs.Metrics.Counter.incr (c ())

let note_triggered kind ~instance =
  (match kind with
  | Crash -> incr m_crash
  | Hang -> incr m_hang
  | Brownout -> incr m_brownout);
  Obs.Log.warn
    ~fields:[ ("instance", Obs.Log.Str instance) ]
    (Printf.sprintf "fleet.chaos.%s" (kind_name kind))

let note_migration ~instance ~jobs =
  Obs.Metrics.Counter.add (m_migrated ()) jobs;
  Obs.Log.warn
    ~fields:
      [ ("from", Obs.Log.Str instance); ("jobs", Obs.Log.Int jobs) ]
    "fleet.migrate"

let note_quarantine ~job =
  incr m_quarantined;
  Obs.Log.error ~fields:[ ("job", Obs.Log.Str job) ] "fleet.quarantine"

type tally = { crashes : int; hangs : int; brownouts : int }

let tally_of_events events =
  List.fold_left
    (fun acc -> function
      | None -> acc
      | Some { kind = Crash; _ } -> { acc with crashes = acc.crashes + 1 }
      | Some { kind = Hang; _ } -> { acc with hangs = acc.hangs + 1 }
      | Some { kind = Brownout; _ } ->
          { acc with brownouts = acc.brownouts + 1 })
    { crashes = 0; hangs = 0; brownouts = 0 }
    events
