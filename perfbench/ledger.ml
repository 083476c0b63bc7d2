(* What one run records: the metrics it reports (with their spread),
   raw samples, exact quantities (counts and modeled values, which must
   repeat bit for bit), report-only figures, and the correctness
   tally. *)

type spread = { n : int; q1 : float; q3 : float }

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** newest first *)
  mutable metrics : (string * (float * spread option)) list;
  mutable samples : (string * float list) list;
  exact : (string, float) Hashtbl.t;
  mutable notes : (string * float) list;
}

let create () =
  {
    attempted = 0;
    failed = 0;
    errors = [];
    metrics = [];
    samples = [];
    exact = Hashtbl.create 256;
    notes = [];
  }

(* One operation of the workload: counted, and failed unless [ok]. *)
let op t ~ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

(* A correctness failure (a wrong result, a modeled value off its
   recorded figure, a lost outcome line). *)
let error t fmt = Printf.ksprintf (fun m -> t.errors <- m :: t.errors) fmt

let samples t name xs = t.samples <- (name, xs) :: t.samples

let spread_of xs =
  let q1, _, q3 = Stats.quartiles xs in
  { n = List.length xs; q1; q3 }

let metric t ?spread name v = t.metrics <- (name, (v, spread)) :: t.metrics

(* A metric that is the median of its raw samples. *)
let median_of t name xs =
  samples t name xs;
  metric t ~spread:(spread_of xs) name (Stats.median xs)

(* Exact quantities repeat run after run on the same seed: a second
   record under the same name must carry the same value, bit for bit. *)
let exact t name v =
  match Hashtbl.find_opt t.exact name with
  | Some v0 when Int64.bits_of_float v0 <> Int64.bits_of_float v ->
    error t "%s changed within the run: %.17g then %.17g" name v0 v
  | Some _ -> ()
  | None -> Hashtbl.replace t.exact name v

let exact_list t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.exact [] |> List.sort compare

let note t name v = t.notes <- (name, v) :: t.notes
let correct t = t.failed = 0 && t.errors = []
