(* The metrics registry: named counters, gauges and fixed-bucket
   histograms, safe under concurrent update from many domains.

   The registry mutex is taken only to get-or-create a metric.  A
   counter or histogram keeps one shard per domain (a
   {!Domain_buffer.Cells} cell), which an update changes with plain
   stores, and a reader sums every domain's shard: hammering one counter
   from every domain of the pool contends on nothing and stays exact
   once the updating calls have returned.  The systhreads of one domain
   share its shard, so no update allocates or calls anything between
   reading a shard word and writing it back (a systhread switch happens
   only at those points).  Gauges are last-write-wins, so they stay one
   atomic. *)

module Cells = Domain_buffer.Cells

module Counter = struct
  type t = int ref Cells.t

  let make () : t = Cells.create (fun () -> ref 0)

  let add t n =
    let s = Cells.get t in
    s := !s + n

  let incr t = add t 1
  let value t = List.fold_left (fun acc (_, s) -> acc + !s) 0 (Cells.all t)
  let zero t = List.iter (fun (_, s) -> s := 0) (Cells.all t)
end

module Gauge = struct
  type t = float Atomic.t

  let set t v = Atomic.set t v
  let value t = Atomic.get t
end

(* Estimated q-quantile of a bucketed distribution, by linear
   interpolation inside the bucket holding the q*count-th observation
   (the classic histogram_quantile estimator).  Deterministic in the
   bucket counts, which are themselves exact under concurrent updates —
   so the estimate is reproducible, the resolution is the bucket
   ladder.  The overflow bucket has no upper edge; ranks landing there
   clamp to the largest finite bound.  An empty histogram estimates
   0. *)
let quantile ~bounds ~counts q =
  let n = Array.length bounds in
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 || n = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = q *. float_of_int total in
    let rec go i cum =
      if i >= n then bounds.(n - 1)
      else
        let c = counts.(i) in
        let cum' = cum + c in
        if c > 0 && float_of_int cum' >= rank then
          let lo = if i = 0 then Float.min 0.0 bounds.(0) else bounds.(i - 1) in
          let hi = bounds.(i) in
          lo +. ((hi -. lo) *. (rank -. float_of_int cum) /. float_of_int c)
        else go (i + 1) cum'
    in
    go 0 0
  end

module Histogram = struct
  (* [counts.(i)] tallies observations with [v <= bounds.(i)] (first
     matching bucket); [counts.(length bounds)] is the overflow bucket.
     [sum] is one unboxed float, so adding to it allocates nothing. *)
  type shard = { counts : int array; sum : float array }
  type t = { bounds : float array; shards : shard Cells.t }

  let make bounds =
    let n = Array.length bounds + 1 in
    {
      bounds;
      shards =
        Cells.create (fun () -> { counts = Array.make n 0; sum = [| 0.0 |] });
    }

  (* Loops rather than local recursive functions: one observation per
     kernel launch, and a closure per call would dominate its cost. *)
  let observe t v =
    let n = Array.length t.bounds in
    let i = ref 0 in
    while !i < n && not (v <= t.bounds.(!i)) do
      incr i
    done;
    let s = Cells.get t.shards in
    let i = !i in
    s.counts.(i) <- s.counts.(i) + 1;
    s.sum.(0) <- s.sum.(0) +. v

  let shards t = List.map snd (Cells.all t.shards)

  let bucket_counts t =
    let total = Array.make (Array.length t.bounds + 1) 0 in
    List.iter
      (fun s -> Array.iteri (fun i c -> total.(i) <- total.(i) + c) s.counts)
      (shards t);
    total

  let count t = Array.fold_left ( + ) 0 (bucket_counts t)
  let sum t = List.fold_left (fun acc s -> acc +. s.sum.(0)) 0.0 (shards t)
  let bounds t = Array.copy t.bounds
  let quantile t q = quantile ~bounds:t.bounds ~counts:(bucket_counts t) q

  let zero t =
    List.iter
      (fun s ->
        Array.fill s.counts 0 (Array.length s.counts) 0;
        s.sum.(0) <- 0.0)
      (shards t)
end

type metric =
  | Counter_m of Counter.t
  | Gauge_m of Gauge.t
  | Histogram_m of Histogram.t

type t = { lock : Mutex.t; table : (string, metric) Hashtbl.t }

let create () = { lock = Mutex.create (); table = Hashtbl.create 32 }

let default_registry = create ()
let default () = default_registry

(* Millisecond-oriented default bucket bounds. *)
let default_buckets = [| 0.01; 0.1; 1.0; 10.0; 100.0; 1000.0 |]

(* A finer 1-2.5-5 ladder for latency percentiles: quantile estimates
   interpolate inside a bucket, so p50/p95/p99 from these bounds stay
   meaningful from sub-millisecond jobs up to multi-second ones. *)
let latency_buckets =
  [|
    0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0; 25.0; 50.0;
    100.0; 250.0; 500.0; 1000.0; 2500.0; 5000.0; 10000.0;
  |]

let kind_name = function
  | Counter_m _ -> "counter"
  | Gauge_m _ -> "gauge"
  | Histogram_m _ -> "histogram"

let get_or_create t name ~kind ~make ~cast =
  Mutex.lock t.lock;
  let m =
    match Hashtbl.find_opt t.table name with
    | Some m -> m
    | None ->
      let m = make () in
      Hashtbl.add t.table name m;
      m
  in
  Mutex.unlock t.lock;
  match cast m with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf "Obs.Metrics: %s is a %s, not a %s" name (kind_name m)
         kind)

let counter t name =
  get_or_create t name ~kind:"counter"
    ~make:(fun () -> Counter_m (Counter.make ()))
    ~cast:(function Counter_m c -> Some c | _ -> None)

let gauge t name =
  get_or_create t name ~kind:"gauge"
    ~make:(fun () -> Gauge_m (Atomic.make 0.0))
    ~cast:(function Gauge_m g -> Some g | _ -> None)

let histogram ?(buckets = default_buckets) t name =
  get_or_create t name ~kind:"histogram"
    ~make:(fun () ->
      Histogram_m (Histogram.make (Array.copy buckets)))
    ~cast:(function Histogram_m h -> Some h | _ -> None)

(* Domain-safe lazy resolution for instrumentation handles.  An OCaml
   [lazy] raises [Undefined] when two domains force it concurrently —
   which is exactly what happens when several fleet workers hit an
   instrumented code path for the first time together.  Registration is
   idempotent (the registry hands back the same metric), so a benign
   race resolving twice is harmless; after the first resolution the
   cost is one atomic read. *)
let once resolve =
  let cache = Atomic.make None in
  fun () ->
    match Atomic.get cache with
    | Some h -> h
    | None ->
      let h = resolve () in
      Atomic.set cache (Some h);
      h

(* Zeroes every registered metric in place, every domain's shard of it,
   keeping registrations (and any handles callers cached) valid.  The
   shards are plain words, so an update racing the reset may survive
   it: reset a quiescent registry. *)
let reset t =
  Mutex.lock t.lock;
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Counter_m c -> Counter.zero c
      | Gauge_m g -> Atomic.set g 0.0
      | Histogram_m h -> Histogram.zero h)
    t.table;
  Mutex.unlock t.lock

(* ---- snapshots ---- *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      bounds : float array;
      counts : int array;
      count : int;
      sum : float;
      p50 : float;
      p95 : float;
      p99 : float;
    }

type snapshot = (string * value) list

let snapshot t =
  Mutex.lock t.lock;
  let entries = Hashtbl.fold (fun name m acc -> (name, m) :: acc) t.table [] in
  Mutex.unlock t.lock;
  entries
  |> List.map (fun (name, m) ->
         let v =
           match m with
           | Counter_m c -> Counter (Counter.value c)
           | Gauge_m g -> Gauge (Gauge.value g)
           | Histogram_m h ->
             let bounds = Histogram.bounds h in
             let counts = Histogram.bucket_counts h in
             Histogram
               {
                 bounds;
                 counts;
                 count = Array.fold_left ( + ) 0 counts;
                 sum = Histogram.sum h;
                 p50 = quantile ~bounds ~counts 0.50;
                 p95 = quantile ~bounds ~counts 0.95;
                 p99 = quantile ~bounds ~counts 0.99;
               }
         in
         (name, v))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ---- JSON codec ---- *)

let metric_to_json (name, value) =
  let fields =
    match value with
    | Counter v -> [ ("kind", Json.Str "counter"); ("value", Json.Int v) ]
    | Gauge v -> [ ("kind", Json.Str "gauge"); ("value", Json.Float v) ]
    | Histogram { bounds; counts; count; sum; p50; p95; p99 } ->
      [
        ("kind", Json.Str "histogram");
        ( "bounds",
          Json.Arr (Array.to_list (Array.map (fun b -> Json.Float b) bounds))
        );
        ( "counts",
          Json.Arr (Array.to_list (Array.map (fun c -> Json.Int c) counts)) );
        ("count", Json.Int count);
        ("sum", Json.Float sum);
      ]
      (* Quantiles of an empty distribution are undefined, not 0: the
         keys are omitted so consumers can tell "no data" from "zero
         latency". *)
      @
      if count = 0 then []
      else
        [
          ("p50", Json.Float p50);
          ("p95", Json.Float p95);
          ("p99", Json.Float p99);
        ]
  in
  Json.Obj (("name", Json.Str name) :: fields)

let metric_of_json j =
  let name = Json.(get_string (member "name" j)) in
  let value =
    match Json.(get_string (member "kind" j)) with
    | "counter" -> Counter Json.(get_int (member "value" j))
    | "gauge" -> Gauge Json.(get_float (member "value" j))
    | "histogram" ->
      let bounds =
        Array.of_list
          (List.map Json.get_float Json.(get_list (member "bounds" j)))
      in
      let counts =
        Array.of_list
          (List.map Json.get_int Json.(get_list (member "counts" j)))
      in
      (* Quantiles are recomputed from the buckets when absent, so
         snapshots written before the percentile fields still parse. *)
      let q p key =
        match Json.to_option Json.get_float (Json.member key j) with
        | Some v -> v
        | None -> quantile ~bounds ~counts p
      in
      Histogram
        {
          bounds;
          counts;
          count = Json.(get_int (member "count" j));
          sum = Json.(get_float (member "sum" j));
          p50 = q 0.50 "p50";
          p95 = q 0.95 "p95";
          p99 = q 0.99 "p99";
        }
    | k -> raise (Json.Error (Printf.sprintf "unknown metric kind '%s'" k))
  in
  (name, value)

let to_json (snap : snapshot) = Json.Arr (List.map metric_to_json snap)
let of_json j : snapshot = List.map metric_of_json (Json.get_list j)
