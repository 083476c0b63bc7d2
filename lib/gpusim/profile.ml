(* Per-stage accumulation of kernel times, operation tallies, launch
   counts, memory traffic and roofline time terms, used to print the
   stage-by-stage breakdowns of the paper's tables and to feed the
   per-stage roofline diagnostics.

   A plan-only job at the paper's dimensions records thousands of
   launches, so recording one is kept allocation-free: a stage's sums
   live in a flat float record (updated in place, never boxed), fed
   straight from the launch record and its roofline evaluation, and a
   stage is found by a physical-equality scan of the strings that
   created the first few stages before falling back to hashing its
   content.  Stage labels are literals, so the scan almost always hits;
   a label built at run time still lands on its row through the table. *)

type sums = {
  mutable ms : float;
  mutable adds : float;
  mutable muls : float;
  mutable divs : float;
  mutable sqrts : float;
  mutable cold_bytes : float;
  mutable thread_bytes : float;
  mutable compute_ms : float;
  mutable memory_ms : float;
}

(* [stage] is the string that created the entry, for the physical scan. *)
type entry = { stage : string; sums : sums; mutable launches : int }

type row = {
  stage : string;
  ms : float;
  ops : Counter.ops;
  launches : int;
  cold_bytes : float;
  thread_bytes : float;
  compute_ms : float;
  memory_ms : float;
}

(* Entries the physical scan covers: the first ones created. *)
let cache_size = 16

type t = {
  table : (string, entry) Hashtbl.t;
  mutable order : string list;
  cache : entry array;
  mutable cached : int;
}

let fresh stage =
  {
    stage;
    sums =
      {
        ms = 0.0;
        adds = 0.0;
        muls = 0.0;
        divs = 0.0;
        sqrts = 0.0;
        cold_bytes = 0.0;
        thread_bytes = 0.0;
        compute_ms = 0.0;
        memory_ms = 0.0;
      };
    launches = 0;
  }

(* Fills the unused cache slots; never read, since the scan stops at
   [cached]. *)
let unused = fresh ""

let create () =
  {
    table = Hashtbl.create 16;
    order = [];
    cache = Array.make cache_size unused;
    cached = 0;
  }

let reset t =
  Hashtbl.reset t.table;
  t.order <- [];
  t.cached <- 0

let find_or_add t stage =
  match Hashtbl.find_opt t.table stage with
  | Some e -> e
  | None ->
    let e = fresh stage in
    Hashtbl.add t.table stage e;
    t.order <- stage :: t.order;
    if t.cached < cache_size then begin
      t.cache.(t.cached) <- e;
      t.cached <- t.cached + 1
    end;
    e

let rec scan t stage i =
  if i = t.cached then find_or_add t stage
  else if t.cache.(i).stage == stage then t.cache.(i)
  else scan t stage (i + 1)

let record t ~stage ~slowdown (c : Cost.launch) (v : Cost.eval) =
  let e = scan t stage 0 in
  let s = e.sums in
  let o = c.Cost.ops in
  s.ms <- s.ms +. (v.Cost.ms *. slowdown);
  s.adds <- s.adds +. o.Counter.adds;
  s.muls <- s.muls +. o.Counter.muls;
  s.divs <- s.divs +. o.Counter.divs;
  s.sqrts <- s.sqrts +. o.Counter.sqrts;
  e.launches <- e.launches + c.Cost.count;
  s.cold_bytes <- s.cold_bytes +. c.Cost.cold_bytes;
  s.thread_bytes <- s.thread_bytes +. c.Cost.thread_bytes;
  s.compute_ms <- s.compute_ms +. (v.Cost.compute_s *. 1e3 *. slowdown);
  s.memory_ms <-
    s.memory_ms
    +. (Float.max (v.Cost.dram_s *. 1e3) (v.Cost.cache_s *. 1e3) *. slowdown)

(* Stages in first-recorded order. *)
let stages t = List.rev t.order

let ops_of (s : sums) =
  { Counter.adds = s.adds; muls = s.muls; divs = s.divs; sqrts = s.sqrts }

let row t stage =
  match Hashtbl.find_opt t.table stage with
  | Some { sums = s; launches; _ } ->
    {
      stage;
      ms = s.ms;
      ops = ops_of s;
      launches;
      cold_bytes = s.cold_bytes;
      thread_bytes = s.thread_bytes;
      compute_ms = s.compute_ms;
      memory_ms = s.memory_ms;
    }
  | None ->
    {
      stage;
      ms = 0.0;
      ops = Counter.zero;
      launches = 0;
      cold_bytes = 0.0;
      thread_bytes = 0.0;
      compute_ms = 0.0;
      memory_ms = 0.0;
    }

let rows t = List.map (row t) (stages t)

let stage_ms t stage =
  match Hashtbl.find_opt t.table stage with Some e -> e.sums.ms | None -> 0.0

let stage_ops t stage =
  match Hashtbl.find_opt t.table stage with
  | Some e -> ops_of e.sums
  | None -> Counter.zero

let stage_launches t stage =
  match Hashtbl.find_opt t.table stage with Some e -> e.launches | None -> 0

let total_ms t = Hashtbl.fold (fun _ e acc -> acc +. e.sums.ms) t.table 0.0

let total_ops t =
  Hashtbl.fold (fun _ e acc -> Counter.add acc (ops_of e.sums)) t.table
    Counter.zero

let total_launches t =
  Hashtbl.fold (fun _ (e : entry) acc -> acc + e.launches) t.table 0

(* Per-stage roofline diagnostics: flops from the Table 1 multipliers,
   bytes and time terms straight from the cost model's accounting. *)
let roofline (device : Device.t) prec rows =
  List.map
    (fun r ->
      Obs.Roofline.classify ~stage:r.stage ~ms:r.ms ~launches:r.launches
        ~flops:(Counter.flops prec r.ops)
        ~bytes:(r.cold_bytes +. r.thread_bytes)
        ~compute_ms:r.compute_ms ~memory_ms:r.memory_ms
        ~peak_gflops:device.Device.dp_peak_gflops)
    rows
