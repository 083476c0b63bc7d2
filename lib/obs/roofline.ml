(* Per-stage roofline diagnostics: the CGMA analysis of the paper
   (arXiv:2110.08375 §4, continuing arXiv:1210.0800) as data.

   A stage is classified from the cost model's own time terms — the
   occupancy-adjusted compute term against the larger of the DRAM and
   cache terms — rather than from raw arithmetic intensity alone, which
   is exactly how the simulator decides what a launch costs.  The raw
   intensity (flops per byte of cold + per-thread traffic) and the
   device ridge point are still reported, so the stage can be placed on
   a classical roofline plot. *)

type bound = Compute | Memory

type stage = {
  stage : string;
  ms : float; (* modeled kernel milliseconds of the stage *)
  launches : int;
  flops : float; (* double precision flops (Table 1 multipliers) *)
  bytes : float; (* cold + per-thread traffic *)
  intensity : float; (* flops per byte *)
  gflops : float; (* achieved: flops / ms *)
  pct_peak : float; (* achieved as % of the device's DP peak *)
  compute_ms : float; (* cost model's compute term *)
  memory_ms : float; (* larger of its DRAM and cache terms *)
  bound : bound;
}

let bound_name = function Compute -> "compute" | Memory -> "memory"

let ridge ~peak_gflops ~dram_gb_s = peak_gflops /. dram_gb_s

let classify ~stage ~ms ~launches ~flops ~bytes ~compute_ms ~memory_ms
    ~peak_gflops =
  let intensity = flops /. Float.max 1.0 bytes in
  let gflops = if ms > 0.0 then flops /. (ms *. 1e6) else 0.0 in
  let pct_peak =
    if peak_gflops > 0.0 then 100.0 *. gflops /. peak_gflops else 0.0
  in
  let bound = if compute_ms >= memory_ms then Compute else Memory in
  {
    stage;
    ms;
    launches;
    flops;
    bytes;
    intensity;
    gflops;
    pct_peak;
    compute_ms;
    memory_ms;
    bound;
  }

(* Classify a register-tiled microkernel from its per-tile operation and
   traffic counts alone, with no measured launch behind it: the compute
   term is the tile's flops at the device's DP peak, the memory term its
   bytes at DRAM bandwidth, and the modeled time the larger of the two.
   The flat kernels report their tile geometry this way (the counts are
   computed in the linear algebra layer, which knows the precision;
   this library deliberately does not). *)
let microkernel ~stage ~flops ~bytes ~peak_gflops ~dram_gb_s =
  let compute_ms = flops /. (peak_gflops *. 1e6) in
  let memory_ms = bytes /. (dram_gb_s *. 1e6) in
  classify ~stage ~ms:(Float.max compute_ms memory_ms) ~launches:1 ~flops
    ~bytes ~compute_ms ~memory_ms ~peak_gflops

(* The aggregate row over a list of stages (sums classified like one
   big stage). *)
let total ?(stage = "all kernels") stages =
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0.0 stages in
  let peak_gflops =
    (* Recover the peak any member was classified against: achieved
       gflops / (pct_peak / 100).  Falls back to 0 (pct_peak reported
       as 0) when no stage has a meaningful rate. *)
    match
      List.find_opt (fun s -> s.pct_peak > 0.0 && s.gflops > 0.0) stages
    with
    | Some s -> 100.0 *. s.gflops /. s.pct_peak
    | None -> 0.0
  in
  classify ~stage ~ms:(sum (fun s -> s.ms))
    ~launches:(List.fold_left (fun acc s -> acc + s.launches) 0 stages)
    ~flops:(sum (fun s -> s.flops))
    ~bytes:(sum (fun s -> s.bytes))
    ~compute_ms:(sum (fun s -> s.compute_ms))
    ~memory_ms:(sum (fun s -> s.memory_ms))
    ~peak_gflops

(* ---- JSON codec: the machine-readable output of `lsq_cli roofline` ---- *)

let stage_to_json s =
  Json.Obj
    [
      ("stage", Json.Str s.stage);
      ("ms", Json.Float s.ms);
      ("launches", Json.Int s.launches);
      ("flops", Json.Float s.flops);
      ("bytes", Json.Float s.bytes);
      ("intensity", Json.Float s.intensity);
      ("gflops", Json.Float s.gflops);
      ("pct_peak", Json.Float s.pct_peak);
      ("compute_ms", Json.Float s.compute_ms);
      ("memory_ms", Json.Float s.memory_ms);
      ("bound", Json.Str (bound_name s.bound));
    ]

let stage_of_json j =
  {
    stage = Json.(get_string (member "stage" j));
    ms = Json.(get_float (member "ms" j));
    launches = Json.(get_int (member "launches" j));
    flops = Json.(get_float (member "flops" j));
    bytes = Json.(get_float (member "bytes" j));
    intensity = Json.(get_float (member "intensity" j));
    gflops = Json.(get_float (member "gflops" j));
    pct_peak = Json.(get_float (member "pct_peak" j));
    compute_ms = Json.(get_float (member "compute_ms" j));
    memory_ms = Json.(get_float (member "memory_ms" j));
    bound =
      (match Json.(get_string (member "bound" j)) with
      | "compute" -> Compute
      | "memory" -> Memory
      | b -> raise (Json.Error (Printf.sprintf "unknown bound '%s'" b)));
  }

let schema_version = 1

let to_json ~label ~device ~ridge stages =
  Json.Obj
    [
      ("schema", Json.Int schema_version);
      ("label", Json.Str label);
      ("device", Json.Str device);
      ("ridge", Json.Float ridge);
      ("stages", Json.Arr (List.map stage_to_json stages));
    ]

let of_json j =
  let v = Json.(get_int (member "schema" j)) in
  if v <> schema_version then
    raise
      (Json.Error
         (Printf.sprintf "roofline schema %d, this build reads schema %d" v
            schema_version));
  ( Json.(get_string (member "label" j)),
    Json.(get_string (member "device" j)),
    Json.(get_float (member "ridge" j)),
    List.map stage_of_json Json.(get_list (member "stages" j)) )
