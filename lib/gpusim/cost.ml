(* The kernel timing model: a roofline with an occupancy/latency-hiding
   term, calibrated against the measurements in the paper.

   One launch is described by its grid shape, the multiple double
   operations performed (true tally, plus an optional padded tally whose
   critical path governs time when thread work is imbalanced) and its
   memory traffic:

   - [cold_bytes]: unique global memory traffic, counting data shared by
     the threads of a block once (the staggered representation makes those
     accesses coalesced, §2); served by DRAM.
   - [thread_bytes]: traffic as issued per thread, before any reuse; served
     by the L2 cache while the per-block working set fits, by DRAM beyond —
     this term is what makes double double matrix products drop sharply at
     dimension 2,048 (Table 6) while quad and octo double stay compute
     bound thanks to their higher CGMA ratios.

   kernel time = launch overhead
               + max(flops / (peak * eff * occupancy),
                     cold_bytes / DRAM bw,
                     thread_bytes / cache bw) *)

type launch = {
  blocks : int;
  threads : int; (* per block *)
  count : int; (* kernel launches this record stands for (default 1):
                  Algorithm 1 issues the i-1 right-hand-side updates of one
                  step as i-1 concurrent launches *)
  ops : Counter.ops; (* true tally over all threads *)
  padded : Counter.ops option; (* timing tally, default [ops] *)
  cold_bytes : float;
  thread_bytes : float;
  working_set : float; (* per-plane bytes of the shared input panel the
                          threads re-read (the staggered layout streams
                          each plane of doubles separately) *)
  strided : bool; (* the re-read panel is accessed with a large pitch
                     (e.g. trailing columns inside R), so once it spills
                     the L2 the accesses waste most of each DRAM
                     transaction *)
}

let launch ?(count = 1) ?padded ?(cold_bytes = 0.0) ?(thread_bytes = 0.0)
    ?(working_set = 0.0) ?(strided = false) ~blocks ~threads ops =
  { blocks; threads; count; ops; padded; cold_bytes; thread_bytes;
    working_set; strided }

(* Fraction of the double precision peak a fully occupied multiple double
   kernel sustains: the operation mix of Table 1 is dominated by dependent
   non-fused additions, which caps the issue rate well below the FMA peak.
   Calibrated on the V100/P100 octo double QR measurements (~0.5 of peak). *)
let arithmetic_efficiency = 0.55

(* Resident warps needed per SM to hide the double precision latency. *)
let warps_to_hide_latency = 8.0

(* Fraction of DRAM bandwidth that scattered (strided) re-reads sustain
   once the shared input panel spills the L2 cache. *)
let scatter_efficiency = 0.1

(* The L2 keeps serving re-reads up to a modest multiple of its capacity
   (streaming hits on the hot fraction of the panel). *)
let l2_reach = 2.5

(* [Float.max] and [Float.min], copied so that they inline into the
   roofline: a call boxes its float arguments and result, and one
   roofline evaluation runs per launch. *)
let[@inline] fmax (x : float) (y : float) =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then
    if x <> x then x else y
  else if y <> y then y else x

let[@inline] fmin (x : float) (y : float) =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then
    if y <> y then y else x
  else if x <> x then x else y

let[@inline] occupancy (d : Device.t) ~blocks ~threads =
  let threads = max 1 threads in
  let warps = float_of_int ((threads + 31) / 32) in
  (* Fraction of issue slots lost when the block is not a warp multiple. *)
  let warp_eff = float_of_int threads /. (32.0 *. warps) in
  let sm = float_of_int d.sm_count in
  (* Wave quantization: a grid of B blocks runs in ceil(B/#SM) waves, so
     80 blocks keep all 80 SMs of a V100 busy but leave 32 of the P100's
     56 SMs idle in the second wave — the paper's explanation for the
     P100/V100 gap of Table 8. *)
  let waves = Float.of_int ((blocks + d.sm_count - 1) / d.sm_count) in
  let sm_util =
    if blocks = 0 then 0.0 else float_of_int blocks /. (waves *. sm)
  in
  (* Warps resident on one SM once the grid wraps around. *)
  let blocks_per_sm =
    fmin
      (float_of_int d.max_resident_warps /. warps)
      (fmax 1.0 (Float.of_int blocks /. sm))
  in
  let resident = warps *. blocks_per_sm in
  let hiding = fmin 1.0 (resident /. warps_to_hide_latency) in
  sm_util *. warp_eff *. hiding

(* The shared input panel spills once it outgrows the L2's reach. *)
let spills (d : Device.t) (l : launch) =
  not (l.working_set <= l2_reach *. d.l2_mb *. 1e6)

(* One evaluation of the roofline: the modeled milliseconds and the time
   terms (in seconds) they take the maximum of.  A flat float record, so
   producing it is one small allocation and reading it none. *)
type eval = { ms : float; compute_s : float; dram_s : float; cache_s : float }

let evaluate (d : Device.t) (p : Multidouble.Precision.tag) (l : launch) =
  let o = match l.padded with Some o -> o | None -> l.ops in
  (* [Counter.flops], written out so the sum stays unboxed. *)
  let w = Counter.weights p in
  let flops =
    (o.adds *. w.adds) +. (o.muls *. w.muls) +. (o.divs *. w.divs)
    +. (o.sqrts *. w.sqrts)
  in
  let occ = occupancy d ~blocks:l.blocks ~threads:l.threads in
  let peak = d.dp_peak_gflops *. 1e9 *. arithmetic_efficiency in
  let compute_s = flops /. (peak *. fmax occ 1e-6) in
  let dram_s = l.cold_bytes /. (d.dram_gb_s *. 1e9) in
  (* The register-loading kernels re-read their inputs per thread.  While
     the shared input panel stays within the cache's reach the L2 absorbs
     the re-reads; beyond it they stream from DRAM — at full bandwidth for
     compact temporaries (Y, W, YWT), but at a fraction of it for strided
     panels such as the trailing columns living inside R, whose pitch
     wastes most of each transaction.  This is what collapses the double
     double YWT*C product at dimension 2,048 (Table 6) while the higher
     CGMA ratios of quad and octo double stay compute bound, and what
     makes YWT*C dominate on the small-cache C2050 and K20C (Table 3). *)
  let cache_bw =
    if not (spills d l) then d.l2_gb_s *. 1e9
    else if l.strided then scatter_efficiency *. d.dram_gb_s *. 1e9
    else d.dram_gb_s *. 1e9
  in
  let cache_s = l.thread_bytes /. cache_bw in
  {
    ms =
      (float_of_int l.count *. d.launch_us /. 1e3)
      +. (1e3 *. fmax compute_s (fmax dram_s cache_s));
    compute_s;
    dram_s;
    cache_s;
  }

let kernel_ms d p l = (evaluate d p l).ms

(* ---- Launch builders for the iterative engines' vector kernels ----

   CG and LSQR are thin loops over a matrix-vector product and a handful
   of BLAS-1 kernels.  Their Table-1 operation tallies and memory
   traffic are fixed by the shapes alone, so the builders live here and
   the engines share one accounting.  [sb] is the byte size of one
   scalar in the staggered representation (8 * limbs, doubled again for
   complex data); [complex] expands the tallies with the usual 4-mul /
   2-add complex product expansion.

   The matrix-vector product reads every matrix element once per
   output element's dot product: cold traffic is the matrix plus both
   vectors, per-thread traffic re-reads the operands — the CGMA ratio is
   O(1) flops per element, which pins these kernels to the memory side
   of the roofline at double precision and double double (the opposite
   corner from the O(n) reuse of the blocked QR products); the higher
   Table 1 multipliers of quad and octo double buy the flops back. *)

let complexified complex o = if complex then Counter.complexify o else o

let gemv ?(trans = false) ?(complex = false) ~sb ~rows ~cols ~threads () =
  let f = float_of_int in
  (* The transposed product of a tall matrix has only [cols] outputs —
     far too few to fill a grid one-thread-per-output.  The modeled
     kernel grids over row slabs instead, each block accumulating a
     per-block partial result folded afterwards by a tree reduction;
     without this the m >> n shapes of the iterative engines serialize
     on a single block. *)
  let span = if trans then max rows cols else rows in
  let blocks = max 1 ((span + threads - 1) / threads) in
  let reduction_adds = if trans then f cols *. f blocks else 0.0 in
  let o =
    complexified complex
      (Counter.make
         ~adds:((f rows *. f cols) +. reduction_adds)
         ~muls:(f rows *. f cols) ())
  in
  launch ~blocks ~threads
    ~cold_bytes:
      ((f (rows * cols) +. f rows +. f cols +. reduction_adds) *. sb)
    ~thread_bytes:(2.0 *. f (rows * cols) *. sb)
    ~working_set:(f (rows * cols) *. 8.0)
    ~strided:trans o

let dot ?(complex = false) ~sb ~n ~threads () =
  let f = float_of_int in
  let o = complexified complex (Counter.make ~adds:(f n) ~muls:(f n) ()) in
  launch
    ~blocks:(max 1 ((n + threads - 1) / threads))
    ~threads
    ~cold_bytes:(2.0 *. f n *. sb)
    ~thread_bytes:(2.0 *. f n *. sb)
    o

let axpy ?(complex = false) ~sb ~n ~threads () =
  let f = float_of_int in
  let o = complexified complex (Counter.make ~adds:(f n) ~muls:(f n) ()) in
  launch
    ~blocks:(max 1 ((n + threads - 1) / threads))
    ~threads
    ~cold_bytes:(3.0 *. f n *. sb)
    ~thread_bytes:(2.0 *. f n *. sb)
    o

let scal ?(complex = false) ~sb ~n ~threads () =
  let f = float_of_int in
  let o = complexified complex (Counter.make ~muls:(f n) ()) in
  launch
    ~blocks:(max 1 ((n + threads - 1) / threads))
    ~threads
    ~cold_bytes:(2.0 *. f n *. sb)
    ~thread_bytes:(f n *. sb)
    o

(* Host <-> device staging time for [bytes] of data (milliseconds);
   included in wall clock but not in kernel time, like the paper's
   cudaEventElapsedTime vs wall clock distinction. *)
let transfer_ms (d : Device.t) bytes = bytes /. (d.link_gb_s *. 1e9) *. 1e3

(* Host-side cost of issuing one kernel (driver call, synchronization). *)
let host_launch_ms (d : Device.t) = d.host_launch_us /. 1e3

(* When the problem no longer fits the host RAM the wall clock explodes
   (the paper observes 84 seconds for octo double back substitution at
   dimension 20,480 on a 32 GB host). *)
let host_pressure_ms (d : Device.t) bytes =
  let ram = d.host_ram_gb *. 1e9 in
  (* The host stages several copies (input, staggered planes, pinned
     buffers); pressure starts at ~70% of the physical RAM and the excess
     swaps at a few hundred MB/s. *)
  let footprint = 3.0 *. bytes in
  let threshold = 0.7 *. ram in
  if footprint > threshold then (footprint -. threshold) /. 300e6 *. 1e3
  else 0.0

(* Which roofline term binds a launch, for the ablation bench. *)
type binding = Compute | Dram | Cache | Spill

let terms (d : Device.t) (p : Multidouble.Precision.tag) (l : launch) =
  let e = evaluate d p l in
  let binding =
    if e.compute_s >= e.dram_s && e.compute_s >= e.cache_s then Compute
    else if e.dram_s >= e.cache_s then Dram
    else if spills d l && l.strided then Spill
    else Cache
  in
  (e.compute_s *. 1e3, e.dram_s *. 1e3, e.cache_s *. 1e3, binding)

let binding_name = function
  | Compute -> "compute"
  | Dram -> "dram"
  | Cache -> "cache"
  | Spill -> "spill"

(* Arithmetic intensity (flops per byte) and the device ridge point,
   exposed for the roofline ablation bench. *)
let intensity p (l : launch) =
  let bytes = Float.max 1.0 (l.cold_bytes +. l.thread_bytes) in
  Counter.flops p l.ops /. bytes

let ridge (d : Device.t) = d.dp_peak_gflops /. d.dram_gb_s
