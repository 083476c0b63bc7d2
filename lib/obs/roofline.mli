(** Per-stage roofline diagnostics: the paper's CGMA analysis as data.

    A stage is classified compute- vs memory-bound from the cost model's
    own time terms (the occupancy-adjusted compute term against the
    larger of the DRAM and cache terms) — the same comparison that
    decides what a launch costs — while the raw arithmetic intensity and
    the device ridge point are reported alongside for classical roofline
    plots.  [Gpusim.Sim.roofline] produces these from a simulator's
    profile. *)

type bound = Compute | Memory

type stage = {
  stage : string;
  ms : float;  (** modeled kernel milliseconds *)
  launches : int;
  flops : float;  (** double precision flops (Table 1 multipliers) *)
  bytes : float;  (** cold + per-thread traffic *)
  intensity : float;  (** flops per byte *)
  gflops : float;  (** achieved: flops / ms *)
  pct_peak : float;  (** achieved as %% of the device's DP peak *)
  compute_ms : float;  (** cost model's compute term *)
  memory_ms : float;  (** larger of its DRAM and cache terms *)
  bound : bound;
}

val bound_name : bound -> string
(** ["compute"] or ["memory"]. *)

val ridge : peak_gflops:float -> dram_gb_s:float -> float
(** The device ridge point in flops per byte. *)

val classify :
  stage:string ->
  ms:float ->
  launches:int ->
  flops:float ->
  bytes:float ->
  compute_ms:float ->
  memory_ms:float ->
  peak_gflops:float ->
  stage

val microkernel :
  stage:string ->
  flops:float ->
  bytes:float ->
  peak_gflops:float ->
  dram_gb_s:float ->
  stage
(** Classify a register-tiled microkernel from its per-tile operation
    and traffic counts alone: compute term at the device's DP peak,
    memory term at DRAM bandwidth, modeled time the larger of the two.
    The flat kernels report their tile geometry this way. *)

val total : ?stage:string -> stage list -> stage
(** The aggregate row (default name ["all kernels"]): sums classified
    like one big stage. *)

(** {2 JSON codec} — the machine-readable output of
    [lsq_cli roofline --json]; round-trips exactly. *)

val to_json :
  label:string -> device:string -> ridge:float -> stage list -> Json.t

val of_json : Json.t -> string * string * float * stage list
(** [(label, device, ridge, stages)] of a serialized table; raises
    {!Json.Error} on malformed documents or a table of another schema
    version. *)
