(* Host kernel micro-benchmark: the generic scalar path against the flat
   limb-planar path of [Flat_kernels], on the simulator's dominant kernel
   (the register-loading matrix product), in every registered real
   precision (1d, 2d, 4d and 8d: double, double double, quad double and
   octo double), with the launch geometry of the blocked QR (one thread
   block = [threads] output elements, blocks spread over the domain pool
   exactly as [Sim.launch] spreads them).

   The flat timings INCLUDE staging the operands into limb planes and
   unstaging the result: a product staged on its own, not what the
   solvers pay — the blocked QR stages A once per factorization and runs
   its products on the resident planes, so these rows overstate the
   staging share of a factorization.  The smoke run also checks the
   QR's transposed-operand product (Y * W^H, W read through a strided
   view) limb for limb against the boxed loop.

     dune exec bench/main.exe -- kernels        # full matrix, writes
                                                # BENCH_kernels.json
     dune exec bench/main.exe -- kernels-smoke  # 1d, dd and od rows,
                                                # exits 1 on regression
*)

open Mdlinalg

let threads = 128
let inner = 128

type row = {
  prec : string;
  n : int;
  generic_ms : float;
  flat_ms : float;
}

module Bench (K : Scalar.S) = struct
  module M = Mat.Make (K)
  module Rand = Randmat.Make (K)
  module F = Flat_kernels.Make (K)

  (* The boxed accessor loop of [Flat_kernels.boxed_matmul_block], the
     solvers' generic product, with the accessors inlined. *)
  let generic_ms pool ~n (a : M.t) (b : M.t) (c : M.t) =
    let total = n * n in
    let blocks = (total + threads - 1) / threads in
    let t0 = Unix.gettimeofday () in
    Dompool.Domain_pool.parallel_for ~chunk:1 pool 0 blocks (fun blk ->
        let lo = blk * threads in
        let hi = min total (lo + threads) in
        let i = ref (lo / n) and j = ref (lo mod n) in
        for _idx = lo to hi - 1 do
          let s = ref K.zero in
          for k = 0 to inner - 1 do
            s := K.add !s (K.mul (M.get a !i k) (M.get b k !j))
          done;
          M.set c !i !j !s;
          incr j;
          if !j = n then begin
            j := 0;
            incr i
          end
        done);
    (Unix.gettimeofday () -. t0) *. 1000.0

  (* The flat dispatch path, staging included. *)
  let flat_ms pool ~n (a : M.t) (b : M.t) (c : M.t) =
    let total = n * n in
    let blocks = (total + threads - 1) / threads in
    let t0 = Unix.gettimeofday () in
    let ap = F.stage ~rows:n ~cols:inner ~get:(fun i k -> M.get a i k) in
    let bp = F.stage ~rows:inner ~cols:n ~get:(fun k j -> M.get b k j) in
    let cp = F.alloc ~rows:n ~cols:n in
    Dompool.Domain_pool.parallel_for ~chunk:1 pool 0 blocks (fun blk ->
        F.matmul_block ~threads ap bp cp blk);
    F.unstage cp ~store:(fun i j s -> M.set c i j s);
    (Unix.gettimeofday () -. t0) *. 1000.0

  let same_limbs what (cg : M.t) (cf : M.t) =
    Array.iteri
      (fun idx g ->
        if
          not
            (Array.for_all2
               (fun x y ->
                 Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
               (K.to_planes g) (K.to_planes cf.M.a.(idx)))
        then begin
          Printf.eprintf "kernels bench: %s flat/generic mismatch at (%d,%d)\n"
            what (idx / M.cols cg) (idx mod M.cols cg);
          exit 1
        end)
      cg.M.a

  (* The QR's Y * W^H shape: the second operand is read transposed
     through a strided view of its staged planes, against the boxed
     loop reading the same elements; exits 1 on any limb difference. *)
  let transposed_view ~n =
    let rng = Dompool.Prng.create (7919 + n) in
    let a = Rand.matrix rng n inner and w = Rand.matrix rng n inner in
    let ap = F.stage ~rows:n ~cols:inner ~get:(M.get a) in
    let wp = F.stage ~rows:n ~cols:inner ~get:(M.get w) in
    let cp = F.alloc ~rows:n ~cols:n in
    let cg = M.create n n and cf = M.create n n in
    let wt = { F.vp = wp.F.p; off = 0; pitch = 1; step = inner } in
    for blk = 0 to ((n * n) + threads - 1) / threads - 1 do
      F.view_block ~threads ~inner (F.view ap) wt cp blk;
      F.boxed_matmul_block ~threads ~rows_o:n ~cols_o:n ~inner ~geta:(M.get a)
        ~getb:(fun k j -> M.get w j k)
        ~store:(M.set cg) blk
    done;
    F.unstage cp ~store:(M.set cf);
    same_limbs "transposed-view" cg cf

  let matmul ~n =
    let pool = Dompool.Domain_pool.get_default () in
    let rng = Dompool.Prng.create (4159 + n) in
    let a = Rand.matrix rng n inner and b = Rand.matrix rng inner n in
    let cg = M.create n n and cf = M.create n n in
    let g = generic_ms pool ~n a b cg in
    let f = flat_ms pool ~n a b cf in
    (* The two paths must agree limb for limb — a wrong fast kernel is
       worthless, so the benchmark checks while it times. *)
    same_limbs "matmul" cg cf;
    (g, f)
end

module Bd = Bench (Scalar.D)
module Bdd = Bench (Scalar.Dd)
module Bqd = Bench (Scalar.Qd)
module Bod = Bench (Scalar.Od)

let pf = Printf.printf

(* The register-tile of each precision's matmul microkernel, classified
   on the reference device (V100) from its per-tile flop and byte counts
   through [Obs.Roofline.microkernel] — the CGMA story of the paper in
   tile-sized form: double double tiles sit below the ridge point
   (memory-bound), octo double tiles far above it (compute-bound). *)
let tiles () =
  let dev = Gpusim.Device.v100 in
  List.map
    (fun (prec, (t : Flat_kernels.tile)) ->
      let s =
        Obs.Roofline.microkernel
          ~stage:(prec ^ " matmul tile")
          ~flops:t.Flat_kernels.flops ~bytes:t.Flat_kernels.bytes
          ~peak_gflops:dev.Gpusim.Device.dp_peak_gflops
          ~dram_gb_s:dev.Gpusim.Device.dram_gb_s
      in
      (prec, t, s))
    [
      ("1d", Bd.F.tile);
      ("2d", Bdd.F.tile);
      ("4d", Bqd.F.tile);
      ("8d", Bod.F.tile);
    ]

let report_tiles ts =
  let dev = Gpusim.Device.v100 in
  pf "\nmicrokernel tiles (mr x nr x kc), roofline on %s (ridge %.1f \
      flops/byte):\n"
    dev.Gpusim.Device.name
    (Obs.Roofline.ridge ~peak_gflops:dev.Gpusim.Device.dp_peak_gflops
       ~dram_gb_s:dev.Gpusim.Device.dram_gb_s);
  List.iter
    (fun (prec, (t : Flat_kernels.tile), (s : Obs.Roofline.stage)) ->
      pf "  %-4s %d x %d x %-4d %10.0f flops %8.0f bytes %8.2f flops/byte \
          -> %s-bound\n"
        prec t.Flat_kernels.mr t.Flat_kernels.nr t.Flat_kernels.kc
        t.Flat_kernels.flops t.Flat_kernels.bytes s.Obs.Roofline.intensity
        (Obs.Roofline.bound_name s.Obs.Roofline.bound))
    ts

let header () =
  pf "\n%s\n" (String.make 100 '-');
  pf
    "Host kernel bench: generic scalar path vs flat limb-planar path \
     (matmul, inner dim %d, blocks of %d threads)\n"
    inner threads;
  pf "%s\n" (String.make 100 '-');
  pf "%-6s %6s %14s %12s %10s\n" "prec" "n" "generic ms" "flat ms" "speedup"

let report r =
  pf "%-6s %6d %14.1f %12.1f %9.2fx\n%!" r.prec r.n r.generic_ms r.flat_ms
    (r.generic_ms /. r.flat_ms)

let json_of_rows rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"bench\": \"kernels\",\n";
  Buffer.add_string b "  \"kernel\": \"matmul\",\n";
  Buffer.add_string b (Printf.sprintf "  \"threads\": %d,\n" threads);
  Buffer.add_string b (Printf.sprintf "  \"inner\": %d,\n" inner);
  Buffer.add_string b
    (Printf.sprintf "  \"domains\": %d,\n"
       (Dompool.Domain_pool.size (Dompool.Domain_pool.get_default ())));
  Buffer.add_string b "  \"tiles\": [\n";
  let ts = tiles () in
  let tlast = List.length ts - 1 in
  List.iteri
    (fun i (prec, (t : Flat_kernels.tile), (s : Obs.Roofline.stage)) ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"prec\": %S, \"mr\": %d, \"nr\": %d, \"kc\": %d, \
            \"flops\": %.0f, \"bytes\": %.0f, \"intensity\": %.3f, \
            \"bound\": %S}%s\n"
           prec t.Flat_kernels.mr t.Flat_kernels.nr t.Flat_kernels.kc
           t.Flat_kernels.flops t.Flat_kernels.bytes s.Obs.Roofline.intensity
           (Obs.Roofline.bound_name s.Obs.Roofline.bound)
           (if i = tlast then "" else ",")))
    ts;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b "  \"results\": [\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"prec\": %S, \"n\": %d, \"generic_ms\": %.3f, \"flat_ms\": \
            %.3f, \"speedup\": %.3f}%s\n"
           r.prec r.n r.generic_ms r.flat_ms
           (r.generic_ms /. r.flat_ms)
           (if i = last then "" else ",")))
    rows;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

(* Full matrix: d, dd and qd at n in {256, 512, 1024}, od at reduced sizes
   (a boxed octo double mul costs ~40x a quad double one — the 79-slot
   product buffer plus its magnitude sort dominate — so smaller n keeps
   the row affordable while the fixed inner dimension still amortizes
   staging the same way); emits BENCH_kernels.json in the working
   directory. *)
let run () =
  header ();
  let sizes = [ 256; 512; 1024 ] in
  let od_sizes = [ 64; 96; 128; 256 ] in
  (* Bound one group at a time: [@] gives no evaluation order, and the
     progress rows should print in the order they land in the json. *)
  let d_rows =
    List.map
      (fun n ->
        let g, f = Bd.matmul ~n in
        let r = { prec = "1d"; n; generic_ms = g; flat_ms = f } in
        report r;
        r)
      sizes
  in
  let dd_rows =
    List.map
      (fun n ->
        let g, f = Bdd.matmul ~n in
        let r = { prec = "2d"; n; generic_ms = g; flat_ms = f } in
        report r;
        r)
      sizes
  in
  let qd_rows =
    List.map
      (fun n ->
        let g, f = Bqd.matmul ~n in
        let r = { prec = "4d"; n; generic_ms = g; flat_ms = f } in
        report r;
        r)
      sizes
  in
  let od_rows =
    List.map
      (fun n ->
        let g, f = Bod.matmul ~n in
        let r = { prec = "8d"; n; generic_ms = g; flat_ms = f } in
        report r;
        r)
      od_sizes
  in
  let rows = d_rows @ dd_rows @ qd_rows @ od_rows in
  report_tiles (tiles ());
  let path = "BENCH_kernels.json" in
  let oc = open_out path in
  output_string oc (json_of_rows rows);
  close_out oc;
  pf "  [json written to %s]\n" path

(* Smoke: one 1d, one dd and one (small) od comparison, each finishing
   in seconds; fails the run (exit 1) if any flat path is not faster
   than its generic one, or if the octo double speedup falls below the
   regression floor.  The 1d row is the standing bit-identity check on
   the m = 1 engine, and its gate holds the claim that an unboxed plain
   double kernel beats the boxed one despite the staging.  The matrices
   hold single doubles, so every octo double product leaves most of its
   79-slot buffer zero, and the flat engine sorts and distills only the
   nonzero terms where the boxed product sorts all of them: six runs on
   a 2-vCPU host gave 6.9-15.5x (boxed 190-300 ms, flat 19-28 ms), up
   from 2.16-2.96x when both sorted the whole buffer (against 2.05-2.41x
   with the generic replay engine in its place).  The floor stays well
   below that and catches the flat path losing most of its lead.  The od
   case doubles as a standing bit-identity check on the m = 8 engine
   ([Bench.matmul] verifies limb for limb while it times). *)
let od_smoke_floor = 1.7

let smoke () =
  header ();
  let gate ?floor r =
    report r;
    if r.flat_ms >= r.generic_ms then begin
      Printf.eprintf
        "kernels-smoke: %s flat path (%.1f ms) not faster than generic \
         (%.1f ms)\n"
        r.prec r.flat_ms r.generic_ms;
      exit 1
    end;
    match floor with
    | Some fl when r.generic_ms /. r.flat_ms < fl ->
        Printf.eprintf
          "kernels-smoke: %s flat speedup %.2fx below the %.1fx floor\n"
          r.prec
          (r.generic_ms /. r.flat_ms)
          fl;
        exit 1
    | _ -> ()
  in
  let g, f = Bd.matmul ~n:192 in
  gate { prec = "1d"; n = 192; generic_ms = g; flat_ms = f };
  let g, f = Bdd.matmul ~n:192 in
  gate { prec = "2d"; n = 192; generic_ms = g; flat_ms = f };
  let g, f = Bod.matmul ~n:32 in
  gate ~floor:od_smoke_floor
    { prec = "8d"; n = 32; generic_ms = g; flat_ms = f };
  Bdd.transposed_view ~n:64;
  pf "2d transposed-view product (64 x 64, inner %d): limb-identical\n" inner
