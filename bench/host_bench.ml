(* Bechamel micro-benchmarks.

   Two groups:

   - "host arithmetic": measured nanoseconds per multiple double operation
     on the host CPU.  The ratios across precisions are this machine's
     empirical counterpart of the paper's Table 1 cost-overhead
     predictions (37.7x / 439.3x / 2379x relative to double).

   - "tables": one [Test.make] per paper table, each staging the cost-model
     computation that regenerates it (the printers in [Tables] reuse the
     same runners); this times the harness itself. *)

open Bechamel
open Toolkit
open Multidouble
module P = Precision

let ols =
  Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]

let run_tests ~quota tests =
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None ()
  in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  Analyze.all ols Instance.monotonic_clock raw

let estimate results name =
  match Hashtbl.find_opt results name with
  | None -> nan
  | Some r -> (
    match Analyze.OLS.estimates r with
    | Some (e :: _) -> e
    | _ -> nan)

(* Keep results alive so the optimizer cannot elide the arithmetic. *)
let sink = ref 0.0

let arith_tests () =
  let rng = Dompool.Prng.create 5150 in
  let mk (type a) (module S : Md_sig.S with type t = a) label =
    let x =
      S.of_limbs
        (Array.init S.limbs (fun i ->
             Dompool.Prng.sym_float rng *. (2.0 ** (-53.0 *. float_of_int i))))
    in
    let y = S.add_float (S.mul_float x 0.7310586) 0.25 in
    [
      Test.make ~name:(label ^ " add")
        (Staged.stage (fun () -> sink := S.to_float (S.add x y)));
      Test.make ~name:(label ^ " mul")
        (Staged.stage (fun () -> sink := S.to_float (S.mul x y)));
      Test.make ~name:(label ^ " div")
        (Staged.stage (fun () -> sink := S.to_float (S.div x y)));
    ]
  in
  mk (module Float_double) "1d"
  @ mk (module Double_double) "2d"
  @ mk (module Quad_double) "4d"
  @ mk (module Octo_double) "8d"

let host_arithmetic () =
  Printf.printf
    "\n%s\nHost arithmetic (bechamel): measured ns/op and overhead vs 1d\n%s\n"
    (String.make 100 '-') (String.make 100 '-');
  let tests =
    Test.make_grouped ~name:"arith" ~fmt:"%s %s" (arith_tests ())
  in
  let results = run_tests ~quota:0.2 tests in
  let labels = [ "1d"; "2d"; "4d"; "8d" ] in
  let ops = [ "add"; "mul"; "div" ] in
  let ns l o = estimate results (Printf.sprintf "arith %s %s" l o) in
  Printf.printf "%-6s %10s %10s %10s %12s %14s\n" "prec" "add ns" "mul ns"
    "div ns" "avg overhead" "Table-1 predicts";
  let base =
    List.fold_left (fun acc o -> acc +. ns "1d" o) 0.0 ops /. 3.0
  in
  List.iter
    (fun l ->
      let a = ns l "add" and m = ns l "mul" and d = ns l "div" in
      let avg = (a +. m +. d) /. 3.0 in
      let predicted =
        match l with
        | "1d" -> 1.0
        | "2d" -> P.average_flops P.DD
        | "4d" -> P.average_flops P.QD
        | _ -> P.average_flops P.OD
      in
      Printf.printf "%-6s %10.1f %10.1f %10.1f %12.1f %14.1f\n" l a m d
        (avg /. base) predicted)
    labels;
  Printf.printf
    "(an OCaml host is not CUDA: expect the measured ratios to sit below \
     the operation-count predictions, as the paper also observes on the \
     GPU)\n"

let table_regeneration () =
  Printf.printf
    "\n%s\nHarness self-timing (bechamel): one Test.make per table\n%s\n"
    (String.make 100 '-') (String.make 100 '-');
  let d = Gpusim.Device.v100 in
  let t name f = Test.make ~name (Staged.stage f) in
  let tests =
    Test.make_grouped ~name:"tables" ~fmt:"%s %s"
      [
        t "table3" (fun () ->
            ignore (Harness.Runners.qr P.DD Gpusim.Device.p100 ~n:1024 ~tile:128));
        t "table4" (fun () -> ignore (Harness.Runners.qr P.QD d ~n:1024 ~tile:128));
        t "table5" (fun () ->
            ignore
              Harness.Runners.(
                run
                  (request ~complex:true ~kind:Qr ~prec:P.DD ~device:d
                     ~dim:512 ~tile:64 ())));
        t "table6" (fun () -> ignore (Harness.Runners.qr P.OD d ~n:2048 ~tile:128));
        t "table7" (fun () -> ignore (Harness.Runners.bs P.OD d ~dim:10240 ~tile:128));
        t "table8" (fun () -> ignore (Harness.Runners.bs P.QD d ~dim:17920 ~tile:224));
        t "table9" (fun () -> ignore (Harness.Runners.bs P.QD d ~dim:20480 ~tile:64));
        t "table10" (fun () ->
            ignore
              Harness.Runners.(
                run
                  (request ~kind:Solve ~prec:P.QD ~device:d ~dim:1024
                     ~tile:128 ())));
      ]
  in
  let results = run_tests ~quota:0.1 tests in
  List.iter
    (fun name ->
      Printf.printf "  %-10s %12.1f us per regeneration\n" name
        (estimate results (Printf.sprintf "tables %s" name) /. 1e3))
    [
      "table3"; "table4"; "table5"; "table6"; "table7"; "table8"; "table9";
      "table10";
    ]

let multicore_scaling () =
  Printf.printf
    "\n%s\nMulticore host scaling (bechamel): dd matmul 96x96\n%s\n"
    (String.make 100 '-') (String.make 100 '-');
  let module K = Mdlinalg.Scalar.Dd in
  let module M = Mdlinalg.Mat.Make (K) in
  let module B = Mdlinalg.Par_blas.Make (K) in
  let rng = Dompool.Prng.create 11 in
  let a = M.random rng 96 96 and b = M.random rng 96 96 in
  let tests =
    Test.make_grouped ~name:"mm" ~fmt:"%s %s"
      [
        Test.make ~name:"serial"
          (Staged.stage (fun () -> ignore (M.matmul a b)));
        Test.make ~name:"pooled"
          (Staged.stage (fun () -> ignore (B.matmul a b)));
      ]
  in
  let results = run_tests ~quota:0.3 tests in
  let serial = estimate results "mm serial" /. 1e6 in
  let pooled = estimate results "mm pooled" /. 1e6 in
  Printf.printf
    "  serial %.2f ms   pooled %.2f ms   speedup %.2fx on %d domains\n"
    serial pooled (serial /. pooled)
    (Dompool.Domain_pool.size (Dompool.Domain_pool.get_default ()));
  Printf.printf
    "  (the attainable speedup tracks the cores this machine exposes)\n"

let run () =
  host_arithmetic ();
  multicore_scaling ();
  table_regeneration ()
