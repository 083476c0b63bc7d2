(* Job generators reproducing the paper's tables as batches: the one
   definition of each table's device / precision / shape grid.  The
   table printers in bench/tables.ml, [lsq_cli batch --sweep] and the
   performance ledger's paper_tables workload all run these jobs, in
   this order. *)

module P = Multidouble.Precision
module D = Gpusim.Device
module Solver = Lsq_core.Solver

let job ~table ?complex ?rows ?solver ~kind ~device ~prec ~dim ~tile ?suffix
    () =
  let id =
    Printf.sprintf "%s-%s-%s%s%s" table (D.slug device) (P.label prec)
      (if Option.value complex ~default:false then "z" else "")
      (match suffix with Some s -> "-" ^ s | None -> "")
  in
  Job.make ?complex ?rows ?solver ~id ~kind ~device:device.D.name ~prec ~dim
    ~tile ()

(* Table 3: blocked QR, double double, 1024, all five devices. *)
let table3 () =
  List.map
    (fun d ->
      job ~table:"table3" ~kind:Job.Qr ~device:d ~prec:P.DD ~dim:1024
        ~tile:128 ())
    D.catalog

(* Table 4: QR at 1d/2d/4d/8d on the three newest devices. *)
let table4 () =
  List.concat_map
    (fun d ->
      List.map
        (fun p ->
          job ~table:"table4" ~kind:Job.Qr ~device:d ~prec:p ~dim:1024
            ~tile:128 ())
        P.all)
    [ D.rtx2080; D.p100; D.v100 ]

(* Table 5: real vs complex dd QR at 512 on the V100, four tilings. *)
let table5 () =
  List.concat_map
    (fun complex ->
      List.map
        (fun tile ->
          job ~table:"table5" ~complex ~kind:Job.Qr ~device:D.v100 ~prec:P.DD
            ~dim:512 ~tile
            ~suffix:(Printf.sprintf "t%d" tile)
            ())
        [ 32; 64; 128; 256 ])
    [ false; true ]

(* Table 6: QR for increasing dimension on the V100. *)
let table6 () =
  List.concat_map
    (fun p ->
      List.map
        (fun dim ->
          job ~table:"table6" ~kind:Job.Qr ~device:D.v100 ~prec:p ~dim
            ~tile:128
            ~suffix:(Printf.sprintf "n%d" dim)
            ())
        [ 512; 1024; 1536; 2048 ])
    [ P.DD; P.QD; P.OD ]

(* Table 7: back substitution on growing problems, V100. *)
let table7 () =
  List.concat_map
    (fun p ->
      let sizes =
        if p = P.OD then [ (64, 80); (128, 80); (128, 160) ]
        else [ (64, 80); (128, 80); (256, 80) ]
      in
      List.map
        (fun (tile, nt) ->
          job ~table:"table7" ~kind:Job.Backsub ~device:D.v100 ~prec:p
            ~dim:(tile * nt) ~tile
            ~suffix:(Printf.sprintf "%dx%d" tile nt)
            ())
        sizes)
    P.all

(* Table 8: quad double back substitution, N = 80 tiles of n = 32..256. *)
let table8 () =
  List.concat_map
    (fun d ->
      List.map
        (fun tile ->
          job ~table:"table8" ~kind:Job.Backsub ~device:d ~prec:P.QD
            ~dim:(80 * tile) ~tile
            ~suffix:(Printf.sprintf "t%d" tile)
            ())
        [ 32; 64; 96; 128; 160; 192; 224; 256 ])
    [ D.rtx2080; D.p100; D.v100 ]

(* Table 9: dimension 20480 = N x n under three tilings, V100. *)
let table9 () =
  List.map
    (fun tile ->
      job ~table:"table9" ~kind:Job.Backsub ~device:D.v100 ~prec:P.QD
        ~dim:20480 ~tile
        ~suffix:(Printf.sprintf "t%d" tile)
        ())
    [ 64; 128; 256 ]

(* Table 10: the full solver in four precisions on three devices. *)
let table10 () =
  List.concat_map
    (fun d ->
      List.map
        (fun p ->
          job ~table:"table10" ~kind:Job.Solve ~device:d ~prec:p ~dim:1024
            ~tile:128 ())
        P.all)
    [ D.rtx2080; D.p100; D.v100 ]

(* Fleet: a mixed stream of auto-placed jobs — memory-bound double
   double beside compute-bound octo double — exercising the fleet's
   roofline placement instead of pinning devices. *)
let fleet () =
  List.concat_map
    (fun (prec, kind) ->
      List.init 4 (fun i ->
          Job.make
            ~id:
              (Printf.sprintf "fleet-%s-%s-%d" (Job.string_of_kind kind)
                 (P.label prec) i)
            ~kind ~device:Job.auto_device ~prec ~dim:1024 ~tile:128 ()))
    [
      (P.DD, Job.Qr);
      (P.DD, Job.Solve);
      (P.OD, Job.Qr);
      (P.OD, Job.Solve);
    ]

(* Tall & skinny: the iterative engines' home turf — overdetermined
   systems with m >> n, run through all three engines side by side so
   one batch yields the time-vs-accuracy comparison.  Double double (the
   bandwidth-bound precision) and quad double, on the V100. *)
let tallskinny () =
  List.concat_map
    (fun prec ->
      List.concat_map
        (fun solver ->
          List.map
            (fun (rows, cols) ->
              job ~table:"tallskinny" ~rows ~solver ~kind:Job.Solve
                ~device:D.v100 ~prec ~dim:cols ~tile:cols
                ~suffix:
                  (Printf.sprintf "%s-%dx%d" (Solver.method_name solver) rows
                     cols)
                ())
            [ (4096, 32); (16384, 64) ])
        Solver.all_methods)
    [ P.DD; P.QD ]

let sweeps =
  [
    ("table3", table3);
    ("table4", table4);
    ("table5", table5);
    ("table6", table6);
    ("table7", table7);
    ("table8", table8);
    ("table9", table9);
    ("table10", table10);
    ("fleet", fleet);
    ("tallskinny", tallskinny);
  ]

let names = List.map fst sweeps

let jobs name =
  match List.assoc_opt (String.lowercase_ascii name) sweeps with
  | Some gen -> gen ()
  | None ->
    invalid_arg
      (Printf.sprintf "unknown sweep '%s' (available: %s)" name
         (String.concat ", " names))
