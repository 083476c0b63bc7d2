(* The modeled clock: figures the cost model must reproduce exactly.
   They are the paper's headline numbers (Table 4: QR of dimension 1024
   in double double at 2528.4 / 1884.9 kernel gigaflops on the V100 /
   P100; Table 8: quad double back substitution of dimension 17920 at
   1038.5 on the V100) and the modeled cost of doubling the precision
   on the V100 at n = 1024, against Table 1's predicted 11.7 and 5.4.
   Any change to these values is a change of the model, not noise. *)

module P = Multidouble.Precision
module D = Gpusim.Device
module R = Harness.Runners

let qr prec dev = R.qr prec dev ~n:1024 ~tile:128

let figures () =
  let qr_dd = qr P.DD D.v100 and qr_qd = qr P.QD D.v100 in
  let qr_od = qr P.OD D.v100 in
  let g (r : Harness.Report.t) = r.Harness.Report.kernel_gflops in
  let ms (r : Harness.Report.t) = r.Harness.Report.kernel_ms in
  [
    ("model.qr_2d_1024_v100.kernel_gflops", g qr_dd);
    ("model.qr_2d_1024_p100.kernel_gflops", g (qr P.DD D.p100));
    ( "model.bs_4d_17920_v100.kernel_gflops",
      g (R.bs P.QD D.v100 ~dim:17920 ~tile:224) );
    ("model.qr_overhead.4d_over_2d_v100", ms qr_qd /. ms qr_dd);
    ("model.qr_overhead.8d_over_4d_v100", ms qr_od /. ms qr_qd);
  ]

(* Recorded from the model; compared bit for bit. *)
let expected =
  [
    ("model.qr_2d_1024_v100.kernel_gflops", 2528.3509895188176);
    ("model.qr_2d_1024_p100.kernel_gflops", 1884.8724812335531);
    ("model.bs_4d_17920_v100.kernel_gflops", 1038.4829538065278);
    ("model.qr_overhead.4d_over_2d_v100", 7.2626673216271351);
    ("model.qr_overhead.8d_over_4d_v100", 4.6800904926336795);
  ]

let check (l : Ledger.t) =
  List.iter
    (fun (name, v) ->
      Ledger.exact l name v;
      match List.assoc_opt name expected with
      | Some e when Int64.bits_of_float e = Int64.bits_of_float v -> ()
      | Some e -> Ledger.error l "%s = %.17g, recorded %.17g" name v e
      | None -> Ledger.error l "%s has no recorded value" name)
    (figures ())
