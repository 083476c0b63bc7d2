(* Numerical verification section of the benchmark output: executes the
   accelerated algorithms (the same code paths the tables cost) at
   moderate dimensions and reports residuals in units of each precision's
   eps, so a reader can see the kernels are numerically sound and deliver
   the advertised 32/64/128 decimal digits. *)

module P = Multidouble.Precision

let run () =
  Printf.printf
    "\n%s\nNumerical verification (executed on the simulator)\n%s\n"
    (String.make 100 '-') (String.make 100 '-');
  Printf.printf "%-48s %14s %10s\n" "experiment" "residual/eps" "status";
  let d = Gpusim.Device.v100 in
  let report (v : Harness.Report.residual) =
    Printf.printf "%-48s %14.1f %10s\n" v.Harness.Report.what
      v.Harness.Report.residual
      (if v.Harness.Report.ok then "ok" else "FAILED")
  in
  let verify ?complex kind prec ~dim ~tile =
    let open Harness.Runners in
    Option.get
      (run
         (request ?complex ~execute:true ~kind ~prec ~device:d ~dim ~tile ()))
        .Harness.Report.residual
  in
  List.iter report
    Harness.Runners.
      [
        verify Qr P.D ~dim:64 ~tile:16;
        verify Qr P.DD ~dim:64 ~tile:16;
        verify Qr P.QD ~dim:48 ~tile:16;
        verify Qr P.OD ~dim:32 ~tile:8;
        verify ~complex:true Qr P.DD ~dim:32 ~tile:8;
        verify ~complex:true Qr P.QD ~dim:24 ~tile:8;
        verify Backsub P.DD ~dim:96 ~tile:16;
        verify Backsub P.QD ~dim:64 ~tile:16;
        verify Backsub P.OD ~dim:32 ~tile:8;
        verify Solve P.DD ~dim:48 ~tile:16;
        verify Solve P.QD ~dim:32 ~tile:8;
        verify ~complex:true Solve P.DD ~dim:24 ~tile:8;
      ]
