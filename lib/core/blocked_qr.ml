(* Algorithm 2 of the paper: blocked accelerated Householder QR with the
   WY representation (Bischof-Van Loan).

   For each column panel of [tile] columns:
     1. column by column, compute the Householder vector v and its
        beta = 2 / v^H v, and update the panel (kernels "beta, v",
        "beta*R^T*v", "update R");
     2. aggregate the n reflectors: P = P_0 ... P_{n-1} = I + W Y^H, where
        the columns of W follow z = -beta (v + W Y^H v) — the expected
        bottleneck in small dimensions (kernel "compute W") — and form the
        product YWT = Y * W^H (kernel "Y*W^T").  Only steps 3 and 4 read
        YWT, so the thin path's last panel (no Q, no trailing columns)
        reads none: the launch is priced as every other, and the flat
        host body computes nothing;
     3. update Q in two stages: QWY := Q * (YWT)^H ("Q*WY^T") and
        Q := Q + QWY ("Q + QWY").  Q starts as the identity, so in the
        first panel every term of QWY but one per output is a product
        with an exact zero; the device pays for the full product and so
        does its modeled cost here, while the flat host body computes
        the one term per output, with the same bits;
     4. if the panel is not the last, update the trailing columns C:
        YWTC := YWT * C ("YWT*C") and R := R + YWTC ("R + YWTC").

   On complex data every transpose is the Hermitian transpose; the scalar
   abstraction makes the same code cover both (§3, last paragraph).

   Residency.  As in the paper, the data stays on the device from the
   transfer of A to the transfer of Q and R: R, Q and the thin path's b
   for the whole factorization, each panel's Y, W, YWT and product
   outputs for the panel (the flat arm allocates no YWT that nothing
   reads, see step 2).  This module prices the launches and the two
   transfers and issues the launches; the device state and every launch
   body live in [Flat_kernels.Make(K).Qr], which has two arms:
   - flat, when executing with [Flat_kernels.available] (real,
     uninstrumented scalars), fault-armed or not: everything above is
     staged limb planes, staged at the first transfer and unstaged at
     the second, and every stage runs on the [Nd_flat] engines;
   - boxed otherwise: the host [K.t] arrays, factored in place, for
     complex and [Counted] scalars.
   The fault plane's corruptor, ABFT probe, finiteness sweep and panel
   snapshots go through the device state too, so they act on the planes
   of the flat arm.  The arms agree limb for limb, struck or not, and
   plan-only runs allocate no data. *)

open Gpusim
open Mdlinalg

module Make (K : Scalar.S) = struct
  module M = Mat.Make (K)
  module V = Vec.Make (K)
  module F = Flat_kernels.Make (K)

  let sb = float_of_int (8 * K.width)

  (* A launch's Table 1 tally, expanded into real operations on complex
     data. *)
  let ops (o : Counter.ops) = if K.is_complex then Counter.complexify o else o

  (* The body of a plan-only launch, which never runs: a plan passes it
     instead of partially applying a stage body, so it allocates no
     closure. *)
  let noop (_ : int) = ()

  type result = {
    q : M.t;
    r : M.t;
    kernel_ms : float;
    wall_ms : float;
    kernel_gflops : float;
    wall_gflops : float;
    stages : Profile.row list;
    launches : int;
    faults : Fault.Plan.tally option;
  }

  (* One thread per output element, the register-loading matrix product of
     the paper (no shared memory tiles; the high CGMA ratio of multiple
     double arithmetic makes direct loads competitive).  The modeled
     device cost is the same on both arms of the device state; only the
     host execution of [body] differs.  [kernel] is the factorization's
     launch template (see [factor_gen]). *)
  let launch_matmul sim ~stage ~(kernel : Cost.launch) ~strided ~working_set
      ~rows_o ~cols_o ~inner body =
    let total = rows_o * cols_o in
    if total > 0 && inner > 0 then begin
      let f = float_of_int in
      let threads = kernel.Cost.threads in
      let cost =
        {
          kernel with
          Cost.blocks = (total + threads - 1) / threads;
          ops =
            ops
              {
                Counter.zero with
                adds = f rows_o *. f cols_o *. f inner;
                muls = f rows_o *. f cols_o *. f inner;
              };
          cold_bytes =
            ((f rows_o *. f inner) +. (f inner *. f cols_o) +. f total) *. sb;
          thread_bytes = 2.0 *. f inner *. f total *. sb;
          working_set;
          strided;
        }
      in
      Sim.launch sim ~stage ~cost body
    end

  (* Elementwise addition kernel: dst += src. *)
  let launch_add sim ~stage ~(kernel : Cost.launch) ~rows_o ~cols_o body =
    let total = rows_o * cols_o in
    if total > 0 then begin
      let f = float_of_int in
      let threads = kernel.Cost.threads in
      let cost =
        {
          kernel with
          Cost.blocks = (total + threads - 1) / threads;
          ops = ops { Counter.zero with adds = f total };
          cold_bytes = 3.0 *. f total *. sb;
          thread_bytes = 2.0 *. f total *. sb;
          working_set = 2.0 *. f total *. 8.0;
        }
      in
      Sim.launch sim ~stage ~cost body
    end

  (* [factor_gen sim ~mrows ~ncols ~tile ~a] factors the matrix when [a]
     is given, or only accounts the kernel costs when it is [None]
     (planning mode, used to time dimensions too large to hold).

     With [accumulate_q = false] the Q update kernels are skipped, and
     with [rhs = Some b] the reflectors are applied to [b] on the fly
     (b := (I + Y W^H) b per tile) — the economy path of the thin least
     squares solver, which never forms the M-by-M Q. *)
  let factor_gen ?(accumulate_q = true) ?rhs (sim : Sim.t) ~mrows ~ncols
      ~tile ~a =
    if ncols mod tile <> 0 then
      invalid_arg "Blocked_qr: columns must be a multiple of the tile size";
    if mrows < ncols then invalid_arg "Blocked_qr: need rows >= cols";
    if a = None then sim.Sim.execute <- false;
    let nt = ncols / tile in
    let f = float_of_int in
    let executing = sim.Sim.execute in
    (* The launch record every kernel below is a copy of: [tile] threads
       per block, one launch, its own tally timing it.  A plan issues
       thousands of launches, and a copy costs no optional-argument
       wrappers. *)
    let kernel = Cost.launch ~blocks:1 ~threads:tile Counter.zero in
    let guard = Sim.fault_plan sim in
    (* Host -> device: the matrix A. *)
    Sim.transfer sim (f (mrows * ncols) *. sb);
    let st =
      F.Qr.create ~execute:executing ~fault_armed:(guard <> None)
        ~accumulate_q ~mrows ~ncols ~tile
        ~a:(match a with Some a when executing -> a.M.a | _ -> [||])
        ~b:rhs
    in
    (* A bit-flip corruptor over everything the current panel holds on
       the device: R, Q, the panel's Y/W and (thin path) the right-hand
       side — raw plane words on the flat arm, a scalar's limbs on the
       boxed one. *)
    let corruptor p =
      Fault.Plan.strike ~limbs:K.width ~raw:(F.Qr.staged st) (F.Qr.regions p)
    in
    (* ABFT panel verification, modeled as one cheap check kernel plus —
       when executing — a random probe through the aggregated reflectors
       (I + W Y^H is unitary, so it must preserve the probe's norm) and
       a finiteness sweep over the regions the panel wrote, both read
       from the device state. *)
    let abft_cost rows =
      {
        kernel with
        Cost.blocks = max 1 ((rows + tile - 1) / tile);
        ops =
          ops
            {
              Counter.zero with
              adds = 2.0 *. f rows *. f tile;
              muls = 2.0 *. f rows *. f tile;
            };
        cold_bytes = 2.0 *. f rows *. f tile *. sb;
        thread_bytes = 2.0 *. f rows *. f tile *. sb;
        working_set = f rows *. 8.0;
      }
    in
    let probe_ok plan ~rows p =
      let rng = Fault.Plan.aux_rng plan in
      let u = V.init rows (fun _ -> K.random rng) in
      let nu, npu = F.Qr.probe_norms p u in
      Float.is_finite npu
      && Float.abs (npu -. nu)
         <= 64.0 *. f (rows * tile) *. K.R.eps *. Float.max nu 1e-300
    in
    for k = 0 to nt - 1 do
      (* The whole panel iteration — factorization, aggregation, Q and
         trailing updates, then the ABFT verdict.  Restartable: under an
         armed fault plan the caller snapshots R/Q/b, and a detected
         corruption (or an escalated launch failure inside the panel)
         restores the snapshot and replays the panel. *)
      let do_panel () =
        let c0 = k * tile in
        let c1 = c0 + tile in
        let rows = mrows - c0 in
        let p = F.Qr.panel st ~c0 in
        if executing && guard <> None then
          Sim.set_corruptor sim (Some (corruptor p));
      (* ---- Stage 1: panel factorization, column by column. ---- *)
      for l = 0 to tile - 1 do
        let c = c0 + l in
        let len = mrows - c in
        (* beta, v *)
        let bv_cost =
          {
            kernel with
            Cost.blocks = max 1 ((len + tile - 1) / tile);
            ops =
              ops
                {
                  Counter.adds = (2.0 *. f len) +. 1.0;
                  muls = (2.0 *. f len) +. 1.0;
                  divs = 1.0;
                  sqrts = 1.0;
                };
            cold_bytes = 3.0 *. f len *. sb;
            thread_bytes = 2.0 *. f len *. sb;
            working_set = f len *. 8.0;
          }
        in
        Sim.launch sim ~stage:Stage.beta_v ~cost:bv_cost
          (if executing then F.Qr.beta_v p ~l else noop);
        (* Save v into the trapezoidal Y (rows below c0, zeros above c). *)
        if executing then F.Qr.save_v p ~l;
        (* beta*R^T*v : the row vector wrow = beta v^H R[c:, c:c1],
           a sum reduction over multiple blocks. *)
        let rtv_cost =
          {
            kernel with
            Cost.blocks = max 1 (tile - l);
            ops =
              ops
                {
                  Counter.zero with
                  adds = f len *. f (tile - l);
                  muls = (f len +. 1.0) *. f (tile - l);
                };
            cold_bytes = ((f len *. f (tile - l)) +. (2.0 *. f len)) *. sb;
            thread_bytes = 2.0 *. f len *. f (tile - l) *. sb;
            working_set = f len *. f ncols *. 8.0;
            strided = true;
          }
        in
        Sim.launch sim ~stage:Stage.beta_rtv ~cost:rtv_cost
          (if executing then F.Qr.rtv p ~l else noop);
        (* update R : R[c:, c:c1] -= v wrow *)
        let upd_cost =
          let total = len * (tile - l) in
          {
            kernel with
            Cost.blocks = max 1 ((total + tile - 1) / tile);
            ops = ops { Counter.zero with adds = f total; muls = f total };
            cold_bytes = 3.0 *. f total *. sb;
            thread_bytes = 3.0 *. f total *. sb;
            working_set = f len *. f ncols *. 8.0;
            strided = true;
          }
        in
        Sim.launch sim ~stage:Stage.update_r ~cost:upd_cost
          (if executing then F.Qr.update_r p ~l else noop)
      done;
      (* ---- Stage 2: aggregate the reflectors into W (and Y). ---- *)
      for l = 0 to tile - 1 do
        if l > 0 then begin
          (* u = Y[:, :l]^H v_l *)
          let u_cost =
            {
              kernel with
              Cost.blocks = max 1 l;
              ops =
                ops { Counter.zero with adds = f rows *. f l; muls = f rows *. f l };
              cold_bytes = ((f rows *. f l) +. f rows +. f l) *. sb;
              thread_bytes = 2.0 *. f rows *. f l *. sb;
              working_set = f rows *. f l *. 8.0;
            }
          in
          Sim.launch sim ~stage:Stage.compute_w ~cost:u_cost
            (if executing then F.Qr.w_u p ~l else noop)
        end;
        (* z = -beta (v + W[:, :l] u); W[:, l] = z *)
        let z_cost =
          {
            kernel with
            Cost.blocks = max 1 ((rows + tile - 1) / tile);
            ops =
              ops
                {
                  Counter.zero with
                  adds = f rows *. f l;
                  muls = (f rows *. f l) +. f rows;
                };
            cold_bytes = ((f rows *. f l) +. (2.0 *. f rows)) *. sb;
            thread_bytes = ((2.0 *. f rows *. f l) +. f rows) *. sb;
            working_set = f rows *. f l *. 8.0;
          }
        in
        Sim.launch sim ~stage:Stage.compute_w ~cost:z_cost
          (if executing then F.Qr.w_z p ~l else noop)
      done;
      (* ---- YWT = Y * W^H (rows x rows). ---- *)
      launch_matmul sim ~stage:Stage.ywt ~kernel ~strided:false
        ~working_set:(f tile *. f rows *. 8.0)
        ~rows_o:rows ~cols_o:rows ~inner:tile
        (if executing then F.Qr.ywt p else noop);
      (* ---- Update Q: QWY = Q[:, c0:] * (YWT)^H; Q += QWY. ---- *)
      if accumulate_q then begin
        launch_matmul sim ~stage:Stage.qwyt ~kernel ~strided:false
          ~working_set:(f rows *. f rows *. 8.0)
          ~rows_o:mrows ~cols_o:rows ~inner:rows
          (if executing then F.Qr.qwy p else noop);
        launch_add sim ~stage:Stage.q_plus_qwy ~kernel ~rows_o:mrows
          ~cols_o:rows
          (if executing then F.Qr.q_add p else noop)
      end;
      (* ---- Apply the reflectors to the right-hand side on the fly:
         b[c0:] := b[c0:] + Y (W^H b[c0:]). ---- *)
      if rhs <> None then begin
        let u_cost =
          {
            kernel with
            Cost.blocks = tile;
            ops =
              ops
                {
                  Counter.zero with
                  adds = f rows *. f tile;
                  muls = f rows *. f tile;
                };
            cold_bytes = ((f rows *. f tile) +. f rows +. f tile) *. sb;
            thread_bytes = 2.0 *. f rows *. f tile *. sb;
            working_set = f rows *. f tile *. 8.0;
          }
        in
        Sim.launch sim ~stage:Stage.apply_qt ~cost:u_cost
          (if executing then F.Qr.apply_u p else noop);
        let y_cost =
          {
            kernel with
            Cost.blocks = max 1 ((rows + tile - 1) / tile);
            ops =
              ops
                {
                  Counter.zero with
                  adds = (f rows *. f tile) +. f rows;
                  muls = f rows *. f tile;
                };
            cold_bytes = ((f rows *. f tile) +. (2.0 *. f rows)) *. sb;
            thread_bytes = ((2.0 *. f rows *. f tile) +. f rows) *. sb;
            working_set = f rows *. f tile *. 8.0;
          }
        in
        Sim.launch sim ~stage:Stage.apply_qt ~cost:y_cost
          (if executing then F.Qr.apply_y p else noop)
      end;
      (* ---- Update the trailing columns C = R[c0:, c1:]. ---- *)
      if k < nt - 1 then begin
        let trail = ncols - c1 in
        (* C lives inside R: its columns are read with the full matrix
           pitch, so the re-read panel is the whole trailing plane of R. *)
        launch_matmul sim ~stage:Stage.ywtc ~kernel ~strided:true
          ~working_set:(f rows *. f ncols *. 8.0)
          ~rows_o:rows ~cols_o:trail ~inner:rows
          (if executing then F.Qr.ywtc p else noop);
        launch_add sim ~stage:Stage.r_plus_ywtc ~kernel ~rows_o:rows
          ~cols_o:trail
          (if executing then F.Qr.r_add p else noop)
      end;
      (* ---- ABFT verdict for this panel. ---- *)
      match guard with
      | None -> true
      | Some plan ->
          Sim.launch ~protected:true sim ~stage:Stage.abft_check
            ~cost:(abft_cost rows) noop;
          (not executing)
          || (probe_ok plan ~rows p && F.Qr.finite_from st ~c0)
      in
      (match guard with
      | None -> ignore (do_panel () : bool)
      | Some plan ->
          let snap = if executing then Some (F.Qr.snapshot st) else None in
          let restore () = Option.iter (F.Qr.restore st) snap in
          let rec attempt replays =
            let replay cause =
              Fault.Plan.rung plan ~stage:"qr.panel" ~replays cause;
              restore ();
              attempt (replays + 1)
            in
            match do_panel () with
            | true -> ()
            | false -> replay Fault.Plan.Detected
            | exception (Fault.Plan.Injected _ as e) ->
                replay (Fault.Plan.Escalated e)
          in
          attempt 0)
    done;
    Sim.set_corruptor sim None;
    (* Device -> host: Q and R (and the thin path's b). *)
    Sim.transfer sim (f ((mrows * mrows) + (mrows * ncols)) *. sb);
    F.Qr.unstage st;
    let r = F.Qr.r st and q = F.Qr.q st in
    (* Clean the numerically annihilated subdiagonal of R. *)
    if executing then
      for j = 0 to ncols - 1 do
        for i = j + 1 to mrows - 1 do
          r.((i * ncols) + j) <- K.zero
        done
      done;
    let mat rows cols a =
      if executing && Array.length a = rows * cols then { M.rows; cols; a }
      else M.create 0 0
    in
    (mat mrows mrows q, mat mrows ncols r)

  (* [factor sim a ~tile] returns (q, r) with a = q r, q unitary M-by-M
     and r upper triangular M-by-Nn, computed tile by tile on the
     simulated device. *)
  let factor (sim : Sim.t) (a : M.t) ~tile =
    factor_gen sim ~mrows:(M.rows a) ~ncols:(M.cols a) ~tile ~a:(Some a)

  (* Economy factorization: returns R and overwrites [b] with Q^H b,
     never forming Q (the LAPACK xGELS shape). *)
  let factor_thin (sim : Sim.t) (a : M.t) ~(b : V.t) ~tile =
    let _, r =
      factor_gen ~accumulate_q:false ~rhs:b sim ~mrows:(M.rows a)
        ~ncols:(M.cols a) ~tile ~a:(Some a)
    in
    r

  let plan_thin (sim : Sim.t) ~rows ~cols ~tile =
    ignore
      (factor_gen ~accumulate_q:false ~rhs:(V.create 0) sim ~mrows:rows
         ~ncols:cols ~tile ~a:None)

  (* Cost accounting only: no data is touched or allocated. *)
  let plan (sim : Sim.t) ~rows ~cols ~tile =
    ignore (factor_gen sim ~mrows:rows ~ncols:cols ~tile ~a:None)

  let result_of_sim sim q r =
    {
      q;
      r;
      kernel_ms = Sim.kernel_ms sim;
      wall_ms = Sim.wall_ms sim;
      kernel_gflops = Sim.kernel_gflops sim;
      wall_gflops = Sim.wall_gflops sim;
      stages = List.map (Profile.row sim.Sim.profile) Stage.qr_stages;
      launches = Sim.launches sim;
      faults = Sim.fault_tally sim;
    }

  let run ?fault ~device ~a ~tile () =
    let sim = Sim.create ?fault ~device ~prec:K.prec () in
    let q, r = factor sim a ~tile in
    result_of_sim sim q r
end
