(* Algorithm 2 of the paper: blocked accelerated Householder QR with the
   WY representation (Bischof-Van Loan).

   For each column panel of [tile] columns:
     1. column by column, compute the Householder vector v and its
        beta = 2 / v^H v, and update the panel (kernels "beta, v",
        "beta*R^T*v", "update R");
     2. aggregate the n reflectors: P = P_0 ... P_{n-1} = I + W Y^H, where
        the columns of W follow z = -beta (v + W Y^H v) — the expected
        bottleneck in small dimensions (kernel "compute W") — and form the
        product YWT = Y * W^H (kernel "Y*W^T");
     3. update Q in two stages: QWY := Q * (YWT)^H ("Q*WY^T") and
        Q := Q + QWY ("Q + QWY");
     4. if the panel is not the last, update the trailing columns C:
        YWTC := YWT * C ("YWT*C") and R := R + YWTC ("R + YWTC").

   On complex data every transpose is the Hermitian transpose; the scalar
   abstraction makes the same code cover both (§3, last paragraph). *)

open Gpusim
open Mdlinalg

module Make (K : Scalar.S) = struct
  module M = Mat.Make (K)
  module V = Vec.Make (K)
  module F = Flat_kernels.Make (K)

  let sb = float_of_int (8 * K.width)

  let ops ?(adds = 0.0) ?(muls = 0.0) ?(divs = 0.0) ?(sqrts = 0.0) () =
    let o = Counter.make ~adds ~muls ~divs ~sqrts () in
    if K.is_complex then Counter.complexify o else o

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
     double arithmetic makes direct loads competitive). *)
  let launch_matmul sim ~stage ~threads ?(strided = false) ?working_set
      ~rows_o ~cols_o ~inner ~geta ~getb ~store () =
    let total = rows_o * cols_o in
    if total > 0 && inner > 0 then begin
      let f = float_of_int in
      let blocks = (total + threads - 1) / threads in
      let o =
        ops
          ~adds:(f rows_o *. f cols_o *. f inner)
          ~muls:(f rows_o *. f cols_o *. f inner)
          ()
      in
      let ws =
        match working_set with
        | Some w -> w
        | None -> f inner *. f cols_o *. 8.0
      in
      let cost =
        Cost.launch ~blocks ~threads ~strided
          ~cold_bytes:
            (((f rows_o *. f inner) +. (f inner *. f cols_o) +. f total)
            *. sb)
          ~thread_bytes:(2.0 *. f inner *. f total *. sb)
          ~working_set:ws o
      in
      (* The modeled device cost above is the same on both paths; only
         the host execution of the kernel body differs.  [F.matmul]
         picks the path: staged allocation-free plane kernels when flat
         execution is available, the boxed accessor loop otherwise —
         limb for limb identical either way. *)
      F.matmul ~execute:sim.Sim.execute ~threads ~rows_o ~cols_o ~inner
        ~geta ~getb ~store
        ~launch:(fun body -> Sim.launch sim ~stage ~cost body)
    end

  (* Elementwise addition kernel: dst += src. *)
  let launch_add sim ~stage ~threads ~rows_o ~cols_o ~get ~add_to =
    let total = rows_o * cols_o in
    if total > 0 then begin
      let f = float_of_int in
      let blocks = (total + threads - 1) / threads in
      let cost =
        Cost.launch ~blocks ~threads
          ~cold_bytes:(3.0 *. f total *. sb)
          ~thread_bytes:(2.0 *. f total *. sb)
          ~working_set:(2.0 *. f total *. 8.0)
          (ops ~adds:(f total) ())
      in
      Sim.launch sim ~stage ~cost (fun blk ->
          let lo = blk * threads in
          let hi = min total (lo + threads) in
          (* Running (row, col) pair instead of two div/mod per element;
             one addition per element cannot amortize limb staging, so
             this kernel stays on the generic path. *)
          let i = ref (lo / cols_o) and j = ref (lo mod cols_o) in
          for _idx = lo to hi - 1 do
            add_to !i !j (get !i !j);
            incr j;
            if !j = cols_o then begin
              j := 0;
              incr i
            end
          done)
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
    let r =
      match a with
      | Some a when executing -> M.copy a
      | _ -> M.create 0 0
    in
    let q = if executing then M.identity mrows else M.create 0 0 in
    let guard = Sim.fault_plan sim in
    (* A bit-flip corruptor over everything the current panel holds on
       the device: R, Q, the panel's Y/W and (thin path) the right-hand
       side.  One element is picked weighted by size, one limb plane,
       one bit of its word. *)
    let flip_at rng name (arr : K.t array) idx =
      let planes = K.to_planes arr.(idx) in
      let p = Dompool.Prng.int rng (Array.length planes) in
      let bit = Dompool.Prng.int rng 64 in
      planes.(p) <- Fault.Plan.flip_bit planes.(p) bit;
      arr.(idx) <- K.of_planes planes;
      Printf.sprintf "%s[%d] plane %d bit %d" name idx p bit
    in
    let corruptor ~y ~w rng =
      let targets =
        List.filter
          (fun (_, arr) -> Array.length arr > 0)
          ([ ("R", r.M.a); ("Q", q.M.a); ("Y", y.M.a); ("W", w.M.a) ]
          @ match rhs with Some b -> [ ("b", (b : K.t array)) ] | None -> [])
      in
      let total =
        List.fold_left (fun acc (_, arr) -> acc + Array.length arr) 0 targets
      in
      if total = 0 then "nothing resident"
      else
        let rec pick idx = function
          | [] -> "nothing resident"
          | (name, arr) :: rest ->
              if idx < Array.length arr then flip_at rng name arr idx
              else pick (idx - Array.length arr) rest
        in
        pick (Dompool.Prng.int rng total) targets
    in
    (* ABFT panel verification, modeled as one cheap check kernel plus —
       when executing — a random probe through the aggregated reflectors
       (I + W Y^H is unitary, so it must preserve the probe's norm) and
       finiteness sweeps over the regions the panel wrote. *)
    let abft_cost rows =
      Cost.launch
        ~blocks:(max 1 ((rows + tile - 1) / tile))
        ~threads:tile
        ~cold_bytes:(2.0 *. f rows *. f tile *. sb)
        ~thread_bytes:(2.0 *. f rows *. f tile *. sb)
        ~working_set:(f rows *. 8.0)
        (ops
           ~adds:(2.0 *. f rows *. f tile)
           ~muls:(2.0 *. f rows *. f tile)
           ())
    in
    let probe_ok plan ~rows ~y ~w =
      let rng = Fault.Plan.aux_rng plan in
      let u = V.init rows (fun _ -> K.random rng) in
      let yhu = V.create tile in
      for j = 0 to tile - 1 do
        let s = ref K.zero in
        for i = 0 to rows - 1 do
          s := K.add !s (K.mul (K.conj (M.get y i j)) u.(i))
        done;
        yhu.(j) <- !s
      done;
      let pu =
        V.init rows (fun i ->
            let s = ref u.(i) in
            for j = 0 to tile - 1 do
              s := K.add !s (K.mul (M.get w i j) yhu.(j))
            done;
            !s)
      in
      let nu = K.R.to_float (V.norm u) in
      let npu = K.R.to_float (V.norm pu) in
      Float.is_finite npu
      && Float.abs (npu -. nu)
         <= 64.0 *. f (rows * tile) *. K.R.eps *. Float.max nu 1e-300
    in
    let region_finite ~c0 =
      let ok = ref true in
      for i = c0 to mrows - 1 do
        for j = c0 to ncols - 1 do
          if not (K.is_finite (M.get r i j)) then ok := false
        done
      done;
      if accumulate_q then
        for i = 0 to mrows - 1 do
          for j = c0 to mrows - 1 do
            if not (K.is_finite (M.get q i j)) then ok := false
          done
        done;
      (match rhs with
      | Some b ->
          for i = c0 to mrows - 1 do
            if not (K.is_finite b.(i)) then ok := false
          done
      | None -> ());
      !ok
    in
    (* Host -> device: the matrix A. *)
    Sim.transfer sim (f (mrows * ncols) *. sb);
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
        let y = if executing then M.create rows tile else M.create 0 0 in
        let w = if executing then M.create rows tile else M.create 0 0 in
        let betas = Array.make tile K.R.zero in
        if executing && guard <> None then
          Sim.set_corruptor sim (Some (corruptor ~y ~w));
      (* ---- Stage 1: panel factorization, column by column. ---- *)
      for l = 0 to tile - 1 do
        let c = c0 + l in
        let len = mrows - c in
        let v = V.create len in
        (* beta, v *)
        let bv_cost =
          Cost.launch
            ~blocks:(max 1 ((len + tile - 1) / tile))
            ~threads:tile
            ~cold_bytes:(3.0 *. f len *. sb)
            ~thread_bytes:(2.0 *. f len *. sb)
            ~working_set:(f len *. 8.0)
            (ops
               ~adds:((2.0 *. f len) +. 1.0)
               ~muls:((2.0 *. f len) +. 1.0)
               ~divs:1.0 ~sqrts:1.0 ())
        in
        Sim.launch sim ~stage:Stage.beta_v ~cost:bv_cost (fun blk ->
            if blk = 0 then begin
              for i = 0 to len - 1 do
                v.(i) <- M.get r (c + i) c
              done;
              let sigma = V.norm v in
              if K.R.is_zero sigma then betas.(l) <- K.R.zero
              else begin
                let phase = K.unit_phase v.(0) in
                v.(0) <- K.add v.(0) (K.scale phase sigma);
                let vv = V.norm2 v in
                betas.(l) <- K.R.div (K.R.of_int 2) vv
              end
            end);
        (* Save v into the trapezoidal Y (rows below c0, zeros above c). *)
        if sim.Sim.execute then
          for i = 0 to len - 1 do
            M.set y (c - c0 + i) l v.(i)
          done;
        (* beta*R^T*v : the row vector wrow = beta v^H R[c:, c:c1],
           a sum reduction over multiple blocks. *)
        let wrow = V.create (tile - l) in
        let rtv_cost =
          Cost.launch
            ~blocks:(max 1 (tile - l))
            ~threads:tile
            ~cold_bytes:(((f len *. f (tile - l)) +. (2.0 *. f len)) *. sb)
            ~thread_bytes:(2.0 *. f len *. f (tile - l) *. sb)
            ~working_set:(f len *. f ncols *. 8.0)
            ~strided:true
            (ops
               ~adds:(f len *. f (tile - l))
               ~muls:((f len +. 1.0) *. f (tile - l))
               ())
        in
        Sim.launch sim ~stage:Stage.beta_rtv ~cost:rtv_cost (fun blk ->
            if blk < tile - l then begin
              let j = c + blk in
              let s = ref K.zero in
              for i = 0 to len - 1 do
                s := K.add !s (K.mul (K.conj v.(i)) (M.get r (c + i) j))
              done;
              wrow.(blk) <- K.scale !s betas.(l)
            end);
        (* update R : R[c:, c:c1] -= v wrow *)
        let upd_cost =
          let total = len * (tile - l) in
          Cost.launch
            ~blocks:(max 1 ((total + tile - 1) / tile))
            ~threads:tile
            ~cold_bytes:(3.0 *. f total *. sb)
            ~thread_bytes:(3.0 *. f total *. sb)
            ~working_set:(f len *. f ncols *. 8.0)
            ~strided:true
            (ops ~adds:(f total) ~muls:(f total) ())
        in
        Sim.launch sim ~stage:Stage.update_r ~cost:upd_cost (fun blk ->
            let total = len * (tile - l) in
            let lo = blk * tile in
            let hi = min total (lo + tile) in
            let w_ = tile - l in
            for idx = lo to hi - 1 do
              let i = idx / w_ and jj = idx mod w_ in
              let j = c + jj in
              M.set r (c + i) j
                (K.sub (M.get r (c + i) j) (K.mul v.(i) wrow.(jj)))
            done)
      done;
      (* ---- Stage 2: aggregate the reflectors into W (and Y). ---- *)
      for l = 0 to tile - 1 do
        let u = V.create l in
        if l > 0 then begin
          (* u = Y[:, :l]^H v_l *)
          let u_cost =
            Cost.launch ~blocks:(max 1 l) ~threads:tile
              ~cold_bytes:(((f rows *. f l) +. f rows +. f l) *. sb)
              ~thread_bytes:(2.0 *. f rows *. f l *. sb)
              ~working_set:(f rows *. f l *. 8.0)
              (ops ~adds:(f rows *. f l) ~muls:(f rows *. f l) ())
          in
          Sim.launch sim ~stage:Stage.compute_w ~cost:u_cost (fun blk ->
              if blk < l then begin
                let s = ref K.zero in
                for i = 0 to rows - 1 do
                  s := K.add !s (K.mul (K.conj (M.get y i blk)) (M.get y i l))
                done;
                u.(blk) <- !s
              end)
        end;
        (* z = -beta (v + W[:, :l] u); W[:, l] = z *)
        let z_cost =
          Cost.launch
            ~blocks:(max 1 ((rows + tile - 1) / tile))
            ~threads:tile
            ~cold_bytes:(((f rows *. f l) +. (2.0 *. f rows)) *. sb)
            ~thread_bytes:(((2.0 *. f rows *. f l) +. f rows) *. sb)
            ~working_set:(f rows *. f l *. 8.0)
            (ops
               ~adds:(f rows *. f l)
               ~muls:((f rows *. f l) +. f rows)
               ())
        in
        Sim.launch sim ~stage:Stage.compute_w ~cost:z_cost (fun blk ->
            let lo = blk * tile in
            let hi = min rows (lo + tile) in
            let nbeta = K.R.neg betas.(l) in
            for i = lo to hi - 1 do
              let s = ref (M.get y i l) in
              for j = 0 to l - 1 do
                s := K.add !s (K.mul (M.get w i j) u.(j))
              done;
              M.set w i l (K.scale !s nbeta)
            done)
      done;
      (* ---- YWT = Y * W^H (rows x rows). ---- *)
      let ywt = if executing then M.create rows rows else M.create 0 0 in
      launch_matmul sim ~stage:Stage.ywt ~threads:tile ~rows_o:rows
        ~cols_o:rows ~inner:tile
        ~geta:(fun i k -> M.get y i k)
        ~getb:(fun k j -> K.conj (M.get w j k))
        ~store:(fun i j s -> M.set ywt i j s)
        ();
      (* ---- Update Q: QWY = Q[:, c0:] * (YWT)^H; Q += QWY. ---- *)
      if accumulate_q then begin
        let qwy = if executing then M.create mrows rows else M.create 0 0 in
        launch_matmul sim ~stage:Stage.qwyt ~threads:tile ~rows_o:mrows
          ~cols_o:rows ~inner:rows
          ~geta:(fun i k -> M.get q i (c0 + k))
          ~getb:(fun k j -> K.conj (M.get ywt j k))
          ~store:(fun i j s -> M.set qwy i j s)
          ();
        launch_add sim ~stage:Stage.q_plus_qwy ~threads:tile ~rows_o:mrows
          ~cols_o:rows
          ~get:(fun i j -> M.get qwy i j)
          ~add_to:(fun i j s ->
            M.set q i (c0 + j) (K.add (M.get q i (c0 + j)) s))
      end;
      (* ---- Apply the reflectors to the right-hand side on the fly:
         b[c0:] := b[c0:] + Y (W^H b[c0:]). ---- *)
      (match rhs with
      | None -> ()
      | Some b ->
        let u = V.create (if executing then tile else 0) in
        let f = float_of_int in
        let u_cost =
          Cost.launch ~blocks:tile ~threads:tile
            ~cold_bytes:(((f rows *. f tile) +. f rows +. f tile) *. sb)
            ~thread_bytes:(2.0 *. f rows *. f tile *. sb)
            ~working_set:(f rows *. f tile *. 8.0)
            (ops ~adds:(f rows *. f tile) ~muls:(f rows *. f tile) ())
        in
        Sim.launch sim ~stage:Stage.apply_qt ~cost:u_cost (fun blk ->
            if blk < tile then begin
              let sum = ref K.zero in
              for i = 0 to rows - 1 do
                sum := K.add !sum (K.mul (K.conj (M.get w i blk)) b.(c0 + i))
              done;
              u.(blk) <- !sum
            end);
        let y_cost =
          Cost.launch
            ~blocks:(max 1 ((rows + tile - 1) / tile))
            ~threads:tile
            ~cold_bytes:(((f rows *. f tile) +. (2.0 *. f rows)) *. sb)
            ~thread_bytes:(((2.0 *. f rows *. f tile) +. f rows) *. sb)
            ~working_set:(f rows *. f tile *. 8.0)
            (ops
               ~adds:((f rows *. f tile) +. f rows)
               ~muls:(f rows *. f tile)
               ())
        in
        Sim.launch sim ~stage:Stage.apply_qt ~cost:y_cost (fun blk ->
            let lo = blk * tile in
            let hi = min rows (lo + tile) in
            for i = lo to hi - 1 do
              let sum = ref K.zero in
              for j = 0 to tile - 1 do
                sum := K.add !sum (K.mul (M.get y i j) u.(j))
              done;
              b.(c0 + i) <- K.add b.(c0 + i) !sum
            done));
      (* ---- Update the trailing columns C = R[c0:, c1:]. ---- *)
      if k < nt - 1 then begin
        let trail = ncols - c1 in
        let ywtc = if executing then M.create rows trail else M.create 0 0 in
        (* C lives inside R: its columns are read with the full matrix
           pitch, so the re-read panel is the whole trailing plane of R. *)
        launch_matmul sim ~stage:Stage.ywtc ~threads:tile ~strided:true
          ~working_set:(f rows *. f ncols *. 8.0)
          ~rows_o:rows ~cols_o:trail ~inner:rows
          ~geta:(fun i k' -> M.get ywt i k')
          ~getb:(fun k' j -> M.get r (c0 + k') (c1 + j))
          ~store:(fun i j s -> M.set ywtc i j s)
          ();
        launch_add sim ~stage:Stage.r_plus_ywtc ~threads:tile ~rows_o:rows
          ~cols_o:trail
          ~get:(fun i j -> M.get ywtc i j)
          ~add_to:(fun i j s ->
            M.set r (c0 + i) (c1 + j) (K.add (M.get r (c0 + i) (c1 + j)) s))
      end;
      (* ---- ABFT verdict for this panel. ---- *)
      match guard with
      | None -> true
      | Some plan ->
          Sim.launch ~protected:true sim ~stage:Stage.abft_check
            ~cost:(abft_cost rows) (fun _ -> ());
          (not executing) || (probe_ok plan ~rows ~y ~w && region_finite ~c0)
      in
      (match guard with
      | None -> ignore (do_panel () : bool)
      | Some plan ->
          let rec attempt replays =
            let snap =
              if executing then
                Some (M.copy r, M.copy q, Option.map V.copy rhs)
              else None
            in
            let restore () =
              match snap with
              | None -> ()
              | Some (r0, q0, b0) ->
                  Array.blit r0.M.a 0 r.M.a 0 (Array.length r.M.a);
                  Array.blit q0.M.a 0 q.M.a 0 (Array.length q.M.a);
                  (match (b0, rhs) with
                  | Some src, Some dst ->
                      Array.blit src 0 (dst : K.t array) 0 (Array.length src)
                  | _ -> ())
            in
            let replay () =
              restore ();
              Fault.Plan.note_replay plan ~stage:"qr.panel";
              attempt (replays + 1)
            in
            match do_panel () with
            | true -> ()
            | false ->
                Fault.Plan.note_detected plan ~stage:"qr.panel";
                if replays < Fault.Plan.max_replays plan then replay ()
                else begin
                  Fault.Plan.note_escalation plan ~stage:"qr.panel";
                  raise
                    (Fault.Plan.Injected (Fault.Plan.Bitflip, "qr.panel"))
                end
            | exception Fault.Plan.Injected _
              when replays < Fault.Plan.max_replays plan ->
                replay ()
          in
          attempt 0)
    done;
    Sim.set_corruptor sim None;
    (* Clean the numerically annihilated subdiagonal of R. *)
    if sim.Sim.execute then
      for j = 0 to ncols - 1 do
        for i = j + 1 to mrows - 1 do
          M.set r i j K.zero
        done
      done;
    (* Device -> host: Q and R. *)
    Sim.transfer sim (f ((mrows * mrows) + (mrows * ncols)) *. sb);
    (q, r)

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

  let run ?(execute = true) ?fault ~device ~a ~tile () =
    let sim = Sim.create ~execute ?fault ~device ~prec:K.prec () in
    let q, r = factor sim a ~tile in
    result_of_sim sim q r
end
