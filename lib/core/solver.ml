(* The solver-engine abstraction: one pluggable solve path, three
   engines.

   The paper's blocked QR + tiled back substitution is engine number
   one — a direct O(mn^2) factorization whose multiple double kernels
   sit on the compute side of the roofline.  The two iterative engines —
   conjugate gradient on the normal equations and LSQR — are thin loops
   over a staged matrix-vector product and a handful of BLAS-1 kernels,
   O(1) flops per element moved: memory-bound at every precision, and
   the natural engine for tall-skinny well-conditioned systems where a
   full factorization is overkill.

   Mixed precision enters as an *outer* refinement ladder around the
   iterative engines, reusing [Refine]'s limb-plane promote / demote
   seams: pick a starting precision from a double precision condition
   estimate of the normal matrix (a cheap low rung when the conditioning
   permits), run the engine on the demoted residual system at each rung,
   promote the correction, and climb D -> DD -> QD -> OD until the
   target precision is reached.  Convergence is tracked as a
   residual-norm history at the target precision.

   Fault tolerance: armed engines register a bit-flip corruptor over
   their device-resident state (matrix planes and recurrence vectors),
   keep a [Fault.Checksum] digest of the staged matrix, and periodically
   verify the residual recurrence against a recomputed true residual
   through protected launches.  A detected corruption restores the last
   verified checkpoint and replays the iterations since, within the
   plan's replay budget; past it the engine escalates by raising
   [Fault.Plan.Injected], which the scheduler already classifies as
   retryable.  Unarmed runs take none of these paths. *)

open Gpusim
open Mdlinalg
module P = Multidouble.Precision

type method_ = Qr_direct | Cg_normal | Lsqr

let all_methods = [ Qr_direct; Cg_normal; Lsqr ]

let method_name = function
  | Qr_direct -> "qr"
  | Cg_normal -> "cg"
  | Lsqr -> "lsqr"

let method_names = List.map method_name all_methods

let method_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "qr" | "qr_direct" | "direct" -> Qr_direct
  | "cg" | "cgnr" | "cg_normal" -> Cg_normal
  | "lsqr" -> Lsqr
  | s ->
      invalid_arg
        (Printf.sprintf "unknown solver '%s' (expected one of: %s)" s
           (String.concat ", " method_names))

let is_iterative = function Qr_direct -> false | Cg_normal | Lsqr -> true

let qr_part = "QR"
let bs_part = "BS"

(* The scalar instance of a (precision, realness) pair — the dispatch
   the precision ladder climbs through. *)
let scalar_of ?(complex = false) (tag : P.tag) : (module Scalar.S) =
  match (tag, complex) with
  | P.D, false -> (module Scalar.D)
  | P.DD, false -> (module Scalar.Dd)
  | P.QD, false -> (module Scalar.Qd)
  | P.OD, false -> (module Scalar.Od)
  | P.D, true -> (module Scalar.Zd)
  | P.DD, true -> (module Scalar.Zdd)
  | P.QD, true -> (module Scalar.Zqd)
  | P.OD, true -> (module Scalar.Zod)

(* The iterative story of one solve.  [residual_history] holds true
   least-squares residual 2-norms at the *target* precision: the norm
   before each rung of the ladder plus the final one, so its length is
   one more than the rung count (planning runs leave it empty). *)
type iter_info = {
  iterations : int;  (* inner iterations summed over the ladder *)
  residual_history : float list;
  ladder : (P.tag * int) list;  (* per-rung inner iteration counts *)
  ladder_start : P.tag;
  cond_estimate : float option;  (* cond1 of the double normal matrix *)
  converged : bool;
}

(* How many inner iterations a planning run charges: CG reaches the
   exact solution in at most n steps in exact arithmetic, and well past
   that the recurrences have stopped making progress. *)
let planned_iterations ~cols = max 1 (min cols 200)

(* Verify the recurrence every few iterations: often enough that a
   replay rewinds little work, rarely enough that the protected check
   launches stay a small fraction of the iteration cost. *)
let check_every = 4

(* Consecutive iterations allowed without improving on the best norm
   seen before the recurrence is declared stagnated at its attainable
   rounding level. *)
let stall_limit = 6

module Make (K : Scalar.S) = struct
  module M = Mat.Make (K)
  module V = Vec.Make (K)

  type part = {
    name : string;
    kernel_ms : float;
    wall_ms : float;
    kernel_gflops : float;
    wall_gflops : float;
  }

  type result = {
    x : V.t;
    method_ : method_;
    parts : part list;
    stages : Profile.row list;
    kernel_ms : float;
    wall_ms : float;
    kernel_gflops : float;
    wall_gflops : float;
    launches : int;
    faults : Fault.Plan.tally option;
    iter : iter_info option;
  }

  (* ---- result assembly over an engine's simulators ---- *)

  (* Stage rows from several rungs share labels (every rung launches
     "A*v"); merge them so the report keeps one row per kernel, in
     first-seen order. *)
  let merge_rows rows =
    let order = ref [] in
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (r : Profile.row) ->
        match Hashtbl.find_opt tbl r.Profile.stage with
        | None ->
            order := r.Profile.stage :: !order;
            Hashtbl.replace tbl r.Profile.stage r
        | Some acc ->
            Hashtbl.replace tbl r.Profile.stage
              {
                acc with
                Profile.ms = acc.Profile.ms +. r.Profile.ms;
                ops = Counter.add acc.Profile.ops r.Profile.ops;
                launches = acc.Profile.launches + r.Profile.launches;
                cold_bytes = acc.Profile.cold_bytes +. r.Profile.cold_bytes;
                thread_bytes =
                  acc.Profile.thread_bytes +. r.Profile.thread_bytes;
                compute_ms = acc.Profile.compute_ms +. r.Profile.compute_ms;
                memory_ms = acc.Profile.memory_ms +. r.Profile.memory_ms;
              })
      rows;
    List.rev_map (Hashtbl.find tbl) !order

  let gflops_over flops ms = if ms > 0.0 then flops /. (ms *. 1e6) else 0.0

  let breakdowns named_sims =
    List.concat_map (fun (_, sim) -> Sim.breakdown sim) named_sims

  (* [stages] are the result's per-kernel rows: the ladder merges its
     rungs' rows, the direct engine keeps its two phases' rows apart (an
     armed solve has an "ABFT check" row in each). *)
  let result_of_sims ~method_ ~x ~stages ?iter named_sims =
    let flops =
      List.fold_left
        (fun acc (_, sim) ->
          acc
          +. Counter.flops sim.Sim.prec (Profile.total_ops sim.Sim.profile))
        0.0 named_sims
    in
    let sum f =
      List.fold_left (fun acc (_, sim) -> acc +. f sim) 0.0 named_sims
    in
    let kernel_ms = sum Sim.kernel_ms and wall_ms = sum Sim.wall_ms in
    let faults =
      List.fold_left
        (fun acc (_, sim) ->
          match (acc, Sim.fault_tally sim) with
          | acc, None -> acc
          | None, some -> some
          | Some a, Some b -> Some (Fault.Plan.merge a b))
        None named_sims
    in
    {
      x;
      method_;
      parts =
        List.map
          (fun (name, sim) ->
            {
              name;
              kernel_ms = Sim.kernel_ms sim;
              wall_ms = Sim.wall_ms sim;
              kernel_gflops = Sim.kernel_gflops sim;
              wall_gflops = Sim.wall_gflops sim;
            })
          named_sims;
      stages;
      kernel_ms;
      wall_ms;
      kernel_gflops = gflops_over flops kernel_ms;
      wall_gflops = gflops_over flops wall_ms;
      launches =
        List.fold_left
          (fun acc (_, sim) -> acc + Sim.launches sim)
          0 named_sims;
      faults;
      iter;
    }

  (* ---- engine one: the paper's blocked QR + tiled back substitution ----

     Householder QR (Algorithm 2) and then the tiled back substitution
     (Algorithm 1) on R x = Q^H b, each phase on its own simulator so the
     two are timed apart as in Table 10; distinct fault salts keep the
     phases' fault streams independent under one campaign seed.  The QR
     has cubic cost against the quadratic cost of the back substitution,
     so at dimension 1,024 the QR dominates and the lower performance of
     the back substitution in small dimensions does not prevent teraflop
     performance of the solver (§4.9). *)

  module Qr = Blocked_qr.Make (K)
  module Bs = Tiled_back_sub.Make (K)
  module FT = Flat_kernels.Make (K)

  let sb = float_of_int (8 * K.width)

  (* Q^H b on the device: one matvec kernel, accounted with the QR. *)
  let launch_qtb qr_sim ~mrows ~n ~tile body =
    let f = float_of_int in
    let o =
      let o = Counter.make ~adds:(f n *. f mrows) ~muls:(f n *. f mrows) () in
      if K.is_complex then Counter.complexify o else o
    in
    let cost =
      Cost.launch
        ~blocks:(max 1 ((n + tile - 1) / tile))
        ~threads:tile
        ~cold_bytes:((f (mrows * n) +. (2.0 *. f mrows)) *. sb)
        ~thread_bytes:(2.0 *. f (mrows * n) *. sb)
        ~working_set:(f mrows *. f n *. 8.0)
        ~strided:true o
    in
    Sim.launch qr_sim ~stage:"Q^T*b" ~cost body

  (* The back substitution phase after [qr_sim]'s factorization:
     R[0:n, 0:n] x = (Q^H b)[0:n] executed for [Some (r, qtb)], its cost
     plan alone for [None]. *)
  let back_substitute ?fault ~device ~n ~tile qr_sim system =
    let bs_sim =
      Sim.create ~execute:(Option.is_some system) ?fault ~fault_salt:2 ~device
        ~prec:K.prec ()
    in
    let x =
      match system with
      | Some (r, qtb) ->
          Bs.solve bs_sim
            (M.sub_matrix r ~r0:0 ~r1:n ~c0:0 ~c1:n)
            (Array.sub qtb 0 n) ~tile
      | None ->
          Bs.plan bs_sim ~dim:n ~tile;
          V.create 0
    in
    let sims = [ (qr_part, qr_sim); (bs_part, bs_sim) ] in
    result_of_sims ~method_:Qr_direct ~x ~stages:(breakdowns sims) sims

  (* A tall system takes the economy ("thin") path: the reflectors are
     applied to b during the factorization and Q is never formed — the
     xGELS shape, which saves the Q*WY^T update, the dominant kernel of
     the full factorization.  A square one accumulates Q and forms Q^H b
     with one more kernel. *)
  let solve_direct ?fault ~device ~(a : M.t) ~(b : V.t) ~tile () =
    let n = M.cols a and mrows = M.rows a in
    let qr_sim = Sim.create ?fault ~fault_salt:1 ~device ~prec:K.prec () in
    let r, qtb =
      if mrows > n then begin
        let qtb = V.copy b in
        (Qr.factor_thin qr_sim a ~b:qtb ~tile, qtb)
      end
      else begin
        let q, r = Qr.factor qr_sim a ~tile in
        let qtb = V.create n in
        (* On the flat planes each output is the transposed matvec's
           clear / ascending mul_add / store, the boxed loop's sequence
           (a real Q has conj = id). *)
        if FT.available () then begin
          let qp = FT.stage ~rows:mrows ~cols:n ~get:(M.get q)
          and bp = FT.stage_vec ~n:mrows ~get:(Array.get b)
          and yp = FT.alloc ~rows:n ~cols:1 in
          launch_qtb qr_sim ~mrows ~n ~tile
            (FT.gemv_t_block ~threads:tile qp bp yp);
          FT.unstage_vec yp ~store:(Array.set qtb)
        end
        else
          launch_qtb qr_sim ~mrows ~n ~tile (fun blk ->
              let lo = blk * tile in
              let hi = min n (lo + tile) in
              for j = lo to hi - 1 do
                let s = ref K.zero in
                for i = 0 to mrows - 1 do
                  s := K.add !s (K.mul (K.conj (M.get q i j)) b.(i))
                done;
                qtb.(j) <- !s
              done);
        (r, qtb)
      end
    in
    back_substitute ?fault ~device ~n ~tile qr_sim (Some (r, qtb))

  let plan_direct ?fault ~device ~rows ~cols ~tile () =
    let qr_sim =
      Sim.create ~execute:false ?fault ~fault_salt:1 ~device ~prec:K.prec ()
    in
    if rows > cols then Qr.plan_thin qr_sim ~rows ~cols ~tile
    else begin
      Qr.plan qr_sim ~rows ~cols ~tile;
      launch_qtb qr_sim ~mrows:rows ~n:cols ~tile (fun _ -> ())
    end;
    back_substitute ?fault ~device ~n:cols ~tile qr_sim None

  (* ---- the iterative engine at one rung's precision ----

     Instantiated per ladder rung with that rung's scalar; every vector
     operation is a staged kernel launch on the rung's simulator, with
     the flat limb-plane path taken whenever the ladder staged A
     (results are bit-identical to the boxed path by [Flat_kernels]'
     replay guarantee, so the choice is invisible downstream). *)

  module Engine (KE : Scalar.S) = struct
    module ME = Mat.Make (KE)
    module FK = Flat_kernels.Make (KE)

    let sb = float_of_int (8 * KE.width)
    let cx = KE.is_complex

    (* A device-resident vector, both arms behind one record: staged
       limb planes on the flat arm ([p]), host scalars on the boxed arm
       ([h]).  Whichever arm is live is the authoritative copy. *)
    type dvec = { len : int; h : KE.t array; mutable p : FK.planes option }

    let dvec_of flat arr =
      {
        len = Array.length arr;
        h = arr;
        p =
          (if flat then
             Some (FK.stage_vec ~n:(Array.length arr) ~get:(fun i -> arr.(i)))
           else None);
      }

    let dvec_zero flat n = dvec_of flat (Array.make n KE.zero)

    let vread v =
      match v.p with
      | Some pl ->
          let out = Array.make v.len KE.zero in
          FK.unstage_vec pl ~store:(fun i s -> out.(i) <- s);
          out
      | None -> Array.copy v.h

    let vrestore v arr =
      match v.p with
      | Some _ -> v.p <- Some (FK.stage_vec ~n:v.len ~get:(fun i -> arr.(i)))
      | None -> Array.blit arr 0 v.h 0 v.len

    let vcopy flat v = dvec_of flat (vread v)

    (* Where a rung's matrix comes from, which also picks the arm: a
       boxed matrix runs the boxed kernels; staged limb planes — the
       leading planes of the solve's one staging of A, which a rung only
       ever reads — run the flat ones. *)
    type source = Matrix of ME.t | Staged of FK.planes

    (* The device-resident matrix: [src] / [ah] is the pristine copy
       faults never touch (the restage source), [work] / [wh] the working
       copy the kernels read and the corruptor strikes.  Armed runs keep
       a digest that convicts corruption of exactly those words. *)
    type repr =
      | Flat of { src : FK.planes; work : FK.planes }
      | Boxed of { ah : KE.t array; wh : KE.t array }

    type dmat = {
      rows : int;
      cols : int;
      repr : repr;
      mutable digest : Fault.Checksum.t option;
    }

    let mat_digest dm =
      match dm.repr with
      | Flat { work; _ } ->
          Fault.Checksum.of_iter (fun f ->
              Array.iter
                (fun plane ->
                  for i = 0 to Multidouble.Nd_flat.plane_dim plane - 1 do
                    f (Bigarray.Array1.unsafe_get plane i)
                  done)
                work.FK.p)
      | Boxed { wh; _ } -> Fault.Checksum.of_scalars ~to_planes:KE.to_planes wh

    let copy_planes (t : FK.planes) =
      let copy plane =
        let c =
          Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout
            (Multidouble.Nd_flat.plane_dim plane)
        in
        Bigarray.Array1.blit plane c;
        c
      in
      { t with FK.p = Array.map copy t.FK.p }

    let dmat_of sim source =
      let rows, cols, repr =
        match source with
        | Staged src ->
            (src.FK.rows, src.FK.cols, Flat { src; work = copy_planes src })
        | Matrix a ->
            ( ME.rows a,
              ME.cols a,
              Boxed { ah = Array.copy a.ME.a; wh = Array.copy a.ME.a } )
      in
      let dm = { rows; cols; repr; digest = None } in
      if Option.is_some (Sim.fault_plan sim) then
        dm.digest <- Some (mat_digest dm);
      dm

    let mat_restage dm =
      (match dm.repr with
      | Flat { src; work } ->
          Array.iteri
            (fun i plane -> Bigarray.Array1.blit plane work.FK.p.(i))
            src.FK.p
      | Boxed { ah; wh } -> Array.blit ah 0 wh 0 (Array.length ah));
      dm.digest <- Some (mat_digest dm)

    (* Checksum the working matrix against its staging-time digest;
       restage from the pristine copy on mismatch.  Unarmed runs keep no
       digest and have nothing to repair. *)
    let mat_repair dm =
      match dm.digest with
      | Some d when not (Fault.Checksum.matches d (mat_digest dm)) ->
          mat_restage dm
      | _ -> ()

    let is_flat dm = match dm.repr with Flat _ -> true | Boxed _ -> false

    (* ---- kernels: one modeled cost, the body picks the arm.  The
       boxed bodies use the exact accumulator sequences the flat plan
       replays, so the two arms are bit-identical. ---- *)

    let gemv ?(protected = false) sim ~threads ~trans (a : dmat) x y =
      let m = a.rows and n = a.cols in
      let cost =
        Cost.gemv ~trans ~complex:cx ~sb ~rows:m ~cols:n ~threads ()
      in
      let stage =
        if protected then Stage.abft_check
        else if trans then Stage.matvec_t
        else Stage.matvec
      in
      match (a.repr, x.p, y.p) with
      | Flat { work = ap; _ }, Some xp, Some yp ->
          Sim.launch ~protected sim ~stage ~cost (fun blk ->
              if trans then FK.gemv_t_block ~threads ap xp yp blk
              else FK.gemv_block ~threads ap xp yp blk)
      | Flat _, _, _ -> invalid_arg "Solver: boxed vector on the flat arm"
      | Boxed { wh; _ }, _, _ ->
          let xh = x.h and yh = y.h in
          Sim.launch ~protected sim ~stage ~cost (fun blk ->
              let lo = blk * threads in
              if trans then begin
                let hi = min n (lo + threads) in
                for j = lo to hi - 1 do
                  let s = ref KE.zero in
                  for i = 0 to m - 1 do
                    s := KE.add !s (KE.mul (KE.conj wh.((i * n) + j)) xh.(i))
                  done;
                  yh.(j) <- !s
                done
              end
              else begin
                let hi = min m (lo + threads) in
                for i = lo to hi - 1 do
                  let s = ref KE.zero in
                  let base = i * n in
                  for k = 0 to n - 1 do
                    s := KE.add !s (KE.mul wh.(base + k) xh.(k))
                  done;
                  yh.(i) <- !s
                done
              end)

    (* Inner product conj(a).b.  Block 0 runs the whole sequential
       reduction (a fixed order, so iteration counts are bit
       deterministic); the cost still models a grid-wide reduction. *)
    let dot sim ~threads a b =
      let n = a.len in
      let cost = Cost.dot ~complex:cx ~sb ~n ~threads () in
      match (a.p, b.p) with
      | Some ap, Some bp ->
          let out = FK.alloc ~rows:1 ~cols:1 in
          Sim.launch sim ~stage:Stage.iter_dot ~cost (fun blk ->
              if blk = 0 then FK.dot ~n ap bp out 0);
          let r = ref KE.zero in
          FK.unstage_vec out ~store:(fun _ s -> r := s);
          !r
      | _ ->
          let r = ref KE.zero in
          let ah = a.h and bh = b.h in
          Sim.launch sim ~stage:Stage.iter_dot ~cost (fun blk ->
              if blk = 0 then
                for i = 0 to n - 1 do
                  r := KE.add !r (KE.mul (KE.conj ah.(i)) bh.(i))
                done);
          !r

    let staged_alpha y alpha =
      match y.p with
      | Some _ -> Some (FK.stage_vec ~n:1 ~get:(fun _ -> alpha))
      | None -> None

    (* y := y + alpha x *)
    let axpy sim ~threads alpha x y =
      let n = y.len in
      let cost = Cost.axpy ~complex:cx ~sb ~n ~threads () in
      match (staged_alpha y alpha, x.p, y.p) with
      | Some ap, Some xp, Some yp ->
          Sim.launch sim ~stage:Stage.iter_axpy ~cost (fun blk ->
              if blk = 0 then FK.axpy ~n ap xp yp)
      | _ ->
          let xh = x.h and yh = y.h in
          Sim.launch sim ~stage:Stage.iter_axpy ~cost (fun blk ->
              if blk = 0 then
                for i = 0 to n - 1 do
                  yh.(i) <- KE.add yh.(i) (KE.mul alpha xh.(i))
                done)

    (* y := x + alpha y — the direction updates of both engines. *)
    let xpay sim ~threads alpha x y =
      let n = y.len in
      let cost = Cost.axpy ~complex:cx ~sb ~n ~threads () in
      match (staged_alpha y alpha, x.p, y.p) with
      | Some ap, Some xp, Some yp ->
          Sim.launch sim ~stage:Stage.iter_axpy ~cost (fun blk ->
              if blk = 0 then FK.xpay ~n ap xp yp)
      | _ ->
          let xh = x.h and yh = y.h in
          Sim.launch sim ~stage:Stage.iter_axpy ~cost (fun blk ->
              if blk = 0 then
                for i = 0 to n - 1 do
                  yh.(i) <- KE.add (KE.mul alpha yh.(i)) xh.(i)
                done)

    (* y := alpha x (in-place safe) *)
    let scal sim ~threads alpha x y =
      let n = y.len in
      let cost = Cost.scal ~complex:cx ~sb ~n ~threads () in
      match (staged_alpha y alpha, x.p, y.p) with
      | Some ap, Some xp, Some yp ->
          Sim.launch sim ~stage:Stage.iter_scale ~cost (fun blk ->
              if blk = 0 then FK.scal ~n ap xp yp)
      | _ ->
          let xh = x.h and yh = y.h in
          Sim.launch sim ~stage:Stage.iter_scale ~cost (fun blk ->
              if blk = 0 then
                for i = 0 to n - 1 do
                  yh.(i) <- KE.mul alpha xh.(i)
                done)

    let re_float x = KE.R.to_float (KE.re x)
    let finite x = KE.is_finite x && Float.is_finite (re_float x)

    (* ---- the ABFT harness around the recurrence loops ---- *)

    (* The checkpoint exists on armed runs only: unarmed runs never
       take the state snapshot. *)
    type 'snap guard = {
      plan : Fault.Plan.t option;
      stage : string;
      mutable replays_left : int;
      mutable ckpt : 'snap option;
      mutable ckpt_iter : int;
    }

    let guard_of sim ~stage ~snap =
      let plan = Sim.fault_plan sim in
      {
        plan;
        stage;
        replays_left =
          (match plan with Some p -> Fault.Plan.max_replays p | None -> 0);
        ckpt = Option.map (fun _ -> snap ()) plan;
        ckpt_iter = 0;
      }

    let armed g = Option.is_some g.plan

    (* Returns [true] when the run may continue from the current state;
       [false] when the checkpoint was restored — the caller rewinds its
       iteration counter to [ckpt_iter] and replays.  Escalates with
       [Fault.Plan.Injected] once the replay budget is spent, which
       bounds the replay loop. *)
    let guard_verify g ~iter ~ok ~snap ~restore =
      match g.plan with
      | None -> true
      | Some p ->
          if ok () then begin
            g.ckpt <- Some (snap ());
            g.ckpt_iter <- iter;
            true
          end
          else begin
            Fault.Plan.note_detected p ~stage:g.stage;
            if g.replays_left > 0 then begin
              g.replays_left <- g.replays_left - 1;
              Fault.Plan.note_replay p ~stage:g.stage;
              Option.iter restore g.ckpt;
              false
            end
            else begin
              Fault.Plan.note_escalation p ~stage:g.stage;
              raise (Fault.Plan.Injected (Fault.Plan.Bitflip, g.stage))
            end
          end

    (* One size-weighted bit flip across the resident state, mirroring
       the back substitution corruptor: raw plane words on the flat arm,
       a limb round-trip on the boxed arm. *)
    let corruptor (dm : dmat) (vecs : (string * dvec) list) rng =
      let flip_planes (pl : FK.planes) name idx =
        let p = Dompool.Prng.int rng (Array.length pl.FK.p) in
        let bit = Dompool.Prng.int rng 64 in
        Multidouble.Nd_flat.set pl.FK.p p idx
          (Fault.Plan.flip_bit (Multidouble.Nd_flat.get pl.FK.p p idx) bit);
        Printf.sprintf "%s[%d] plane %d bit %d (raw)" name idx p bit
      in
      let flip_boxed arr name idx =
        let planes = KE.to_planes arr.(idx) in
        let p = Dompool.Prng.int rng (Array.length planes) in
        let bit = Dompool.Prng.int rng 64 in
        planes.(p) <- Fault.Plan.flip_bit planes.(p) bit;
        arr.(idx) <- KE.of_planes planes;
        Printf.sprintf "%s[%d] plane %d bit %d" name idx p bit
      in
      let msize = dm.rows * dm.cols in
      let total = List.fold_left (fun acc (_, v) -> acc + v.len) msize vecs in
      let pick = Dompool.Prng.int rng (max 1 total) in
      if pick < msize then
        match dm.repr with
        | Flat { work; _ } -> flip_planes work "A" pick
        | Boxed { wh; _ } -> flip_boxed wh "A" pick
      else begin
        let rec find off = function
          | [] -> assert false
          | (name, v) :: rest ->
              if pick < off + v.len then (name, v, pick - off)
              else find (off + v.len) rest
        in
        let name, v, idx = find msize vecs in
        match v.p with
        | Some pl -> flip_planes pl name idx
        | None -> flip_boxed v.h name idx
      end

    let arm_corruptor sim dm vecs =
      match Sim.fault_plan sim with
      | Some _ -> Sim.set_corruptor sim (Some (corruptor dm vecs))
      | None -> ()

    let stage_operands sim dm =
      Sim.transfer sim
        ((float_of_int ((dm.rows * dm.cols) + dm.rows + dm.cols) +. 1.0)
        *. sb)

    (* ---- conjugate gradient on the normal equations A^H A x = A^H b.

       State: x, r (the normal-equations residual recurrence), p (the
       direction) over n; w = A p over m; q = A^H w over n.  The
       history records norms of the recurrence A^H (b - A x), the
       quantity CG drives to zero (the plain residual ||b - A x|| stays
       at its nonzero minimum on inconsistent systems). ---- *)
    let cg sim ~(a : source) ~(b : KE.t array) ~tile ~max_iter ~rtol =
      let dm = dmat_of sim a in
      let m = dm.rows and n = dm.cols in
      let threads = max 1 tile in
      let flat = is_flat dm in
      stage_operands sim dm;
      let bd = dvec_of flat (Array.copy b) in
      let x = dvec_zero flat n in
      let r = dvec_zero flat n in
      let w = dvec_zero flat m in
      let q = dvec_zero flat n in
      gemv sim ~threads ~trans:true dm bd r;
      let p = vcopy flat r in
      arm_corruptor sim dm [ ("x", x); ("r", r); ("p", p); ("w", w); ("q", q) ];
      let rho = ref (dot sim ~threads r r) in
      let rnorm0 = Float.sqrt (Float.max 0.0 (re_float !rho)) in
      let floor_ = Float.max (rtol *. rnorm0) (Float.min_float *. 16.0) in
      let rnorm = ref rnorm0 in
      let history = ref [ rnorm0 ] in
      let iter = ref 0 in
      let breakdown = ref false in
      let stall = ref 0 in
      let best = ref rnorm0 in
      let snap () =
        (vread x, vread r, vread p, !rho, !rnorm, (!stall, !best), !history)
      in
      let restore (sx, sr, sp, srho, srn, (sst, sbe), sh) =
        vrestore x sx;
        vrestore r sr;
        vrestore p sp;
        rho := srho;
        rnorm := srn;
        stall := sst;
        best := sbe;
        history := sh;
        mat_repair dm
      in
      let g = guard_of sim ~stage:"cg.recurrence" ~snap in
      (* The recomputed truth: q_true = A^H (b - A x) through protected
         launches, compared elementwise against the r recurrence. *)
      let recurrence_ok () =
        mat_repair dm;
        if not (finite !rho) then false
        else begin
          let t = dvec_zero flat m in
          let qt = dvec_zero flat n in
          gemv ~protected:true sim ~threads ~trans:false dm x t;
          let th = vread t in
          let rd =
            dvec_of flat (Array.mapi (fun i bi -> KE.sub bi th.(i)) b)
          in
          gemv ~protected:true sim ~threads ~trans:true dm rd qt;
          let qh = vread qt and rh = vread r in
          let slack = Float.sqrt KE.R.eps *. Float.max 1.0 rnorm0 in
          let ok = ref true in
          Array.iteri
            (fun i qi ->
              let d = KE.R.to_float (KE.abs (KE.sub qi rh.(i))) in
              if not (Float.is_finite d && d <= slack) then ok := false)
            qh;
          !ok
        end
      in
      let verify () =
        if not (guard_verify g ~iter:!iter ~ok:recurrence_ok ~snap ~restore)
        then begin
          iter := g.ckpt_iter;
          breakdown := false
        end
      in
      let continue_ = ref true in
      while !continue_ do
        while (not !breakdown) && !iter < max_iter && !rnorm > floor_ do
          gemv sim ~threads ~trans:false dm p w;
          gemv sim ~threads ~trans:true dm w q;
          let pq = dot sim ~threads p q in
          if KE.is_zero pq || not (finite pq) then breakdown := true
          else begin
            let alpha = KE.div !rho pq in
            axpy sim ~threads alpha p x;
            axpy sim ~threads (KE.neg alpha) q r;
            let rho' = dot sim ~threads r r in
            let beta = KE.div rho' !rho in
            xpay sim ~threads beta r p;
            rho := rho';
            rnorm := Float.sqrt (Float.max 0.0 (re_float rho'));
            incr iter;
            history := !rnorm :: !history;
            (* Rounding stagnation: the recurrence has reached its
               attainable level when the norm stops making relative
               progress on the best seen (norms may oscillate while
               converging, so only a sustained failure stops the
               loop). *)
            if !rnorm < 0.99 *. !best then begin
              best := !rnorm;
              stall := 0
            end
            else incr stall;
            if !stall >= stall_limit then breakdown := true;
            if armed g && !iter mod check_every = 0 then verify ()
          end
        done;
        (* Loop exit (converged, iteration cap, breakdown, or a NaN that
           poisoned [rnorm]): verify the tail since the last checkpoint.
           A restore rewinds and re-enters; the replay budget bounds the
           number of re-entries. *)
        if armed g && (!iter > g.ckpt_iter || !breakdown) then begin
          let before = !iter and was = !breakdown in
          verify ();
          continue_ := !iter < before || was <> !breakdown
        end
        else continue_ := false
      done;
      Sim.set_corruptor sim None;
      (vread x, !iter, List.rev !history)

    (* ---- LSQR (Paige & Saunders): Golub-Kahan bidiagonalization with
       the Givens rotations on the host, every vector operation a staged
       kernel.  [phibar] is the estimate of ||b - A x|| the recurrence
       maintains — the quantity the ABFT check verifies against a
       recomputed true residual. ---- *)
    let lsqr sim ~(a : source) ~(b : KE.t array) ~tile ~max_iter ~rtol =
      let dm = dmat_of sim a in
      let m = dm.rows and n = dm.cols in
      let threads = max 1 tile in
      let flat = is_flat dm in
      stage_operands sim dm;
      let u = dvec_of flat (Array.copy b) in
      let v = dvec_zero flat n in
      let w = dvec_zero flat n in
      let x = dvec_zero flat n in
      let tm = dvec_zero flat m in
      let tn = dvec_zero flat n in
      arm_corruptor sim dm
        [ ("x", x); ("u", u); ("v", v); ("w", w); ("tm", tm); ("tn", tn) ];
      let vnorm vec = KE.R.sqrt (KE.re (dot sim ~threads vec vec)) in
      let inv_scale vec nrm =
        scal sim ~threads (KE.of_real (KE.R.div KE.R.one nrm)) vec vec
      in
      let rneg = KE.R.neg in
      let finite_r s = Float.is_finite (KE.R.to_float s) in
      let beta = ref (vnorm u) in
      let beta0 = KE.R.to_float !beta in
      let history = ref [ Float.max beta0 0.0 ] in
      if beta0 = 0.0 || not (Float.is_finite beta0) then begin
        Sim.set_corruptor sim None;
        (vread x, 0, List.rev !history)
      end
      else begin
        inv_scale u !beta;
        gemv sim ~threads ~trans:true dm u v;
        let alpha = ref (vnorm v) in
        if KE.R.to_float !alpha = 0.0 then begin
          Sim.set_corruptor sim None;
          (vread x, 0, List.rev !history)
        end
        else begin
          inv_scale v !alpha;
          vrestore w (vread v);
          let phibar = ref !beta in
          let rhobar = ref !alpha in
          let floor_ = Float.max (rtol *. beta0) (Float.min_float *. 16.0) in
          let resid = ref beta0 in
          let iter = ref 0 in
          let breakdown = ref false in
          let stall = ref 0 in
          let best = ref beta0 in
          let snap () =
            ( vread x,
              vread u,
              vread v,
              vread w,
              (!alpha, !phibar, !rhobar),
              (!resid, !stall, !best),
              !history )
          in
          let restore (sx, su, sv, sw, (sa, sp, sr), (srs, sst, sbe), sh) =
            vrestore x sx;
            vrestore u su;
            vrestore v sv;
            vrestore w sw;
            alpha := sa;
            phibar := sp;
            rhobar := sr;
            resid := srs;
            stall := sst;
            best := sbe;
            history := sh;
            mat_repair dm
          in
          let g = guard_of sim ~stage:"lsqr.recurrence" ~snap in
          let recurrence_ok () =
            mat_repair dm;
            if not (finite_r !phibar && finite_r !alpha && finite_r !rhobar)
            then false
            else begin
              let t = dvec_zero flat m in
              gemv ~protected:true sim ~threads ~trans:false dm x t;
              let th = vread t in
              let rn = ref KE.R.zero in
              Array.iteri
                (fun i bi -> rn := KE.R.add !rn (KE.norm2 (KE.sub bi th.(i))))
                b;
              let rn = KE.R.to_float (KE.R.sqrt !rn) in
              let slack = Float.sqrt KE.R.eps *. Float.max 1.0 beta0 in
              Float.is_finite rn
              && Float.abs (rn -. Float.abs (KE.R.to_float !phibar)) <= slack
            end
          in
          let verify () =
            if
              not
                (guard_verify g ~iter:!iter ~ok:recurrence_ok ~snap ~restore)
            then begin
              iter := g.ckpt_iter;
              breakdown := false
            end
          in
          let continue_ = ref true in
          while !continue_ do
            while (not !breakdown) && !iter < max_iter && !resid > floor_ do
              (* u := A v - alpha u;  beta := ||u||;  u /= beta *)
              gemv sim ~threads ~trans:false dm v tm;
              xpay sim ~threads (KE.of_real (rneg !alpha)) tm u;
              beta := vnorm u;
              if KE.R.to_float !beta = 0.0 || not (finite_r !beta) then
                breakdown := true
              else begin
                inv_scale u !beta;
                (* v := A^H u - beta v;  alpha := ||v||;  v /= alpha *)
                gemv sim ~threads ~trans:true dm u tn;
                xpay sim ~threads (KE.of_real (rneg !beta)) tn v;
                alpha := vnorm v;
                if KE.R.to_float !alpha = 0.0 || not (finite_r !alpha) then
                  breakdown := true
                else begin
                  inv_scale v !alpha;
                  (* The Givens rotation eliminating beta from the lower
                     bidiagonal, on the host. *)
                  let rot =
                    KE.R.sqrt
                      (KE.R.add
                         (KE.R.mul !rhobar !rhobar)
                         (KE.R.mul !beta !beta))
                  in
                  let c = KE.R.div !rhobar rot in
                  let s = KE.R.div !beta rot in
                  let theta = KE.R.mul s !alpha in
                  rhobar := rneg (KE.R.mul c !alpha);
                  let phi = KE.R.mul c !phibar in
                  phibar := KE.R.mul s !phibar;
                  (* x += (phi/rho) w;  w := v - (theta/rho) w *)
                  axpy sim ~threads (KE.of_real (KE.R.div phi rot)) w x;
                  xpay sim ~threads
                    (KE.of_real (rneg (KE.R.div theta rot)))
                    v w;
                  incr iter;
                  resid := Float.abs (KE.R.to_float !phibar);
                  history := Float.max !resid 0.0 :: !history;
                  if !resid < 0.99 *. !best then begin
                    best := !resid;
                    stall := 0
                  end
                  else incr stall;
                  if !stall >= stall_limit then breakdown := true;
                  if armed g && !iter mod check_every = 0 then verify ()
                end
              end
            done;
            if armed g && (!iter > g.ckpt_iter || !breakdown) then begin
              let before = !iter and was = !breakdown in
              verify ();
              continue_ := !iter < before || was <> !breakdown
            end
            else continue_ := false
          done;
          Sim.set_corruptor sim None;
          (vread x, !iter, List.rev !history)
        end
      end
  end

  (* ---- the precision ladder around the iterative engines ---- *)

  (* Roughly sixteen decimal digits per limb word, minus a safety
     margin: the smallest precision whose digits cover the estimated
     loss [log10 cond(A^H A)] plus the margin starts the ladder. *)
  let start_margin = 6.0

  let pick_start ~digits =
    let target_limbs = P.limbs K.prec in
    let fits tag =
      P.limbs tag <= target_limbs
      && (16.0 *. float_of_int (P.limbs tag)) -. start_margin >= digits
    in
    match List.find_opt fits P.all with Some t -> t | None -> K.prec

  (* ---- the host-side products around the ladder ----

     Real targets with a flat plan stage A once per solve, at the target
     precision.  Demotion to a rung truncates to the leading limbs and
     staging adopts limbs as-is, so a rung's matrix is exactly the first
     [width] planes of that staging, and the double-precision matrix is
     plane 0.  The residuals, the certification and the condition
     estimate read it with the operation sequences of the boxed
     [M.matvec], [M.adjoint], [M.frobenius] and [M.matmul], so both
     arms agree bit for bit.  None of this launches a kernel. *)

  let vector_of (t : FT.planes) =
    let out = Array.make t.FT.rows K.zero in
    FT.unstage_vec t ~store:(fun i s -> out.(i) <- s);
    out

  let stage_vector (v : V.t) =
    FT.stage_vec ~n:(Array.length v) ~get:(Array.get v)

  (* A x *)
  let a_times staged a (x : V.t) =
    match staged with
    | None -> M.matvec a x
    | Some (st : FT.planes) ->
        let y = FT.alloc ~rows:st.FT.rows ~cols:1 in
        FT.gemv_block ~threads:(max 1 st.FT.rows) st (stage_vector x) y 0;
        vector_of y

  (* A^H r *)
  let adjoint_times staged a (r : V.t) =
    match staged with
    | None -> M.matvec (M.adjoint a) r
    | Some (st : FT.planes) ->
        let y = FT.alloc ~rows:st.FT.cols ~cols:1 in
        FT.gemv_t_block ~threads:(max 1 st.FT.cols) st (stage_vector r) y 0;
        vector_of y

  (* ||A||_F: the sum of squares as one dot product of the staging with
     itself, in [M.frobenius2]'s row-major order. *)
  let frobenius staged a =
    match staged with
    | None -> M.frobenius a
    | Some (st : FT.planes) ->
        let out = FT.alloc ~rows:1 ~cols:1 in
        FT.dot ~n:(st.FT.rows * st.FT.cols) st st out 0;
        K.R.sqrt (K.re (vector_of out).(0))

  (* A^T A in plain double from plane 0, unboxed and read straight from
     the plane's Bigarray: each entry accumulates from 0.0 over
     ascending k like [M.matmul (M.adjoint a) a], and a_ki * a_kj =
     a_kj * a_ki exactly, so only j >= i is computed and the rest
     mirrored. *)
  let normal_of_plane0 (st : FT.planes) =
    let m = st.FT.rows and n = st.FT.cols in
    let a = st.FT.p.(0) in
    let ata = Array.make (n * n) 0.0 in
    for k = 0 to m - 1 do
      let base = k * n in
      for i = 0 to n - 1 do
        let aki = Bigarray.Array1.get a (base + i) and row = i * n in
        for j = i to n - 1 do
          ata.(row + j) <-
            ata.(row + j) +. (aki *. Bigarray.Array1.get a (base + j))
        done
      done
    done;
    for i = 1 to n - 1 do
      for j = 0 to i - 1 do
        ata.((i * n) + j) <- ata.((j * n) + i)
      done
    done;
    ata

  (* cond1 of the double-precision normal matrix: cond(A)^2, the
     conditioning CG on the normal equations actually sees (an upper
     bound on what LSQR sees).  Runs on the host in plain double — the
     cheap estimate the ladder start is allowed to be wrong about, since
     a too-low rung only costs wasted inner iterations, never
     accuracy.  A singular normal matrix has no finite estimate.  The
     staged arm runs the boxed [cond1]'s operation sequence on unboxed
     floats ([Cond.cond1_float]), bit for bit. *)
  let estimate_cond staged (a : M.t) =
    let finite_or_inf c =
      if Float.is_finite c && c > 0.0 then c else Float.infinity
    in
    match staged with
    | Some st ->
        finite_or_inf (Cond.cond1_float ~n:st.FT.cols (normal_of_plane0 st))
    | None -> (
        let module KD = (val scalar_of ~complex:K.is_complex P.D : Scalar.S) in
        let module Rf = Refine.Make_scalar (KD) (K) in
        let module CDk = Cond.Make (KD) in
        let ad = Rf.demote_mat a in
        let ata = Rf.ML.matmul (Rf.ML.adjoint ad) ad in
        match KD.R.to_float (CDk.cond1 ata) with
        | c -> finite_or_inf c
        | exception CDk.Lu.Singular _ -> Float.infinity)

  let rungs_from start =
    let target = P.limbs K.prec in
    List.filter
      (fun t -> P.limbs t >= P.limbs start && P.limbs t <= target)
      P.all

  let solve_iter method_ ?fault ?ladder_start ?max_iterations ~device
      ~(a : M.t) ~(b : V.t) ~tile () =
    let m = M.rows a and n = M.cols a in
    if m < n then invalid_arg "Solver: more columns than rows";
    if Array.length b <> m then invalid_arg "Solver: rhs length mismatch";
    let staged =
      if FT.available () then Some (FT.stage ~rows:m ~cols:n ~get:(M.get a))
      else None
    in
    let cond_estimate, start =
      match ladder_start with
      | Some t ->
          if P.limbs t > P.limbs K.prec then
            invalid_arg "Solver: ladder_start above the target precision";
          (None, t)
      | None ->
          if K.prec = P.D then (None, P.D)
          else
            let c = estimate_cond staged a in
            let digits =
              if c = Float.infinity then Float.infinity else Float.log10 c
            in
            (Some c, pick_start ~digits)
    in
    let max_iter =
      match max_iterations with Some i -> max 1 i | None -> max 8 (4 * n)
    in
    let x = V.create n in
    let history = ref [] in
    let ladder = ref [] in
    let sims = ref [] in
    let total_iters = ref 0 in
    List.iteri
      (fun idx tag ->
        let r_t = V.sub b (a_times staged a x) in
        history := K.R.to_float (V.norm r_t) :: !history;
        let module KE = (val scalar_of ~complex:K.is_complex tag : Scalar.S)
        in
        let module Rf = Refine.Make_scalar (KE) (K) in
        let module E = Engine (KE) in
        let sim =
          Sim.create ~execute:true ?fault ~fault_salt:(16 + idx) ~device
            ~prec:tag ()
        in
        let a_lo =
          match staged with
          | Some st ->
              E.Staged
                { E.FK.rows = m; cols = n; p = Array.sub st.FT.p 0 KE.width }
          | None -> E.Matrix (Rf.demote_mat a)
        in
        let b_lo = Array.map Rf.demote r_t in
        let rtol =
          let e = KE.R.eps *. float_of_int n in
          if tag = K.prec then 4.0 *. e else 16.0 *. e
        in
        let run = match method_ with Cg_normal -> E.cg | _ -> E.lsqr in
        let dx, iters, _ = run sim ~a:a_lo ~b:b_lo ~tile ~max_iter ~rtol in
        Array.iteri (fun i d -> x.(i) <- K.add x.(i) (Rf.promote d)) dx;
        let label =
          Printf.sprintf "%s@%s"
            (String.uppercase_ascii (method_name method_))
            (P.label tag)
        in
        sims := (label, sim) :: !sims;
        ladder := (tag, iters) :: !ladder;
        total_iters := !total_iters + iters)
      (rungs_from start);
    let r = V.sub b (a_times staged a x) in
    let rnorm = K.R.to_float (V.norm r) in
    history := rnorm :: !history;
    (* Least-squares convergence is the normal-equations residual
       A^H r = 0, tested against its attainable rounding level at the
       target precision: ||A^H r|| is O(eps ||A|| (||A|| ||x|| + ||b||))
       for a backward-stable x. *)
    let gnorm = K.R.to_float (V.norm (adjoint_times staged a r)) in
    let anorm = K.R.to_float (frobenius staged a) in
    let bnorm = K.R.to_float (V.norm b) in
    let xnorm = K.R.to_float (V.norm x) in
    let converged =
      Float.is_finite rnorm
      && gnorm
         <= (256.0 *. K.R.eps *. float_of_int m *. anorm
            *. ((anorm *. xnorm) +. bnorm))
            +. Float.min_float
    in
    (* Corruption of a direction vector degrades convergence without
       ever breaking the recurrence consistency the inner checks verify
       (r still tracks the true residual — of a slower solve).  The
       final certification is the backstop: an armed run that misses it
       escalates into the caller's retry classification instead of
       returning a silently degraded solution.  Unarmed non-convergence
       is a numerical property and is reported, not raised. *)
    if (not converged) && Option.is_some fault then begin
      (match List.find_map (fun (_, sim) -> Sim.fault_plan sim) !sims with
      | Some p ->
          Fault.Plan.note_detected p ~stage:"solver.converged";
          Fault.Plan.note_escalation p ~stage:"solver.converged"
      | None -> ());
      raise (Fault.Plan.Injected (Fault.Plan.Bitflip, "solver.converged"))
    end;
    let iter =
      {
        iterations = !total_iters;
        residual_history = List.rev !history;
        ladder = List.rev !ladder;
        ladder_start = start;
        cond_estimate;
        converged;
      }
    in
    let sims = List.rev !sims in
    result_of_sims ~method_ ~x ~stages:(merge_rows (breakdowns sims)) ~iter
      sims

  (* ---- planning (cost accounting only, from the dimensions) ---- *)

  let plan_iter method_ ?fault ?iterations ~device ~rows ~cols ~tile () =
    let sim =
      Sim.create ~execute:false ?fault ~fault_salt:16 ~device ~prec:K.prec ()
    in
    let threads = max 1 tile in
    let cx = K.is_complex in
    Sim.transfer sim
      ((float_of_int ((rows * cols) + rows + cols) +. 1.0) *. sb);
    let iters =
      match iterations with
      | Some i -> max 1 i
      | None -> planned_iterations ~cols
    in
    let launch stage cost = Sim.launch sim ~stage ~cost (fun _ -> ()) in
    let gemv_n () =
      launch Stage.matvec (Cost.gemv ~complex:cx ~sb ~rows ~cols ~threads ())
    and gemv_t () =
      launch Stage.matvec_t
        (Cost.gemv ~trans:true ~complex:cx ~sb ~rows ~cols ~threads ())
    and dot_ n =
      launch Stage.iter_dot (Cost.dot ~complex:cx ~sb ~n ~threads ())
    and axpy_ n =
      launch Stage.iter_axpy (Cost.axpy ~complex:cx ~sb ~n ~threads ())
    and scal_ n =
      launch Stage.iter_scale (Cost.scal ~complex:cx ~sb ~n ~threads ())
    in
    (match method_ with
    | Cg_normal ->
        gemv_t ();
        dot_ cols;
        for _ = 1 to iters do
          gemv_n ();
          gemv_t ();
          dot_ cols;
          axpy_ cols;
          axpy_ cols;
          dot_ cols;
          axpy_ cols
        done
    | Lsqr ->
        dot_ rows;
        scal_ rows;
        gemv_t ();
        dot_ cols;
        scal_ cols;
        for _ = 1 to iters do
          gemv_n ();
          axpy_ rows;
          dot_ rows;
          scal_ rows;
          gemv_t ();
          axpy_ cols;
          dot_ cols;
          scal_ cols;
          axpy_ cols;
          axpy_ cols
        done
    | Qr_direct -> assert false);
    let label =
      Printf.sprintf "%s@%s"
        (String.uppercase_ascii (method_name method_))
        (P.label K.prec)
    in
    let iter =
      {
        iterations = iters;
        residual_history = [];
        ladder = [ (K.prec, iters) ];
        ladder_start = K.prec;
        cond_estimate = None;
        converged = false;
      }
    in
    result_of_sims ~method_ ~x:(V.create 0) ~stages:(Sim.breakdown sim) ~iter
      [ (label, sim) ]

  (* ---- the pluggable solve path ---- *)

  let solve ~method_ ?fault ?ladder_start ?max_iterations ~device
      ~(a : M.t) ~(b : V.t) ~tile () =
    match method_ with
    | Qr_direct -> solve_direct ?fault ~device ~a ~b ~tile ()
    | Cg_normal | Lsqr ->
        solve_iter method_ ?fault ?ladder_start ?max_iterations ~device ~a ~b
          ~tile ()

  let plan ~method_ ?fault ?iterations ~device ~rows ~cols ~tile () =
    match method_ with
    | Qr_direct -> plan_direct ?fault ~device ~rows ~cols ~tile ()
    | Cg_normal | Lsqr ->
        plan_iter method_ ?fault ?iterations ~device ~rows ~cols ~tile ()
end
