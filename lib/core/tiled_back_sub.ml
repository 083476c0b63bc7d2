(* Algorithm 1 of the paper: tiled accelerated back substitution.

   The upper triangular Nn-by-Nn matrix U is cut into N diagonal tiles of
   size n.  Stage 1 inverts all diagonal tiles at once (N blocks of n
   threads; thread k of a block solves U v = e_k, so the columns of each
   inverse are computed independently).  Stage 2 walks the tiles from the
   last to the first: x_i := U_i^{-1} b_i by one block of n threads, then
   all remaining right-hand side tiles are updated simultaneously,
   b_j := b_j - A_{j,i} x_i, with i-1 blocks of n threads.

   Replacing the final division of the classic back substitution by a
   multiplication with a precomputed inverse is what exposes enough data
   parallelism for the GPU; the launch count is 1 + N(N+1)/2. *)

open Gpusim
open Mdlinalg

module Make (K : Scalar.S) = struct
  module M = Mat.Make (K)
  module V = Vec.Make (K)
  module F = Flat_kernels.Make (K)

  let scalar_bytes = float_of_int (8 * K.width)

  let ops ?(adds = 0.0) ?(muls = 0.0) ?(divs = 0.0) ?(sqrts = 0.0) () =
    let o = { Counter.adds; muls; divs; sqrts } in
    if K.is_complex then Counter.complexify o else o

  type result = {
    x : V.t;
    kernel_ms : float;
    wall_ms : float;
    kernel_gflops : float;
    wall_gflops : float;
    stages : Profile.row list;
    launches : int;
    faults : Fault.Plan.tally option;
  }

  (* [solve_gen sim ~dim ~tile ~data] solves U x = b when [data] carries
     the actual system, or only accounts the kernel costs when it is
     [None] (planning mode, used to time dimensions too large to hold). *)
  let solve_gen (sim : Sim.t) ~dim ~tile ~data =
    if dim mod tile <> 0 then
      invalid_arg "Tiled_back_sub: dimension must be a multiple of the tile";
    if data = None then sim.Sim.execute <- false;
    let n = tile in
    let nt = dim / n in
    let fn = float_of_int n in
    (* Device state: the matrix with inverted diagonal tiles, the evolving
       right-hand side and the solution. *)
    let v, bd =
      match data with
      | Some (u, b) when sim.Sim.execute -> (M.copy u, V.copy b)
      | _ -> (M.create 0 0, V.create 0)
    in
    let x = V.create (if sim.Sim.execute then dim else 0) in
    (* Host -> device staging: U (upper half) and b. *)
    Sim.transfer sim
      ((float_of_int (dim * (dim + 1) / 2) +. float_of_int dim)
      *. scalar_bytes);

    (* Stage 1: invert all diagonal tiles; thread k of block i solves the
       upper triangular system U_i v = e_k. *)
    let invert_cost =
      (* Per block: column k costs k(k+1)/2 multiply/update pairs and k+1
         divisions; summed over the n columns. *)
      let muls_blk = (fn -. 1.0) *. fn *. (fn +. 1.0) /. 6.0 in
      let divs_blk = fn *. (fn +. 1.0) /. 2.0 in
      let per_block = ops ~adds:muls_blk ~muls:muls_blk ~divs:divs_blk () in
      let true_ops = Counter.scale per_block (float_of_int nt) in
      (* Timing is governed by the slowest thread (the last column), which
         does ~3x the average work. *)
      let crit =
        ops
          ~adds:(fn *. (fn -. 1.0) /. 2.0)
          ~muls:(fn *. (fn -. 1.0) /. 2.0)
          ~divs:fn ()
      in
      let padded = Counter.scale crit (float_of_int (nt * n)) in
      let tile_bytes = fn *. (fn +. 1.0) /. 2.0 *. scalar_bytes in
      Cost.launch ~blocks:nt ~threads:n ~padded
        ~cold_bytes:(float_of_int nt *. 2.0 *. tile_bytes)
        ~thread_bytes:
          (float_of_int nt *. fn *. fn *. (fn +. 1.0) /. 6.0 *. scalar_bytes)
        ~working_set:(2.0 *. tile_bytes) true_ops
    in
    Sim.launch sim ~stage:Stage.invert_tiles ~cost:invert_cost (fun blk ->
        let r0 = blk * n in
        let inv = M.create n n in
        (* Thread k solves U v = e_k; the solution has zeros below row k,
           so column k costs k(k+1)/2 update pairs and k+1 divisions. *)
        for k = 0 to n - 1 do
          let col = Array.make (k + 1) K.zero in
          for i = k downto 0 do
            let s = ref (if i = k then K.one else K.zero) in
            for j = i + 1 to k do
              s := K.sub !s (K.mul (M.get v (r0 + i) (r0 + j)) col.(j))
            done;
            col.(i) <- K.div !s (M.get v (r0 + i) (r0 + i))
          done;
          for i = 0 to k do
            M.set inv i k col.(i)
          done
        done;
        M.blit ~src:inv ~dst:v ~r0 ~c0:r0);

    (* Device state for stage 2, behind the one dispatch point: when
       flat execution is available, [F.Bs.create] stages the matrix
       (with the now-inverted diagonal tiles), the right-hand side and
       the solution into limb planes ONCE and every inner-product kernel
       below runs on them allocation free, with only the solution
       unstaged at the end; otherwise it works on the host arrays.  Tile
       inversion stays generic (it divides, which the flat primitives do
       not cover).  The modeled launch costs are shared by both arms, so
       device timing is unchanged. *)
    let st = F.Bs.create ~execute:sim.Sim.execute ~dim ~v:v.M.a ~bd ~x in

    let guard = Sim.fault_plan sim in
    let executing = sim.Sim.execute in
    (* Bit-flip corruptor: on the flat arm faults strike the staggered
       limb planes directly (raw word flips, exactly the paper's device
       layout); on the boxed arm one scalar goes through a limb flip
       and the renormalizing round-trip. *)
    (match guard with
    | Some _ when executing ->
        Sim.set_corruptor sim
          (Some
             (Fault.Plan.strike ~limbs:K.width ~raw:(F.Bs.staged st)
                (F.Bs.regions st)))
    | _ -> ());
    (* U (inverted diagonal tiles included) is constant through stage 2:
       its checksum taken here convicts any corruption of the staged
       planes for the rest of the solve. *)
    let vchk_now () = Fault.Checksum.of_iter (F.Bs.iter_u_limbs st) in
    let vchk =
      match guard with
      | Some _ when executing -> Some (vchk_now ())
      | _ -> None
    in
    (* Read back element [i] of the staged solution (flat) or the host
       array (boxed). *)
    let x_at i = F.Bs.x_at st i in
    let bd_at i = F.Bs.b_at st i in
    (* ABFT verification of one solved tile: the device result must match
       a host recompute of U_i^{-1} b_i within a few limb-widths, every
       limb must be finite, and on the flat path the raw limb expansions
       must still satisfy the renorm invariant. *)
    let tile_ok ~r0 =
      let ok = ref true in
      for r = 0 to n - 1 do
        let s = ref K.zero in
        for c = r to n - 1 do
          s :=
            K.add !s (K.mul (M.get v (r0 + r) (r0 + c)) (bd_at (r0 + c)))
        done;
        let xi = x_at (r0 + r) in
        if not (K.is_finite xi) then ok := false
        else begin
          let diff = K.R.to_float (K.abs (K.sub xi !s)) in
          let scale = Float.max (K.R.to_float (K.abs !s)) 1.0 in
          if
            Float.is_nan diff
            || diff > 64.0 *. fn *. K.R.eps *. scale
          then ok := false
        end;
        if
          not
            (F.Bs.x_limbs_ok st (r0 + r) ~check:(fun limbs ->
                 Fault.Detect.normalized limbs))
        then ok := false
      done;
      !ok
    in
    let check_cost =
      let muls = fn *. (fn +. 1.0) /. 2.0 in
      Cost.launch ~blocks:1 ~threads:n
        ~cold_bytes:((muls +. (2.0 *. fn)) *. scalar_bytes)
        ~thread_bytes:(muls *. scalar_bytes)
        ~working_set:(muls *. scalar_bytes)
        (ops ~adds:muls ~muls ())
    in

    (* Stage 2: alternate multiplications with the inverses and updates of
       the remaining right-hand sides. *)
    for i = nt - 1 downto 0 do
      let r0 = i * n in
      (* x_i := U_i^{-1} b_i, one block of n threads (thread r computes
         row r; row 0 is the longest). *)
      let mul_cost =
        let muls = fn *. (fn +. 1.0) /. 2.0 in
        let per = ops ~adds:muls ~muls () in
        let padded = Counter.scale (ops ~adds:fn ~muls:fn ()) fn in
        Cost.launch ~blocks:1 ~threads:n ~padded
          ~cold_bytes:((muls +. (2.0 *. fn)) *. scalar_bytes)
          ~thread_bytes:(muls *. scalar_bytes)
          ~working_set:(muls *. scalar_bytes) per
      in
      let solve_tile () =
        Sim.launch sim ~stage:Stage.multiply_inverses ~cost:mul_cost (fun _ ->
            F.Bs.xi_block st ~r0 ~n)
      in
      (match guard with
      | None -> solve_tile ()
      | Some plan -> (
          (try solve_tile () with
          | Fault.Plan.Injected (Fault.Plan.Launch_fail, _) as e ->
              (* The failed launch never ran its body, so x is untouched:
                 one stage-level replay before giving up. *)
              Fault.Plan.rung plan ~budget:1 ~stage:"bs.tile" ~replays:0
                (Fault.Plan.Escalated e);
              solve_tile ());
          Sim.launch ~protected:true sim ~stage:Stage.abft_check
            ~cost:check_cost (fun _ -> ());
          (* The tile solve only writes x_i, so a failed verdict can
             replay the launch in place — unless U itself no longer
             matches its checksum, which nothing below this level can
             repair. *)
          let rec settle replays =
            if not (tile_ok ~r0) then begin
              let u_intact =
                match vchk with
                | Some chk -> Fault.Checksum.matches chk (vchk_now ())
                | None -> true
              in
              Fault.Plan.rung plan
                ?budget:(if u_intact then None else Some 0)
                ~stage:"bs.tile" ~replays Fault.Plan.Detected;
              solve_tile ();
              settle (replays + 1)
            end
          in
          if executing then settle 0));
      (* b_j := b_j - A_{j,i} x_i for all j < i, i blocks of n threads,
         counted as i concurrent launches like the paper does. *)
      if i > 0 then begin
        let upd_cost =
          let per_block = ops ~adds:((fn *. fn) +. fn) ~muls:(fn *. fn) () in
          let true_ops = Counter.scale per_block (float_of_int i) in
          Cost.launch ~blocks:i ~threads:n ~count:i
            ~cold_bytes:
              (float_of_int i *. ((fn *. fn) +. (3.0 *. fn)) *. scalar_bytes)
            ~thread_bytes:(float_of_int i *. 2.0 *. fn *. fn *. scalar_bytes)
            ~working_set:(((fn *. fn) +. (2.0 *. fn)) *. scalar_bytes)
            true_ops
        in
        let update () =
          Sim.launch sim ~stage:Stage.back_substitution ~cost:upd_cost
            (fun j -> F.Bs.update_block st ~r0 ~rj:(j * n) ~n)
        in
        match guard with
        | None -> update ()
        | Some plan ->
            (* The update subtracts in place, so replaying it needs the
               pre-update prefix of b back first. *)
            let snap =
              if executing then Some (F.Bs.snapshot_b st ~upto:r0) else None
            in
            let restore () =
              match snap with
              | Some saved -> F.Bs.restore_b st saved
              | None -> ()
            in
            let rec settle replays =
              update ();
              if executing && not (F.Bs.b_finite_below st ~r0) then begin
                Fault.Plan.rung plan ~stage:"bs.update" ~replays
                  Fault.Plan.Detected;
                restore ();
                settle (replays + 1)
              end
            in
            (try settle 0 with
            | Fault.Plan.Injected (Fault.Plan.Launch_fail, _) as e
              when executing ->
                (* An escalated launch failure left b untouched mid-way
                   only on the failing relaunch path; restore and replay
                   once at stage level before giving up for good. *)
                restore ();
                Fault.Plan.rung plan ~budget:1 ~stage:"bs.update" ~replays:0
                  (Fault.Plan.Escalated e);
                settle 0)
      end
    done;
    F.Bs.unstage_x st;
    (* Device -> host: the solution. *)
    Sim.transfer sim (float_of_int dim *. scalar_bytes);
    x

  (* [solve sim u b ~tile] solves U x = b for upper triangular [u];
     [tile] is the tile size n, which must divide the dimension. *)
  let solve (sim : Sim.t) (u : M.t) (b : V.t) ~tile =
    let dim = M.rows u in
    if dim <> M.cols u then invalid_arg "Tiled_back_sub: square U required";
    if Array.length b <> dim then
      invalid_arg "Tiled_back_sub: right-hand side length mismatch";
    solve_gen sim ~dim ~tile ~data:(Some (u, b))

  (* Cost accounting only: no data is touched or allocated. *)
  let plan (sim : Sim.t) ~dim ~tile =
    ignore (solve_gen sim ~dim ~tile ~data:None)

  let result_of_sim sim x =
    {
      x;
      kernel_ms = Sim.kernel_ms sim;
      wall_ms = Sim.wall_ms sim;
      kernel_gflops = Sim.kernel_gflops sim;
      wall_gflops = Sim.wall_gflops sim;
      stages = List.map (Profile.row sim.Sim.profile) Stage.bs_stages;
      launches = Sim.launches sim;
      faults = Sim.fault_tally sim;
    }

  let run ?fault ~device ~u ~b ~tile () =
    let sim = Sim.create ?fault ~device ~prec:K.prec () in
    let x = solve sim u b ~tile in
    result_of_sim sim x

  (* Timing-only run from the dimensions alone. *)
  let run_plan ~device ~dim ~tile () =
    let sim = Sim.create ~execute:false ~device ~prec:K.prec () in
    plan sim ~dim ~tile;
    result_of_sim sim (V.create 0)

end
