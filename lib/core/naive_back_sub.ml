(* The classic back substitution, put on the device without the tile
   inversion idea of Algorithm 1 — the ablation baseline for the paper's
   design choice.

   Per unknown, one tiny kernel computes x_i = b_i / u_ii (a single
   division: the "last instruction is the division by the element on the
   diagonal" that Algorithm 1 removes) and one kernel updates the
   remaining right-hand side.  The dependency chain of length [dim] and
   the sub-warp kernels leave the device idle: comparing against
   [Tiled_back_sub] quantifies exactly what the diagonal-tile inversion
   buys. *)

open Gpusim
open Mdlinalg

module Make (K : Scalar.S) = struct
  module M = Mat.Make (K)
  module V = Vec.Make (K)

  let scalar_bytes = float_of_int (8 * K.width)

  let ops ?(adds = 0.0) ?(muls = 0.0) ?(divs = 0.0) () =
    let o = Counter.make ~adds ~muls ~divs () in
    if K.is_complex then Counter.complexify o else o

  (* Threads per block of the update kernel. *)
  let threads = 128

  let solve_gen (sim : Sim.t) ~dim ~data =
    if data = None then sim.Sim.execute <- false;
    let u, bd =
      match data with
      | Some (u, b) when sim.Sim.execute -> (u, V.copy b)
      | _ -> (M.create 0 0, V.create 0)
    in
    let x = V.create (if sim.Sim.execute then dim else 0) in
    Sim.transfer sim
      ((float_of_int (dim * (dim + 1) / 2) +. float_of_int dim)
      *. scalar_bytes);
    for i = dim - 1 downto 0 do
      (* One-thread kernel: the division by the diagonal. *)
      let div_cost =
        Cost.launch ~blocks:1 ~threads:1
          ~cold_bytes:(3.0 *. scalar_bytes)
          (ops ~divs:1.0 ())
      in
      Sim.launch sim ~stage:"divide" ~cost:div_cost (fun _ ->
          x.(i) <- K.div bd.(i) (M.get u i i));
      (* Update b_0..b_{i-1} with column i. *)
      if i > 0 then begin
        let f = float_of_int in
        let upd_cost =
          Cost.launch
            ~blocks:((i + threads - 1) / threads)
            ~threads
            ~cold_bytes:(3.0 *. f i *. scalar_bytes)
            ~thread_bytes:(3.0 *. f i *. scalar_bytes)
            ~working_set:(f i *. f dim *. 8.0)
            ~strided:true
            (ops ~adds:(f i) ~muls:(f i) ())
        in
        Sim.launch sim ~stage:"update rhs" ~cost:upd_cost (fun blk ->
            let lo = blk * threads in
            let hi = min i (lo + threads) in
            for r = lo to hi - 1 do
              bd.(r) <- K.sub bd.(r) (K.mul (M.get u r i) x.(i))
            done)
      end
    done;
    Sim.transfer sim (float_of_int dim *. scalar_bytes);
    x

  (* [solve sim u b] solves U x = b for upper triangular [u] ([b] is
     not modified). *)
  let solve (sim : Sim.t) (u : M.t) (b : V.t) =
    solve_gen sim ~dim:(M.rows u) ~data:(Some (u, b))

  (* Cost accounting only: no data is touched or allocated. *)
  let plan (sim : Sim.t) ~dim = ignore (solve_gen sim ~dim ~data:None : V.t)
end
