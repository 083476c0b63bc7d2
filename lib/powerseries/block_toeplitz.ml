(* Lower triangular block Toeplitz systems — the linear algebra core of
   the power series path tracker ([3], cited by the paper as the place
   where its least squares solver is consumed).

   A matrix power series J(t) = J_0 + J_1 t + ... + J_d t^d applied to a
   vector series x(t) gives the block lower triangular Toeplitz system

       [ J_0                 ] [x_0]   [b_0]
       [ J_1  J_0            ] [x_1] = [b_1]
       [ ...       ...       ] [...]   [...]
       [ J_d  ...  J_1  J_0  ] [x_d]   [b_d]

   Two solvers are provided:

   - [solve_recursive]: order by order against an LU factorization of
     J_0 on the host (the reference);
   - [solve_flat]: assemble the full (d+1)n system, reverse row and
     column order — which turns block *lower* Toeplitz into block
     *upper* triangular — and run the paper's tiled accelerated back
     substitution (Algorithm 1) on the simulated device.  This is
     exactly the consumer the paper built its solver for. *)

open Mdlinalg

module Make (K : Scalar.S) = struct
  module M = Mat.Make (K)
  module V = Vec.Make (K)
  module Ser = Series.Make (K)
  module Lu = Lu.Make (K)
  module Tri = Host_tri.Make (K)
  module Bs = Lsq_core.Tiled_back_sub.Make (K)

  (* A matrix series (the blocks) and a vector series (stacked rhs). *)
  type mat_series = M.t array
  type vec_series = V.t array

  let block_dim (j : mat_series) = M.rows j.(0)

  (* Apply the matrix series to a vector series (truncated product);
     useful to verify solutions. *)
  let apply (j : mat_series) (x : vec_series) : vec_series =
    let d = min (Array.length j) (Array.length x) - 1 in
    Array.init (d + 1) (fun k ->
        let acc = ref (V.create (block_dim j)) in
        for i = 0 to k do
          let t = M.matvec j.(i) x.(k - i) in
          acc := V.add !acc t
        done;
        !acc)

  (* Order-by-order solve with one LU factorization of the diagonal
     block: J_0 x_k = b_k - sum_{i=1..k} J_i x_{k-i}. *)
  let solve_recursive (j : mat_series) (b : vec_series) : vec_series =
    let d = Array.length b - 1 in
    let n = block_dim j in
    let lu, perm = Lu.factor j.(0) in
    let lower = Lu.lower_of lu and upper = Lu.upper_of lu in
    let solve0 rhs =
      let pb = V.init n (fun i -> rhs.(perm.(i))) in
      Tri.back_substitute upper (Tri.forward_substitute lower pb)
    in
    let x = Array.make (d + 1) (V.create 0) in
    for k = 0 to d do
      let rhs = ref (V.copy b.(k)) in
      for i = 1 to min k (Array.length j - 1) do
        rhs := V.sub !rhs (M.matvec j.(i) x.(k - i))
      done;
      x.(k) <- solve0 !rhs
    done;
    x

  (* Assemble the flat (d+1)n x (d+1)n block lower Toeplitz matrix. *)
  let flatten (j : mat_series) ~degree : M.t =
    let n = block_dim j in
    let dim = (degree + 1) * n in
    M.init dim dim (fun r c ->
        let br = r / n and bc = c / n in
        if br < bc then K.zero
        else begin
          let k = br - bc in
          if k >= Array.length j then K.zero
          else M.get j.(k) (r mod n) (c mod n)
        end)

  (* Reversing the *block* order (keeping the layout inside each block)
     turns block lower Toeplitz into block upper Toeplitz with the same
     diagonal blocks: U_{bi,bj} = J_{bj-bi}. *)
  let block_reversed ~n (m : M.t) : M.t =
    let dim = M.rows m in
    let nb = dim / n in
    let flip r = (((nb - 1 - (r / n)) * n) + (r mod n)) in
    M.init dim dim (fun r c -> M.get m (flip r) (flip c))

  (* Solve the flat reversed system with Algorithm 1 on the simulated
     device.  Reversal only yields a genuinely (not just block) upper
     triangular matrix when the diagonal blocks J_0 are themselves
     upper triangular — e.g. after the QR preprocessing of
     [solve_device] — so that is the precondition here.  The tile size
     must divide (d+1)n; the block dimension n is the natural choice. *)
  let solve_flat (sim : Gpusim.Sim.t) ?tile (j : mat_series)
      (b : vec_series) : vec_series =
    let d = Array.length b - 1 in
    let n = block_dim j in
    (let j0 = j.(0) in
     for r = 1 to n - 1 do
       for c = 0 to r - 1 do
         if not (K.is_zero (M.get j0 r c)) then
           invalid_arg "Block_toeplitz.solve_flat: J_0 must be upper triangular"
       done
     done);
    let dim = (d + 1) * n in
    let tile = match tile with Some t -> t | None -> n in
    let l = flatten j ~degree:d in
    let u = block_reversed ~n l in
    let rhs = Array.init dim (fun i -> b.(d - (i / n)).(i mod n)) in
    let x = Bs.solve sim u rhs ~tile in
    Array.init (d + 1) (fun k -> Array.init n (fun i -> x.(((d - k) * n) + i)))

  (* The paper's pipeline for a general (nonsingular) diagonal block:
     factor J_0 = Q R once with the blocked accelerated Householder QR
     (Algorithm 2), then every series order becomes one upper triangular
     system solved with the flat Algorithm-1 path above:

       J(t) x(t) = b(t)   <=>   (Q^H J(t)) x(t) = Q^H b(t),

     whose diagonal blocks Q^H J_0 = R are upper triangular. *)
  let solve_device ~(qr : Gpusim.Sim.t) ~(bs : Gpusim.Sim.t) ?tile
      (j : mat_series) (b : vec_series) : vec_series =
    let module Qr = Lsq_core.Blocked_qr.Make (K) in
    let n = block_dim j in
    let tile_qr = match tile with Some t -> t | None -> n in
    let q, r = Qr.factor qr j.(0) ~tile:tile_qr in
    let qh = M.adjoint q in
    let j' = Array.mapi (fun k jk -> if k = 0 then r else M.matmul qh jk) j in
    let b' = Array.map (fun bk -> M.matvec qh bk) b in
    solve_flat bs ?tile j' b'

  (* Newton's method for vector power series: given the residual and the
     Jacobian of a square polynomial system as series functions, double
     the number of correct orders per iteration ([3], Gauss-Newton with a
     square Jacobian).  [x0] must solve the order-zero system. *)
  let newton ~degree ~(residual : vec_series -> vec_series)
      ~(jacobian : vec_series -> mat_series) ~(x0 : V.t) ~iterations :
      vec_series =
    let n = Array.length x0 in
    let x =
      ref
        (Array.init (degree + 1) (fun k ->
             if k = 0 then V.copy x0 else V.create n))
    in
    for _ = 1 to iterations do
      let r = residual !x in
      let j = jacobian !x in
      let dx = solve_recursive j (Array.map V.neg r) in
      x := Array.mapi (fun k xk -> V.add xk dx.(k)) !x
    done;
    !x
end
