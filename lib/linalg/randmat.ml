(* Test problems.  The random ones follow §4.1 of the paper: general
   matrices have uniform random entries; standalone upper triangular
   systems take the U factor of an LU factorization of a random dense
   matrix, since directly random triangular matrices are almost surely
   exponentially ill-conditioned [Viswanath-Trefethen].  The graded
   families (Hilbert, Vandermonde) step outside that regime. *)

module Make (K : Scalar.S) = struct
  module M = Mat.Make (K)
  module V = Vec.Make (K)
  module Lu = Lu.Make (K)

  let vector rng n = V.random rng n
  let matrix rng rows cols = M.random rng rows cols

  (* A random matrix plus [shift] on the diagonal: safely nonsingular. *)
  let shifted rng n ~shift =
    let a = matrix rng n n in
    M.init n n (fun i j ->
        if i = j then K.add (M.get a i j) (K.of_float shift) else M.get a i j)

  let hilbert n =
    M.init n n (fun i j ->
        K.of_real (K.R.div K.R.one (K.R.of_int (i + j + 1))))

  (* Powers 0 .. cols-1 of the points (i+1)/rows, one row per point. *)
  let vandermonde rows cols =
    M.init rows cols (fun i k ->
        let x = K.R.div (K.R.of_int (i + 1)) (K.R.of_int rows) in
        let rec pow acc e =
          if e = 0 then acc else pow (K.R.mul acc x) (e - 1)
        in
        K.of_real (pow K.R.one k))

  (* A directly random upper triangular matrix — kept as the
     ill-conditioned counterexample for the conditioning tests. *)
  let raw_upper rng n =
    M.init n n (fun i j -> if i <= j then K.random rng else K.zero)

  (* Well-conditioned random upper triangular matrix via LU. *)
  let upper rng n =
    let a = matrix rng n n in
    let lu, _ = Lu.factor a in
    Lu.upper_of lu

  (* A right-hand side with a known solution: returns (b, x) such that
     m x = b exactly up to working precision. *)
  let rhs_for rng (m : M.t) =
    let x = vector rng (M.cols m) in
    (M.matvec m x, x)
end
