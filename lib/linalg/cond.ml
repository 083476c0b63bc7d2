(* Condition numbers — the quantity that decides how many limbs a
   computation needs.  Condition numbers of random triangular matrices
   grow exponentially with the dimension (Viswanath-Trefethen, [28] in
   the paper), which is why §4.1 generates its test systems through an LU
   factorization; these helpers make that effect measurable. *)

module Make (K : Scalar.S) = struct
  module M = Mat.Make (K)
  module V = Vec.Make (K)
  module Lu = Lu.Make (K)
  module Tri = Host_tri.Make (K)

  (* One-norm: the maximum absolute column sum. *)
  let one_norm (m : M.t) =
    let best = ref K.R.zero in
    for j = 0 to M.cols m - 1 do
      let s = ref K.R.zero in
      for i = 0 to M.rows m - 1 do
        s := K.R.add !s (K.abs (M.get m i j))
      done;
      if K.R.compare !s !best > 0 then best := !s
    done;
    !best

  (* Infinity-norm: the maximum absolute row sum. *)
  let inf_norm (m : M.t) =
    let best = ref K.R.zero in
    for i = 0 to M.rows m - 1 do
      let s = ref K.R.zero in
      for j = 0 to M.cols m - 1 do
        s := K.R.add !s (K.abs (M.get m i j))
      done;
      if K.R.compare !s !best > 0 then best := !s
    done;
    !best

  (* Explicit inverse through one LU factorization and n solves. *)
  let inverse (a : M.t) : M.t =
    let n = M.rows a in
    let lu, perm = Lu.factor a in
    let lower = Lu.lower_of lu and upper = Lu.upper_of lu in
    let inv = M.create n n in
    for k = 0 to n - 1 do
      let e = V.init n (fun i -> if perm.(i) = k then K.one else K.zero) in
      let col = Tri.back_substitute upper (Tri.forward_substitute lower e) in
      M.set_column inv k col
    done;
    inv

  (* kappa_1(A) = ||A||_1 ||A^-1||_1; raises [Lu.Singular] when A is. *)
  let cond1 (a : M.t) = K.R.mul (one_norm a) (one_norm (inverse a))

  (* kappa_inf. *)
  let cond_inf (a : M.t) = K.R.mul (inf_norm a) (inf_norm (inverse a))

  (* Digits of accuracy a residual-exact solve can lose: log10 kappa. *)
  let digits_at_risk (a : M.t) =
    Float.log10 (Float.max 1.0 (K.R.to_float (cond1 a)))
end

(* [Make (Scalar.D).cond1] on a row-major n-by-n float array, unboxed:
   the boxed path allocates a float per operation, which made it the
   costliest host step of the iterative engines' ladder estimate.  The
   operation sequence is the boxed one — pivots chosen by [Float.compare]
   on magnitudes, the same elimination, then per column of the inverse a
   forward substitution with the unit lower factor (dividing by its unit
   diagonal, as the boxed solve does) and a back substitution, and the
   product of the two one-norms — so the bits agree.  Where the boxed
   factorization raises [Singular] (a pivot magnitude that is zero, or
   NaN, which [is_zero] also takes for zero), this returns infinity. *)
let cond1_float ~n (a : float array) =
  if Array.length a <> n * n then invalid_arg "Cond.cond1_float: size";
  let one_norm (m : float array) =
    let best = ref 0.0 in
    for j = 0 to n - 1 do
      let s = ref 0.0 in
      for i = 0 to n - 1 do
        s := !s +. Float.abs m.((i * n) + j)
      done;
      if Float.compare !s !best > 0 then best := !s
    done;
    !best
  in
  let lu = Array.copy a in
  let perm = Array.init n Fun.id in
  let factor () =
    for k = 0 to n - 1 do
      let best = ref k and best_mag = ref (Float.abs lu.((k * n) + k)) in
      for i = k + 1 to n - 1 do
        let m = Float.abs lu.((i * n) + k) in
        if Float.compare m !best_mag > 0 then begin
          best := i;
          best_mag := m
        end
      done;
      if not (!best_mag > 0.0) then raise_notrace Exit;
      if !best <> k then begin
        for j = 0 to n - 1 do
          let t = lu.((k * n) + j) in
          lu.((k * n) + j) <- lu.((!best * n) + j);
          lu.((!best * n) + j) <- t
        done;
        let t = perm.(k) in
        perm.(k) <- perm.(!best);
        perm.(!best) <- t
      end;
      let pivot = lu.((k * n) + k) in
      for i = k + 1 to n - 1 do
        let m = lu.((i * n) + k) /. pivot in
        lu.((i * n) + k) <- m;
        for j = k + 1 to n - 1 do
          lu.((i * n) + j) <- lu.((i * n) + j) -. (m *. lu.((k * n) + j))
        done
      done
    done
  in
  match factor () with
  | exception Exit -> Float.infinity
  | () ->
      let inv = Array.make (n * n) 0.0 in
      let y = Array.make n 0.0 and x = Array.make n 0.0 in
      for k = 0 to n - 1 do
        for i = 0 to n - 1 do
          let s = ref (if perm.(i) = k then 1.0 else 0.0) in
          for j = 0 to i - 1 do
            s := !s -. (lu.((i * n) + j) *. y.(j))
          done;
          y.(i) <- !s /. 1.0
        done;
        for i = n - 1 downto 0 do
          let s = ref y.(i) in
          for j = i + 1 to n - 1 do
            s := !s -. (lu.((i * n) + j) *. x.(j))
          done;
          x.(i) <- !s /. lu.((i * n) + i)
        done;
        for i = 0 to n - 1 do
          inv.((i * n) + k) <- x.(i)
        done
      done;
      one_norm a *. one_norm inv
