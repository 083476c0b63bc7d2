(* Sample statistics of the ledger and the verdict rule of [perf diff].

   Quartiles follow Python's [statistics.quantiles(values, n=4)]
   (the default "exclusive" method), so a spread computed here matches
   the one an outside script computes from the same raw samples. *)

let sorted xs = List.sort Float.compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [(q1, q2, q3)]: cut points of the exclusive method with m = n + 1,
   the interpolation index clamped to [1, n - 1]. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quartiles: no samples"
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let cut i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (cut 1, cut 2, cut 3)

(* Interquartile distance as a share of the median. *)
let rel_iqr xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2

(* Nearest rank: the smallest sample with at least [p] percent of the
   samples at or below it. *)
let rank p n = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))

let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples"
  else a.(min n (rank p n) - 1)

(* A tail percentile is reported only with at least this many samples
   beyond it; fewer and the number is one or two unlucky samples. *)
let min_beyond = 10

let beyond p n = n - min n (rank p n)
let tail_ok p n = beyond p n >= min_beyond

let geomean xs =
  match xs with
  | [] -> invalid_arg "Stats.geomean: no samples"
  | _ ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
      /. float_of_int (List.length xs))

(* ---- the diff verdict ---- *)

type better = Lower | Higher

type verdict = Better | Worse | Unchanged | Unresolved | Changed

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"
  | Changed -> "CHANGED"

(* [verdict ~better ~bound old_runs new_runs] for a timed metric: worse
   or better when the medians differ by more than [bound] (a share of
   the old median); unresolved when either side's own spread is wider
   than the bound — unless every new run reads better than every old
   run.  Exact quantities (counts and modeled values) go through
   [exact_verdict] instead. *)
let verdict ~better ~bound olds news =
  let m_old = median olds and m_new = median news in
  let gain =
    (* positive = improvement, as a share of the old median *)
    match better with
    | Lower -> (m_old -. m_new) /. m_old
    | Higher -> (m_new -. m_old) /. m_old
  in
  let all_better =
    match better with
    | Lower -> List.for_all (fun n -> List.for_all (fun o -> n < o) olds) news
    | Higher -> List.for_all (fun n -> List.for_all (fun o -> n > o) olds) news
  in
  if rel_iqr olds > bound || rel_iqr news > bound then
    if all_better && gain > bound then Better else Unresolved
  else if gain < -.bound then Worse
  else if gain > bound then Better
  else Unchanged

let exact_verdict olds news =
  if List.sort_uniq Float.compare olds = List.sort_uniq Float.compare news then
    Unchanged
  else Changed

let is_regression = function Worse | Changed -> true | _ -> false

(* ---- self test ---- *)

(* The helpers above checked against hand-computed values (the
   quartiles against Python's statistics.quantiles). *)
let selftest () =
  let failures = ref [] in
  let check name ok = if not ok then failures := name :: !failures in
  let close a b = Float.abs (a -. b) < 1e-12 in
  let xs = [ 7.; 1.; 3.; 5.; 9.; 11.; 2.; 4.; 6.; 8. ] in
  check "median even" (close (median xs) 5.5);
  check "median odd" (close (median [ 3.; 1.; 2. ]) 2.0);
  (* statistics.quantiles([1..9, 11], n=4) = [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = quartiles xs in
  check "quartiles" (close q1 2.75 && close q2 5.5 && close q3 8.25);
  (* statistics.quantiles([1, 2, 4], n=4) = [1.0, 2.0, 4.0] *)
  let q1, q2, q3 = quartiles [ 4.; 1.; 2. ] in
  check "quartiles n=3" (close q1 1.0 && close q2 2.0 && close q3 4.0);
  let q1, _, q3 = quartiles [ 5. ] in
  check "quartiles n=1" (close q1 5.0 && close q3 5.0);
  let hundred = List.init 100 (fun i -> float_of_int (i + 1)) in
  check "p95 nearest rank" (close (percentile 95.0 hundred) 95.0);
  check "p50 nearest rank" (close (percentile 50.0 hundred) 50.0);
  check "p100" (close (percentile 100.0 hundred) 100.0);
  check "p95 of 200 has 10 beyond" (tail_ok 95.0 200);
  check "p95 of 199 lacks 10 beyond" (not (tail_ok 95.0 199));
  check "p95 of 100 lacks 10 beyond" (not (tail_ok 95.0 100));
  check "geomean" (close (geomean [ 2.; 8. ]) 4.0);
  let steady base = List.init 10 (fun i -> base *. (1.0 +. (0.001 *. float i))) in
  let v = verdict ~better:Lower ~bound:0.1 in
  check "unchanged" (v (steady 100.) (steady 104.) = Unchanged);
  check "worse" (v (steady 100.) (steady 115.) = Worse);
  check "better" (v (steady 100.) (steady 85.) = Better);
  check "higher-is-better worse"
    (verdict ~better:Higher ~bound:0.1 (steady 100.) (steady 85.) = Worse);
  let noisy = [ 60.; 80.; 100.; 120.; 140. ] in
  check "unresolved" (v noisy (steady 112.) = Unresolved);
  check "noisy but every run better" (v noisy (steady 40.) = Better);
  check "exact equal" (exact_verdict [ 3.; 3. ] [ 3. ] = Unchanged);
  check "exact changed" (exact_verdict [ 3. ] [ 4. ] = Changed);
  check "regressions" (is_regression Worse && is_regression Changed
                       && not (is_regression Unresolved));
  List.rev !failures
