(* Host time by layer, read back from an exported trace: the kernel
   spans the simulator records (one per launch, named after its stage)
   nested inside the operation spans around each call — the bench's own
   [bench.*] spans in process, the engine's [attempt] spans in a served
   trace.  A stage's time is the sum of its kernel spans inside
   operations; what the operations spent outside any kernel span
   (staging, condition estimates, ladders, report assembly) is
   [outside_ms]. *)

module Json = Harness.Json

type span = { tid : int; ts : float; dur : float; name : string }

type t = {
  ops : int;  (** operation spans found *)
  op_ms : float;  (** their total duration *)
  stages : (string * float) list;  (** kernel ms by sanitized stage name *)
  outside_ms : float;  (** [op_ms] minus the kernel spans inside it *)
  stray_kernel_ms : float;  (** kernel spans outside every operation *)
  events : int;
}

(* Stage labels as metric-name segments. *)
let sanitize stage =
  match stage with
  | "Q*WY^T" -> "q_wyt"
  | "YWT*C" -> "ywt_c"
  | "compute W" -> "compute_w"
  | "Y*W^T" -> "y_wt"
  | "update R" -> "update_r"
  | "beta*R^T*v" -> "beta_rt_v"
  | "beta, v" -> "beta_v"
  | "Q + QWY" -> "q_plus_qwy"
  | "R + YWTC" -> "r_plus_ywtc"
  | "invert diagonal tiles" -> "invert_tiles"
  | "multiply with inverses" -> "multiply_inverses"
  | "back substitution" -> "back_substitution"
  | "apply Q^T to b" -> "apply_qt"
  | "Q^T*b" -> "qt_b"
  | "A*v" -> "av"
  | "A^T*v" -> "atv"
  | "ABFT check" -> "abft_check"
  | s ->
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | '0' .. '9' -> c
        | 'A' .. 'Z' -> Char.lowercase_ascii c
        | _ -> '_')
      s

(* The stage groups the ledger reports, each present in every workload:
   the products with the WY representation (Q*WY^T of the full
   factorization, Y*W^T — m x m in the thin one), the other QR stages
   that carry the executed factorization, back substitution as one
   group, and everything else. *)
let group = function
  | "q_wyt" | "y_wt" -> "wy_products"
  | ("ywt_c" | "compute_w" | "update_r" | "beta_rt_v") as s -> s
  | "invert_tiles" | "multiply_inverses" | "back_substitution" -> "bs"
  | _ -> "other"

let groups =
  [ "wy_products"; "ywt_c"; "compute_w"; "update_r"; "beta_rt_v"; "bs"; "other" ]

(* Calls [f] on each element of the export's "traceEvents" array,
   parsed one at a time: a traced paper table exports up to 130
   thousand events, too many to hold as one parsed document. *)
let iter_events text f =
  let key = "\"traceEvents\":[" in
  let n = String.length text and k = String.length key in
  let rec find i =
    if i + k > n then raise (Json.Error "trace: no traceEvents array")
    else if String.sub text i k = key then i + k
    else find (i + 1)
  in
  (* Index just past the object opening at [i], skipping strings. *)
  let rec close i depth in_str =
    if i >= n then raise (Json.Error "trace: unterminated event")
    else
      match (in_str, text.[i]) with
      | true, '\\' -> close (i + 2) depth true
      | true, '"' -> close (i + 1) depth false
      | true, _ -> close (i + 1) depth true
      | false, '"' -> close (i + 1) depth true
      | false, '{' -> close (i + 1) (depth + 1) false
      | false, '}' -> if depth = 1 then i + 1 else close (i + 1) (depth - 1) false
      | false, _ -> close (i + 1) depth false
  in
  let rec loop i =
    if i < n then
      match text.[i] with
      | ',' | ' ' | '\n' -> loop (i + 1)
      | '{' ->
        let j = close i 0 false in
        f (Json.of_string (String.sub text i (j - i)));
        loop j
      | _ -> ()
  in
  loop (find 0)

let of_export ~is_op text =
  let events = ref 0 in
  let ops = Hashtbl.create 8 and kernels = ref [] in
  iter_events text
    (fun e ->
      incr events;
      if Json.member "ph" e = Json.Str "X" then begin
        let cat = Json.get_string (Json.member "cat" e) in
        let s =
          {
            tid = Json.get_int (Json.member "tid" e);
            ts = Json.get_float (Json.member "ts" e);
            dur = Json.get_float (Json.member "dur" e);
            name = Json.get_string (Json.member "name" e);
          }
        in
        if is_op ~cat ~name:s.name then
          Hashtbl.replace ops s.tid
            (s :: Option.value ~default:[] (Hashtbl.find_opt ops s.tid))
        else if cat = "kernel" then kernels := s :: !kernels
      end);
  let ops_by_tid =
    Hashtbl.fold
      (fun tid l acc ->
        (tid, Array.of_list (List.sort (fun a b -> Float.compare a.ts b.ts) l))
        :: acc)
      ops []
  in
  (* The last operation on the kernel's domain starting at or before
     it, if it also ends after it. *)
  let container k =
    match List.assoc_opt k.tid ops_by_tid with
    | None -> None
    | Some a ->
      let rec search lo hi =
        if lo >= hi then lo - 1
        else
          let mid = (lo + hi) / 2 in
          if a.(mid).ts <= k.ts then search (mid + 1) hi else search lo mid
      in
      let i = search 0 (Array.length a) in
      if i >= 0 && k.ts +. k.dur <= a.(i).ts +. a.(i).dur then Some a.(i)
      else None
  in
  let by_stage = Hashtbl.create 32 in
  let inside = ref 0.0 and stray = ref 0.0 in
  List.iter
    (fun k ->
      match container k with
      | Some _ ->
        let s = sanitize k.name in
        Hashtbl.replace by_stage s
          ((Option.value ~default:0.0 (Hashtbl.find_opt by_stage s)) +. k.dur);
        inside := !inside +. k.dur
      | None -> stray := !stray +. k.dur)
    !kernels;
  let all_ops = List.concat_map (fun (_, a) -> Array.to_list a) ops_by_tid in
  let op_us = List.fold_left (fun acc o -> acc +. o.dur) 0.0 all_ops in
  {
    ops = List.length all_ops;
    op_ms = op_us /. 1000.0;
    stages =
      Hashtbl.fold (fun s us acc -> (s, us /. 1000.0) :: acc) by_stage []
      |> List.sort compare;
    outside_ms = (op_us -. !inside) /. 1000.0;
    stray_kernel_ms = !stray /. 1000.0;
    events = !events;
  }

(* Stage ms folded into the reported groups. *)
let grouped t =
  List.map
    (fun g ->
      ( g,
        List.fold_left
          (fun acc (s, ms) -> if group s = g then acc +. ms else acc)
          0.0 t.stages ))
    groups

let empty =
  { ops = 0; op_ms = 0.0; stages = []; outside_ms = 0.0; stray_kernel_ms = 0.0; events = 0 }

(* The split of two traces together. *)
let add a b =
  let stages =
    List.fold_left
      (fun acc (s, ms) ->
        (s, ms +. Option.value ~default:0.0 (List.assoc_opt s acc))
        :: List.remove_assoc s acc)
      a.stages b.stages
    |> List.sort compare
  in
  {
    ops = a.ops + b.ops;
    op_ms = a.op_ms +. b.op_ms;
    stages;
    outside_ms = a.outside_ms +. b.outside_ms;
    stray_kernel_ms = a.stray_kernel_ms +. b.stray_kernel_ms;
    events = a.events + b.events;
  }
