(* The metric table of BENCHMARK.json: the one place metric names,
   units, directions and bounds are written down.  The runner emits
   exactly these metrics and [perf diff] judges with these bounds. *)

module Json = Harness.Json

type metric = {
  name : string;
  unit_ : string;
  better : Stats.better;
  bound : float option;  (** end-to-end metrics only *)
}

type t = {
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let metric j =
  {
    name = Json.get_string (Json.member "name" j);
    unit_ = Json.get_string (Json.member "unit" j);
    better =
      (match Json.get_string (Json.member "better" j) with
      | "lower" -> Stats.Lower
      | "higher" -> Stats.Higher
      | s -> raise (Json.Error ("better must be lower or higher, not " ^ s)));
    bound = Json.to_option Json.get_float (Json.member "bound" j);
  }

let load path =
  let j = Json.of_string (In_channel.with_open_bin path In_channel.input_all) in
  let list key f = List.map f (Json.get_list (Json.member key j)) in
  {
    workloads = list "workloads" (fun w -> Json.get_string (Json.member "name" w));
    end_to_end = list "end_to_end" metric;
    per_layer = list "per_layer" metric;
  }

let metrics t ~trace = if trace then t.per_layer else t.end_to_end
