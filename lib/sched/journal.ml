(* The write-ahead outcome journal behind [serve --journal].

   Record grammar, one JSON object per line:

     {"j":"intent","id":<job id>,"job":{...}}     job admitted
     {"j":"commit","id":<job id>,"line":"..."}    outcome rendered
     {"j":"reject","id":<job id>}                 admission refused

   The commit record stores the outcome line as a JSON *string* — not a
   nested object — so resume re-emits the exact bytes the crashed
   process would have written, without trusting a re-render to be
   byte-stable across versions.  Every append is flushed before the
   caller proceeds; the emit path calls [commit] before writing the
   line to the client, which gives exactly-once emission across a
   crash: a line either reached the journal (resume re-emits it and
   skips the job) or it did not (resume reruns the job).

   The reader never raises on content: a crash can tear the final
   append mid-line, so anything unparseable is skipped and counted. *)

module Json = Obs.Json

type t = { oc : out_channel; lock : Mutex.t }

let create path =
  (* A crash can tear the final append mid-line.  Terminate the torn
     tail before appending, or the first record of the resumed process
     would glue onto it and be lost with it. *)
  let torn_tail =
    Sys.file_exists path
    &&
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let torn =
      len > 0
      &&
      (seek_in ic (len - 1);
       input_char ic <> '\n')
    in
    close_in ic;
    torn
  in
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
  in
  if torn_tail then begin
    output_char oc '\n';
    flush oc
  end;
  { oc; lock = Mutex.create () }

let append t json =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      output_string t.oc (Json.to_string json);
      output_char t.oc '\n';
      flush t.oc)

let intent t (job : Job.t) =
  append t
    (Json.Obj
       [
         ("j", Json.Str "intent");
         ("id", Json.Str job.Job.id);
         ("job", Job.to_json job);
       ])

let commit t ~job_id ~line =
  append t
    (Json.Obj
       [
         ("j", Json.Str "commit");
         ("id", Json.Str job_id);
         ("line", Json.Str line);
       ])

let reject t ~job_id =
  append t (Json.Obj [ ("j", Json.Str "reject"); ("id", Json.Str job_id) ])

let close t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () -> close_out t.oc)

type replay = {
  committed : (string * string) list;
  pending : Job.t list;
  malformed : int;
}

type record =
  | Intent of string * Job.t
  | Commit of string * string
  | Reject of string

let record_of_line line =
  let j = Json.of_string line in
  let id = Json.get_string (Json.member "id" j) in
  match Json.get_string (Json.member "j" j) with
  | "intent" -> Intent (id, Job.of_json (Json.member "job" j))
  | "commit" -> Commit (id, Json.get_string (Json.member "line" j))
  | "reject" -> Reject id
  | k -> raise (Json.Error (Printf.sprintf "unknown journal record '%s'" k))

let replay path =
  if not (Sys.file_exists path) then
    { committed = []; pending = []; malformed = 0 }
  else begin
    let ic = open_in path in
    let intents = ref [] (* (id, job), reverse intent order *) in
    let commits = ref [] (* (id, line), reverse commit order *) in
    let settled : (string, unit) Hashtbl.t = Hashtbl.create 64 in
    let malformed = ref 0 in
    (try
       while true do
         let line = input_line ic in
         if String.trim line <> "" then
           match record_of_line line with
           | Intent (id, job) ->
               if not (List.mem_assoc id !intents) then
                 intents := (id, job) :: !intents
           | Commit (id, outcome_line) ->
               if not (Hashtbl.mem settled id) then begin
                 Hashtbl.replace settled id ();
                 commits := (id, outcome_line) :: !commits
               end
           | Reject id -> Hashtbl.replace settled id ()
           | exception (Json.Error _ | Invalid_argument _ | Failure _) ->
               (* A torn trailing append, or garbage: skip and count.
                  Lines after a tear still parse (appends are whole
                  lines), so keep reading. *)
               incr malformed
       done
     with End_of_file -> ());
    close_in ic;
    {
      committed = List.rev !commits;
      pending =
        List.rev !intents
        |> List.filter_map (fun (id, job) ->
               if Hashtbl.mem settled id then None else Some job);
      malformed = !malformed;
    }
  end
