(* A minimal JSON value with a printer and a parser: the one codec for
   every JSON document the process writes or reads (reports, job and
   outcome lines, traces, log and telemetry lines).  Floats are printed
   with 17 significant digits so every finite float round-trips bit for
   bit. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

(* ---- printing ---- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  if not (Float.is_finite f) then fail "non-finite float %f has no JSON form" f;
  let s = Printf.sprintf "%.17g" f in
  (* Keep the number recognizably a float, so it parses back as one. *)
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
  else s ^ ".0"

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | Str s -> escape buf s
  | Arr vs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        write buf v)
      vs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf k;
        Buffer.add_char buf ':';
        write buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

let rec finite = function
  | Float f when not (Float.is_finite f) -> Float 0.0
  | Arr vs -> Arr (List.map finite vs)
  | Obj kvs -> Obj (List.map (fun (k, v) -> (k, finite v)) kvs)
  | v -> v

(* ---- parsing: recursive descent over the input string ---- *)

type state = { s : string; mutable pos : int }

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.s
    &&
    match st.s.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some d when d = c -> st.pos <- st.pos + 1
  | Some d -> fail "expected '%c' at offset %d, found '%c'" c st.pos d
  | None -> fail "expected '%c' at offset %d, found end of input" c st.pos

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.s
    && String.sub st.s st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail "malformed literal at offset %d" st.pos

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.s then fail "unterminated string";
    let c = st.s.[st.pos] in
    st.pos <- st.pos + 1;
    if c = '"' then Buffer.contents buf
    else if c = '\\' then begin
      (if st.pos >= String.length st.s then fail "unterminated escape";
       let e = st.s.[st.pos] in
       st.pos <- st.pos + 1;
       match e with
       | '"' -> Buffer.add_char buf '"'
       | '\\' -> Buffer.add_char buf '\\'
       | '/' -> Buffer.add_char buf '/'
       | 'n' -> Buffer.add_char buf '\n'
       | 'r' -> Buffer.add_char buf '\r'
       | 't' -> Buffer.add_char buf '\t'
       | 'b' -> Buffer.add_char buf '\b'
       | 'f' -> Buffer.add_char buf '\012'
       | 'u' ->
         if st.pos + 4 > String.length st.s then fail "truncated \\u escape";
         let hex = String.sub st.s st.pos 4 in
         st.pos <- st.pos + 4;
         let code =
           try int_of_string ("0x" ^ hex)
           with _ -> fail "malformed \\u escape '%s'" hex
         in
         (* Encode the code point as UTF-8 (surrogates land verbatim —
            our own output never emits them). *)
         if code < 0x80 then Buffer.add_char buf (Char.chr code)
         else if code < 0x800 then begin
           Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
           Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
         end
         else begin
           Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
           Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
           Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
         end
       | e -> fail "unknown escape '\\%c'" e);
      go ()
    end
    else begin
      Buffer.add_char buf c;
      go ()
    end
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_number_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    st.pos < String.length st.s && is_number_char st.s.[st.pos]
  do
    st.pos <- st.pos + 1
  done;
  let text = String.sub st.s start (st.pos - start) in
  if text = "" then fail "expected a value at offset %d" start;
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail "malformed number '%s'" text
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "malformed number '%s'" text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail "unexpected end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> Str (parse_string st)
  | Some '[' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some ']' then begin
      st.pos <- st.pos + 1;
      Arr []
    end
    else begin
      let items = ref [] in
      let rec go () =
        items := parse_value st :: !items;
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          go ()
        | Some ']' -> st.pos <- st.pos + 1
        | _ -> fail "expected ',' or ']' at offset %d" st.pos
      in
      go ();
      Arr (List.rev !items)
    end
  | Some '{' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some '}' then begin
      st.pos <- st.pos + 1;
      Obj []
    end
    else begin
      let items = ref [] in
      let rec go () =
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        items := (key, parse_value st) :: !items;
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          go ()
        | Some '}' -> st.pos <- st.pos + 1
        | _ -> fail "expected ',' or '}' at offset %d" st.pos
      in
      go ();
      Obj (List.rev !items)
    end
  | Some _ -> parse_number st

let of_string s =
  let st = { s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then
    fail "trailing garbage at offset %d" st.pos;
  v

(* ---- typed accessors ---- *)

let kind = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | Str _ -> "string"
  | Arr _ -> "array"
  | Obj _ -> "object"

let member key = function
  | Obj kvs -> ( match List.assoc_opt key kvs with Some v -> v | None -> Null)
  | v -> fail "expected an object for member '%s', found %s" key (kind v)

let get_string = function
  | Str s -> s
  | v -> fail "expected a string, found %s" (kind v)

let get_bool = function
  | Bool b -> b
  | v -> fail "expected a bool, found %s" (kind v)

let get_int = function
  | Int i -> i
  | v -> fail "expected an int, found %s" (kind v)

let get_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | v -> fail "expected a number, found %s" (kind v)

let get_list = function
  | Arr vs -> vs
  | v -> fail "expected an array, found %s" (kind v)

let to_option get = function Null -> None | v -> Some (get v)
