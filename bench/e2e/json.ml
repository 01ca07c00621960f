(** Minimal JSON values: enough to read [BENCHMARK.json], hlid's
    telemetry object and this benchmark's own artifacts, and to write
    the latter.  The project has no JSON dependency; output is checked
    with {!Harness.Telemetry.validate_json} by the tests. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        ws ()
    | _ -> ()
  in
  let expect c =
    ws ();
    if peek () = c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then fail "short \\u escape";
              (match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
              | Some u when Uchar.is_valid u ->
                  Buffer.add_utf_8_uchar b (Uchar.of_int u)
              | _ -> fail "bad \\u escape");
              pos := !pos + 4
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let lit word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (
      pos := !pos + l;
      v)
    else fail ("expected " ^ word)
  in
  let num () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f when !pos > start -> Num f
    | _ -> fail "bad number"
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr pos;
        ws ();
        if peek () = '}' then (
          incr pos;
          Obj [])
        else Obj (members [])
    | '[' ->
        incr pos;
        ws ();
        if peek () = ']' then (
          incr pos;
          Arr [])
        else Arr (elems [])
    | '"' -> Str (str ())
    | 't' -> lit "true" (Bool true)
    | 'f' -> lit "false" (Bool false)
    | 'n' -> lit "null" Null
    | _ -> num ()
  and members acc =
    let k = str () in
    expect ':';
    let acc = (k, value ()) :: acc in
    ws ();
    match peek () with
    | ',' ->
        incr pos;
        members acc
    | '}' ->
        incr pos;
        List.rev acc
    | _ -> fail "expected ',' or '}'"
  and elems acc =
    let acc = value () :: acc in
    ws ();
    match peek () with
    | ',' ->
        incr pos;
        elems acc
    | ']' ->
        incr pos;
        List.rev acc
    | _ -> fail "expected ',' or ']'"
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* Shortest decimal form that reads back as the same float, so
   measured values keep all their digits without printing noise. *)
let num_to_string f =
  if not (Float.is_finite f) then raise (Error "non-finite number")
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num f -> Buffer.add_string b (num_to_string f)
  | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (Harness.Telemetry.json_escape s);
      Buffer.add_char b '"'
  | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          to_buffer b v)
        l;
      Buffer.add_char b ']'
  | Obj l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          to_buffer b (Str k);
          Buffer.add_char b ':';
          to_buffer b v)
        l;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

(** {2 Accessors} — raise {!Error} naming the missing key or the
    mismatched type. *)

let member k = function
  | Obj l -> (
      match List.assoc_opt k l with
      | Some v -> v
      | None -> raise (Error ("missing key " ^ k)))
  | _ -> raise (Error ("not an object looking up " ^ k))

let to_num = function Num f -> f | _ -> raise (Error "expected a number")
let to_str = function Str s -> s | _ -> raise (Error "expected a string")
let to_list = function Arr l -> l | _ -> raise (Error "expected an array")
let to_bool = function Bool b -> b | _ -> raise (Error "expected a boolean")

(** [path ["a"; "b"] j] is [j.a.b]. *)
let path keys j = List.fold_left (fun j k -> member k j) j keys

let read_file path = parse (In_channel.with_open_bin path In_channel.input_all)
