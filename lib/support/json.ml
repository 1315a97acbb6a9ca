(* The shared hand-rolled JSON emitter (no dependency): the only subtle
   parts are string escaping and float formatting, both below. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

(* Append the quoted, escaped literal to [buf], with no temporary string:
   [to_string] writes every string of a reply through here. *)
let add_escaped buf s =
  Buffer.add_char buf '"';
  for k = 0 to String.length s - 1 do
    match s.[k] with
    | '"' -> Buffer.add_string buf "\\\""
    | '\\' -> Buffer.add_string buf "\\\\"
    | '\n' -> Buffer.add_string buf "\\n"
    | '\r' -> Buffer.add_string buf "\\r"
    | '\t' -> Buffer.add_string buf "\\t"
    | c when Char.code c < 0x20 ->
      Buffer.add_string buf "\\u00";
      Buffer.add_char buf (if Char.code c < 0x10 then '0' else '1');
      Buffer.add_char buf "0123456789abcdef".[Char.code c land 15]
    | c -> Buffer.add_char buf c
  done;
  Buffer.add_char buf '"'

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  add_escaped buf s;
  Buffer.contents buf

(* JSON has no NaN/Infinity; also "%.17g" can print "1e+3" style
   exponents, which are fine, but never a leading '.' or trailing '.'
   without digits — normalize "1." to "1.0".  An integral float from
   1e15 up to 1e17 prints under "%.17g" as bare digits, which would read
   back as an int: it gets a ".0" too. *)
let float_repr x =
  if Float.is_nan x then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.1f" x
  else if x = Float.infinity then "1e999"
  else if x = Float.neg_infinity then "-1e999"
  else
    let s = Printf.sprintf "%.17g" x in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let to_buffer ?(minify = false) buf (j : t) =
  let pad depth =
    if not minify then
      for _ = 1 to depth do
        Buffer.add_string buf "  "
      done
  in
  let nl () = if not minify then Buffer.add_char buf '\n' in
  let rec go depth j =
    match j with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int n -> Textbuf.add_int buf n
    | Float x -> Buffer.add_string buf (float_repr x)
    | String s -> add_escaped buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_char buf '[';
      nl ();
      List.iteri
        (fun k item ->
          if k > 0 then begin Buffer.add_char buf ','; nl () end;
          pad (depth + 1);
          go (depth + 1) item)
        items;
      nl ();
      pad depth;
      Buffer.add_char buf ']'
    | Assoc [] -> Buffer.add_string buf "{}"
    | Assoc fields ->
      Buffer.add_char buf '{';
      nl ();
      List.iteri
        (fun k (key, v) ->
          if k > 0 then begin Buffer.add_char buf ','; nl () end;
          pad (depth + 1);
          add_escaped buf key;
          Buffer.add_string buf (if minify then ":" else ": ");
          go (depth + 1) v)
        fields;
      nl ();
      pad depth;
      Buffer.add_char buf '}'
  in
  go 0 j

let to_string ?minify (j : t) : string =
  let buf = Buffer.create 256 in
  to_buffer ?minify buf j;
  Buffer.contents buf

(* ------------------------------------------------------------- parser *)

(* A strict parser for the same grammar the emitter produces (plus the
   full standard escape set), added for the compile-service protocol:
   requests arrive as newline-delimited JSON and must round-trip through
   the same [t].  Errors are positions + messages, never exceptions —
   the service answers a malformed line with an error response rather
   than dying.  The test suite's independent parser in [test/harness.ml]
   deliberately stays separate so emitter bugs cannot hide behind this
   consumer. *)
let of_string (s : string) : (t, string) result =
  let pos = ref 0 in
  let len = String.length s in
  let exception Parse of string in
  let fail msg = raise (Parse (Printf.sprintf "at %d: %s" !pos msg)) in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    if
      !pos + String.length word <= len
      && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char buf '"'; advance ()
        | Some '\\' -> Buffer.add_char buf '\\'; advance ()
        | Some '/' -> Buffer.add_char buf '/'; advance ()
        | Some 'n' -> Buffer.add_char buf '\n'; advance ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance ()
        | Some 't' -> Buffer.add_char buf '\t'; advance ()
        | Some 'b' -> Buffer.add_char buf '\b'; advance ()
        | Some 'f' -> Buffer.add_char buf '\012'; advance ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > len then fail "truncated \\u escape";
          let code =
            match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
            | Some c -> c
            | None -> fail "bad \\u escape"
          in
          (* ASCII escapes decode; anything wider is preserved as UTF-8
             bytes would be — the emitter only escapes control chars *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else Buffer.add_string buf (String.sub s (!pos - 2) 6);
          pos := !pos + 4
        | _ -> fail "bad escape");
        go ()
      | Some c when Char.code c < 0x20 -> fail "raw control character in string"
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match int_of_string_opt text with
    | Some n -> Int n
    | None -> (
      match float_of_string_opt text with
      | Some x -> Float x
      | None -> fail ("bad number " ^ text))
  in
  let rec parse_value depth =
    if depth > 512 then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Assoc []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ((key, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((key, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Assoc (fields [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        List (items [])
      end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | _ -> fail "expected a value"
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> len then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse msg -> Error msg

(* -------------------------------------------------- object accessors *)

(* Tiny lookup helpers for protocol decoding: total, defaulting
   accessors over [Assoc] documents. *)

let member (key : string) (j : t) : t option =
  match j with Assoc fields -> List.assoc_opt key fields | _ -> None

let string_member ?default key j =
  match member key j with
  | Some (String s) -> Some s
  | Some _ -> None
  | None -> default

let int_member ?default key j =
  match member key j with
  | Some (Int n) -> Some n
  | Some _ -> None
  | None -> default

let bool_member ?default key j =
  match member key j with
  | Some (Bool b) -> Some b
  | Some _ -> None
  | None -> default
