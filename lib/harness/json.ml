type t =
  | Obj of (string * t) list
  | Arr of t list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

(* JSON string escapes. Bytes from 0x80 up pass through raw, so UTF-8
   text stays readable and round-trips; a printable ASCII string comes
   out exactly as OCaml's [%S] would write it. *)
let write_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec write buf = function
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          write_string buf k;
          Buffer.add_string buf ": ";
          write buf v)
        fields;
      Buffer.add_char buf '}'
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ", ";
          write buf v)
        items;
      Buffer.add_char buf ']'
  | Str s -> write_string buf s
  | Num f when not (Float.is_finite f) -> Buffer.add_string buf "null"
  | Num f ->
      (* Six significant digits, or every digit of a value that reads
         back as an integer, so that writing what was read reproduces
         the text. *)
      let short = Printf.sprintf "%.6g" f in
      let f = if Float.is_integer f then f else float_of_string short in
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.0f" f)
      else Buffer.add_string buf short
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Null -> Buffer.add_string buf "null"

let to_string j =
  let buf = Buffer.create 1024 in
  write buf j;
  Buffer.add_char buf '\n';
  Buffer.contents buf

exception Parse_error of string

let of_string text =
  let pos = ref 0 in
  let len = String.length text in
  let peek () = if !pos < len then text.[!pos] else '\000' in
  let advance () = incr pos in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws () | _ -> ()
  in
  let expect c = if peek () = c then advance () else fail (Printf.sprintf "expected %c" c) in
  let hex4 () =
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match peek () with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> fail "bad unicode escape"
      in
      v := (!v lsl 4) lor d;
      advance ()
    done;
    !v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          let c = peek () in
          advance ();
          (match c with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              let u = hex4 () in
              let u =
                if u >= 0xD800 && u <= 0xDBFF then begin
                  (* a high surrogate must pair with a low one *)
                  expect '\\';
                  expect 'u';
                  let lo = hex4 () in
                  if lo < 0xDC00 || lo > 0xDFFF then fail "bad surrogate pair";
                  0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
                end
                else if u >= 0xDC00 && u <= 0xDFFF then fail "lone low surrogate"
                else u
              in
              Buffer.add_utf_8_uchar buf (Uchar.of_int u)
          | ('"' | '\\' | '/') as c -> Buffer.add_char buf c
          | _ -> fail "bad escape");
          loop ()
      | '\000' -> fail "unterminated string"
      | c ->
          advance ();
          Buffer.add_char buf c;
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while is_num_char (peek ()) do advance () done;
    match float_of_string_opt (String.sub text start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let parse_literal lit value =
    if !pos + String.length lit <= len && String.sub text !pos (String.length lit) = lit
    then begin
      pos := !pos + String.length lit;
      value
    end
    else fail "bad literal"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin advance (); Obj [] end
        else begin
          let rec fields acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); fields ((key, v) :: acc)
            | '}' -> advance (); List.rev ((key, v) :: acc)
            | _ -> fail "expected , or }"
          in
          Obj (fields [])
        end
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin advance (); Arr [] end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); items (v :: acc)
            | ']' -> advance (); List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          Arr (items [])
        end
    | '"' -> Str (parse_string ())
    | 't' -> parse_literal "true" (Bool true)
    | 'f' -> parse_literal "false" (Bool false)
    | 'n' -> parse_literal "null" Null
    | _ -> Num (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing garbage";
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Arr _ | Str _ | Num _ | Bool _ | Null -> None

let to_num = function Num f -> Some f | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
