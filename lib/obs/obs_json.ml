(* Minimal JSON support for the observability layer: string quoting for
   the JSONL exporters, plus a small value type with a parser/printer so
   `peace bench-report` can read BENCH_RESULTS.json back without an
   external dependency. *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
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
  Buffer.contents buf

let str s = "\"" ^ escape s ^ "\""

(* --- a small JSON value type --- *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let num_to_string f =
  (* integers print without a fractional part so files stay readable *)
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

let rec to_string = function
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Num f -> num_to_string f
  | Str s -> str s
  | Arr items -> "[" ^ String.concat "," (List.map to_string items) ^ "]"
  | Obj fields ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> str k ^ ":" ^ to_string v) fields)
    ^ "}"

let results_document ~rev ~date rows =
  let row (name, unit_, value, better) =
    Obj
      [
        ("name", Str name);
        ("unit", Str unit_);
        ("value", Num value);
        ("better", Str better);
      ]
  in
  to_string
    (Obj
       [
         ("schema", Num 1.0);
         ("rev", Str rev);
         ("date", Str date);
         ("results", Arr (List.map row rows));
       ])
  ^ "\n"

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let to_float = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr items -> Some items | _ -> None

(* --- recursive-descent parser --- *)

exception Bad of string

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some text.[!pos] else None in
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
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub text !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail ("expected " ^ word)
  in
  let utf8_of_code buf code =
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else if code < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | None -> fail "unterminated escape"
        | Some c ->
          advance ();
          (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
            let read_hex4 () =
              if !pos + 4 > n then fail "truncated \\u escape";
              let hex = String.sub text !pos 4 in
              pos := !pos + 4;
              try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
            in
            let code = read_hex4 () in
            if code >= 0xD800 && code <= 0xDBFF
               && !pos + 2 <= n
               && text.[!pos] = '\\'
               && text.[!pos + 1] = 'u'
            then begin
              (* a high surrogate followed by another \u escape: combine
                 the pair into one supplementary-plane scalar *)
              let save = !pos in
              pos := !pos + 2;
              let low = read_hex4 () in
              if low >= 0xDC00 && low <= 0xDFFF then
                utf8_of_code buf
                  (0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00))
              else begin
                (* not a low surrogate: decode both independently *)
                pos := save;
                utf8_of_code buf code
              end
            end
            else utf8_of_code buf code
          | _ -> fail "unknown escape");
          loop ())
      | Some c ->
        advance ();
        Buffer.add_char buf c;
        loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let number_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> number_char c | None -> false) do
      advance ()
    done;
    if !pos = start then fail "expected a number";
    match float_of_string_opt (String.sub text start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
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
        Obj (fields [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
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
        Arr (items [])
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg
