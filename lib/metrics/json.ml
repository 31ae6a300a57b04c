(* Minimal JSON: just enough for trace exports and the BENCH_* files.
   No external dependency — the container policy forbids adding one. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- printing --- *)

(* The printer does plain string work: no [Printf], no closure per
   element and no [Buffer.add_char] per plain byte.  Its output is byte
   for byte that of the Printf-based printer it replaced (test_metrics
   keeps that printer as the reference of a differential property). *)

(* C's [%.6g], the conversion [Printf]'s [%g] itself calls, without the
   format machinery [Printf] runs around it on every call. *)
external format_float : string -> float -> string = "caml_format_float"

let hex_digits = "0123456789abcdef"

(* A byte is copied as is unless it is a quote, a backslash or a
   control character below 0x20. *)
let plain c = Char.code c >= 0x20 && c <> '"' && c <> '\\'

let escape_char buf c =
  match c with
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | c ->
      let code = Char.code c in
      Buffer.add_string buf "\\u00";
      Buffer.add_char buf hex_digits.[code lsr 4];
      Buffer.add_char buf hex_digits.[code land 0xf]

(* Copy each run of plain bytes with one [add_substring]; [from] is the
   start of the pending run.  A top-level loop, so a call allocates no
   closure. *)
let rec escape_from buf s from i =
  if i = String.length s then Buffer.add_substring buf s from (i - from)
  else if plain (String.unsafe_get s i) then escape_from buf s from (i + 1)
  else begin
    Buffer.add_substring buf s from (i - from);
    escape_char buf (String.unsafe_get s i);
    escape_from buf s (i + 1) (i + 1)
  end

let escape buf s = escape_from buf s 0 0

(* Decimal digits straight into the buffer.  The digits are taken from
   the non-positive [-|i|], which exists for every int, [min_int]
   included; [p] is the largest power of ten not above [|i|]. *)
let add_int buf i =
  let m = if i > 0 then -i else i in
  if i < 0 then Buffer.add_char buf '-';
  let p = ref 1 in
  while m / !p <= -10 do
    p := !p * 10
  done;
  while !p > 0 do
    Buffer.add_char buf (Char.unsafe_chr (48 - ((m / !p) mod 10)));
    p := !p / 10
  done

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f ->
      (* %.17g round-trips but is noisy; ms precision is plenty here.
         "1e+06" and "1.5" are valid JSON, and so is a bare "1" printed
         from a float. *)
      if Float.is_finite f then Buffer.add_string buf (format_float "%.6g" f)
      else Buffer.add_string buf "null"
  | String s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List (v :: tl) ->
      Buffer.add_char buf '[';
      emit buf v;
      emit_items buf tl;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj (field :: tl) ->
      Buffer.add_char buf '{';
      emit_field buf field;
      emit_fields buf tl;
      Buffer.add_char buf '}'

and emit_items buf = function
  | [] -> ()
  | v :: tl ->
      Buffer.add_char buf ',';
      emit buf v;
      emit_items buf tl

and emit_field buf (k, v) =
  Buffer.add_char buf '"';
  escape buf k;
  Buffer.add_string buf "\":";
  emit buf v

and emit_fields buf = function
  | [] -> ()
  | field :: tl ->
      Buffer.add_char buf ',';
      emit_field buf field;
      emit_fields buf tl

let to_string v =
  let buf = Buffer.create 256 in
  emit buf v;
  Buffer.contents buf

(* --- parsing --- *)

exception Parse_error of string

let fail pos msg = raise (Parse_error (Printf.sprintf "at offset %d: %s" pos msg))

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let at c = !pos < n && Char.equal s.[!pos] c in
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
    | _ -> fail !pos (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail !pos ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail !pos "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          if !pos >= n then fail !pos "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              if !pos + 4 >= n then fail !pos "truncated \\u escape";
              let hex = String.sub s (!pos + 1) 4 in
              let code =
                match int_of_string_opt ("0x" ^ hex) with
                | Some code -> code
                | None -> fail !pos "bad \\u escape"
              in
              pos := !pos + 4;
              (* Keep it simple: BMP code points as UTF-8. *)
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char buf
                  (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
          | c -> fail !pos (Printf.sprintf "bad escape '\\%c'" c));
          advance ();
          go ()
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    if String.exists (function '.' | 'e' | 'E' -> true | _ -> false) tok then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail start "bad number"
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> fail start "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail !pos "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if at ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while at ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if at '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while at ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail !pos "trailing garbage";
  v

(* --- accessors --- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None

let to_list = function
  | List l -> Some l
  | Null | Bool _ | Int _ | Float _ | String _ | Obj _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | Null | Bool _ | String _ | List _ | Obj _ -> None

let to_int = function
  | Int i -> Some i
  | Null | Bool _ | Float _ | String _ | List _ | Obj _ -> None

let to_str = function
  | String s -> Some s
  | Null | Bool _ | Int _ | Float _ | List _ | Obj _ -> None
