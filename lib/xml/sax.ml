module Limits = Xks_robust.Limits
module Failpoint = Xks_robust.Failpoint

exception Error of { line : int; col : int; message : string }

type handler = {
  on_start : string -> (string * string) list -> unit;
  on_end : string -> string -> int -> int -> unit;
}

let handler ?(on_start = fun _ _ -> ()) ?(on_end = fun _ _ _ _ -> ()) () =
  { on_start; on_end }

(* The text of the open elements lives in one buffer: an element's
   copied pieces follow its mark ([parse_content]'s [mark]), and its end
   tag truncates the buffer back to the mark, so the parent's later
   pieces land right after its earlier ones.  Until an element has a
   second piece, its first stays in the input: [runs] is 0 (no text
   yet), 1 (one piece, [src.[solo_off .. solo_off + solo_len - 1]]) or
   2 (the pieces are in the buffer after the mark). *)
type state = {
  src : string;
  mutable pos : int;
  limits : Limits.t;
  mutable n_nodes : int;  (* elements started so far *)
  mutable n_text : int;  (* decoded text/attribute/entity bytes so far *)
  mutable depth : int;  (* current element nesting depth *)
  mutable text : Bytes.t;
  mutable text_len : int;
  mutable runs : int;  (* of the innermost open element, see above *)
  mutable solo_off : int;
  mutable solo_len : int;
  attr : Buffer.t;  (* decodes attribute values that hold references *)
}

(* Positions are computed only when raising: the line is one plus the
   newlines before [pos], the column counts from the last of them. *)
let position st =
  let line = ref 1 and bol = ref 0 in
  for i = 0 to st.pos - 1 do
    if Char.equal (String.unsafe_get st.src i) '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  (!line, st.pos - !bol + 1)

let fail st message =
  let line, col = position st in
  raise (Error { line; col; message })

let limit_fail st limit value max =
  let line, col = position st in
  Limits.exceeded ~line ~col ~limit ~value ~max

let charge_text st n =
  st.n_text <- st.n_text + n;
  if st.n_text > st.limits.Limits.max_text_bytes then
    limit_fail st "max_text_bytes" st.n_text st.limits.Limits.max_text_bytes

(* Charge the [len] bytes at [start] as if one at a time: crossing the
   cap fails at the crossing byte, plus [past] when its caller had
   consumed the byte before charging it. *)
let charge_run st start len past =
  let max = st.limits.Limits.max_text_bytes in
  if st.n_text + len > max then begin
    st.pos <- start + (max - st.n_text) + past;
    limit_fail st "max_text_bytes" (max + 1) max
  end;
  st.n_text <- st.n_text + len

let eof st = st.pos >= String.length st.src
let peek st = String.unsafe_get st.src st.pos

let next st =
  if eof st then fail st "unexpected end of input";
  let c = peek st in
  st.pos <- st.pos + 1;
  c

let expect st c =
  let g = next st in
  if not (Char.equal g c) then fail st (Printf.sprintf "expected %C, got %C" c g)

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_space st =
  while (not (eof st)) && is_space (peek st) do
    st.pos <- st.pos + 1
  done

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'
  || Char.code c >= 128

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let parse_name st =
  if eof st || not (is_name_start (peek st)) then fail st "expected a name";
  let start = st.pos in
  while (not (eof st)) && is_name_char (peek st) do
    st.pos <- st.pos + 1
  done;
  String.sub st.src start (st.pos - start)

(* [s] occurs in [src] at [off] (which leaves room for it). *)
let rec occurs_at src off s i =
  i = String.length s
  || Char.equal (String.unsafe_get src (off + i)) (String.unsafe_get s i)
     && occurs_at src off s (i + 1)

let looking_at st s =
  st.pos + String.length s <= String.length st.src && occurs_at st.src st.pos s 0

(* Decode a reference after the '&' has been consumed.  Every expansion
   is one byte. *)
let parse_reference st =
  let src = st.src in
  let start = st.pos in
  let semi = ref start in
  while !semi < String.length src && not (Char.equal src.[!semi] ';') do
    incr semi
  done;
  if !semi >= String.length src then begin
    st.pos <- String.length src;
    fail st "unterminated entity reference"
  end;
  let len = !semi - start in
  st.pos <- !semi + 1;
  let named s = len = String.length s && occurs_at src start s 0 in
  if named "amp" then '&'
  else if named "lt" then '<'
  else if named "gt" then '>'
  else if named "quot" then '"'
  else if named "apos" then '\''
  else
    let body = String.sub src start len in
    let code =
      if len > 1 && Char.equal body.[0] '#' then
        let digits = String.sub body 1 (len - 1) in
        if String.length digits > 0 && (digits.[0] = 'x' || digits.[0] = 'X')
        then
          int_of_string_opt ("0x" ^ String.sub digits 1 (String.length digits - 1))
        else int_of_string_opt digits
      else None
    in
    match code with
    | Some c when c >= 0 && c < 128 -> Char.chr c
    | Some _ -> '?' (* non-ASCII references degrade to a placeholder *)
    | None -> fail st (Printf.sprintf "unknown entity &%s;" body)

(* First index at or after [i] holding [a] or [b], or the end. *)
let rec scan_to src i a b =
  if i < String.length src then
    let c = String.unsafe_get src i in
    if Char.equal c a || Char.equal c b then i else scan_to src (i + 1) a b
  else i

(* An attribute value.  Its bytes are charged after they are consumed,
   so a crossing fails one byte later than in character data. *)
let parse_attr_value st =
  let quote = next st in
  if not (Char.equal quote '"' || Char.equal quote '\'') then
    fail st "expected a quoted value";
  let src = st.src in
  let start = st.pos in
  let stop = scan_to src start quote '&' in
  charge_run st start (stop - start) 1;
  st.pos <- stop;
  if Char.equal (next st) quote then String.sub src start (stop - start)
  else begin
    let buf = st.attr in
    Buffer.clear buf;
    Buffer.add_substring buf src start (stop - start);
    let fin = ref false in
    while not !fin do
      (* The last byte consumed was a '&'. *)
      Buffer.add_char buf (parse_reference st);
      charge_text st 1;
      let start = st.pos in
      let stop = scan_to src start quote '&' in
      charge_run st start (stop - start) 1;
      Buffer.add_substring buf src start (stop - start);
      st.pos <- stop;
      fin := Char.equal (next st) quote
    done;
    Buffer.contents buf
  end

let parse_attrs st =
  let rec loop n acc =
    skip_space st;
    if eof st then fail st "unterminated tag"
    else
      match peek st with
      | '>' | '/' | '?' -> List.rev acc
      | _ ->
          if n + 1 > st.limits.Limits.max_attrs then
            limit_fail st "max_attrs" (n + 1) st.limits.Limits.max_attrs;
          let name = parse_name st in
          skip_space st;
          expect st '=';
          skip_space st;
          let value = parse_attr_value st in
          loop (n + 1) ((name, value) :: acc)
  in
  loop 0 []

(* The first index at or after [p] where [s] occurs in full, or -1. *)
let rec find src s p =
  if p > String.length src - String.length s then -1
  else if occurs_at src p s 0 then p
  else find src s (p + 1)

let skip_until st stop =
  let p = find st.src stop st.pos in
  if p < 0 then begin
    st.pos <- Int.max st.pos (String.length st.src - String.length stop + 1);
    fail st ("unterminated " ^ stop)
  end;
  st.pos <- p + String.length stop

(* Consume [s], which [looking_at] has just seen. *)
let skip st s = st.pos <- st.pos + String.length s

let skip_doctype st =
  let depth = ref 1 in
  while !depth > 0 do
    match next st with
    | '<' -> incr depth
    | '>' -> decr depth
    | '[' ->
        let bd = ref 1 in
        while !bd > 0 do
          match next st with
          | '[' -> incr bd
          | ']' -> decr bd
          | _ -> ()
        done
    | _ -> ()
  done

(* After "</": the closing name, compared in place with the open one. *)
let close_name st name =
  let src = st.src and p = st.pos and n = String.length name in
  if
    p + n <= String.length src
    && occurs_at src p name 0
    && (p + n = String.length src || not (is_name_char src.[p + n]))
  then st.pos <- p + n
  else
    let closing = parse_name st in
    fail st
      (Printf.sprintf "mismatched closing tag </%s> for <%s>" closing name)

let reserve st n =
  let need = st.text_len + n in
  if need > Bytes.length st.text then begin
    let grown = Bytes.create (Int.max need (2 * Bytes.length st.text)) in
    Bytes.blit st.text 0 grown 0 st.text_len;
    st.text <- grown
  end

let append st s off len =
  reserve st len;
  Bytes.blit_string s off st.text st.text_len len;
  st.text_len <- st.text_len + len

(* The innermost element's pieces move to the buffer from their second
   on; the first is copied out of the input only then. *)
let add_piece st off len =
  if len > 0 then
    match st.runs with
    | 0 ->
        st.runs <- 1;
        st.solo_off <- off;
        st.solo_len <- len
    | 1 ->
        append st st.src st.solo_off st.solo_len;
        append st st.src off len;
        st.runs <- 2
    | _ -> append st st.src off len

let add_byte st c =
  if st.runs = 1 then append st st.src st.solo_off st.solo_len;
  st.runs <- 2;
  reserve st 1;
  Bytes.unsafe_set st.text st.text_len c;
  st.text_len <- st.text_len + 1

(* Element content after the opening tag; recursion depth mirrors
   element depth, as in the DOM parser. *)
let rec parse_content h st name =
  let src = st.src in
  let mark = st.text_len in
  st.runs <- 0;
  let fin = ref false in
  while not !fin do
    if eof st then fail st (Printf.sprintf "unterminated element <%s>" name);
    let c = peek st in
    if Char.equal c '<' then begin
      st.pos <- st.pos + 1;
      if eof st then fail st "dangling '<'"
      else if Char.equal (peek st) '/' then begin
        st.pos <- st.pos + 1;
        close_name st name;
        skip_space st;
        expect st '>';
        (match st.runs with
        | 0 -> h.on_end name "" 0 0
        | 1 -> h.on_end name src st.solo_off st.solo_len
        | _ ->
            h.on_end name (Bytes.unsafe_to_string st.text) mark
              (st.text_len - mark));
        st.text_len <- mark;
        fin := true
      end
      else if looking_at st "!--" then begin
        skip st "!--";
        skip_until st "-->"
      end
      else if looking_at st "![CDATA[" then begin
        skip st "![CDATA[";
        let start = st.pos in
        let p = find src "]]>" start in
        if p < 0 then begin
          st.pos <- String.length src;
          fail st "unterminated CDATA section"
        end;
        st.pos <- p;
        charge_text st (p - start);
        add_piece st start (p - start);
        skip st "]]>"
      end
      else if Char.equal (peek st) '?' then begin
        st.pos <- st.pos + 1;
        skip_until st "?>"
      end
      else begin
        let runs = st.runs and solo_off = st.solo_off and solo_len = st.solo_len in
        parse_element h st;
        st.runs <- runs;
        st.solo_off <- solo_off;
        st.solo_len <- solo_len
      end
    end
    else if Char.equal c '&' then begin
      st.pos <- st.pos + 1;
      let c = parse_reference st in
      charge_text st 1;
      add_byte st c
    end
    else begin
      let start = st.pos in
      let stop = scan_to src start '<' '&' in
      charge_run st start (stop - start) 0;
      st.pos <- stop;
      add_piece st start (stop - start)
    end
  done

(* An element whose '<' has been consumed. *)
and parse_element h st =
  st.n_nodes <- st.n_nodes + 1;
  if st.n_nodes > st.limits.Limits.max_nodes then
    limit_fail st "max_nodes" st.n_nodes st.limits.Limits.max_nodes;
  st.depth <- st.depth + 1;
  if st.depth > st.limits.Limits.max_depth then
    limit_fail st "max_depth" st.depth st.limits.Limits.max_depth;
  let name = parse_name st in
  let attrs = parse_attrs st in
  if eof st then fail st "unterminated tag";
  (match next st with
  | '/' ->
      expect st '>';
      h.on_start name attrs;
      h.on_end name "" 0 0
  | '>' ->
      h.on_start name attrs;
      parse_content h st name
  | c -> fail st (Printf.sprintf "unexpected %C in tag" c));
  st.depth <- st.depth - 1

let parse_prolog st =
  let rec loop () =
    skip_space st;
    if eof st then fail st "no root element"
    else if looking_at st "<?" then begin
      skip st "<?";
      skip_until st "?>";
      loop ()
    end
    else if looking_at st "<!--" then begin
      skip st "<!--";
      skip_until st "-->";
      loop ()
    end
    else if looking_at st "<!DOCTYPE" then begin
      skip st "<!";
      skip_doctype st;
      loop ()
    end
    else if Char.equal (peek st) '<' then st.pos <- st.pos + 1
    else fail st "expected '<'"
  in
  loop ()

let parse_string ?(limits = Limits.default) h src =
  let st =
    { src; pos = 0; limits; n_nodes = 0; n_text = 0; depth = 0;
      text = Bytes.create 256; text_len = 0; runs = 0; solo_off = 0;
      solo_len = 0; attr = Buffer.create 16 }
  in
  parse_prolog st;
  parse_element h st;
  let rec epilogue () =
    skip_space st;
    if not (eof st) then
      if looking_at st "<!--" then begin
        skip st "<!--";
        skip_until st "-->";
        epilogue ()
      end
      else if looking_at st "<?" then begin
        skip st "<?";
        skip_until st "?>";
        epilogue ()
      end
      else fail st "content after the root element"
  in
  epilogue ()

let read_site = "sax.read"

let parse_file ?limits h path =
  parse_string ?limits h (Failpoint.read_file ~site:read_site path)

let error_to_string = function
  | Error { line; col; message } ->
      Some
        (Printf.sprintf "XML parse error at line %d, column %d: %s" line col
           message)
  | _ -> None
