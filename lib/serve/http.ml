(* Incremental HTTP/1.1 request parsing and response serialization —
   dependency-free, over plain strings.

   The reader accumulates raw bytes ([feed]) and yields at most one
   complete request per [next] call, so pipelined requests and torn
   reads (a request split across arbitrary [read] boundaries) both fall
   out of the same code path.  Every dimension of the head is capped
   with a positioned {!Xks_robust.Limits.Limit_exceeded} (PR 1's cap
   idiom): caps are enforced even while the head is still incomplete —
   a request line that never ends cannot grow the buffer past its cap.

   Deliberately out of scope (rejected as [Bad_request], never
   half-handled): chunked transfer encoding, HTTP/2, multiline header
   continuations, and protocol versions other than 1.0/1.1. *)

module Limits = Xks_robust.Limits

type limits = {
  max_request_line_bytes : int;
  max_header_bytes : int;
  max_headers : int;
  max_body_bytes : int;
}

let default_limits =
  {
    max_request_line_bytes = 8192;
    max_header_bytes = 32768;
    max_headers = 128;
    max_body_bytes = 65536;
  }

exception Bad_request of string

type request = {
  meth : string;
  target : string;
  path : string;
  params : (string * string) list;
  version : int;
  headers : (string * string) list;
  body : string;
}

type reader = { limits : limits; mutable pending : string }

let reader limits = { limits; pending = "" }

let feed r s =
  if String.length s > 0 then
    r.pending <- (if String.length r.pending = 0 then s else r.pending ^ s)

let pending_bytes r = String.length r.pending

(* First binding of [name], compared with [String.equal]. *)
let rec assoc name = function
  | [] -> None
  | (k, v) :: tl -> if String.equal k name then Some v else assoc name tl

let header req name = assoc (String.lowercase_ascii name) req.headers

(* --- scanning by index --- *)

(* The parser reads the buffered bytes in place: a line, a token or a
   parameter is a range [[a, b)] of the buffer, and only the strings
   the request record keeps are cut out of it. *)

(* The first index in [[i, stop)] holding [c], or [stop]. *)
let rec find_char s c i stop =
  if i >= stop || Char.equal (String.unsafe_get s i) c then i
  else find_char s c (i + 1) stop

(* [String.trim]'s whitespace. *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec trim_start s a b = if a < b && is_space s.[a] then trim_start s (a + 1) b else a
let rec trim_stop s a b = if b > a && is_space s.[b - 1] then trim_stop s a (b - 1) else b

(* [String.trim (String.sub s a (b - a))], cut once. *)
let trimmed s a b =
  let a = trim_start s a b in
  String.sub s a (trim_stop s a b - a)

(* [String.lowercase_ascii] of [trimmed s a b], cut once. *)
let lowercase_trimmed s a b =
  let a = trim_start s a b in
  let n = trim_stop s a b - a in
  let r = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set r i (Char.lowercase_ascii (String.unsafe_get s (a + i)))
  done;
  Bytes.unsafe_to_string r

(* Whether [s.[a + j ..]] continues with [lit.[j ..]]. *)
let rec same_from s a lit j =
  j = String.length lit || (Char.equal s.[a + j] lit.[j] && same_from s a lit (j + 1))

(* Whether [s.[a .. b)] equals [lit]. *)
let is_token s a b lit = b - a = String.length lit && same_from s a lit 0

(* --- percent decoding --- *)

let hex_val c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> raise (Bad_request "malformed percent-encoding")

let rec encoded ~plus_is_space s i stop =
  if i >= stop then false
  else
    match String.unsafe_get s i with
    | '%' -> true
    | '+' when plus_is_space -> true
    | _ -> encoded ~plus_is_space s (i + 1) stop

(* The decoded text of [s.[a .. stop)]: the range itself when it holds
   nothing to decode, so a plain path or parameter costs one cut and no
   buffer. *)
let percent_decode ~plus_is_space s a stop =
  if not (encoded ~plus_is_space s a stop) then
    if a = 0 && stop = String.length s then s else String.sub s a (stop - a)
  else begin
    let b = Buffer.create (stop - a) in
    let i = ref a in
    while !i < stop do
      (match s.[!i] with
      | '%' ->
          if !i + 2 >= stop then raise (Bad_request "malformed percent-encoding");
          Buffer.add_char b
            (Char.chr ((hex_val s.[!i + 1] lsl 4) lor hex_val s.[!i + 2]));
          i := !i + 2
      | '+' when plus_is_space -> Buffer.add_char b ' '
      | c -> Buffer.add_char b c);
      incr i
    done;
    Buffer.contents b
  end

(* The [&]-separated parameters of [s.[i .. stop)], empty ones
   skipped; a parameter without [=] has the empty value. *)
let rec parse_query s i stop =
  if i >= stop then []
  else
    let amp = find_char s '&' i stop in
    if amp = i then parse_query s (i + 1) stop
    else
      let eq = find_char s '=' i amp in
      let param =
        if eq = amp then (percent_decode ~plus_is_space:true s i amp, "")
        else
          ( percent_decode ~plus_is_space:true s i eq,
            percent_decode ~plus_is_space:true s (eq + 1) amp )
      in
      param :: parse_query s (amp + 1) stop

let split_target target =
  let n = String.length target in
  let q = find_char target '?' 0 n in
  ( percent_decode ~plus_is_space:false target 0 q,
    if q = n then [] else parse_query target (q + 1) n )

(* --- incremental head parsing --- *)

(* A line ends at '\n'; a trailing '\r' is stripped, so CRLF and bare
   LF are both accepted (robustness over strictness for the line
   terminator only).  [text_end s pos nl] is the end of the text of the
   line that starts at [pos] and whose '\n' is at [nl]. *)
let text_end s pos nl = if nl > pos && Char.equal s.[nl - 1] '\r' then nl - 1 else nl

let rec skip_spaces s i stop =
  if i < stop && Char.equal s.[i] ' ' then skip_spaces s (i + 1) stop else i

let rec token_end s i stop =
  if i < stop && not (Char.equal s.[i] ' ') then token_end s (i + 1) stop else i

(* The request line [s.[a .. stop)]: exactly three space-separated
   tokens (runs of spaces count as one separator), the last a supported
   protocol. *)
let parse_request_line s a stop =
  let malformed () = raise (Bad_request "malformed request line") in
  let m0 = skip_spaces s a stop in
  let m1 = token_end s m0 stop in
  let t0 = skip_spaces s m1 stop in
  let t1 = token_end s t0 stop in
  let v0 = skip_spaces s t1 stop in
  let v1 = token_end s v0 stop in
  if m0 = m1 || t0 = t1 || v0 = v1 || skip_spaces s v1 stop < stop then malformed ();
  let version =
    if is_token s v0 v1 "HTTP/1.1" then 1
    else if is_token s v0 v1 "HTTP/1.0" then 0
    else raise (Bad_request ("unsupported protocol: " ^ String.sub s v0 (v1 - v0)))
  in
  (String.sub s m0 (m1 - m0), String.sub s t0 (t1 - t0), version)

(* Skip blank line(s) between pipelined requests. *)
let rec skip_blank s len pos =
  let nl = find_char s '\n' pos len in
  if nl < len && text_end s pos nl = pos then skip_blank s len (nl + 1) else pos

(* The header lines of the head that starts at [start], from [pos] on:
   [`Done (headers, line_no, body_start)] once the blank line is in,
   else [`Incomplete].  The caps are checked on every line, and on the
   bytes already buffered while the head is incomplete. *)
let rec read_headers lim s len start acc count line_no pos =
  let head_bytes = pos - start in
  if head_bytes > lim.max_header_bytes then
    Limits.exceeded ~line:line_no ~col:0 ~limit:"max_header_bytes"
      ~value:head_bytes ~max:lim.max_header_bytes;
  let nl = find_char s '\n' pos len in
  if nl = len then begin
    (* Same incremental rule for a head that never ends. *)
    if len - start > lim.max_header_bytes then
      Limits.exceeded ~line:line_no ~col:0 ~limit:"max_header_bytes"
        ~value:(len - start) ~max:lim.max_header_bytes;
    `Incomplete
  end
  else
    let stop = text_end s pos nl in
    if stop = pos then `Done (List.rev acc, line_no, nl + 1)
    else begin
      if count + 1 > lim.max_headers then
        Limits.exceeded ~line:line_no ~col:0 ~limit:"max_headers"
          ~value:(count + 1) ~max:lim.max_headers;
      let colon = find_char s ':' pos stop in
      if colon = stop || colon = pos then
        raise (Bad_request "malformed header line");
      let name = lowercase_trimmed s pos colon in
      let value = trimmed s (colon + 1) stop in
      read_headers lim s len start ((name, value) :: acc) (count + 1)
        (line_no + 1) (nl + 1)
    end

let next r =
  let s = r.pending in
  let len = String.length s in
  let lim = r.limits in
  let start = skip_blank s len 0 in
  if start >= len then begin
    r.pending <- "";
    None
  end
  else
    let nl = find_char s '\n' start len in
    if nl = len then begin
      (* Unterminated request line: the cap applies to the bytes
         already buffered, or a hostile client could grow the buffer
         forever one byte at a time. *)
      let sofar = len - start in
      if sofar > lim.max_request_line_bytes then
        Limits.exceeded ~line:1 ~col:sofar ~limit:"max_request_line_bytes"
          ~value:sofar ~max:lim.max_request_line_bytes;
      if start > 0 then r.pending <- String.sub s start (len - start);
      None
    end
    else begin
      let rl_len = text_end s start nl - start in
      if rl_len > lim.max_request_line_bytes then
        Limits.exceeded ~line:1 ~col:rl_len ~limit:"max_request_line_bytes"
          ~value:rl_len ~max:lim.max_request_line_bytes;
      let meth, target, version = parse_request_line s start (start + rl_len) in
      match read_headers lim s len start [] 0 2 (nl + 1) with
      | `Incomplete ->
          if start > 0 then r.pending <- String.sub s start (len - start);
          None
      | `Done (headers, line_no, body_start) ->
          (match assoc "transfer-encoding" headers with
          | Some _ -> raise (Bad_request "transfer-encoding not supported")
          | None -> ());
          let content_length =
            match assoc "content-length" headers with
            | None -> 0
            | Some v -> (
                (* [v] is trimmed already *)
                match int_of_string_opt v with
                | Some n when n >= 0 -> n
                | Some _ | None -> raise (Bad_request "malformed content-length"))
          in
          if content_length > lim.max_body_bytes then
            Limits.exceeded ~line:line_no ~col:0 ~limit:"max_body_bytes"
              ~value:content_length ~max:lim.max_body_bytes;
          if len - body_start < content_length then begin
            if start > 0 then r.pending <- String.sub s start (len - start);
            None
          end
          else begin
            let body =
              if content_length = 0 then "" else String.sub s body_start content_length
            in
            let rest = body_start + content_length in
            r.pending <- (if rest = len then "" else String.sub s rest (len - rest));
            let path, params = split_target target in
            Some { meth; target; path; params; version; headers; body }
          end
    end

(* Whether [sub] (lowercase) occurs in [s] at [i], ASCII case folded
   on [s]'s side. *)
let rec folds_to s i sub j =
  j = String.length sub
  || Char.equal (Char.lowercase_ascii s.[i + j]) sub.[j] && folds_to s i sub (j + 1)

let rec contains_lowercase s sub i =
  i + String.length sub <= String.length s
  && (folds_to s i sub 0 || contains_lowercase s sub (i + 1))

let keep_alive req =
  match header req "connection" with
  | None -> req.version >= 1
  | Some v ->
      if contains_lowercase v "close" 0 then false
      else if contains_lowercase v "keep-alive" 0 then true
      else req.version >= 1

(* --- responses --- *)

let status_reason = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Status"

let response ?(headers = []) ?(content_type = "application/json") ~status body
    =
  String.concat ""
    ("HTTP/1.1 " :: string_of_int status :: " " :: status_reason status
    :: "\r\ncontent-type: " :: content_type
    :: "\r\ncontent-length: " :: string_of_int (String.length body) :: "\r\n"
    :: List.fold_right
         (fun (k, v) rest -> k :: ": " :: v :: "\r\n" :: rest)
         headers [ "\r\n"; body ])
