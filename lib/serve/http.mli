(** Incremental HTTP/1.1 request parsing and response serialization.

    A {!reader} accumulates raw socket bytes and yields complete
    requests one at a time, so torn reads (a request head split across
    arbitrary [read] boundaries) and pipelining (several requests in one
    read) share a single code path.  Request-line, header and body sizes
    are hard-capped with positioned {!Xks_robust.Limits.Limit_exceeded}
    errors — enforced even on heads that are still incomplete, so a
    client that never sends the terminator cannot grow the buffer past
    the cap.  Malformed syntax raises {!Bad_request}.

    CRLF and bare-LF line endings are both accepted.  Chunked transfer
    encoding, header continuations and protocol versions other than
    HTTP/1.0 / HTTP/1.1 are rejected as {!Bad_request}.

    Parsing reads the buffered bytes in place: the request line and the
    header lines are scanned by index, and only the strings the
    {!request} record keeps are cut out.  A path, parameter name or
    value that holds no [%] (and, in the query, no [+]) is taken as is,
    without a decoding buffer, and {!feed} into an empty reader keeps
    the string it is given.  The limits, the positions their errors
    report, the error messages, torn-read and pipelining behaviour and
    the {!request} record are those of the line-splitting parser this
    replaced (test_serve keeps that parser as the reference of a
    differential property). *)

type limits = {
  max_request_line_bytes : int;  (** cap on the request line *)
  max_header_bytes : int;  (** cap on the whole head (line + headers) *)
  max_headers : int;  (** cap on the number of header fields *)
  max_body_bytes : int;  (** cap on [content-length] *)
}

val default_limits : limits
(** 8 KiB request line, 32 KiB head, 128 headers, 64 KiB body. *)

exception Bad_request of string
(** Malformed request syntax (the 400 channel, distinct from the
    {!Xks_robust.Limits.Limit_exceeded} cap channel). *)

type request = {
  meth : string;  (** e.g. ["GET"] — uppercase as sent *)
  target : string;  (** raw request target, undecoded *)
  path : string;  (** percent-decoded path component *)
  params : (string * string) list;
      (** decoded query parameters, in order; ['+'] decodes to space *)
  version : int;  (** [1] for HTTP/1.1, [0] for HTTP/1.0 *)
  headers : (string * string) list;
      (** names lowercased, values trimmed, in order *)
  body : string;  (** exactly [content-length] bytes (default 0) *)
}

type reader

val reader : limits -> reader
(** A fresh incremental reader. *)

val feed : reader -> string -> unit
(** Append raw bytes from the socket. *)

val next : reader -> request option
(** Parse (and consume) the next complete request, or [None] when the
    buffered bytes do not yet form one.  Call repeatedly to drain
    pipelined requests.
    @raise Bad_request on malformed syntax.
    @raise Xks_robust.Limits.Limit_exceeded when a cap is crossed (also
    for incomplete heads already larger than their cap). *)

val pending_bytes : reader -> int
(** Bytes buffered but not yet consumed. *)

val header : request -> string -> string option
(** Case-insensitive header lookup (first occurrence). *)

val keep_alive : request -> bool
(** Whether the connection persists after this request: HTTP/1.1
    defaults to [true] unless [Connection: close]; HTTP/1.0 defaults to
    [false] unless [Connection: keep-alive]. *)

val status_reason : int -> string
(** Reason phrase for a status code. *)

val response :
  ?headers:(string * string) list ->
  ?content_type:string ->
  status:int ->
  string ->
  string
(** Serialize a complete response with [content-length] (and
    [content-type], default [application/json]) computed from the
    body: the status line, [content-type], [content-length], then
    [headers] in order, a blank line and the body, concatenated into
    one string of the final length, without [Printf]. *)
