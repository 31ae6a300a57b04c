(* Serving layer: incremental HTTP parsing (torn reads, pipelining,
   caps, malformed syntax), response serialization, and the lock-free
   admission gate. *)

module Http = Xks_serve.Http
module Admission = Xks_robust.Admission
module Limits = Xks_robust.Limits
module Server = Xks_serve.Server

let feed_all limits chunks =
  let r = Http.reader limits in
  List.iter (Http.feed r) chunks;
  r

let expect_request r =
  match Http.next r with
  | Some req -> req
  | None -> Alcotest.fail "expected a complete request"

let expect_incomplete r =
  match Http.next r with
  | None -> ()
  | Some req -> Alcotest.fail ("unexpected complete request: " ^ req.Http.target)

(* --- basic parsing --- *)

let test_parse_simple () =
  let r =
    feed_all Http.default_limits
      [
        "GET /search?q=xml+keyword&limit=5 HTTP/1.1\r\n";
        "Host: localhost\r\nConnection: close\r\n\r\n";
      ]
  in
  let req = expect_request r in
  Alcotest.(check string) "method" "GET" req.Http.meth;
  Alcotest.(check string) "path" "/search" req.Http.path;
  Alcotest.(check int) "version" 1 req.Http.version;
  Alcotest.(check (list (pair string string)))
    "query decoded, + is space"
    [ ("q", "xml keyword"); ("limit", "5") ]
    req.Http.params;
  Alcotest.(check (option string))
    "header lookup is case-insensitive" (Some "localhost")
    (Http.header req "HOST");
  Alcotest.(check bool) "connection: close" false (Http.keep_alive req);
  Alcotest.(check int) "nothing left over" 0 (Http.pending_bytes r)

let test_parse_torn_reads () =
  let raw = "GET /health HTTP/1.1\r\nhost: a\r\n\r\n" in
  let r = Http.reader Http.default_limits in
  String.iteri
    (fun i c ->
      (* before the final byte, every prefix must be incomplete *)
      if i < String.length raw - 1 then expect_incomplete r;
      Http.feed r (String.make 1 c))
    raw;
  let req = expect_request r in
  Alcotest.(check string) "path survives torn reads" "/health" req.Http.path;
  Alcotest.(check int) "header parsed" 1 (List.length req.Http.headers)

let test_parse_bare_lf () =
  let r =
    feed_all Http.default_limits [ "GET /a HTTP/1.1\nhost: x\n\n" ]
  in
  let req = expect_request r in
  Alcotest.(check string) "bare-LF head accepted" "/a" req.Http.path;
  (* mixed endings in one head *)
  let r = feed_all Http.default_limits [ "GET /b HTTP/1.0\r\nh: v\n\r\n" ] in
  let req = expect_request r in
  Alcotest.(check int) "HTTP/1.0 version" 0 req.Http.version;
  Alcotest.(check (option string)) "mixed-ending header" (Some "v")
    (Http.header req "h")

let test_parse_pipelined () =
  let r =
    feed_all Http.default_limits
      [
        "GET /one HTTP/1.1\r\n\r\nGET /two HTTP/1.1\r\nhost: x\r\n\r\nGET /thr";
      ]
  in
  let a = expect_request r in
  let b = expect_request r in
  Alcotest.(check string) "first pipelined" "/one" a.Http.path;
  Alcotest.(check string) "second pipelined" "/two" b.Http.path;
  expect_incomplete r;
  Alcotest.(check bool) "partial third stays buffered" true
    (Http.pending_bytes r > 0);
  Http.feed r "ee HTTP/1.1\r\n\r\n";
  let c = expect_request r in
  Alcotest.(check string) "third completes across feeds" "/three" c.Http.path

let test_parse_body () =
  let r =
    feed_all Http.default_limits
      [ "POST /x HTTP/1.1\r\ncontent-length: 5\r\n\r\nhel" ]
  in
  (* head complete but body short: incomplete, nothing consumed *)
  expect_incomplete r;
  Http.feed r "lo tail";
  let req = expect_request r in
  Alcotest.(check string) "exact content-length body" "hello" req.Http.body;
  Alcotest.(check int) "trailing bytes stay pending" 5 (Http.pending_bytes r)

let test_parse_blank_lines_between_requests () =
  let r =
    feed_all Http.default_limits
      [ "\r\n\r\nGET /a HTTP/1.1\r\n\r\n\r\nGET /b HTTP/1.1\r\n\r\n" ]
  in
  Alcotest.(check string) "leading blank lines skipped" "/a"
    (expect_request r).Http.path;
  Alcotest.(check string) "inter-request blank lines skipped" "/b"
    (expect_request r).Http.path

(* --- caps (positioned Limit_exceeded, also on incomplete heads) --- *)

let tiny =
  {
    Http.max_request_line_bytes = 32;
    max_header_bytes = 96;
    max_headers = 3;
    max_body_bytes = 16;
  }

let expect_limit name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Limit_exceeded")
  | exception Limits.Limit_exceeded { limit; _ } ->
      Alcotest.(check string) name name limit

let test_cap_request_line () =
  (* terminated over-long request line *)
  let r =
    feed_all tiny [ "GET /" ^ String.make 40 'a' ^ " HTTP/1.1\r\n\r\n" ]
  in
  expect_limit "max_request_line_bytes" (fun () -> Http.next r);
  (* unterminated: the cap must fire before any terminator arrives *)
  let r = feed_all tiny [ String.make 40 'a' ] in
  expect_limit "max_request_line_bytes" (fun () -> Http.next r)

let test_cap_header_bytes () =
  let r =
    feed_all tiny
      [ "GET /a HTTP/1.1\r\nh: " ^ String.make 100 'v' ^ "\r\n\r\n" ]
  in
  expect_limit "max_header_bytes" (fun () -> Http.next r);
  (* same cap on a head that never terminates *)
  let r = feed_all tiny [ "GET /a HTTP/1.1\r\nh: " ^ String.make 100 'v' ] in
  expect_limit "max_header_bytes" (fun () -> Http.next r)

let test_cap_header_count () =
  let r =
    feed_all tiny [ "GET /a HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\nd: 4\r\n\r\n" ]
  in
  expect_limit "max_headers" (fun () -> Http.next r)

let test_cap_body_bytes () =
  let r =
    feed_all tiny [ "GET /a HTTP/1.1\r\ncontent-length: 1000\r\n\r\n" ]
  in
  expect_limit "max_body_bytes" (fun () -> Http.next r)

(* --- malformed syntax (the 400 channel) --- *)

let expect_bad name raw =
  let r = feed_all Http.default_limits [ raw ] in
  match Http.next r with
  | _ -> Alcotest.fail (name ^ ": expected Bad_request")
  | exception Http.Bad_request _ -> ()

let test_bad_requests () =
  expect_bad "unsupported protocol" "GET /a HTTP/2\r\n\r\n";
  expect_bad "missing protocol" "GET /a\r\n\r\n";
  expect_bad "header without colon" "GET /a HTTP/1.1\r\nbogus line\r\n\r\n";
  expect_bad "colon-first header" "GET /a HTTP/1.1\r\n: v\r\n\r\n";
  expect_bad "chunked rejected"
    "GET /a HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n";
  expect_bad "garbage content-length"
    "GET /a HTTP/1.1\r\ncontent-length: ten\r\n\r\n";
  expect_bad "negative content-length"
    "GET /a HTTP/1.1\r\ncontent-length: -4\r\n\r\n";
  expect_bad "bad percent escape" "GET /a%zz HTTP/1.1\r\n\r\n";
  expect_bad "truncated percent escape" "GET /a%4 HTTP/1.1\r\n\r\n"

let test_percent_decoding () =
  let r =
    feed_all Http.default_limits
      [ "GET /se%61rch?na%6De=a%2Bb+c HTTP/1.1\r\n\r\n" ]
  in
  let req = expect_request r in
  Alcotest.(check string) "path percent-decoded" "/search" req.Http.path;
  Alcotest.(check (list (pair string string)))
    "query: %2B stays plus, + becomes space"
    [ ("name", "a+b c") ]
    req.Http.params

let test_keep_alive_defaults () =
  let parse raw = expect_request (feed_all Http.default_limits [ raw ]) in
  Alcotest.(check bool) "1.1 defaults on" true
    (Http.keep_alive (parse "GET / HTTP/1.1\r\n\r\n"));
  Alcotest.(check bool) "1.0 defaults off" false
    (Http.keep_alive (parse "GET / HTTP/1.0\r\n\r\n"));
  Alcotest.(check bool) "1.0 + keep-alive on" true
    (Http.keep_alive (parse "GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"));
  Alcotest.(check bool) "1.1 + close off" false
    (Http.keep_alive (parse "GET / HTTP/1.1\r\nconnection: close\r\n\r\n"))

(* The exact bytes of a response: status line, content-type,
   content-length, the extra headers in order, a blank line, the
   body. *)
let test_response_bytes () =
  Alcotest.(check string) "503 with extra headers"
    "HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\n\
     content-length: 7\r\nretry-after: 1\r\nconnection: close\r\n\r\n{\"a\":1}"
    (Http.response
       ~headers:[ ("retry-after", "1"); ("connection", "close") ]
       ~status:503 "{\"a\":1}");
  Alcotest.(check string) "unknown status, own content type, empty body"
    "HTTP/1.1 299 Status\r\ncontent-type: text/plain\r\ncontent-length: 0\r\n\r\n"
    (Http.response ~content_type:"text/plain" ~status:299 "")

let test_response_serialization () =
  let resp =
    Http.response ~headers:[ ("retry-after", "1") ] ~status:503 "{\"a\":1}"
  in
  let expect_prefix = "HTTP/1.1 503 Service Unavailable\r\n" in
  Alcotest.(check string) "status line" expect_prefix
    (String.sub resp 0 (String.length expect_prefix));
  Alcotest.(check bool) "content-length present" true
    (let sub = "content-length: 7\r\n" in
     let rec at i =
       i + String.length sub <= String.length resp
       && (String.equal (String.sub resp i (String.length sub)) sub
          || at (i + 1))
     in
     at 0);
  (* the response must parse back as exactly its body after the head *)
  match String.index_opt resp '{' with
  | Some i ->
      Alcotest.(check string) "body verbatim" "{\"a\":1}"
        (String.sub resp i (String.length resp - i))
  | None -> Alcotest.fail "body missing"

(* --- admission gate --- *)

let test_admission_capacity () =
  let a = Admission.create ~workers:2 ~queue:1 in
  Alcotest.(check int) "capacity" 3 (Admission.capacity a);
  for i = 1 to 3 do
    match Admission.try_admit a with
    | Admission.Admitted -> ()
    | Admission.Rejected _ ->
        Alcotest.failf "admission %d rejected below capacity" i
  done;
  (match Admission.try_admit a with
  | Admission.Rejected { outstanding; capacity } ->
      Alcotest.(check int) "rejection reports outstanding" 3 outstanding;
      Alcotest.(check int) "rejection reports capacity" 3 capacity
  | Admission.Admitted -> Alcotest.fail "admitted over capacity");
  Admission.release a;
  (match Admission.try_admit a with
  | Admission.Admitted -> ()
  | Admission.Rejected _ -> Alcotest.fail "slot not reusable after release");
  Alcotest.(check int) "admitted counted" 4 (Admission.admitted_total a);
  Alcotest.(check int) "rejections counted" 1 (Admission.rejected_total a);
  Alcotest.(check int) "outstanding live" 3 (Admission.outstanding a)

let test_admission_release_underflow () =
  let a = Admission.create ~workers:1 ~queue:0 in
  (match Admission.try_admit a with
  | Admission.Admitted -> ()
  | Admission.Rejected _ -> Alcotest.fail "empty gate rejected");
  Admission.release a;
  match Admission.release a with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "double release must not underflow"

let test_admission_error_mapping () =
  let a = Admission.create ~workers:1 ~queue:1 in
  match Admission.to_error ~outstanding:2 a with
  | Limits.Limit_exceeded { limit; value; max; _ } ->
      Alcotest.(check string) "limit name" "admission_outstanding" limit;
      Alcotest.(check int) "value" 2 value;
      Alcotest.(check int) "max" 2 max
  | _ -> Alcotest.fail "expected Limit_exceeded"

let test_admission_concurrent () =
  (* hammer one gate from 4 domains; the slot count must never exceed
     capacity and must come back to zero *)
  let a = Admission.create ~workers:2 ~queue:2 in
  let over = Atomic.make false in
  let worker () =
    for _ = 1 to 2000 do
      match Admission.try_admit a with
      | Admission.Admitted ->
          if Admission.outstanding a > Admission.capacity a then
            Atomic.set over true;
          Admission.release a
      | Admission.Rejected _ -> Domain.cpu_relax ()
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  Alcotest.(check bool) "never over capacity" false (Atomic.get over);
  Alcotest.(check int) "drains to zero" 0 (Admission.outstanding a);
  Alcotest.(check int) "totals reconcile"
    (Admission.admitted_total a + Admission.rejected_total a)
    (4 * 2000)

(* --- server lifecycle: failed create must release what it took --- *)

let count_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* A refused configuration raises before any resource is acquired, and
   a bind failure raises after both the socket fd and the worker pool
   exist: on every raise path out of [Server.create] the fd table must
   end where it started (the pool is shut down, the fd closed). *)
let test_create_failure_leaks_nothing () =
  if not (Sys.file_exists "/proc/self/fd") then ()
  else begin
    let engine =
      Xks_core.Engine.of_index
        (Xks_index.Inverted.build
           (Xks_xml.Parser.parse_string
              "<a><b>xml search</b><c>keyword</c></a>"))
    in
    let before = count_fds () in
    (match
       Server.create
         { (Server.default_config ~socket_path:"/tmp/xks_nofd.sock" ()) with
           Server.max_hits = 0 }
         engine
     with
    | _ -> Alcotest.fail "max_hits = 0 must be refused"
    | exception Invalid_argument _ -> ());
    (match
       Server.create
         (Server.default_config ~socket_path:"/xks-no-such-dir/xks.sock" ())
         engine
     with
    | _ -> Alcotest.fail "bind into a missing directory must fail"
    | exception Unix.Unix_error _ -> ());
    Alcotest.(check int) "no fd leaked by failed create" before (count_fds ())
  end

(* --- admission slot release order --- *)

(* Read one complete response (head and content-length body) and
   return its status, without waiting for the server's close. *)
let read_response fd =
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec head_end () =
    let s = Buffer.contents buf in
    let rec find i =
      if i + 4 > String.length s then None
      else if String.equal (String.sub s i 4) "\r\n\r\n" then Some i
      else find (i + 1)
    in
    match find 0 with
    | Some i -> i
    | None -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> Alcotest.fail "connection closed before a complete head"
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            head_end ())
  in
  let h = head_end () in
  let head = String.lowercase_ascii (Buffer.sub buf 0 h) in
  let status = Scanf.sscanf head "http/1.1 %d" Fun.id in
  let length =
    let key = "content-length: " in
    let rec find i =
      if String.equal (String.sub head i (String.length key)) key then
        let j = i + String.length key in
        Scanf.sscanf (String.sub head j (String.length head - j)) "%d" Fun.id
      else find (i + 1)
    in
    find 0
  in
  while Buffer.length buf < h + 4 + length do
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Alcotest.fail "connection closed before a complete body"
    | n -> Buffer.add_subbytes buf chunk 0 n
  done;
  status

(* A server of capacity 1 and a client that reconnects the moment it
   has read a [connection: close] response: the client never holds more
   than the one slot, so it must never be shed.  The slot is released
   before that response is written, so this holds on every run, however
   the worker's cleanup is scheduled. *)
let test_reconnect_after_close_not_shed () =
  let engine = Xks_core.Engine.of_string "<a><b>xml search</b></a>" in
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xks-slot-%d.sock" (Unix.getpid ()))
  in
  let srv =
    Server.create
      { (Server.default_config ~socket_path:socket ()) with
        Server.workers = 1; queue = 0; cache_mb = 0 }
      engine
  in
  let server = Domain.spawn (fun () -> Server.run srv) in
  let statuses =
    Fun.protect
      ~finally:(fun () ->
        Server.request_shutdown srv;
        Domain.join server)
      (fun () ->
        List.init 500 (fun _ ->
            let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () ->
                Unix.connect fd (Unix.ADDR_UNIX socket);
                let req = "GET /health HTTP/1.1\r\nconnection: close\r\n\r\n" in
                ignore (Unix.write_substring fd req 0 (String.length req) : int);
                read_response fd)))
  in
  Alcotest.(check int) "every reconnect admitted" 500
    (List.length (List.filter (Int.equal 200) statuses));
  Alcotest.(check int) "nothing shed" 0 (Server.stats srv).Server.rejected

(* A final response that its client never reads keeps the worker in
   the write after the connection's slot is free.  Shutdown must still
   end at the drain deadline, which cuts that socket, instead of
   waiting out the write timeout.  The answer (20,000 hits, about
   0.9 MB) is larger than a Unix socket's send buffer. *)
let test_drain_deadline_cuts_final_write () =
  let n = 20_000 in
  let engine =
    Xks_core.Engine.of_string
      ("<r>"
      ^ String.concat "" (List.init n (fun _ -> "<p><t>xml</t><u>search</u></p>"))
      ^ "</r>")
  in
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xks-drain-%d.sock" (Unix.getpid ()))
  in
  let drain_timeout_ms = 200 in
  let srv =
    Server.create
      { (Server.default_config ~socket_path:socket ()) with
        Server.workers = 1;
        queue = 0;
        cache_mb = 0;
        deadline_ms = None;
        max_hits = n;
        write_timeout_ms = 10_000;
        drain_timeout_ms }
      engine
  in
  let server = Domain.spawn (fun () -> Server.run srv) in
  let joined = ref false in
  let stop () =
    if not !joined then begin
      joined := true;
      Server.request_shutdown srv;
      Domain.join server
    end
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let took =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Fun.protect ~finally:stop (fun () ->
            Unix.connect fd (Unix.ADDR_UNIX socket);
            let req =
              Printf.sprintf
                "GET /search?q=xml+search&limit=%d HTTP/1.1\r\n\
                 connection: close\r\n\r\n"
                n
            in
            ignore (Unix.write_substring fd req 0 (String.length req) : int);
            (* The slot is freed just before the final response is
               written; then the write fills the socket and blocks. *)
            let deadline = Unix.gettimeofday () +. 10. in
            while
              ((Server.stats srv).Server.accepted < 1
              || (Server.stats srv).Server.active > 0)
              && Unix.gettimeofday () < deadline
            do
              Unix.sleepf 0.005
            done;
            Alcotest.(check int) "slot freed before the final write" 0
              (Server.stats srv).Server.active;
            Unix.sleepf 0.1;
            let t0 = Unix.gettimeofday () in
            stop ();
            Unix.gettimeofday () -. t0))
  in
  if took > (float_of_int drain_timeout_ms /. 1000.) +. 1.5 then
    Alcotest.failf
      "shutdown took %.2f s with a %d ms drain deadline: an unread final \
       response outlived it"
      took drain_timeout_ms;
  Alcotest.(check int) "the stalled writer was aborted" 1
    (Server.stats srv).Server.aborted

(* --- allocation on a served cache hit --- *)

(* What a cache hit costs the server in minor words: parse the request,
   build the cache key, find the cached answer, encode its JSON body and
   serialize the response.  The answer has 10 hits, as a /search page
   does.  Native only: bytecode boxes what native code keeps in
   registers. *)
let hit_path_words_bound = 700

let test_hit_path_allocation () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> ()
  | Sys.Native ->
      let module Engine = Xks_core.Engine in
      let module Cache = Xks_exec.Cache in
      let module Json = Xks_trace.Json in
      let engine =
        Engine.of_string
          ("<r>"
          ^ String.concat ""
              (List.init 12 (fun i ->
                   Printf.sprintf "<p><t>xml %d</t><u>search</u></p>" i))
          ^ "</r>")
      in
      let ws = [ "xml"; "search" ] in
      let answer = Engine.search_result engine ws in
      Alcotest.(check bool) "a page of 10 hits" true (List.length answer.hits >= 10);
      let key () =
        Cache.key ~engine ~algorithm:Engine.Validrtf ~rank:`Heuristic
          ~budget_class:"t200:n-" ws
      in
      let cache = Cache.create ~max_bytes:(1024 * 1024) () in
      Cache.add cache (Option.get (key ())) answer;
      let body =
        Json.Obj
          [
            ("id", Json.String "c1.r1");
            ("query", Json.List (List.map (fun w -> Json.String w) ws));
            ("algorithm", Json.String "validrtf");
            ("rank", Json.String "heuristic");
            ("k", Json.Null);
            ("budget_class", Json.String "t200:n-");
            ("degraded", Json.Null);
            ("total", Json.Int (List.length answer.hits));
            ( "hits",
              Json.List
                (List.map
                   (fun (h : Engine.hit) ->
                     Json.Obj
                       [
                         ("score", Json.Float h.score);
                         ("slca", Json.Bool h.is_slca);
                         ("nodes", Json.Int (Xks_core.Fragment.size h.fragment));
                       ])
                   (List.filteri (fun i _ -> i < 10) answer.hits)) );
          ]
      in
      let raw = "GET /search?q=xml+search HTTP/1.1\r\nhost: bench\r\n\r\n" in
      let hit () =
        let r = Http.reader Http.default_limits in
        Http.feed r raw;
        ignore (Sys.opaque_identity (Http.next r));
        match Option.bind (key ()) (Cache.find cache) with
        | None -> Alcotest.fail "expected a cache hit"
        | Some _ ->
            Http.response ~headers:[ ("x-request-id", "c1.r1") ] ~status:200
              (Json.to_string body)
      in
      ignore (hit () : string);
      let reps = 1000 in
      let before = Gc.minor_words () in
      for _ = 1 to reps do
        ignore (Sys.opaque_identity (hit ()))
      done;
      let per = (Gc.minor_words () -. before) /. float_of_int reps in
      if per > float_of_int hit_path_words_bound then
        Alcotest.failf
          "a served cache hit allocates %.0f minor words (bound %d)" per
          hit_path_words_bound

(* --- untrusted bytes --- *)

let drain r =
  let rec go acc =
    match Http.next r with Some req -> go (req :: acc) | None -> List.rev acc
  in
  go []

(* One to three valid pipelined requests, with their count. *)
let gen_requests =
  let open QCheck2.Gen in
  let word = string_size ~gen:(char_range 'a' 'z') (int_range 1 6) in
  (* mixed case and space-padded: the parser lowercases and trims *)
  let header_name =
    let* w = string_size ~gen:(oneof [ char_range 'a' 'z'; char_range 'A' 'Z' ]) (int_range 1 6)
    and* before = oneofl [ ""; ""; " " ]
    and* after = oneofl [ ""; ""; " "; "  " ] in
    return (before ^ w ^ after)
  in
  (* path segments and parameters with and without '%' and '+' *)
  let segment = oneof [ word; oneofl [ "a+b"; "%41b"; "x%2Fy"; "%7e" ] ] in
  let param_part = oneof [ word; oneofl [ "xml"; "a+b"; "%41%20c"; "q%2Bz"; "" ] ] in
  let request =
    let* meth = oneofl [ "GET"; "POST"; "HEAD" ]
    and* segments = list_size (int_range 0 3) segment
    and* params = list_size (int_range 0 3) (pair param_part param_part)
    and* headers = list_size (int_range 0 4) (pair header_name word)
    and* body = oneof [ return ""; word ]
    and* version = oneofl [ "HTTP/1.1"; "HTTP/1.0" ]
    and* eol = oneofl [ "\r\n"; "\n" ] in
    let query =
      if params = [] then ""
      else "?" ^ String.concat "&" (List.map (fun (k, v) -> k ^ "=" ^ v) params)
    in
    let headers =
      if body = "" then headers
      else headers @ [ ("content-length", string_of_int (String.length body)) ]
    in
    return
      (String.concat ""
         ([ meth; " /"; String.concat "/" segments; query; " "; version; eol ]
         @ List.map (fun (k, v) -> k ^ ": " ^ v ^ eol) headers
         @ [ eol; body ]))
  in
  map
    (fun rs -> (List.length rs, String.concat "" rs))
    (list_size (int_range 1 3) request)

let prop_any_chunking =
  QCheck2.Test.make ~name:"http: any chunking parses as the whole" ~count:1000
    ~print:(fun ((_, raw), cuts) ->
      Printf.sprintf "%S cut at %s" raw
        (String.concat "," (List.map string_of_int cuts)))
    QCheck2.Gen.(
      pair gen_requests (list_size (int_range 0 8) (int_bound 1_000_000)))
    (fun ((n, raw), cuts) ->
      let whole = Http.reader Http.default_limits in
      Http.feed whole raw;
      let expected = drain whole in
      let len = String.length raw in
      let cuts =
        List.sort_uniq Int.compare
          (len :: List.map (fun c -> c mod (len + 1)) cuts)
      in
      let r = Http.reader Http.default_limits in
      let got, _ =
        List.fold_left
          (fun (acc, from) cut ->
            Http.feed r (String.sub raw from (cut - from));
            (acc @ drain r, cut))
          ([], 0) cuts
      in
      List.length expected = n
      && got = expected
      && Http.pending_bytes r = Http.pending_bytes whole)

(* The parser [Http.next] replaced, kept verbatim as the reference of
   the differential property below: it cuts every line with
   [String.sub], splits the request line with [split_on_char] and
   decodes every path and parameter through a buffer. *)
module Reference_http = struct
  type reader = { limits : Http.limits; mutable pending : string }

  let reader limits = { limits; pending = "" }
  let feed r s = if s <> "" then r.pending <- r.pending ^ s
  let pending_bytes r = String.length r.pending

  let hex_val c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> raise (Http.Bad_request "malformed percent-encoding")

  let percent_decode ~plus_is_space s =
    let n = String.length s in
    let b = Buffer.create n in
    let i = ref 0 in
    while !i < n do
      (match s.[!i] with
      | '%' ->
          if !i + 2 >= n then raise (Http.Bad_request "malformed percent-encoding");
          Buffer.add_char b
            (Char.chr ((hex_val s.[!i + 1] lsl 4) lor hex_val s.[!i + 2]));
          i := !i + 2
      | '+' when plus_is_space -> Buffer.add_char b ' '
      | c -> Buffer.add_char b c);
      incr i
    done;
    Buffer.contents b

  let parse_query qs =
    String.split_on_char '&' qs
    |> List.filter (fun s -> s <> "")
    |> List.map (fun kv ->
           match String.index_opt kv '=' with
           | None -> (percent_decode ~plus_is_space:true kv, "")
           | Some i ->
               ( percent_decode ~plus_is_space:true (String.sub kv 0 i),
                 percent_decode ~plus_is_space:true
                   (String.sub kv (i + 1) (String.length kv - i - 1)) ))

  let split_target target =
    match String.index_opt target '?' with
    | None -> (percent_decode ~plus_is_space:false target, [])
    | Some i ->
        ( percent_decode ~plus_is_space:false (String.sub target 0 i),
          parse_query (String.sub target (i + 1) (String.length target - i - 1))
        )

  let next_line s pos =
    match String.index_from_opt s pos '\n' with
    | None -> None
    | Some nl ->
        let stop = if nl > pos && s.[nl - 1] = '\r' then nl - 1 else nl in
        Some (String.sub s pos (stop - pos), nl + 1)

  let parse_request_line line =
    match List.filter (fun t -> t <> "") (String.split_on_char ' ' line) with
    | [ m; t; "HTTP/1.1" ] -> (m, t, 1)
    | [ m; t; "HTTP/1.0" ] -> (m, t, 0)
    | [ _; _; v ] -> raise (Http.Bad_request ("unsupported protocol: " ^ v))
    | _ -> raise (Http.Bad_request "malformed request line")

  let next r =
    let s = r.pending in
    let len = String.length s in
    let lim = r.limits in
    let rec skip_blank pos =
      match next_line s pos with Some ("", p) -> skip_blank p | _ -> pos
    in
    let start = skip_blank 0 in
    let keep_tail () =
      if start > 0 then r.pending <- String.sub s start (len - start)
    in
    if start >= len then begin
      r.pending <- "";
      None
    end
    else
      match next_line s start with
      | None ->
          let sofar = len - start in
          if sofar > lim.Http.max_request_line_bytes then
            Limits.exceeded ~line:1 ~col:sofar ~limit:"max_request_line_bytes"
              ~value:sofar ~max:lim.Http.max_request_line_bytes;
          keep_tail ();
          None
      | Some (reqline, after_reqline) ->
          let rl_len = String.length reqline in
          if rl_len > lim.Http.max_request_line_bytes then
            Limits.exceeded ~line:1 ~col:rl_len ~limit:"max_request_line_bytes"
              ~value:rl_len ~max:lim.Http.max_request_line_bytes;
          let meth, target, version = parse_request_line reqline in
          let rec read_headers acc count line_no pos =
            let head_bytes = pos - start in
            if head_bytes > lim.Http.max_header_bytes then
              Limits.exceeded ~line:line_no ~col:0 ~limit:"max_header_bytes"
                ~value:head_bytes ~max:lim.Http.max_header_bytes;
            match next_line s pos with
            | None ->
                if len - start > lim.Http.max_header_bytes then
                  Limits.exceeded ~line:line_no ~col:0 ~limit:"max_header_bytes"
                    ~value:(len - start) ~max:lim.Http.max_header_bytes;
                `Incomplete
            | Some ("", p) -> `Done (List.rev acc, line_no, p)
            | Some (hline, p) ->
                if count + 1 > lim.Http.max_headers then
                  Limits.exceeded ~line:line_no ~col:0 ~limit:"max_headers"
                    ~value:(count + 1) ~max:lim.Http.max_headers;
                (match String.index_opt hline ':' with
                | None | Some 0 -> raise (Http.Bad_request "malformed header line")
                | Some i ->
                    let name =
                      String.lowercase_ascii (String.trim (String.sub hline 0 i))
                    in
                    let value =
                      String.trim
                        (String.sub hline (i + 1) (String.length hline - i - 1))
                    in
                    read_headers ((name, value) :: acc) (count + 1) (line_no + 1)
                      p)
          in
          (match read_headers [] 0 2 after_reqline with
          | `Incomplete ->
              keep_tail ();
              None
          | `Done (headers, line_no, body_start) ->
              if List.mem_assoc "transfer-encoding" headers then
                raise (Http.Bad_request "transfer-encoding not supported");
              let content_length =
                match List.assoc_opt "content-length" headers with
                | None -> 0
                | Some v -> (
                    match int_of_string_opt (String.trim v) with
                    | Some n when n >= 0 -> n
                    | Some _ | None ->
                        raise (Http.Bad_request "malformed content-length"))
              in
              if content_length > lim.Http.max_body_bytes then
                Limits.exceeded ~line:line_no ~col:0 ~limit:"max_body_bytes"
                  ~value:content_length ~max:lim.Http.max_body_bytes;
              if len - body_start < content_length then begin
                keep_tail ();
                None
              end
              else begin
                let body = String.sub s body_start content_length in
                let rest = body_start + content_length in
                r.pending <- String.sub s rest (len - rest);
                let path, params = split_target target in
                Some { Http.meth; target; path; params; version; headers; body }
              end)
end

(* Every outcome of draining a reader after each chunk: the requests in
   order, then the error that stopped it if any, and the bytes left. *)
let outcomes ~feed ~next ~pending chunks =
  let rec drain acc =
    match next () with
    | Some req -> drain (Ok req :: acc)
    | None -> (acc, false)
    | exception ((Http.Bad_request _ | Limits.Limit_exceeded _) as e) ->
        (Error e :: acc, true)
  in
  let rec go acc = function
    | [] -> (List.rev acc, pending ())
    | c :: rest ->
        feed c;
        let acc, stopped = drain acc in
        if stopped then (List.rev acc, pending ()) else go acc rest
  in
  go [] chunks

let chunks_of raw cuts =
  let len = String.length raw in
  let cuts = List.sort_uniq Int.compare (len :: List.map (fun c -> c mod (len + 1)) cuts) in
  fst
    (List.fold_left
       (fun (acc, from) cut -> (String.sub raw from (cut - from) :: acc, cut))
       ([], 0) cuts)
  |> List.rev

let prop_http_matches_reference =
  let small =
    {
      Http.max_request_line_bytes = 32;
      max_header_bytes = 96;
      max_headers = 3;
      max_body_bytes = 16;
    }
  in
  QCheck2.Test.make ~name:"http: next agrees with the reference parser"
    ~count:3000
    ~print:(fun ((_, raw), cuts) ->
      Printf.sprintf "%S cut at %s" raw
        (String.concat "," (List.map string_of_int cuts)))
    QCheck2.Gen.(
      pair
        (pair bool
           (oneof
              [ map snd gen_requests;
                Helpers.gen_untrusted (map snd gen_requests)
                  ~tokens:
                    [ "GET "; "/a?b=%"; "%zz"; "%4"; "+"; "%2B"; " HTTP/1.1";
                      " HTTP/1.0"; " HTTP/2"; "\r\n"; "\n"; "\r"; ": "; " : ";
                      "Host: x"; "content-length: "; "Content-Length: 3";
                      "99999999999999999999"; "-1"; "0x10";
                      "transfer-encoding: chunked"; " \t"; "&&"; "=" ] ]))
        (list_size (int_range 0 6) (int_bound 1_000_000)))
    (fun ((use_small, raw), cuts) ->
      let limits = if use_small then small else Http.default_limits in
      let chunks = chunks_of raw cuts in
      let r = Http.reader limits and ref_r = Reference_http.reader limits in
      let got =
        outcomes ~feed:(Http.feed r) ~next:(fun () -> Http.next r)
          ~pending:(fun () -> Http.pending_bytes r) chunks
      and want =
        outcomes ~feed:(Reference_http.feed ref_r)
          ~next:(fun () -> Reference_http.next ref_r)
          ~pending:(fun () -> Reference_http.pending_bytes ref_r) chunks
      in
      got = want)

let prop_http_errors_documented =
  let small =
    {
      Http.max_request_line_bytes = 32;
      max_header_bytes = 96;
      max_headers = 3;
      max_body_bytes = 16;
    }
  in
  QCheck2.Test.make
    ~name:"http: random bytes raise only Bad_request or Limit_exceeded"
    ~count:3000 ~print:(fun (_, s) -> Printf.sprintf "%S" s)
    QCheck2.Gen.(
      pair bool
        (Helpers.gen_untrusted (map snd gen_requests)
           ~tokens:
             [ "GET "; "POST "; "/a?b=%"; "%zz"; " HTTP/1.1"; " HTTP/1.0";
               " HTTP/2"; "\r\n"; "\n"; ": "; "host: x"; "content-length: ";
               "99999999999999999999"; "-1"; "transfer-encoding: chunked";
               " \t" ]))
    (fun (use_small, bytes) ->
      let r = Http.reader (if use_small then small else Http.default_limits) in
      Http.feed r bytes;
      (* Each request consumes at least one byte. *)
      let rec go n =
        n <= String.length bytes
        && match Http.next r with None -> true | Some _ -> go (n + 1)
      in
      Helpers.raises_only
        (function
          | Http.Bad_request _ | Limits.Limit_exceeded _ -> true | _ -> false)
        (fun () -> go 0))

let tests =
  [
    Alcotest.test_case "http: simple request" `Quick test_parse_simple;
    Alcotest.test_case "http: torn reads" `Quick test_parse_torn_reads;
    Alcotest.test_case "http: bare LF" `Quick test_parse_bare_lf;
    Alcotest.test_case "http: pipelining" `Quick test_parse_pipelined;
    Alcotest.test_case "http: content-length body" `Quick test_parse_body;
    Alcotest.test_case "http: blank lines" `Quick
      test_parse_blank_lines_between_requests;
    Alcotest.test_case "http: request-line cap" `Quick test_cap_request_line;
    Alcotest.test_case "http: header-bytes cap" `Quick test_cap_header_bytes;
    Alcotest.test_case "http: header-count cap" `Quick test_cap_header_count;
    Alcotest.test_case "http: body cap" `Quick test_cap_body_bytes;
    Alcotest.test_case "http: malformed syntax" `Quick test_bad_requests;
    Helpers.qtest prop_any_chunking;
    Helpers.qtest prop_http_errors_documented;
    Helpers.qtest prop_http_matches_reference;
    Alcotest.test_case "http: percent decoding" `Quick test_percent_decoding;
    Alcotest.test_case "http: keep-alive defaults" `Quick
      test_keep_alive_defaults;
    Alcotest.test_case "http: response serialization" `Quick
      test_response_serialization;
    Alcotest.test_case "http: response bytes" `Quick test_response_bytes;
    Alcotest.test_case "admission: capacity bound" `Quick
      test_admission_capacity;
    Alcotest.test_case "admission: release underflow" `Quick
      test_admission_release_underflow;
    Alcotest.test_case "admission: error mapping" `Quick
      test_admission_error_mapping;
    Alcotest.test_case "admission: concurrent" `Quick test_admission_concurrent;
    Alcotest.test_case "server: failed create leaks no fd" `Quick
      test_create_failure_leaks_nothing;
    Alcotest.test_case "server: reconnect after a close reply is not shed"
      `Quick test_reconnect_after_close_not_shed;
    Alcotest.test_case "drain deadline cuts an unread final response" `Quick
      test_drain_deadline_cuts_final_write;
    Alcotest.test_case "a served cache hit allocates a bounded number of words"
      `Quick test_hit_path_allocation;
  ]
