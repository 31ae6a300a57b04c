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
  let request =
    let* meth = oneofl [ "GET"; "POST"; "HEAD" ]
    and* segments = list_size (int_range 0 3) word
    and* params =
      list_size (int_range 0 3)
        (pair word (oneofl [ "xml"; "a+b"; "%41%20c"; "" ]))
    and* headers = list_size (int_range 0 4) (pair word word)
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
    Alcotest.test_case "http: percent decoding" `Quick test_percent_decoding;
    Alcotest.test_case "http: keep-alive defaults" `Quick
      test_keep_alive_defaults;
    Alcotest.test_case "http: response serialization" `Quick
      test_response_serialization;
    Alcotest.test_case "admission: capacity bound" `Quick
      test_admission_capacity;
    Alcotest.test_case "admission: release underflow" `Quick
      test_admission_release_underflow;
    Alcotest.test_case "admission: error mapping" `Quick
      test_admission_error_mapping;
    Alcotest.test_case "admission: concurrent" `Quick test_admission_concurrent;
    Alcotest.test_case "server: failed create leaks no fd" `Quick
      test_create_failure_leaks_nothing;
  ]
