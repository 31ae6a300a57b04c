(* serve-zipf: the server's request path on the DBLP corpus, with the
   default 200 ms budget deadline.

   Requests follow a Zipf(1.1) repeat stream over a query pool whose
   results are larger than the result cache, so hits, misses and LRU
   evictions all reach a steady state during the untimed warm-up.  Hits
   make p50_ms measure HTTP parse, cache lookup and encode; misses make
   p99_ms measure the engine under a budget.

   A run has two phases.  First the [xks serve] binary runs as its own
   process, driven open-loop at a fixed rate by this process over one
   keep-alive connection (one server worker plus one generator
   connection stay within the two CPUs of the bench host); its answers
   are checked, and its start time (the last step of set-up), peak RSS
   and /stats counters are reported.  Then one client runs the same
   request path in process, closed loop, through the layers' public
   functions: Http parse, Cache.find, the engine under a fresh budget on
   a miss, JSON encode and Http.response.  The latency metrics come from
   that second phase: on a shared 2-vCPU virtual machine the socket
   round trip to the server moved with the host's speed far more than
   the in-process path (IQR / median of p99 over five 30-s runs: 1.4
   against 0.1).  The server's own latencies go to the run metadata. *)

module Engine = Xks_core.Engine
module Json = Xks_trace.Json
module Http = Xks_serve.Http
module Cache = Xks_exec.Cache
module Budget = Xks_robust.Budget

let pool_size = 400
let pool_seed = 3307
let epoch = 4000
let cache_mb = 1
let deadline_ms = 200
let warmup_requests = 2000
let fixed_rate = 250.  (* requests/s of the server phase *)
(* share of an untraced run spent on the server phase; the in-process
   phase gets the rest *)
let server_share = 1. /. 3.

(* Server starts per run.  A start takes ~0.2 s, and from one start to
   the next, within a second, its time falls in one of two clusters ~50%
   apart; set-up counts the median of nine. *)
let start_reps = 9

(* The first [pool_size] Workload_gen queries whose posting lists total
   at most [max_postings]: a deterministic property of the corpus that
   keeps single misses short next to the request spacing, so p99 reflects
   the miss cost distribution instead of the few queue pile-ups behind
   the very heaviest queries. *)
let max_postings = 3000

let pool idx =
  Xks_datagen.Workload_gen.generate ~seed:pool_seed ~count:(8 * pool_size) idx
  |> List.filter (fun ws ->
         Array.fold_left (fun a p -> a + Array.length p) 0
           (Xks_index.Inverted.postings idx ws)
         <= max_postings)
  |> List.filteri (fun i _ -> i < pool_size)
  |> Array.of_list

(* --- a minimal HTTP/1.1 client over a Unix-domain socket --- *)

type conn = { fd : Unix.file_descr; mutable pending : string; chunk : Bytes.t }

(* The socket is non-blocking and the client busy-polls it, so the
   generator's own wake-up latency stays out of the measured round trip
   (the generator has its own CPU: one worker + one connection = nproc). *)
let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
      Unix.set_nonblock fd;
      { fd; pending = ""; chunk = Bytes.create 65536 }
  | exception e ->
      Unix.close fd;
      raise e

let close c = try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ()

let rec write_all fd s off =
  if off < String.length s then
    match Unix.write_substring fd s off (String.length s - off) with
    | n -> write_all fd s (off + n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        write_all fd s off

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go 0

let rec fill c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> failwith "serve: connection closed by the server"
  | n -> c.pending <- c.pending ^ Bytes.sub_string c.chunk 0 n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> fill c

(* Send one GET and read its response: (status, body). *)
let get c target =
  write_all c.fd (Printf.sprintf "GET %s HTTP/1.1\r\nhost: bench\r\n\r\n" target) 0;
  let rec head () =
    match find_sub c.pending "\r\n\r\n" with Some i -> i | None -> fill c; head ()
  in
  let h = head () in
  let head_text = String.lowercase_ascii (String.sub c.pending 0 h) in
  let status = Scanf.sscanf head_text "http/1.%d %d" (fun _ s -> s) in
  let len =
    match find_sub head_text "content-length:" with
    | None -> 0
    | Some i ->
        let rest = String.sub head_text (i + 15) (String.length head_text - i - 15) in
        Scanf.sscanf rest " %d" Fun.id
  in
  while String.length c.pending < h + 4 + len do
    fill c
  done;
  let body = String.sub c.pending (h + 4) len in
  c.pending <- String.sub c.pending (h + 4 + len) (String.length c.pending - h - 4 - len);
  (status, body)

let target ws = "/search?q=" ^ String.concat "+" ws

(* --- the server process --- *)

type server = { pid : int; sock : string }

let spawn ~xks ~dir =
  let sock = Filename.concat dir "serve.sock" in
  let args =
    [|
      xks; "serve"; Corpus.xml_path ~dir Corpus.Dblp;
      "--index"; Corpus.idx_path ~dir Corpus.Dblp;
      "--socket"; sock; "--workers"; "1"; "--queue"; "2";
      "--cache-mb"; string_of_int cache_mb;
      "--timeout-ms"; string_of_int deadline_ms;
    |]
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let log =
    Unix.openfile (Filename.concat dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null; Unix.close log)
      (fun () -> Unix.create_process xks args null null log)
  in
  { pid; sock }

let stop srv =
  (try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error (_, _, _) -> ());
  let rec reap () =
    match Unix.waitpid [] srv.pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | exception Unix.Unix_error (_, _, _) -> ()
  in
  reap ()

(* Spawn and wait until /health answers; returns the server and an open
   connection. *)
let start ~xks ~dir =
  let t0 = Stats.now_ms () in
  let srv = spawn ~xks ~dir in
  let rec attempt () =
    if Stats.now_ms () -. t0 > 60_000. then begin
      stop srv;
      failwith "serve: the server did not answer /health within 60 s"
    end;
    match connect srv.sock with
    | c -> (
        match get c "/health" with
        | 200, _ -> c
        | _ | (exception Failure _) ->
            close c;
            Unix.sleepf 0.002;
            attempt ())
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        (match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
        | 0, _ -> ()
        | _ -> failwith "serve: the server exited during start-up");
        Unix.sleepf 0.002;
        attempt ()
  in
  (srv, attempt ())

let stats_field c name =
  match get c "/stats" with
  | 200, body -> (
      match Option.bind (Json.member name (Json.parse body)) Json.to_int with
      | Some v -> v
      | None -> 0)
  | _ -> 0

(* --- open-loop generator --- *)

type sample = {
  rank : int;
  due : float;
  latency_ms : float;  (* from the due time to the last response byte *)
  late_ms : float;  (* how late the request was sent *)
  status : int;
  body : string;
}

(* Wait until [due]: sleep most of the way, then spin the last 0.3 ms so
   sleep overshoot does not land in the measured latency. *)
let wait_until due =
  let rec spin () = if Stats.now_ms () < due then spin () in
  let ahead = due -. Stats.now_ms () in
  if ahead > 0.5 then Unix.sleepf ((ahead -. 0.3) /. 1000.);
  spin ()

(* [next ()] gives the next request as (pool rank, target). *)
let open_loop c ~rate ~duration_s ~next =
  let n = max 1 (int_of_float (rate *. duration_s)) in
  let t0 = Stats.now_ms () +. 1. in
  let samples =
    Array.init n (fun i ->
        let due = t0 +. (float_of_int i *. 1000. /. rate) in
        wait_until due;
        let rank, target = next () in
        let sent = Stats.now_ms () in
        let status, body = get c target in
        { rank; due; latency_ms = Stats.now_ms () -. due; late_ms = sent -. due; status; body })
  in
  (samples, (Stats.now_ms () -. t0) /. 1000.)

let lat_of samples = Array.map (fun s -> s.latency_ms) samples

(* --- output check --- *)

let hit_json (h : Engine.hit) =
  Json.Obj
    [
      ("score", Json.Float h.score);
      ("slca", Json.Bool h.is_slca);
      ("nodes", Json.Int (Xks_core.Fragment.size h.fragment));
    ]

(* A non-degraded answer must match in-process Engine.search_result for
   the same parameters: its total and its (first ten) scored hits. *)
let check_response (expected : Engine.search_result) body =
  let j = Json.parse body in
  if Option.bind (Json.member "degraded" j) Json.to_str <> None then `Degraded
  else
    let total = Option.bind (Json.member "total" j) Json.to_int in
    let hits = Option.map Json.to_string (Json.member "hits" j) in
    let want =
      Json.to_string
        (Json.List (List.map hit_json (List.filteri (fun i _ -> i < 10) expected.hits)))
    in
    if total = Some (List.length expected.hits) && hits = Some want then `Ok else `Wrong

let cost_of (r : Engine.search_result) =
  List.fold_left
    (fun acc (h : Engine.hit) -> acc + 160 + (24 * Xks_core.Fragment.size h.fragment))
    0 r.hits

(* --- the request path in process --- *)

let budget_class =
  Xks_exec.Exec.budget_class_of
    (Some { Xks_exec.Exec.deadline_ms = Some deadline_ms; max_nodes = None })

let response_of ws (r : Engine.search_result) =
  let body =
    Json.Obj
      [
        ("id", Json.String "c1.r1");
        ("query", Json.List (List.map (fun w -> Json.String w) ws));
        ("algorithm", Json.String "validrtf");
        ("rank", Json.String "heuristic");
        ("k", Json.Null);
        ("budget_class", Json.String budget_class);
        ( "degraded",
          match r.degraded with
          | None -> Json.Null
          | Some reason -> Json.String (Budget.reason_to_string reason) );
        ("total", Json.Int (List.length r.hits));
        ("hits", Json.List (List.map hit_json (List.filteri (fun i _ -> i < 10) r.hits)));
      ]
  in
  Http.response ~headers:[ ("x-request-id", "c1.r1") ] ~status:200 (Json.to_string body)

(* The server's request path in process, through the layers' public
   functions: Http parse, Cache.find, the engine on a miss (under a
   fresh 200 ms budget, as the server runs it), Http.response.  Returns
   whether the cache answered, and the answer. *)
let replay (sp : Spans.wrap) cache engine ws ~on_miss =
  let req =
    sp.w "http.parse" (fun () ->
        let r = Http.reader Http.default_limits in
        Http.feed r (Printf.sprintf "GET %s HTTP/1.1\r\nhost: bench\r\n\r\n" (target ws));
        Http.next r)
  in
  let ws =
    match req with
    | Some r ->
        String.split_on_char ' '
          (Option.value ~default:"" (List.assoc_opt "q" r.Http.params))
        |> List.filter (fun w -> w <> "")
    | None -> ws
  in
  let key =
    Cache.key ~engine ~algorithm:Engine.Validrtf ~rank:`Heuristic ~budget_class ws
  in
  let cached =
    match key with
    | None -> None
    | Some k -> sp.w "cache.find" (fun () -> Cache.find cache k)
  in
  let result =
    match cached with
    | Some r -> r
    | None ->
        let budget = Budget.create ~deadline_ms () in
        let r =
          sp.w "engine.miss" (fun () ->
              Engine.search_result ~rank:`Heuristic ~budget engine ws)
        in
        on_miss (Budget.visited budget);
        Option.iter (fun k -> Cache.add cache k r) key;
        r
  in
  ignore (sp.w "http.response" (fun () -> response_of ws result) : string);
  (Option.is_some cached, result)

(* The in-process answer must be the in-process Engine.search_result's,
   undegraded. *)
let same_answer (expected : Engine.search_result) (r : Engine.search_result) =
  r.degraded = None
  && List.length r.hits = List.length expected.hits
  && List.for_all2
       (fun (a : Engine.hit) (b : Engine.hit) ->
         Float.equal a.score b.score && a.is_slca = b.is_slca
         && Xks_core.Fragment.equal a.fragment b.fragment)
       r.hits expected.hits

let run ~dir ~xks ~seed ~seconds ~trace =
  let s = Corpus.setup ~dir Corpus.Dblp in
  let tr = Loop.traced () in
  let write_problems, write_metrics = Loop.write_path tr ~trace ~dir Corpus.Dblp in
  let engine = s.engine in
  let pool = pool (Engine.index engine) in
  (* expected answers (untimed), which also size the result working set *)
  let expected = Array.map (fun ws -> Engine.search_result engine ws) pool in
  let working_set = Array.fold_left (fun acc r -> acc + cost_of r) 0 expected in
  let stream = Zipf.create ~seed ~n:(Array.length pool) ~epoch in
  let next () =
    let r = Zipf.next stream in
    (r, target pool.(r))
  in
  (* server start: spawn until /health answers, median of [start_reps]
     starts, each at the reference host speed *)
  let starts =
    List.init start_reps (fun i ->
        let (srv, c), secs, speed = Speed.timed_raw (fun () -> start ~xks ~dir) in
        if i < start_reps - 1 then begin
          close c;
          stop srv
        end;
        (srv, c, (secs, speed)))
  in
  let srv, c, _ = List.nth starts (start_reps - 1) in
  let start_raw = List.map (fun (_, _, x) -> x) starts in
  let start_s =
    Stats.median (Array.of_list (List.map (fun (s, t) -> Speed.setup_scaled s t) start_raw))
  in
  (* set-up time: what a deployment does before its first request, the
     corpus set-up (as on dblp-full) and then the server start *)
  let setup_s = s.setup_s +. start_s in
  let finish () =
    close c;
    stop srv
  in
  (* the traced run replays the server phase, so it gets the whole run *)
  let server_s = if trace then seconds else Float.max 1. (seconds *. server_share) in
  let samples, warm, rejected, timed_out, server_rss =
    Fun.protect ~finally:finish (fun () ->
        let warm = Array.init warmup_requests (fun _ -> Zipf.next stream) in
        Array.iter (fun r -> ignore (get c (target pool.(r)) : int * string)) warm;
        let rej0 = stats_field c "rejected" and to0 = stats_field c "timed_out" in
        let samples, _ = open_loop c ~rate:fixed_rate ~duration_s:server_s ~next in
        let rejected = stats_field c "rejected" - rej0 in
        let timed_out = stats_field c "timed_out" - to0 in
        let rss = Report.peak_rss_mb ~pid:(string_of_int srv.pid) () in
        (samples, warm, rejected, timed_out, rss))
  in
  let failed = ref 0 and degraded = ref 0 and problems = ref (List.rev write_problems) in
  let fail ws what =
    incr failed;
    problems := Printf.sprintf "%s on [%s]" what (String.concat " " ws) :: !problems
  in
  let seen = Hashtbl.create pool_size in
  Array.iter
    (fun smp ->
      if smp.status <> 200 then incr failed
      else
        match check_response expected.(smp.rank) smp.body with
        | `Ok -> Hashtbl.replace seen smp.rank ()
        | `Degraded ->
            (* 0 on a healthy run (every pool query is far inside the
               budget): a change that buys latency by answering further
               down the ladder fails the run *)
            incr degraded;
            fail pool.(smp.rank) "degraded response"
        | `Wrong -> fail pool.(smp.rank) "response differs"
        | exception Json.Parse_error e ->
            incr failed;
            problems := ("unparsable response: " ^ e) :: !problems)
    samples;
  let lat = lat_of samples in
  let last = samples.(Array.length samples - 1) in
  let buf = Buffer.create 4096 in
  Hashtbl.fold (fun r () acc -> r :: acc) seen []
  |> List.sort compare
  |> List.iter (fun r ->
         Printf.bprintf buf "%s|" (String.concat " " pool.(r));
         Wl_full.hits_digest buf expected.(r).hits);
  let late = Array.map (fun x -> x.late_ms) samples in
  let meta =
    [
      ("corpus", Corpus.setup_meta s);
      ("corpus_setup_s", Json.Float s.setup_s);
      ("server_start_s", Json.Float start_s);
      ("server_start_raw_s", Json.List (List.map (fun (s, _) -> Json.Float s) start_raw));
      ("server_start_speed_ms", Json.List (List.map (fun (_, t) -> Json.Float t) start_raw));
      ("pool_distinct", Json.Int (Array.length pool));
      ("pool_max_postings", Json.Int max_postings);
      ("distinct_checked", Json.Int (Hashtbl.length seen));
      ("cache_bytes", Json.Int (cache_mb * 1024 * 1024));
      ("result_working_set_bytes", Json.Int working_set);
      ("server_workers", Json.Int 1);
      ("generator_connections", Json.Int 1);
      ("deadline_ms", Json.Int deadline_ms);
      ("fixed_rate_qps", Json.Float fixed_rate);
      ("warmup_requests", Json.Int (Array.length warm));
      ("degraded", Json.Int !degraded);
      ("server_requests", Json.Int (Array.length samples));
      ("server_p50_ms", Json.Float (Stats.median lat));
      ("server_p99_ms", Json.Float (Stats.percentile 99. lat));
      ( "server_achieved_qps",
        Json.Float
          (float_of_int (Array.length samples)
          /. ((last.due +. last.latency_ms -. samples.(0).due) /. 1000.)) );
      ("loadgen_late_p50_ms", Json.Float (Stats.median late));
      ("loadgen_late_max_ms", Json.Float (Array.fold_left Float.max 0. late));
    ]
  in
  let cache () = Cache.create ~max_bytes:(cache_mb * 1024 * 1024) () in
  let attempted, metrics, meta =
    if not trace then begin
      (* The in-process phase: its own cache of the server's size, warmed
         untimed, then one closed-loop client on the rest of the stream. *)
      let cache = cache () in
      for _ = 1 to warmup_requests do
        ignore (replay Spans.untimed cache engine pool.(Zipf.next stream) ~on_miss:ignore : bool * Engine.search_result)
      done;
      let hits = ref 0 in
      let run =
        Loop.closed ~seconds:(Float.max 1. (seconds -. server_s)) (fun _ ->
            let r = Zipf.next stream in
            let (hit, answer), ms =
              Loop.time (fun () -> replay Spans.untimed cache engine pool.(r) ~on_miss:ignore)
            in
            if hit then incr hits;
            if not (same_answer expected.(r) answer) then fail pool.(r) "in-process answer differs";
            ms)
      in
      let ops = Array.length run.lat in
      ( Array.length samples + ops,
        Loop.latency_metrics run
        @ [
            ("setup_s", setup_s);
            ("peak_rss_mb", server_rss);
            ("index_bytes_ratio", float_of_int s.index_bytes /. float_of_int s.xml_bytes);
          ],
        meta
        @ [ ("in_process_hit_ratio", Json.Float (float_of_int !hits /. float_of_int (max 1 ops))) ]
        @ Loop.latency_meta run )
    end
    else begin
      (* Replay warm-up and server phase in process, in the same order,
         through a cache of the server's size: the same key sequence
         gives the same hits, misses and evictions. *)
      let cache = cache () in
      let ticks = ref 0 and misses = ref 0 in
      Array.iter
        (fun r -> ignore (replay Spans.untimed cache engine pool.(r) ~on_miss:ignore : bool * Engine.search_result))
        warm;
      let before = Cache.stats cache in
      let sp = Spans.wrap tr.spans in
      Array.iter
        (fun smp ->
          ignore
            (Loop.replay tr (fun () ->
                 replay sp cache engine pool.(smp.rank) ~on_miss:(fun v ->
                     incr misses;
                     ticks := !ticks + v))
              : bool * Engine.search_result))
        samples;
      let after = Cache.stats cache in
      let self =
        Stats.self_by_name ~keep:(fun s -> s.Stats.op >= 0) (Spans.to_array tr.spans)
      in
      let ops = float_of_int (max 1 tr.ops) in
      let total name = Option.value ~default:0. (List.assoc_opt name self) in
      let service = List.fold_left (fun acc (_, v) -> acc +. v) 0. self in
      let hits = after.hits - before.hits and miss_n = after.misses - before.misses in
      ( Array.length samples,
        write_metrics
        @ [
            ("cache.hit_ratio", float_of_int hits /. float_of_int (max 1 (hits + miss_n)));
            ("cache.evictions", float_of_int (after.evictions - before.evictions));
            ("cache.find_us", 1000. *. total "cache.find" /. ops);
            ("http.parse_us", 1000. *. total "http.parse" /. ops);
            ("http.response_us", 1000. *. total "http.response" /. ops);
            ("server.wait_ms", (Array.fold_left ( +. ) 0. lat -. service) /. ops);
            ("server.rejected", float_of_int rejected);
            ("server.timed_out", float_of_int timed_out);
            ("budget.ticks", float_of_int !ticks /. float_of_int (max 1 !misses));
            ("engine.miss_ms", total "engine.miss" /. float_of_int (max 1 !misses));
            ("loadgen.late_ms", Stats.mean late);
          ],
        meta )
    end
  in
  ( {
      Report.attempted;
      failed = !failed;
      metrics;
      meta;
      digest = Digest.to_hex (Digest.string (Buffer.contents buf));
      problems = List.rev !problems;
    },
    tr.spans )
