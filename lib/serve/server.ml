(* Overload-safe HTTP/1.1 serving over a Unix-domain socket.

   Request flow: admission → deadline → pool → ladder → response.  The
   accept loop (the caller's domain) claims a slot from the lock-free
   [Admission] gate; an admitted connection is registered in the
   connection table and handed to an [Exec.Pool] worker, a rejected one
   is shed immediately with a 503 + Retry-After — the gate's
   [workers + queue] bound is the only buffering in the system.  Each
   worker owns its connection end to end: it parses requests
   incrementally under idle/read caps, runs the query under the
   configured [Budget] recipe (slow queries ride the ValidRTF → MaxMatch
   → SLCA degradation ladder; the JSON response carries the [degraded]
   reason and budget class), and answers on the same socket under a
   write cap.  A keep-alive connection holds its admission slot for its
   whole lifetime, so overload shows up at connect time, never as an
   unbounded backlog.

   Shutdown state machine (driven by [run] after [request_shutdown]
   flips the atomic stop flag, e.g. from a SIGTERM handler):

     accepting --stop--> draining --all done--> closed
                            | drain deadline
                            v
                         aborting (shutdown(2) every live socket,
                                   wait for the workers, then closed)

   Workers observe the stop flag between requests and answer with
   [Connection: close], so draining converges; sockets cut at the
   deadline wake their worker's blocking read immediately.  The
   per-connection cleanup path is the single place that closes the fd
   and removes the table entry, whichever way the connection ends.  The
   admission slot is released exactly once per connection: just before
   a final response (one that carries [connection: close]) is written,
   so a client that reconnects the moment it reads that response is
   never shed for its own previous connection, and otherwise by the
   cleanup.  A worker may therefore still be writing a final response
   after its slot is free, so draining waits until the connection table
   is empty, not only the slots: the drain deadline cuts those writes
   too ([write_timeout_ms] caps each send, not a whole response that a
   slow reader keeps accepting).

   Lock discipline (machine-checked by xksrace): the connection table is
   guarded by [mutex]; every counter, and the stop flag, is an
   [Atomic.t] shared freely between the accept domain and the workers. *)

module Engine = Xks_core.Engine
module Fragment = Xks_core.Fragment
module Exec = Xks_exec.Exec
module Pool = Xks_exec.Pool
module Cache = Xks_exec.Cache
module Budget = Xks_robust.Budget
module Limits = Xks_robust.Limits
module Admission = Xks_robust.Admission
module Failpoint = Xks_robust.Failpoint
module Trace = Xks_trace.Trace
module Json = Xks_trace.Json

let read_site = "serve.read"

type config = {
  socket_path : string;
  workers : int;
  queue : int;
  deadline_ms : int option;
  max_nodes : int option;
  idle_timeout_ms : int;
  read_timeout_ms : int;
  write_timeout_ms : int;
  drain_timeout_ms : int;
  retry_after_s : int;
  algorithm : Engine.algorithm;
  cache_mb : int;
  max_hits : int;
  http_limits : Http.limits;
  log : string -> unit;
}

let default_config ~socket_path () =
  {
    socket_path;
    workers = Pool.default_size ();
    queue = 2 * Pool.default_size ();
    deadline_ms = Some 200;
    max_nodes = None;
    idle_timeout_ms = 5_000;
    read_timeout_ms = 2_000;
    write_timeout_ms = 2_000;
    drain_timeout_ms = 2_000;
    retry_after_s = 1;
    algorithm = Engine.Validrtf;
    cache_mb = 8;
    max_hits = 50;
    http_limits = Http.default_limits;
    log = (fun _ -> ());
  }

type stats = {
  accepted : int;
  served : int;
  rejected : int;
  timed_out : int;
  aborted : int;
  active : int;
}

type t = {
  cfg : config;
  engine : Engine.t;
  pool : Pool.t;
  cache : Cache.t option;
  admission : Admission.t;
  listen_fd : Unix.file_descr;
  stop_flag : bool Atomic.t;
  accepted : int Atomic.t;
  served : int Atomic.t;
  timed_out : int Atomic.t;
  aborted : int Atomic.t;
  next_conn_id : int Atomic.t;
  mutex : Mutex.t;
  (* xksrace: guarded_by mutex *)
  conns : (int, Unix.file_descr) Hashtbl.t;
}

let config t = t.cfg

let stats t =
  {
    accepted = Atomic.get t.accepted;
    served = Atomic.get t.served;
    rejected = Admission.rejected_total t.admission;
    timed_out = Atomic.get t.timed_out;
    aborted = Atomic.get t.aborted;
    active = Admission.outstanding t.admission;
  }

let stats_line (s : stats) =
  Printf.sprintf
    "serve: accepted=%d served=%d rejected=%d timed_out=%d aborted=%d \
     active=%d"
    s.accepted s.served s.rejected s.timed_out s.aborted s.active

(* --- construction --- *)

let remove_stale_socket path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_SOCK -> Unix.unlink path
  | Unix.S_REG | Unix.S_DIR | Unix.S_CHR | Unix.S_BLK | Unix.S_LNK
  | Unix.S_FIFO ->
      failwith (Printf.sprintf "serve: %s exists and is not a socket" path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Open, bind and listen on the control socket.  Ownership of the fd
   transfers to the caller by return; until then the bind/listen
   failure path releases it before re-raising. *)
let acquire_listener cfg =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX cfg.socket_path);
     Unix.listen fd (cfg.workers + cfg.queue + 16)
   with e ->
     (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
     raise e);
  fd

let create cfg engine =
  if cfg.max_hits < 1 then invalid_arg "Server.create: max_hits must be >= 1";
  let admission = Admission.create ~workers:cfg.workers ~queue:cfg.queue in
  (* A worker writing to a half-closed socket must get EPIPE, not kill
     the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  remove_stale_socket cfg.socket_path;
  (* Anything that can refuse its configuration (the cache validates
     max_bytes) runs before any resource is acquired; the pool — whose
     domains are themselves a resource — comes next, and the listener
     last, shutting the pool down if the socket can't be had.  This
     ordering keeps every raise path free of stranded domains and fds. *)
  let cache =
    if cfg.cache_mb > 0 then
      Some (Cache.create ~max_bytes:(cfg.cache_mb * 1024 * 1024) ())
    else None
  in
  let pool = Pool.create ~size:cfg.workers ~oversubscribe:true () in
  let listen_fd =
    try acquire_listener cfg
    with e ->
      Pool.shutdown pool;
      raise e
  in
  {
    cfg;
    engine;
    pool;
    cache;
    admission;
    listen_fd;
    stop_flag = Atomic.make false;
    accepted = Atomic.make 0;
    served = Atomic.make 0;
    timed_out = Atomic.make 0;
    aborted = Atomic.make 0;
    next_conn_id = Atomic.make 1;
    mutex = Mutex.create ();
    conns = Hashtbl.create 64;
  }

let request_shutdown t = Atomic.set t.stop_flag true

(* --- socket I/O with timeouts --- *)

let ms_to_s ms = float_of_int ms /. 1000.

type write_outcome = W_ok | W_timeout | W_closed

let try_write fd s =
  let n = String.length s in
  let rec go off =
    if off >= n then W_ok
    else
      match Unix.write_substring fd s off (n - off) with
      | 0 -> W_closed
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          W_timeout
      | exception Unix.Unix_error (_, _, _) -> W_closed
  in
  go 0

type read_outcome =
  | R_request of Http.request
  | R_eof
  | R_timeout
  | R_error of exn  (* Bad_request or Limit_exceeded from the parser *)

(* Read until the buffered bytes form a complete request.  The idle cap
   ([idle_ms], defaulting to the configured idle timeout) applies while
   waiting for a request's first byte; once any byte of the head has
   arrived the (total, not per-read) read cap takes over, so a client
   trickling one byte per second cannot hold a worker beyond
   [read_timeout_ms]. *)
let read_request ?idle_ms t reader fd =
  let idle_ms =
    match idle_ms with Some ms -> ms | None -> t.cfg.idle_timeout_ms
  in
  let chunk = Bytes.create 4096 in
  let started =
    ref
      (if Http.pending_bytes reader > 0 then Some (Unix.gettimeofday ())
       else None)
  in
  let rec go () =
    match Http.next reader with
    | Some req -> R_request req
    | exception (Http.Bad_request _ as e) -> R_error e
    | exception (Limits.Limit_exceeded _ as e) -> R_error e
    | None ->
        let timeout =
          match !started with
          | None -> ms_to_s idle_ms
          | Some t0 ->
              ms_to_s t.cfg.read_timeout_ms -. (Unix.gettimeofday () -. t0)
        in
        if timeout <= 0. then R_timeout
        else begin
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> R_eof
          | n ->
              if !started = None then started := Some (Unix.gettimeofday ());
              Http.feed reader
                (Failpoint.apply read_site (Bytes.sub_string chunk 0 n));
              go ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              R_timeout
          | exception Unix.Unix_error (_, _, _) -> R_eof
        end
  in
  go ()

(* --- request handling (runs on a pool worker) --- *)

let rec take n l =
  match l with [] -> [] | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

let algorithm_of_string = function
  | "validrtf" -> Some Engine.Validrtf
  | "maxmatch" -> Some Engine.Maxmatch
  | "maxmatch-original" -> Some Engine.Maxmatch_original
  | _ -> None

let algorithm_name = function
  | Engine.Validrtf -> "validrtf"
  | Engine.Maxmatch -> "maxmatch"
  | Engine.Maxmatch_original -> "maxmatch-original"

let rank_of_string = function
  | "heuristic" -> Some `Heuristic
  | "bm25" -> Some `Bm25
  | "doc" -> Some `Doc
  | _ -> None

let rank_name = function
  | `Heuristic -> "heuristic"
  | `Bm25 -> "bm25"
  | `Doc -> "doc"

let budget_spec t =
  if t.cfg.deadline_ms = None && t.cfg.max_nodes = None then None
  else
    Some { Exec.deadline_ms = t.cfg.deadline_ms; max_nodes = t.cfg.max_nodes }

let err_obj trace_id msg =
  Json.Obj [ ("id", Json.String trace_id); ("error", Json.String msg) ]

let hit_json h =
  Json.Obj
    [
      ("score", Json.Float h.Engine.score);
      ("slca", Json.Bool h.Engine.is_slca);
      ("nodes", Json.Int (Fragment.size h.Engine.fragment));
    ]

let search_response t trace_id req =
  let q = match List.assoc_opt "q" req.Http.params with Some q -> q | None -> "" in
  let keywords =
    String.split_on_char ' ' q |> List.filter (fun w -> w <> "")
  in
  if keywords = [] then (400, err_obj trace_id "missing or empty q parameter")
  else
    let algorithm =
      match List.assoc_opt "algorithm" req.Http.params with
      | None -> Some t.cfg.algorithm
      | Some a -> algorithm_of_string a
    in
    match algorithm with
    | None -> (400, err_obj trace_id "unknown algorithm")
    | Some algorithm -> (
        let limit =
          match List.assoc_opt "limit" req.Http.params with
          | None -> 10
          | Some v -> (
              match int_of_string_opt v with
              | Some n when n >= 0 -> n
              | Some _ | None -> -1)
        in
        let rank =
          match List.assoc_opt "rank" req.Http.params with
          | None -> Some `Heuristic
          | Some r -> rank_of_string r
        in
        (* k must be a positive integer; anything else is a client
           error, not a silent default. *)
        let k =
          match List.assoc_opt "k" req.Http.params with
          | None -> Some None
          | Some v -> (
              match int_of_string_opt v with
              | Some n when n >= 1 -> Some (Some n)
              | Some _ | None -> None)
        in
        if limit < 0 then (400, err_obj trace_id "malformed limit")
        else
          match (rank, k) with
          | None, (Some _ | None) -> (400, err_obj trace_id "unknown rank")
          | Some _, None -> (400, err_obj trace_id "malformed k")
          | Some rank, Some k -> (
          let limit = if limit > t.cfg.max_hits then t.cfg.max_hits else limit in
          let budget = budget_spec t in
          match
            Exec.search_batch_results ?cache:t.cache ~algorithm ~rank ?k
              ?budget t.engine [ keywords ]
          with
          | results ->
              let r = results.(0) in
              let degraded =
                match r.Engine.degraded with
                | None -> Json.Null
                | Some reason -> Json.String (Budget.reason_to_string reason)
              in
              ( 200,
                Json.Obj
                  [
                    ("id", Json.String trace_id);
                    ( "query",
                      Json.List (List.map (fun w -> Json.String w) keywords)
                    );
                    ("algorithm", Json.String (algorithm_name algorithm));
                    ("rank", Json.String (rank_name rank));
                    ( "k",
                      match k with None -> Json.Null | Some k -> Json.Int k );
                    ( "budget_class",
                      Json.String (Exec.budget_class_of budget) );
                    ("degraded", degraded);
                    ("total", Json.Int (List.length r.Engine.hits));
                    ( "hits",
                      Json.List (List.map hit_json (take limit r.Engine.hits))
                    );
                  ] )
          | exception Invalid_argument msg -> (400, err_obj trace_id msg)))

let stats_json t =
  let s = stats t in
  Json.Obj
    [
      ("accepted", Json.Int s.accepted);
      ("served", Json.Int s.served);
      ("rejected", Json.Int s.rejected);
      ("timed_out", Json.Int s.timed_out);
      ("aborted", Json.Int s.aborted);
      ("active", Json.Int s.active);
      ("capacity", Json.Int (Admission.capacity t.admission));
    ]

let route t trace_id req =
  if req.Http.meth <> "GET" then
    (405, err_obj trace_id ("method not allowed: " ^ req.Http.meth))
  else
    match req.Http.path with
    | "/search" -> search_response t trace_id req
    | "/health" ->
        ( 200,
          Json.Obj
            [ ("id", Json.String trace_id); ("status", Json.String "ok") ] )
    | "/stats" -> (200, stats_json t)
    | p -> (404, err_obj trace_id ("no such endpoint: " ^ p))

(* [release_slot] runs before a final response ([close]) is written:
   a client that reconnects the moment it reads that response must find
   the connection's admission slot free again. *)
let respond t fd ~release_slot ~close ~status ~trace_id body_obj =
  let headers = [ ("x-request-id", trace_id) ] in
  let headers =
    if close then ("connection", "close") :: headers else headers
  in
  let resp = Http.response ~headers ~status (Json.to_string body_obj) in
  if close then release_slot ();
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO (ms_to_s t.cfg.write_timeout_ms);
  match try_write fd resp with
  | W_ok ->
      Atomic.incr t.served;
      Trace.incr Trace.Requests_served;
      `Sent
  | W_timeout ->
      Atomic.incr t.timed_out;
      Trace.incr Trace.Requests_timed_out;
      `Gone
  | W_closed -> `Gone

let parse_error_message e =
  match Limits.error_to_string e with
  | Some msg -> msg
  | None -> ( match e with Http.Bad_request msg -> msg | _ -> "bad request")

(* One worker owns the whole connection: parse → route → respond, then
   loop while keep-alive holds.  Parse errors answer 400 and close (the
   framing is unknown past the error); a mid-request read timeout
   answers 408 best-effort and closes; the idle timeout between
   requests is a silent, normal close. *)
let conn_loop t ~release_slot conn_id fd =
  let reader = Http.reader t.cfg.http_limits in
  let req_seq = ref 0 in
  let rec loop () =
    (* Once the stop flag is up, one final read under a short idle cap
       picks up a request that was already in flight when the flag
       flipped — it gets its response (carrying [connection: close])
       instead of a silent close; 20 ms of silence means the client
       really was idle between requests.  Either way the iteration is
       the last one, so draining converges. *)
    let stopping = Atomic.get t.stop_flag in
    let idle_ms =
      if stopping then min 20 t.cfg.idle_timeout_ms
      else t.cfg.idle_timeout_ms
    in
    match read_request ~idle_ms t reader fd with
    | R_eof -> ()
    | R_timeout ->
        if Http.pending_bytes reader > 0 then begin
          Atomic.incr t.timed_out;
          Trace.incr Trace.Requests_timed_out;
          let trace_id = Printf.sprintf "c%d.r%d" conn_id (!req_seq + 1) in
          (match
             respond t fd ~release_slot ~close:true ~status:408 ~trace_id
               (err_obj trace_id "request read timed out")
           with
          | `Sent | `Gone -> ())
        end
    | R_error e ->
        incr req_seq;
        let trace_id = Printf.sprintf "c%d.r%d" conn_id !req_seq in
        (match
           respond t fd ~release_slot ~close:true ~status:400 ~trace_id
             (err_obj trace_id (parse_error_message e))
         with
        | `Sent | `Gone -> ())
    | R_request req -> (
        incr req_seq;
        let trace_id = Printf.sprintf "c%d.r%d" conn_id !req_seq in
        let close =
          stopping || Atomic.get t.stop_flag || not (Http.keep_alive req)
        in
        let status, body =
          Trace.with_span "serve.request" (fun () -> route t trace_id req)
        in
        match respond t fd ~release_slot ~close ~status ~trace_id body with
        | `Sent -> if not close then loop ()
        | `Gone -> ())
  in
  loop ()

(* The connection's admission slot is released exactly once: before
   its final response is written when it ends with one, else by the
   cleanup. *)
(* xksleak: owns fd *)
let serve_conn t conn_id fd =
  let released = ref false in
  let release_slot () =
    if not !released then begin
      released := true;
      Admission.release t.admission
    end
  in
  let cleanup () =
    Mutex.protect t.mutex (fun () -> Hashtbl.remove t.conns conn_id);
    (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
    release_slot ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      match conn_loop t ~release_slot conn_id fd with
      | () -> ()
      | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
      | exception e ->
          (* last-resort isolation: a handler bug costs one connection,
             never the worker (an escape would kill the pool domain) *)
          t.cfg.log
            (Printf.sprintf "serve: conn %d: handler escape: %s" conn_id
               (Printexc.to_string e)))

(* --- accept loop (runs on the caller's domain) --- *)

(* xksleak: owns fd *)
let reject_503 t fd ~outstanding ~capacity =
  Fun.protect
    ~finally:(fun () ->
      try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
    (fun () ->
      Trace.incr Trace.Requests_rejected;
      let detail =
        match
          Limits.error_to_string (Admission.to_error ~outstanding t.admission)
        with
        | Some s -> s
        | None -> "overloaded"
      in
      let body =
        Json.to_string
          (Json.Obj
             [
               ("error", Json.String "overloaded");
               ("detail", Json.String detail);
               ("outstanding", Json.Int outstanding);
               ("capacity", Json.Int capacity);
               ("retry_after_s", Json.Int t.cfg.retry_after_s);
             ])
      in
      let resp =
        Http.response ~status:503
          ~headers:
            [
              ("retry-after", string_of_int t.cfg.retry_after_s);
              ("connection", "close");
            ]
          body
      in
      (* best-effort, short cap: the accept loop must never block on a
         slow rejected client *)
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO 0.2;
      match try_write fd resp with W_ok | W_timeout | W_closed -> ())

(* xksleak: owns fd *)
let handle_accept t fd =
  match Admission.try_admit t.admission with
  | Admission.Rejected { outstanding; capacity } ->
      reject_503 t fd ~outstanding ~capacity
  | Admission.Admitted -> (
      Atomic.incr t.accepted;
      Trace.incr Trace.Requests_accepted;
      let conn_id = Atomic.fetch_and_add t.next_conn_id 1 in
      Mutex.protect t.mutex (fun () -> Hashtbl.replace t.conns conn_id fd);
      (* the task closure takes the fd with it; the single close site
         is serve_conn's cleanup finalizer, and the Pool_closed race
         below is the new owner declining the handoff *)
      (* xksleak: transfers fd *)
      match Pool.submit t.pool (fun () -> serve_conn t conn_id fd) with
      | () -> ()
      | exception Pool.Pool_closed ->
          (* shutdown raced this accept: cut the connection cleanly *)
          Mutex.protect t.mutex (fun () -> Hashtbl.remove t.conns conn_id);
          (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
          Admission.release t.admission;
          Atomic.incr t.aborted;
          Trace.incr Trace.Requests_aborted)

let accept_loop t =
  let rec loop () =
    if not (Atomic.get t.stop_flag) then begin
      (match Unix.select [ t.listen_fd ] [] [] 0.05 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept ~cloexec:true t.listen_fd with
          | fd, _ -> handle_accept t fd
          | exception
              Unix.Unix_error
                ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR
                  | Unix.ECONNABORTED ),
                  _,
                  _ ) ->
              ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

(* --- shutdown --- *)

(* No slot is taken and no connection is left: a connection leaves the
   table only in its cleanup, after its last write, while its slot may
   already be free when its final response is being written. *)
let settled t =
  Admission.outstanding t.admission = 0
  && Mutex.protect t.mutex (fun () -> Hashtbl.length t.conns = 0)

let drain t =
  (try Unix.close t.listen_fd with Unix.Unix_error (_, _, _) -> ());
  let deadline =
    Unix.gettimeofday () +. ms_to_s t.cfg.drain_timeout_ms
  in
  let rec wait () =
    if settled t then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Unix.sleepf 0.01;
      wait ()
    end
  in
  if not (wait ()) then begin
    let victims =
      Mutex.protect t.mutex (fun () ->
          Hashtbl.fold (fun _ fd acc -> fd :: acc) t.conns [])
    in
    t.cfg.log
      (Printf.sprintf "serve: drain deadline, aborting %d connection(s)"
         (List.length victims));
    List.iter
      (fun fd ->
        Atomic.incr t.aborted;
        Trace.incr Trace.Requests_aborted;
        (* shutdown(2), not close: the worker still owns the fd; this
           just wakes its blocking read/write immediately *)
        try Unix.shutdown fd Unix.SHUTDOWN_ALL
        with Unix.Unix_error (_, _, _) -> ())
      victims;
    let rec settle () =
      if not (settled t) then begin
        Unix.sleepf 0.005;
        settle ()
      end
    in
    settle ()
  end;
  (match Pool.shutdown t.pool with
  | () -> ()
  | exception Pool.Pool_closed -> ());
  (try Sys.remove t.cfg.socket_path with Sys_error _ -> ());
  t.cfg.log (stats_line (stats t))

let run t =
  accept_loop t;
  drain t
