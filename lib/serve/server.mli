(** Overload-safe HTTP/1.1 serving of keyword search over a Unix-domain
    socket.

    The request flow is admission → deadline → pool → fallback →
    response: the accept loop claims a slot from a bounded
    {!Xks_robust.Admission} gate (capacity [workers + queue]) and hands
    admitted connections to {!Xks_exec.Pool} workers; connections over
    capacity are shed immediately with [503] + [Retry-After] — overload
    never becomes unbounded queueing.  Each request runs under the
    configured {!Xks_robust.Budget} recipe, so a query that exhausts it
    is answered by the SLCA-only algorithm instead of hogging a worker;
    the JSON response carries the [degraded] reason and budget class.
    Keep-alive connections hold their admission slot until they close.

    Endpoints (all [GET], JSON bodies, [x-request-id] on every
    response):
    - [/search?q=w1+w2&algorithm=validrtf&limit=10] — run a query
    - [/health] — liveness probe
    - [/stats] — live counter snapshot (also {!stats})

    Shutdown: {!request_shutdown} (typically from a SIGTERM/SIGINT
    handler — it only flips an atomic, so it is signal-safe) makes
    {!run} stop accepting, drain in-flight connections up to the drain
    deadline, then cut the survivors with [shutdown(2)] and join the
    pool.  {!run} returning means every connection is closed and
    released. *)

type config = {
  socket_path : string;  (** Unix-domain socket path (replaced if stale) *)
  workers : int;  (** pool size = in-flight request budget *)
  queue : int;  (** admitted connections allowed to wait for a worker *)
  deadline_ms : int option;  (** per-request budget deadline *)
  max_nodes : int option;  (** per-request budget node cap *)
  idle_timeout_ms : int;  (** keep-alive wait for a request's first byte *)
  read_timeout_ms : int;  (** total cap on reading one request head+body *)
  write_timeout_ms : int;  (** total cap on writing one response *)
  drain_timeout_ms : int;  (** graceful-shutdown drain budget *)
  retry_after_s : int;  (** advertised in 503 rejections *)
  algorithm : Xks_core.Engine.algorithm;  (** default algorithm *)
  cache_mb : int;  (** result-cache budget; [0] disables the cache *)
  max_hits : int;  (** cap on hits serialized per response *)
  http_limits : Http.limits;  (** request parsing caps *)
  log : string -> unit;  (** diagnostics sink (never stdout) *)
}

val default_config : socket_path:string -> unit -> config
(** Pool-sized workers, queue [2 × workers], 200 ms deadline, 5 s idle /
    2 s read / 2 s write / 2 s drain, 8 MiB cache,
    {!Http.default_limits}, silent log. *)

type t

val create : config -> Xks_core.Engine.t -> t
(** Bind the socket, spawn the worker pool, and ignore [SIGPIPE]
    process-wide (a worker writing to a half-closed socket must get
    [EPIPE], not die).
    @raise Unix.Unix_error when the socket cannot be bound (the CLI's
    exit-code-5 channel).
    @raise Failure when [socket_path] exists and is not a socket.
    @raise Invalid_argument on nonsensical sizes. *)

val run : t -> unit
(** Serve until {!request_shutdown}, then drain (or cut) every
    connection, shut the pool down, remove the socket file, and log the
    final {!stats_line}.  Call from the domain that owns the server;
    blocks. *)

val request_shutdown : t -> unit
(** Flip the stop flag (atomic, signal-safe).  {!run} observes it
    within its 50 ms accept tick. *)

type stats = {
  accepted : int;  (** connections admitted *)
  served : int;  (** responses fully written (any status) *)
  rejected : int;  (** connections shed with 503 at admission *)
  timed_out : int;  (** read/write timeouts that cost a connection *)
  aborted : int;  (** connections cut at the drain deadline *)
  active : int;  (** currently admitted, not yet finished *)
}

val stats : t -> stats
(** Live snapshot (also served at [/stats]). *)

val stats_line : stats -> string
(** One-line rendering, the final line {!run} logs. *)

val config : t -> config

val read_site : string
(** Failpoint site ["serve.read"]: every socket read chunk passes
    through it, so tests inject torn/corrupt/failing reads mid-request
    (see {!Xks_robust.Failpoint}). *)
