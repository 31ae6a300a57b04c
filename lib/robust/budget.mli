(** Cooperative query budgets: wall-clock deadline + visited-node cap.

    A budget is threaded through the pipeline stages (keyword-node
    collection, Indexed-Stack ELCA, RTF partitioning, pruning), which
    call {!tick} as they visit nodes.  When the budget is exhausted the
    current stage raises {!Exhausted}; {!Xks_core.Engine.search_result}
    catches it and answers from the unbudgeted SLCA-only algorithm
    instead of failing the query.

    The node counter is checked on every tick; the clock only every
    [check_interval] ticked nodes, so a deadline is honoured to within
    one check interval of pipeline work.

    A budget is {e single-domain} state: its counters are plain mutable
    fields, so a [t] must only ever be ticked by one domain.  Parallel
    execution layers create one budget per query on the domain that runs
    it ({!Xks_exec.Exec.search_batch} does exactly this); the pipeline
    itself runs every stage of a query on the calling domain. *)

type reason =
  | Deadline  (** the wall-clock deadline passed *)
  | Node_budget  (** more nodes were visited than allowed *)

exception Exhausted of reason
(** Raised by {!tick} (and {!check}) on exhaustion. *)

type t

val create :
  ?now:(unit -> float) -> ?check_interval:int -> ?deadline_ms:int ->
  ?max_nodes:int -> unit -> t
(** A fresh budget.  [deadline_ms] is relative to [now ()] at creation
    time ([now] defaults to [Unix.gettimeofday]; tests inject a fake
    clock).  Omitted components are unlimited.  [check_interval]
    (default 128) is the number of ticked nodes between clock checks.
    @raise Invalid_argument on a negative [deadline_ms], [max_nodes] or
    non-positive [check_interval]. *)

val tick : t -> int -> unit
(** [tick b n] records [n] more visited nodes.
    @raise Exhausted when the cap or the deadline is hit. *)

val tick_opt : t option -> int -> unit
(** [tick] through an optional budget; [None] is a no-op (the unbudgeted
    fast path). *)

val check : t -> unit
(** Check both components without consuming nodes.
    @raise Exhausted when the cap or the deadline is hit. *)

val visited : t -> int
(** Nodes ticked so far. *)

val reason_to_string : reason -> string
(** ["deadline"] or ["node budget"], for messages. *)
