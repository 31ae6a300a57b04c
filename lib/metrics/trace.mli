(** Query observability: per-stage wall-clock spans and monotonic
    counters for Algorithm 1's getKeywordNodes → getLCA → getRTF →
    prune → rank pipeline.

    The layer is pull-free and globally gated: instrumentation points in
    {!Xks_core}, {!Xks_lca}, {!Xks_index} and {!Xks_robust} call {!add}
    / {!with_span} unconditionally, and when no trace is installed (the
    default) each call is a single load-and-branch no-op — queries
    without observers pay nothing measurable.  Install a trace around a
    query with {!with_current}:

    {[
      let t = Trace.create () in
      let hits = Trace.with_current t (fun () -> Engine.search e ws) in
      prerr_string (Trace.summary t)
    ]}

    The layer is domain-aware: the current-trace slot is atomic,
    counters are atomic ([Xks_exec.Exec.search_batch] runs whole queries
    on worker domains that tick into the installing domain's trace), and
    degradation events are pushed with a CAS loop.  Spans, in contrast,
    are recorded {e only} on the domain that installed the trace — a span
    call from any other domain is a silent no-op, so the span stack never
    needs a lock.  A trace accumulates across queries until replaced —
    snapshot with {!counter}/{!counters}. *)

type counter =
  | Postings_scanned  (** posting-list entries fetched from the index *)
  | Nodes_visited  (** nodes touched by the LCA stage *)
  | Elca_pushed  (** candidates pushed on the Indexed Stack *)
  | Elca_popped  (** candidates popped (and ELCA-checked) *)
  | Frag_nodes_kept  (** RTF nodes surviving pruning *)
  | Frag_nodes_pruned  (** RTF children discarded by pruning *)
  | Budget_ticks  (** {!Xks_robust.Budget.tick} calls *)
  | Degradations  (** degraded searches (budget exhaustion) *)
  | Cache_hits  (** {!Xks_exec} result-cache lookups answered *)
  | Cache_misses  (** result-cache lookups that ran the pipeline *)
  | Cache_evictions  (** result-cache entries evicted by LRU pressure *)
  | Topk_pruned_postings
      (** driver-posting entries skipped by top-k early termination *)
  | Topk_early_exit
      (** top-k scans that stopped before exhausting the driver list *)

val all_counters : counter list
val counter_name : counter -> string
(** Stable snake_case name, also the JSON key. *)

type span = {
  label : string;  (** stage name, e.g. ["lca"] *)
  depth : int;  (** nesting depth (0 = outermost) *)
  seq : int;  (** start order among the trace's spans *)
  ms : float;  (** elapsed wall-clock milliseconds *)
}

type t

val create : unit -> t
(** A fresh trace: all counters zero, no spans, no events. *)

(** {2 Installing} *)

val set_current : t option -> unit
(** Install ([Some t]) or remove ([None]) the global current trace.
    Installing adopts the calling domain as the trace's span owner.
    Prefer {!with_current}, which restores the previous trace. *)

val get_current : unit -> t option
val enabled : unit -> bool

val with_current : t -> (unit -> 'a) -> 'a
(** Run with [t] installed; the previous current trace is restored on
    exit (also on exception). *)

(** {2 Recording (no-ops when no trace is installed)} *)

val add : counter -> int -> unit
val incr : counter -> unit

val degradation : string -> unit
(** Record a degradation event (e.g. the budget-exhaustion reason) and
    bump {!constructor:Degradations}.  Called once per degraded
    {!Xks_core.Engine.search_result}, also when its hit list is empty. *)

val span_begin : string -> unit
val span_end : string -> unit
(** [span_end label] closes the innermost open span when its label
    matches; a mismatch is dropped silently (an exception may have
    unwound past the opener).  Both are no-ops on any domain other than
    the one that installed the trace.  Prefer {!with_span}. *)

val with_span : string -> (unit -> 'a) -> 'a
(** Time [f] under a named span, exception-safe.  When disabled this is
    exactly [f ()] after one branch. *)

(** {2 Reading} *)

val counter : t -> counter -> int
val counters : t -> (string * int) list
(** All counters, in {!all_counters} order, by {!counter_name}. *)

val spans : t -> span list
(** Completed spans in start order. *)

val degradation_events : t -> string list
(** Reasons recorded by {!degradation}, oldest first. *)

val summary : t -> string
(** Multi-line human-readable report (the CLI's [--stats] output):
    indented stage timings, counters, degradation events. *)

val to_json : t -> Json.t
(** [{"spans": [{"label","depth","ms"}...], "counters": {...},
    "degradations": [...]}] — the [--trace-json] document. *)
