(** Query observability: a fixed table of stage times and monotonic
    counters for Algorithm 1's getKeywordNodes → getLCA → getRTF →
    construct → prune → rank pipeline.

    The layer is pull-free and globally gated: instrumentation points in
    {!Xks_core}, {!Xks_lca}, {!Xks_index} and {!Xks_robust} call {!add},
    {!start}/{!stop} and {!with_stage} unconditionally, and when no
    trace is installed (the default) each call is a single
    load-and-branch no-op — queries without observers pay nothing
    measurable.  Install a trace around a query with {!with_current}:

    {[
      let t = Trace.create () in
      let hits = Trace.with_current t (fun () -> Engine.search e ws) in
      prerr_string (Trace.summary t)
    ]}

    Any domain can record: the current-trace slot, every counter and
    every stage's nanoseconds and call count are atomic cells in flat
    arrays, and degradation events are pushed with a CAS loop, so
    [Xks_exec.Exec.search_batch] workers record their queries' stages
    and counters into the installing domain's trace.  Recording
    allocates nothing.  Stage boundaries sit only in
    {!Xks_core.Engine} and {!Xks_core.Pipeline}.  A trace accumulates
    across queries until replaced — read it with
    {!counter}/{!stage_ms}/{!stage_calls}. *)

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

type stage =
  | Search  (** one {!Xks_core.Engine.search_result}, both attempts *)
  | Validrtf  (** the ValidRTF pipeline: getLCA, getRTF and, in full
                  enumeration, every fragment *)
  | Maxmatch  (** the revised MaxMatch pipeline *)
  | Maxmatch_original  (** the SLCA-only pipeline (also the floor) *)
  | Query_make  (** getKeywordNodes: {!Xks_core.Query.make} *)
  | Topk  (** the streaming BM25 top-k scan *)
  | Lca  (** getLCA *)
  | Rtf  (** getRTF: keyword-node dispatch *)
  | Construct  (** node-info construction, per RTF *)
  | Prune  (** valid-contributor (or contributor) pruning, per RTF *)
  | Rank  (** scoring and ordering the RTFs or fragments *)
  | Slca_tag  (** the SLCA sweep that tags hits *)
(** Algorithm 1's stages, fixed.  The {!leaf_stages} never nest (no
    leaf runs inside another), so [Search]'s time minus their summed
    time is the search time no leaf covers.  [Validrtf], [Maxmatch] and
    [Maxmatch_original] enclose the leaves of their attempt; a degraded
    search shows its two attempts as one call each, e.g. [Validrtf] (or
    [Topk]), then [Maxmatch_original]. *)

val all_stages : stage list
val leaf_stages : stage list
(** [Query_make], [Topk], [Lca], [Rtf], [Construct], [Prune], [Rank],
    [Slca_tag]. *)

val stage_name : stage -> string
(** Stable snake_case name, also the JSON key. *)

type t

val create : unit -> t
(** A fresh trace: every counter and stage zero, no events. *)

(** {2 Installing} *)

val enabled : unit -> bool
(** Whether a trace is installed. *)

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

val start : unit -> int
(** A stage's start time for {!stop}: the monotonic clock in
    nanoseconds, or [0] without doing anything when no trace is
    installed.  Allocates nothing. *)

val stop : stage -> int -> unit
(** [stop s t0] adds the time since [t0] (from {!start}) to stage [s]
    and counts one call.  Allocates nothing; does nothing when no trace
    is installed, or when [t0] was taken while none was.  A stage that
    an exception cuts short between the two calls is not recorded. *)

val with_stage : stage -> (unit -> 'a) -> 'a
(** Time [f] under stage [s], also when [f] raises (a budget
    exhaustion, say).  When disabled this is exactly [f ()] after one
    branch. *)

(** {2 Reading} *)

val counter : t -> counter -> int
val counters : t -> (string * int) list
(** All counters, in {!all_counters} order, by {!counter_name}. *)

val stage_ms : t -> stage -> float
(** Milliseconds recorded under the stage, summed over its calls. *)

val stage_calls : t -> stage -> int
(** Calls recorded under the stage. *)

val degradation_events : t -> string list
(** Reasons recorded by {!degradation}, oldest first. *)

val summary : t -> string
(** Multi-line human-readable report (the CLI's [--stats] output):
    every stage's calls and milliseconds in {!all_stages} order, the
    counters, then the degradation events. *)

val to_json : t -> Json.t
(** [{"stages": {"search": {"calls": n, "ms": x}, ...}, "counters":
    {...}, "degradations": [...]}], every stage keyed by
    {!stage_name} — the [--trace-json] document. *)
