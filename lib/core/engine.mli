(** High-level search engine facade — the public entry point.

    Wraps document loading, indexing, algorithm selection and result
    rendering:

    {[
      let engine = Engine.of_file "catalog.xml" in
      let hits = Engine.search engine [ "xml"; "keyword"; "search" ] in
      List.iter (fun h -> print_string (Engine.render engine h)) hits
    ]}

    Serving untrusted traffic, two robustness hooks apply
    ({!Xks_robust}): document loading is capped by ingestion
    {!Xks_robust.Limits}, and {!search_result} accepts a
    {!Xks_robust.Budget} under which an expensive query degrades to the
    SLCA-only answer instead of running away — see
    {!search_result.degraded}. *)

type t

type algorithm =
  | Validrtf  (** the paper's algorithm (default) *)
  | Maxmatch  (** revised MaxMatch — same RTFs, contributor pruning *)
  | Maxmatch_original  (** VLDB'08 MaxMatch — SLCA fragments only *)

type rank_mode = [ `Heuristic | `Bm25 | `Doc ]
(** Hit ordering: [`Heuristic] (default) is {!Ranking}'s structural
    score; [`Bm25] is {!Rank}'s BM25 over posting statistics — with
    [?k] on ValidRTF it enables the streaming top-k scan with
    score-bounded early termination ({!Xks_lca.Topk}); [`Doc] returns
    hits in document order of their LCA. *)

type hit = {
  fragment : Fragment.t;
  rtf : Rtf.t;
  score : float;
  is_slca : bool;  (** whether the fragment root is an SLCA node *)
}

val of_doc : Xks_xml.Tree.t -> t
(** Index a document already in memory. *)

val of_index : Xks_index.Inverted.t -> t
(** Adopt an already-built index (e.g. {!Xks_index.Persist.load}) and
    its document. *)

val of_file : ?limits:Xks_robust.Limits.t -> string -> t
(** Parse and index an XML file.
    @raise Xks_xml.Parser.Error on malformed XML.
    @raise Xks_robust.Limits.Limit_exceeded when [limits] (default
    {!Xks_robust.Limits.default}) is crossed. *)

val of_string : ?limits:Xks_robust.Limits.t -> string -> t
(** Parse and index an XML document given as a string. *)

val doc : t -> Xks_xml.Tree.t
val index : t -> Xks_index.Inverted.t

val id : t -> int
(** A process-unique identity, fresh for every constructed engine
    (including {!of_index} over a reloaded index).  {!Xks_exec.Cache}
    keys entries by it so results cached for one engine are never served
    for another — rebuilding or reloading an index invalidates the old
    entries by construction. *)

type search_result = {
  hits : hit list;
  degraded : Xks_robust.Budget.reason option;
      (** [None] for a full-fidelity answer; [Some r] when the budget
          ran out for reason [r] and [hits] is the SLCA-only floor's
          answer.  The only degradation signal: it holds also when
          [hits] is empty. *)
}

val search_result :
  ?algorithm:algorithm -> ?cid_mode:Xks_index.Cid.mode -> ?rank:rank_mode ->
  ?k:int -> ?budget:Xks_robust.Budget.t -> t -> string list -> search_result
(** [search_result e ws] runs the query.  Keywords are deduplicated and
    sorted rarest-first (shortest posting list first) before the
    pipeline runs — duplicates and keyword order never change the result
    set.  Hits are ordered by [rank] (default [`Heuristic]).  The empty
    hit list means some keyword does not occur.

    [k] keeps only the best [k] hits.  Under [~rank:`Bm25] on ValidRTF
    this switches to the streaming top-k scan: fragments are scored
    during the ELCA traversal, only the [k] winners are constructed and
    pruned, and the scan terminates early once the per-keyword
    availability bound proves no unseen fragment can enter the top k
    (DESIGN.md §5g) — the result is {e identical} to ranking the full
    enumeration and keeping its k-prefix, ties broken by document
    order.  Under [~rank:`Bm25] on the MaxMatch algorithms (and on the
    SLCA-only floor of a degraded search) the full enumeration's RTFs
    are ranked first, since BM25 reads only the RTF, and only the first
    [k] are constructed and pruned; the result is again the k-prefix of
    the full ranking.  Under other rank modes [k] simply truncates the
    ranked hit list.
    @raise Invalid_argument when [k < 1].

    With a [budget], the requested algorithm (or the top-k scan) runs
    under it.  When it exhausts, the search answers from
    [Maxmatch_original] (SLCA fragments only), run without a budget, so
    a budgeted search always returns; [degraded] then carries the
    reason, and exactly one {!Xks_trace.Trace.degradation} event is
    recorded on the current trace.  There is no rung in between: the
    revised MaxMatch charges the same ticks as ValidRTF.  Without
    [budget] the behaviour (and cost) is exactly the unbudgeted
    pipeline.
    @raise Invalid_argument on an empty query. *)

val search :
  ?algorithm:algorithm -> ?cid_mode:Xks_index.Cid.mode -> ?rank:rank_mode ->
  ?k:int -> t -> string list -> hit list
(** {!search_result}'s hits, unbudgeted: a budgeted search goes through
    {!search_result}, whose result says whether it degraded. *)

val run :
  ?algorithm:algorithm -> ?cid_mode:Xks_index.Cid.mode ->
  ?budget:Xks_robust.Budget.t -> t -> string list -> Pipeline.result
(** The raw pipeline result, for callers that need stage outputs.
    Unlike {!search_result} this does not degrade:
    @raise Xks_robust.Budget.Exhausted when [budget] runs out. *)

val hits_of_result :
  ?rank:rank_mode -> ?k:int -> t -> Pipeline.result -> hit list
(** Turn a pipeline result into scored hits (what {!search} does after
    running the pipeline); exposed for callers that build queries
    themselves, e.g. {!Labeled}.  [`Bm25] here always scores the full
    enumeration ([k] is a plain prefix).
    @raise Invalid_argument when [k < 1]. *)

val render : ?xml:bool -> t -> hit -> string
(** Pretty tree view of a hit (or XML when [xml] is [true]). *)

val stats : t -> string
(** One-line document/index statistics. *)
