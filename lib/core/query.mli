(** Prepared keyword queries.

    A query [Q = {w1 .. wk}] bound to a document and its inverted index:
    keywords are normalised, deduplicated (keeping first occurrences), and
    their posting lists fetched.  All downstream stages (getLCA, getRTF,
    pruning) work off this value. *)

type t = private {
  doc : Xks_xml.Tree.t;
  keywords : string array;  (** normalised, distinct, in query order *)
  postings : int array array;  (** one sorted id array per keyword *)
  features : Xks_index.Cid.table;
      (** the index's ranked vocabulary and per-node approximate
          content features ({!Xks_index.Inverted.features}).  Lets the
          pruning stage fold integer features instead of re-tokenising
          the document per query. *)
  dfs : int array;
      (** per-keyword document frequency: [dfs.(i) = Array.length
          postings.(i)].  {!make} already fetches every posting to order
          keywords rarest-first, so ranking reads df here rather than
          re-fetching from the index. *)
  avg_df : float;
      (** corpus length pivot for BM25 normalisation:
          {!Xks_index.Inverted.stats}[.avg_posting_len] when prepared
          from an index; the mean of [dfs] under {!of_postings}. *)
}

val make :
  ?order:[ `Given | `Rarest ] -> Xks_index.Inverted.t -> string list -> t
(** [make idx ws] prepares the query [ws] against [idx].  Every input
    string is tokenised (so ["xml search"] contributes two keywords) and
    duplicates are dropped, keeping first occurrences.

    [order] selects the keyword order of the prepared query: [`Given]
    (default) keeps first-occurrence order; [`Rarest] sorts keywords by
    ascending posting-list length (ties keep query order), which puts
    the stack algorithms' driver list at index 0 and the most selective
    probes first — {!Xks_core.Engine} uses it.  The keyword {e set}, and
    therefore every LCA/RTF result, is identical under both orders; only
    keyword {e positions} (bit indices, {!keyword_index}) differ.
    @raise Invalid_argument if no keyword remains after tokenisation and
    deduplication, or if there are more than {!Xks_index.Klist.max_keywords}
    distinct keywords. *)

val of_postings :
  features:Xks_index.Cid.table ->
  Xks_xml.Tree.t -> keywords:string list -> int array array -> t
(** [of_postings ~features doc ~keywords postings] builds a query whose
    posting lists were computed elsewhere (e.g. filtered by {!Labeled}
    conditions or read from {!Xks_index.Shredder}'s value rows).
    Keywords must be distinct and non-empty; each posting list must be
    sorted, duplicate-free and reference ids of [doc].  [features] is the
    feature table of an index over [doc]
    ({!Xks_index.Inverted.features}).
    @raise Invalid_argument when those conditions fail or the arities
    differ. *)

val k : t -> int
(** Number of (distinct) keywords. *)

val df : t -> int -> int
(** [df q i] is keyword [i]'s document frequency, [q.dfs.(i)]. *)

val has_results : t -> bool
(** [false] iff some keyword never occurs in the document — then every
    LCA-based semantics returns the empty result. *)

val keyword_index : t -> string -> int option
(** Position of a (normalised) keyword in the query. *)

val node_klist : t -> int -> Xks_index.Klist.t
(** [node_klist q id] is the bitset of query keywords occurring in node
    [id]'s own content (by posting-list membership). *)

val pp : Format.formatter -> t -> unit
