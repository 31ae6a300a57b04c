(** Inverted keyword index.

    Maps each normalised, non-stop word to the sorted array of ids of the
    nodes whose content contains it — exactly the keyword-node sets [Di]
    that stage [getKeywordNodes] of Algorithm 1 needs.  Node ids are
    preorder ranks, so each posting list is in document (Dewey) order.

    This plays the role of the paper's PostgreSQL [value] table lookup:
    given a query, it returns the Dewey-ordered keyword-node lists.

    A {!t} is {e immutable once built}: {!build} and {!of_rows} freeze
    every posting into its final array before returning (one array per
    word, held once, beside the word's occurrence count), and no query
    operation writes to the index.  {!Xks_exec} relies on this to share
    one index (and its document tree) across all pool domains without
    copies or locks; the sharing audit in [test/test_index.ml] pins the
    property (repeated {!posting} calls return the {e same} physical
    array). *)

type t

val build : Xks_xml.Tree.t -> t
(** Index every node of the document.  A node appears once in the posting
    list of each distinct word of its content. *)

val doc : t -> Xks_xml.Tree.t

val features : t -> Cid.table
(** The vocabulary ranked lexically ([words.(r)] is the word of rank
    [r]), and every node's approximate content feature as a packed pair
    of ranks ([Cid.of_words Approx] over
    {!Xks_xml.Tree.content_words}, computed once at {!build}/{!of_rows}
    time in one pass over the postings).  The pruning stage folds and
    compares these ints instead of re-tokenising the document on every
    query.  Owned by the index: callers must not mutate it. *)

val posting : t -> string -> int array
(** [posting idx w] is the sorted id array for word [w] ([w] is normalised
    with {!Xks_xml.Tokenizer.normalize} before lookup).  The returned
    array is owned by the index: callers must not mutate it.  Empty when
    the word is absent or a stop word. *)

val postings : t -> string list -> int array array
(** Posting lists for a whole query, in query order. *)

val node_count : t -> string -> int
(** Number of keyword nodes for a word: [Array.length (posting idx w)].
    Ticks the [Postings_scanned] trace counter (it fetches the list);
    prefer {!df} on the ranking path. *)

val df : t -> string -> int
(** O(1) document frequency: the posting length of [w] (normalised
    first), without fetching the list and without trace ticks — the
    idf input for {!Xks_core.Rank}.  [0] when absent or a stop word. *)

(** Corpus-level aggregates, computed once when the index is frozen
    ({!build} / {!of_rows}) — the per-query-free inputs to BM25-style
    scoring. *)
type stats = {
  nodes : int;  (** document size: number of indexed tree nodes *)
  vocabulary : int;  (** distinct indexed words *)
  total_postings : int;  (** sum of all posting-list lengths *)
  avg_posting_len : float;  (** [total_postings / vocabulary]; 0 if empty *)
  max_posting_len : int;  (** longest posting list *)
}

val stats : t -> stats

val occurrence_count : t -> string -> int
(** Total number of occurrences of the word in the document (counting
    repeats inside one node) — the frequency the paper reports next to
    each keyword. *)

val vocabulary : t -> string list
(** All indexed words, sorted. *)

val vocabulary_size : t -> int

val top_words : t -> int -> (string * int) list
(** The [n] most frequent words by occurrence count, descending. *)

(** {1 Row access (persistence support, see {!Persist})} *)

val to_rows : t -> (string * int * int array) list
(** [(word, occurrences, posting)] rows, sorted by word. *)

val of_rows : Xks_xml.Tree.t -> (string * int * int array) list -> t
(** Rebuild an index from rows.
    @raise Failure if a posting is unsorted, contains duplicates, or
    references an id outside the document. *)
