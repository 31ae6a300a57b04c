module Tree = Xks_xml.Tree
module Tokenizer = Xks_xml.Tokenizer

module Words = Hashtbl.Make (String)

type stats = {
  nodes : int;
  vocabulary : int;
  total_postings : int;
  avg_posting_len : float;
  max_posting_len : int;
}

(* Immutable once constructed: [build]/[of_rows] collect the postings in
   a temporary table and freeze them into the arrays below before
   returning, so a [t] can be shared read-only across domains (the
   [Xks_exec] pool relies on this — no lock guards the index on the
   query path).  Every array is indexed by a word's lexical rank, so
   each posting list is held once. *)
type t = {
  doc : Tree.t;  (* xksrace: domain_safe label table frozen once the tree is built *)
  (* xksrace: domain_safe populated by build/of_rows, read-only afterwards *)
  ranks : int Words.t;  (* word -> rank *)
  postings : int array array;  (* rank -> sorted node ids *)
  occurrences : int array;  (* rank -> occurrences, repeats counted *)
  features : Cid.table;  (* ranked words and per-node approx cIDs *)
  stats : stats;  (* corpus-level aggregates; computed at freeze time *)
}

let empty_posting = [||]

(* Corpus aggregates over the frozen postings — paid once per build so
   idf and length-pivot lookups cost nothing per query. *)
let compute_stats doc postings =
  let vocabulary = Array.length postings in
  let total = ref 0 and longest = ref 0 in
  Array.iter
    (fun p ->
      let len = Array.length p in
      total := !total + len;
      if len > !longest then longest := len)
    postings;
  {
    nodes = Tree.size doc;
    vocabulary;
    total_postings = !total;
    avg_posting_len =
      (if vocabulary = 0 then 0.
       else float_of_int !total /. float_of_int vocabulary);
    max_posting_len = !longest;
  }

(* Rank the vocabulary lexically, so word ranks sort like the words and
   each node's approximate cID is a pair of ranks ([Cid.table], one pass
   over the postings in rank order instead of re-tokenising every
   node). *)
let freeze doc (rows : (string * int * int array) Seq.t) =
  let rows = Array.of_seq rows in
  Array.sort (fun (a, _, _) (b, _, _) -> String.compare a b) rows;
  let words = Array.map (fun (w, _, _) -> w) rows in
  let postings = Array.map (fun (_, _, p) -> p) rows in
  let ranks = Words.create (Array.length words) in
  Array.iteri (fun r w -> Words.add ranks w r) words;
  {
    doc;
    ranks;
    postings;
    occurrences = Array.map (fun (_, o, _) -> o) rows;
    features = Cid.table ~words ~postings ~nodes:(Tree.size doc);
    stats = compute_stats doc postings;
  }

let build doc =
  let acc = Word_acc.create () in
  for id = 0 to Tree.size doc - 1 do
    Word_acc.add_string acc id (Tree.label_name doc id);
    Word_acc.add_string acc id (Tree.text doc id);
    Word_acc.add_attrs acc id (Tree.attrs doc id)
  done;
  freeze doc (List.to_seq (Word_acc.rows acc))

let doc t = t.doc
let features t = t.features
let stats t = t.stats

let rank t w = Words.find_opt t.ranks (Tokenizer.normalize w)

(* O(1) document frequency: posting length without fetching the list,
   so the ranking layer's idf lookups never tick [Postings_scanned]. *)
let df t w =
  match rank t w with Some r -> Array.length t.postings.(r) | None -> 0

let posting t w =
  match rank t w with
  | Some r ->
      let a = t.postings.(r) in
      Xks_trace.Trace.add Xks_trace.Trace.Postings_scanned (Array.length a);
      a
  | None -> empty_posting

let postings t ws = Array.of_list (List.map (posting t) ws)
let node_count t w = Array.length (posting t w)

let occurrence_count t w =
  match rank t w with Some r -> t.occurrences.(r) | None -> 0

let vocabulary t = Array.to_list t.features.words
let vocabulary_size t = Array.length t.postings

let to_rows t =
  List.init (Array.length t.postings) (fun r ->
      (t.features.words.(r), t.occurrences.(r), t.postings.(r)))

let of_rows doc rows =
  let n = Xks_xml.Tree.size doc in
  let table = Hashtbl.create (List.length rows) in
  List.iter
    (fun (w, occurrences, posting) ->
      if occurrences < Array.length posting then
        failwith "Inverted.of_rows: occurrence count below node count";
      Array.iteri
        (fun i id ->
          if id < 0 || id >= n then failwith "Inverted.of_rows: id out of range";
          if i > 0 && posting.(i - 1) >= id then
            failwith "Inverted.of_rows: posting not strictly increasing")
        posting;
      Hashtbl.replace table w (occurrences, posting))
    rows;
  freeze doc (Seq.map (fun (w, (o, p)) -> (w, o, p)) (Hashtbl.to_seq table))

let top_words t n =
  let all = List.mapi (fun r w -> (w, t.occurrences.(r))) (vocabulary t) in
  let sorted =
    List.sort
      (fun (wa, ca) (wb, cb) ->
        let c = Int.compare cb ca in
        if c <> 0 then c else String.compare wa wb)
      all
  in
  List.filteri (fun i _ -> i < n) sorted
