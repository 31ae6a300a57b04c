(* Shared test utilities: tiny-document construction, random document
   generators for property tests, and common Alcotest checkers. *)

module Tree = Xks_xml.Tree
module Dewey = Xks_xml.Dewey

let dewey_of_string = Dewey.of_string

(* Id of the node at a paper-style Dewey string, e.g. "0.2.0.3.0". *)
let id_at doc s =
  match Tree.find_by_dewey doc (dewey_of_string s) with
  | Some id -> id
  | None -> Alcotest.failf "no node at dewey %s" s

let ids_at doc ss = List.map (id_at doc) ss

let dewey_str doc id = Dewey.to_string (Tree.dewey doc id)
let deweys_of doc ids = List.map (dewey_str doc) ids

(* Alcotest checkers. *)
let sorted_ids = Alcotest.(list int)

let check_ids doc msg expected_deweys actual_ids =
  Alcotest.(check (list string)) msg expected_deweys (deweys_of doc actual_ids)

let check_fragment doc msg expected_deweys frag =
  let actual = deweys_of doc (Xks_core.Fragment.members_list frag) in
  Alcotest.(check (list string))
    msg
    (List.sort compare expected_deweys)
    (List.sort compare actual)

(* A document as a plain value that [Tree] knows nothing of: what the
   random generators draw, and what the column reference below reads. *)
type spec = {
  name : string;
  attrs : (string * string) list;
  text : string;
  kids : spec list;
}

let spec ?(attrs = []) text name kids = { name; attrs; text; kids }

let rec builder_of_spec s =
  Tree.elem ~attrs:s.attrs ~text:s.text s.name (List.map builder_of_spec s.kids)

let doc_of_spec s = Tree.build (builder_of_spec s)

(* Random document generation for QCheck properties.  Small label and word
   alphabets force the label collisions and keyword sharing the algorithms
   care about. *)
let labels = [| "a"; "b"; "c"; "d" |]
let words = [| "w0"; "w1"; "w2"; "w3"; "w4" |]

let gen_spec_sized =
  QCheck2.Gen.(
    sized_size (int_range 1 25) @@ fix (fun self n ->
        let label = oneofa labels in
        let text =
          oneof
            [
              return "";
              map (fun w -> w) (oneofa words);
              map2 (fun a b -> a ^ " " ^ b) (oneofa words) (oneofa words);
            ]
        in
        if n <= 1 then map2 (fun l t -> spec t l []) label text
        else
          let child_count = int_range 1 (min 4 n) in
          bind child_count (fun c ->
              let sub = self ((n - 1) / c) in
              map3 (fun l t children -> spec t l children) label text
                (list_size (return c) sub))))

let gen_doc_sized = QCheck2.Gen.map builder_of_spec gen_spec_sized
let gen_doc = QCheck2.Gen.map doc_of_spec gen_spec_sized

(* Wide documents: a root with 50-300 children, each a leaf or a node
   with up to three leaves.  [gen_doc] caps fan-out at 4; these reach
   the wide cases — witness scans across many candidate child ranges,
   large same-label sibling groups for Definition 4. *)
let gen_text =
  QCheck2.Gen.(
    oneof
      [
        return "";
        oneofa words;
        map2 (fun a b -> a ^ " " ^ b) (oneofa words) (oneofa words);
      ])

let gen_leaf =
  QCheck2.Gen.map2
    (fun l t -> Tree.elem ~text:t l [])
    (QCheck2.Gen.oneofa labels)
    gen_text

let gen_wide_doc =
  QCheck2.Gen.(
    map2
      (fun t children -> Tree.build (Tree.elem ~text:t "r" children))
      gen_text
      (list_size (int_range 50 300)
         (map3
            (fun l t leaves -> Tree.elem ~text:t l leaves)
            (oneofa labels) gen_text
            (list_size (int_range 0 3) gen_leaf))))

let print_doc doc = Xks_xml.Writer.to_string ~declaration:false doc

(* A random non-empty keyword query over the small word alphabet. *)
let gen_query =
  QCheck2.Gen.(
    map
      (fun ws -> List.sort_uniq compare ws)
      (list_size (int_range 1 3) (oneofa words)))

let postings_for doc query_words =
  let idx = Xks_index.Inverted.build doc in
  Array.of_list (List.map (Xks_index.Inverted.posting idx) query_words)

(* Run an Alcotest-compatible QCheck test. *)
let qtest = QCheck_alcotest.to_alcotest

(* Substring test, for asserting on error-message wording. *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

(* Untrusted input for a parser: mostly [valid] inputs with one to three
   random edits (a byte overwritten, one of [tokens] inserted, a range
   deleted), the rest a soup of random bytes and [tokens], so that
   inputs reach the parser's deeper states and not only its first
   check. *)
let gen_untrusted ~tokens valid =
  let open QCheck2.Gen in
  let splice s p del ins =
    let p = p mod (String.length s + 1) in
    let del = min del (String.length s - p) in
    String.sub s 0 p ^ ins ^ String.sub s (p + del) (String.length s - p - del)
  in
  let pos = int_bound 1_000_000 (* uniform, unlike [nat] *) in
  let edit =
    oneof
      [
        map2 (fun p c s -> splice s p 1 (String.make 1 c)) pos char;
        map2 (fun p t s -> splice s p 0 t) pos (oneofl tokens);
        map2 (fun p n s -> splice s p n "") pos (int_range 1 8);
      ]
  in
  let soup =
    map (String.concat "")
      (list_size (int_range 0 24)
         (frequency
            [ (1, string_size ~gen:char (int_range 1 4)); (3, oneofl tokens) ]))
  in
  frequency
    [
      (1, soup);
      ( 3,
        map2 (List.fold_left (fun s e -> e s)) valid
          (list_size (int_range 1 3) edit) );
    ]

(* A property body: [f ()] returns, or raises an exception [documented]
   accepts; any other exception fails the property, naming it. *)
let raises_only documented f =
  match f () with
  | _ -> true
  | exception e when documented e -> true
  | exception e ->
      QCheck2.Test.fail_reportf "undocumented exception %s" (Printexc.to_string e)

(* Documents for the ingest properties: mixed-case labels and words,
   digits, stop words, attributes, markup characters and non-ASCII
   bytes.  Every text starts and ends with a word, so it survives the
   parser's trimming unchanged. *)
let rich_labels = [| "a"; "B"; "title"; "Author" |]

let rich_words =
  [| "XML"; "xml"; "Data"; "the"; "Of"; "2009"; "b1c2"; "caf\xc3\xa9";
     "na\xefve"; "Search"; "IS"; "k"; "KeyWord" |]

let rich_seps = [| " "; ", "; "-"; " & "; " < "; "\t"; "\""; "'"; "  "; ">" |]

let gen_rich_text =
  QCheck2.Gen.(
    map2
      (fun first rest ->
        String.concat "" (first :: List.map (fun (sep, w) -> sep ^ w) rest))
      (oneofa rich_words)
      (list_size (int_range 0 4) (pair (oneofa rich_seps) (oneofa rich_words))))

let gen_rich_spec =
  QCheck2.Gen.(
    let text = frequency [ (1, return ""); (3, gen_rich_text) ] in
    let attrs =
      list_size (int_range 0 2)
        (pair (oneofa [| "id"; "Lang"; "key" |])
           (frequency [ (1, return ""); (3, gen_rich_text) ]))
    in
    let node children =
      map3
        (fun l (attrs, t) cs -> spec ~attrs t l cs)
        (oneofa rich_labels) (pair attrs text) children
    in
    sized_size (int_range 1 20) @@ fix (fun self n ->
        if n <= 1 then node (return [])
        else
          bind (int_range 1 (min 4 n)) (fun c ->
              node (list_size (return c) (self ((n - 1) / c))))))

let gen_rich_doc = QCheck2.Gen.map doc_of_spec gen_rich_spec

(* The facts of one node of a spec, numbered in preorder: what each
   column of [Tree] and each fact derived from them must say. *)
type reference_node = {
  r_parent : int;  (* -1 for the root *)
  r_last : int;  (* the last id of the subtree *)
  r_label : string;
  r_rank : int;  (* among the parent's children *)
  r_dewey : int list;
  r_text : string;
  r_attrs : (string * string) list;
  r_children : int list;
}

(* The spec numbered in preorder, ids counted off as nodes are
   reached, each node's facts recorded when its subtree is done. *)
let reference s =
  let facts = Hashtbl.create 64 and next = ref 0 in
  let rec number parent rank dewey s =
    let id = !next in
    incr next;
    let children =
      List.mapi (fun i kid -> number id i (dewey @ [ i ]) kid) s.kids
    in
    Hashtbl.replace facts id
      { r_parent = parent; r_last = !next - 1; r_label = s.name; r_rank = rank;
        r_dewey = dewey; r_text = s.text; r_attrs = s.attrs;
        r_children = children };
    id
  in
  ignore (number (-1) 0 [] s);
  Array.init !next (Hashtbl.find facts)

(* The same edits as [Tree.insert_subtree] and [Tree.delete_subtree],
   on specs: [f id kids] rewrites the children of the node numbered
   [id], each child paired with its own number. *)
let edit_spec s f =
  let next = ref 0 in
  let rec go s =
    let id = !next in
    incr next;
    let kids = List.map go s.kids in
    (id, { s with kids = f id kids })
  in
  snd (go s)

let spec_insert s ~parent_id ~pos sub =
  edit_spec s (fun id kids ->
      let kids = List.map snd kids in
      if id <> parent_id then kids
      else
        List.filteri (fun i _ -> i < pos) kids
        @ (sub :: List.filteri (fun i _ -> i >= pos) kids))

let spec_delete s ~id =
  edit_spec s (fun _ kids ->
      List.filter_map (fun (c, k) -> if c = id then None else Some k) kids)

(* Index rows computed independently of both indexers: [Tokenizer.words]
   over each node's label, text, attribute names and values, counted and
   collected in a plain table. *)
let reference_rows doc =
  let table = Hashtbl.create 64 in
  for id = 0 to Tree.size doc - 1 do
    let words =
      Xks_xml.Tokenizer.words (Tree.label_name doc id)
      @ Xks_xml.Tokenizer.words (Tree.text doc id)
      @ List.concat_map
          (fun (k, v) -> Xks_xml.Tokenizer.words k @ Xks_xml.Tokenizer.words v)
          (Tree.attrs doc id)
    in
    List.iter
      (fun w ->
        let count, ids =
          Option.value (Hashtbl.find_opt table w) ~default:(0, [])
        in
        Hashtbl.replace table w (count + 1, id :: ids))
      words
  done;
  Hashtbl.fold
    (fun w (count, ids) rows ->
      (w, count, Array.of_list (List.sort_uniq compare ids)) :: rows)
    table []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
