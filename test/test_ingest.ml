(* The ingest path as a whole: both indexers against an independent
   reference, parsing and indexing under tree-preserving re-encodings of
   the XML, allocation bounds for the lean scanners, and a bound on the
   live tree. *)

module Tree = Xks_xml.Tree
module Parser = Xks_xml.Parser
module Writer = Xks_xml.Writer
module Inverted = Xks_index.Inverted
module Stream_index = Xks_index.Stream_index

let prop_indexers_match_reference =
  QCheck2.Test.make ~name:"both indexers = Tokenizer.words reference"
    ~count:300 ~print:Helpers.print_doc Helpers.gen_rich_doc (fun doc ->
      let expected = Helpers.reference_rows doc in
      Inverted.to_rows (Inverted.build doc) = expected
      && Stream_index.rows_of_string (Writer.to_string doc) = expected)

(* [doc] as compact XML, re-encoded at random in ways that keep the
   tree: ASCII bytes of text and attribute values as decimal or
   hexadecimal character references, text chunks wrapped in CDATA,
   comments and PIs between chunks (so also inside words), and each
   element's text split around its children. *)
let reencode rng doc =
  let b = Buffer.create 256 in
  let coin k = Random.State.int rng k = 0 in
  let add_char ~quote c =
    if Char.code c < 128 && coin 4 then
      Buffer.add_string b
        (if Random.State.bool rng then Printf.sprintf "&#%d;" (Char.code c)
         else Printf.sprintf "&#x%X;" (Char.code c))
    else
      match c with
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '"' when Option.equal Char.equal quote (Some '"') ->
          Buffer.add_string b "&quot;"
      | '\'' when Option.equal Char.equal quote (Some '\'') ->
          Buffer.add_string b "&apos;"
      | c -> Buffer.add_char b c
  in
  let add_text s =
    let n = String.length s and i = ref 0 in
    while !i < n do
      let k = 1 + Random.State.int rng (n - !i) in
      let chunk = String.sub s !i k in
      if coin 3 then Buffer.add_string b ("<![CDATA[" ^ chunk ^ "]]>")
      else String.iter (add_char ~quote:None) chunk;
      i := !i + k;
      if coin 3 then
        Buffer.add_string b (if Random.State.bool rng then "<!-- c -->" else "<?pi x?>")
    done
  in
  let rec node id =
    let name = Tree.label_name doc id and text = Tree.text doc id in
    let children = List.rev (Tree.fold_children (fun acc c -> c :: acc) [] doc id) in
    Buffer.add_string b ("<" ^ name);
    List.iter
      (fun (k, v) ->
        let q = if Random.State.bool rng then '"' else '\'' in
        Buffer.add_string b (Printf.sprintf " %s=%c" k q);
        String.iter (add_char ~quote:(Some q)) v;
        Buffer.add_char b q)
      (Tree.attrs doc id);
    Buffer.add_char b '>';
    let cuts =
      List.sort compare
        (List.map (fun _ -> Random.State.int rng (String.length text + 1)) children)
    in
    let pos = ref 0 in
    List.iter2
      (fun cut c ->
        add_text (String.sub text !pos (cut - !pos));
        pos := cut;
        node c)
      cuts children;
    add_text (String.sub text !pos (String.length text - !pos));
    Buffer.add_string b ("</" ^ name ^ ">")
  in
  node 0;
  Buffer.contents b

let prop_reencodings_parse_alike =
  QCheck2.Test.make ~name:"tree-preserving re-encodings parse and index alike"
    ~count:300
    ~print:(fun (doc, seed) ->
      reencode (Random.State.make [| seed |]) doc)
    QCheck2.Gen.(pair Helpers.gen_rich_doc int)
    (fun (doc, seed) ->
      let src = reencode (Random.State.make [| seed |]) doc in
      let plain = Writer.to_string doc in
      String.equal (Writer.to_string (Parser.parse_string src)) plain
      && Stream_index.rows_of_string src = Stream_index.rows_of_string plain)

(* Minor words per input byte on the 300-entry DBLP corpus (121 KB).
   The bounds sit between the scanners that copy per byte, per text
   piece and per word occurrence (5.9, 2.5 and 2.0 words/byte) and the
   in-place ones (about 0.6 each). *)
let corpus =
  lazy
    (Writer.to_string
       (Xks_datagen.Dblp_gen.generate
          ~config:{ Xks_datagen.Dblp_gen.default_config with entries = 300 }
          ()))

let test_words_per_byte name bound f () =
  let src = Lazy.force corpus in
  let input = f src in
  ignore (Sys.opaque_identity (input ()));
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (input ()));
  let per_byte = (Gc.minor_words () -. w0) /. float_of_int (String.length src) in
  if per_byte > bound then
    Alcotest.failf "%s allocates %.2f words per input byte (bound %.1f)" name
      per_byte bound

(* The live tree of the default DBLP corpus (12,000 entries, 84,122
   nodes): one word per node in each of six columns, plus the texts and
   attribute lists they point to, about 9 words per node.  Node records,
   children arrays and stored Dewey codes beside the columns take 20. *)
let test_tree_words_per_node () =
  let doc = Xks_datagen.Dblp_gen.generate () in
  Alcotest.(check int) "nodes" 84_122 (Tree.size doc);
  let per_node =
    float_of_int (Obj.reachable_words (Obj.repr doc))
    /. float_of_int (Tree.size doc)
  in
  if per_node > 10.0 then
    Alcotest.failf "the tree takes %.2f words per node (bound 10)" per_node

let tests =
  [
    Helpers.qtest prop_indexers_match_reference;
    Helpers.qtest prop_reencodings_parse_alike;
    Alcotest.test_case "Stream_index.rows_of_string: <= 1.5 words/byte" `Quick
      (test_words_per_byte "Stream_index.rows_of_string" 1.5 (fun src () ->
           Stream_index.rows_of_string src));
    Alcotest.test_case "Parser.parse_string: <= 1.5 words/byte" `Quick
      (test_words_per_byte "Parser.parse_string" 1.5 (fun src () ->
           Parser.parse_string src));
    Alcotest.test_case "Inverted.build: <= 1.0 words/byte" `Quick
      (test_words_per_byte "Inverted.build" 1.0 (fun src ->
           let doc = Parser.parse_string src in
           fun () -> Inverted.build doc));
    Alcotest.test_case "live tree: <= 10 words/node" `Quick
      test_tree_words_per_node;
  ]
