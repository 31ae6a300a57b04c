(* XML serialization: escaping, layout modes, fragments. *)

module Writer = Xks_xml.Writer
module Tree = Xks_xml.Tree

let test_escaping () =
  Alcotest.(check string) "text" "a &amp;&lt; b &gt;"
    (Writer.escape_text "a &< b >");
  Alcotest.(check string) "attr quotes" "say &quot;hi&quot;"
    (Writer.escape_attr "say \"hi\"");
  Alcotest.(check string) "text keeps quotes" "say \"hi\""
    (Writer.escape_text "say \"hi\"")

let test_escaped_roundtrip () =
  let doc =
    Tree.build
      (Tree.elem
         ~attrs:[ ("a", "1 < 2 \"quoted\" & more") ]
         ~text:"x & y < z" "root" [])
  in
  let doc' = Xks_xml.Parser.parse_string (Writer.to_string doc) in
  Alcotest.(check string) "text survives" "x & y < z" (Tree.text doc' 0);
  Alcotest.(check (list (pair string string)))
    "attr survives"
    [ ("a", "1 < 2 \"quoted\" & more") ]
    (Tree.attrs doc' 0)

let test_layout_modes () =
  let doc = Tree.build (Tree.elem "a" [ Tree.elem ~text:"x" "b" [] ]) in
  let pretty = Writer.to_string doc in
  Alcotest.(check bool) "pretty has newlines" true (String.contains pretty '\n');
  let compact = Writer.to_string ~indent:0 ~declaration:false doc in
  Alcotest.(check string) "compact" "<a><b>x</b></a>" compact;
  Alcotest.(check bool) "declaration present by default" true
    (String.length pretty > 5 && String.sub pretty 0 5 = "<?xml");
  let bare = Writer.to_string ~declaration:false doc in
  Alcotest.(check bool) "declaration suppressed" true (bare.[0] = '<' && bare.[1] = 'a')

let test_self_closing () =
  let doc = Tree.build (Tree.elem "a" [ Tree.elem "empty" [] ]) in
  let s = Writer.to_string ~indent:0 ~declaration:false doc in
  Alcotest.(check string) "self-closing form" "<a><empty/></a>" s

let test_subtree_to_string () =
  let doc =
    Tree.build (Tree.elem "a" [ Tree.elem "b" [ Tree.elem ~text:"t" "c" [] ] ])
  in
  let s = Writer.subtree_to_string ~indent:0 doc 1 in
  Alcotest.(check string) "subtree only" "<b><c>t</c></b>" s

let test_fragment_to_xml_parses () =
  (* Fragment.to_xml emits well-formed XML for any pruned fragment. *)
  let engine = Xks_core.Engine.of_doc (Xks_datagen.Paper_fixtures.publications ()) in
  let hits = Xks_core.Engine.search engine Xks_datagen.Paper_fixtures.q3 in
  List.iter
    (fun (h : Xks_core.Engine.hit) ->
      let xml = Xks_core.Engine.render ~xml:true engine h in
      match Xks_xml.Parser.parse_string xml with
      | _ -> ())
    hits;
  Alcotest.(check bool) "all fragments parse" true (hits <> [])

let prop_escape_text_roundtrip =
  QCheck2.Test.make ~name:"escaped text survives parsing" ~count:300
    QCheck2.Gen.(string_size ~gen:printable (int_range 1 40))
    (fun s ->
      (* Leading/trailing whitespace is trimmed by the content model;
         compare trimmed. *)
      let t = String.trim s in
      QCheck2.assume (t <> "" && not (String.contains t '\r'));
      let doc = Tree.build (Tree.elem ~text:t "a" []) in
      let doc' = Xks_xml.Parser.parse_string (Writer.to_string ~indent:0 doc) in
      String.equal (Tree.text doc' 0) t)

let tests =
  [
    Alcotest.test_case "escaping" `Quick test_escaping;
    Alcotest.test_case "escaped round-trip" `Quick test_escaped_roundtrip;
    Alcotest.test_case "layout modes" `Quick test_layout_modes;
    Alcotest.test_case "self-closing elements" `Quick test_self_closing;
    Alcotest.test_case "subtree rendering" `Quick test_subtree_to_string;
    Alcotest.test_case "fragment XML parses" `Quick test_fragment_to_xml_parses;
    Helpers.qtest prop_escape_text_roundtrip;
  ]
