module Parser = Xks_xml.Parser
module Tree = Xks_xml.Tree
module Writer = Xks_xml.Writer

let parse = Parser.parse_string

let label doc dewey = Tree.label_name doc (Helpers.id_at doc dewey)
let text doc dewey = Tree.text doc (Helpers.id_at doc dewey)

let test_minimal () =
  let doc = parse "<a/>" in
  Alcotest.(check int) "one node" 1 (Tree.size doc);
  Alcotest.(check string) "label" "a" (label doc "0")

let test_nested () =
  let doc = parse "<a><b>hello</b><c attr='v'>world</c></a>" in
  Alcotest.(check int) "three nodes" 3 (Tree.size doc);
  Alcotest.(check string) "b text" "hello" (text doc "0.0");
  Alcotest.(check string) "c text" "world" (text doc "0.1");
  Alcotest.(check (list (pair string string)))
    "attributes" [ ("attr", "v") ]
    (Tree.attrs doc (Helpers.id_at doc "0.1"))

let test_declaration_comment_pi () =
  let doc =
    parse
      "<?xml version=\"1.0\"?><!-- c --><?pi data?><root><!-- inner \
       --><a/></root><!-- after -->"
  in
  Alcotest.(check string) "root" "root" (label doc "0");
  Alcotest.(check int) "two nodes" 2 (Tree.size doc)

let test_doctype () =
  let doc = parse "<!DOCTYPE dblp SYSTEM \"dblp.dtd\" [<!ENTITY x \"y\">]><dblp/>" in
  Alcotest.(check string) "root" "dblp" (label doc "0")

let test_entities () =
  let doc = parse "<a>x &amp; y &lt;z&gt; &quot;q&quot; &#65;&#x42;</a>" in
  Alcotest.(check string) "decoded" "x & y <z> \"q\" AB" (text doc "0")

let test_cdata () =
  let doc = parse "<a><![CDATA[<raw> & text]]></a>" in
  Alcotest.(check string) "cdata kept verbatim" "<raw> & text" (text doc "0")

let test_whitespace_trim () =
  let doc = parse "<a>\n   padded text \t </a>" in
  Alcotest.(check string) "trimmed" "padded text" (text doc "0")

let test_mixed_content_flattened () =
  let doc = parse "<a>pre<b/>post</a>" in
  Alcotest.(check string) "concatenated" "prepost" (text doc "0");
  Alcotest.(check int) "child survives" 2 (Tree.size doc)

let check_error input =
  match parse input with
  | exception Parser.Error _ -> ()
  | _ -> Alcotest.failf "expected a parse error for %S" input

let test_errors () =
  List.iter check_error
    [
      ""; "<a>"; "<a></b>"; "<a attr></a>"; "<a 'v'/>"; "<a/><b/>";
      "text only"; "<a>&undefined;</a>"; "<a><b></a></b>"; "< a/>";
      "<a><![CDATA[x]]</a>";
    ]

let test_error_position () =
  match parse "<a>\n<b></c>\n</a>" with
  | exception Parser.Error { line; _ } ->
      Alcotest.(check int) "line number" 2 line
  | _ -> Alcotest.fail "expected a parse error"

let test_error_to_string () =
  (match Parser.error_to_string (Failure "x") with
  | None -> ()
  | Some _ -> Alcotest.fail "non-parser exception");
  match parse "<a>" with
  | exception e ->
      Alcotest.(check bool) "renders" true (Parser.error_to_string e <> None)
  | _ -> Alcotest.fail "expected failure"

let test_file_roundtrip () =
  let doc = Xks_datagen.Paper_fixtures.publications () in
  let path = Filename.temp_file "xks_test" ".xml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Writer.to_file path doc;
      let doc' = Parser.parse_file path in
      Alcotest.(check string)
        "file round-trip" (Writer.to_string doc) (Writer.to_string doc'))

(* Round trip: write then parse gives the same rendering. *)
let prop_roundtrip =
  QCheck2.Test.make ~name:"write/parse round-trip" ~count:200
    ~print:Helpers.print_doc Helpers.gen_doc (fun doc ->
      let s = Writer.to_string doc in
      let doc' = parse s in
      Writer.to_string doc' = s)

let prop_roundtrip_compact =
  QCheck2.Test.make ~name:"compact write/parse round-trip" ~count:200
    ~print:Helpers.print_doc Helpers.gen_doc (fun doc ->
      let s = Writer.to_string ~indent:0 doc in
      let doc' = parse s in
      Writer.to_string ~indent:0 doc' = s)

let tests =
  [
    Alcotest.test_case "minimal document" `Quick test_minimal;
    Alcotest.test_case "nested elements and attributes" `Quick test_nested;
    Alcotest.test_case "declaration, comments, PIs" `Quick test_declaration_comment_pi;
    Alcotest.test_case "doctype with internal subset" `Quick test_doctype;
    Alcotest.test_case "entity references" `Quick test_entities;
    Alcotest.test_case "CDATA" `Quick test_cdata;
    Alcotest.test_case "whitespace trimming" `Quick test_whitespace_trim;
    Alcotest.test_case "mixed content" `Quick test_mixed_content_flattened;
    Alcotest.test_case "malformed inputs are rejected" `Quick test_errors;
    Alcotest.test_case "error carries the position" `Quick test_error_position;
    Alcotest.test_case "error rendering" `Quick test_error_to_string;
    Alcotest.test_case "file round-trip" `Quick test_file_roundtrip;
    Helpers.qtest prop_roundtrip;
    Helpers.qtest prop_roundtrip_compact;
  ]
