(* Streaming SAX interface. *)

module Sax = Xks_xml.Sax

(* An end event carries the element's text, copied out of its slice. *)
type event = Start of string * (string * string) list | End of string * string

let events_of src =
  let acc = ref [] in
  let h =
    Sax.handler
      ~on_start:(fun name attrs -> acc := Start (name, attrs) :: !acc)
      ~on_end:(fun name s off len -> acc := End (name, String.sub s off len) :: !acc)
      ()
  in
  Sax.parse_string h src;
  List.rev !acc

let test_event_order () =
  let events = events_of "<a x='1'>hi<b/>there</a>" in
  Alcotest.(check bool) "expected stream" true
    (events
    = [
        Start ("a", [ ("x", "1") ]); Start ("b", []); End ("b", "");
        End ("a", "hithere");
      ])

let test_text_segments_untrimmed () =
  let events = events_of "<a> padded </a>" in
  Alcotest.(check bool) "raw text" true
    (events = [ Start ("a", []); End ("a", " padded ") ])

let test_entities_and_cdata () =
  let events = events_of "<a>&amp;<![CDATA[<x>]]></a>" in
  Alcotest.(check bool) "decoded" true
    (events = [ Start ("a", []); End ("a", "&<x>") ])

(* An element whose text is one plain piece gets a slice of the input
   itself; any other text is a slice of Sax's buffer, and the nested
   elements' texts do not leak into their parent's. *)
let test_text_slices () =
  let src = "<r>ab<c>x&amp;y</c><d>plain</d>ef</r>" in
  let ends = ref [] in
  let h =
    Sax.handler
      ~on_end:(fun name s off len ->
        ends := (name, s == src, String.sub s off len) :: !ends)
      ()
  in
  Sax.parse_string h src;
  Alcotest.(check (list (triple string bool string)))
    "texts and where they live"
    [ ("c", false, "x&y"); ("d", true, "plain"); ("r", false, "abef") ]
    (List.rev !ends)

(* Positions are computed only when raising; these pin them, with the
   messages and limit values, as the eagerly tracking scanner reported
   them. *)
let test_positions_pinned () =
  let lim ?(depth = 1024) ?(attrs = 1024) ?(text = 1 lsl 30)
      ?(nodes = 1 lsl 26) () =
    { Xks_robust.Limits.max_depth = depth; max_attrs = attrs;
      max_text_bytes = text; max_nodes = nodes }
  in
  let outcome limits src =
    match Sax.parse_string ~limits (Sax.handler ()) src with
    | () -> "no error"
    | exception Sax.Error { line; col; message } ->
        Printf.sprintf "Error (%d, %d, %S)" line col message
    | exception Xks_robust.Limits.Limit_exceeded { line; col; limit; value; max }
      ->
        Printf.sprintf "Limit (%d, %d, %S, %d, %d)" line col limit value max
  in
  List.iter
    (fun (what, limits, src, expected) ->
      Alcotest.(check string) what expected (outcome limits src))
    [
      ( "mismatched tag", lim (), "<a>\n  <b>text</b>\n  <c></d>\n</a>",
        {|Error (3, 9, "mismatched closing tag </d> for <c>")|} );
      ( "unquoted attribute", lim (), "<a>\n<b x=1/>\n</a>",
        {|Error (2, 7, "expected a quoted value")|} );
      ( "unknown entity on line 3", lim (),
        "<a>\n<b>ok</b>\n<c>x &nbsp; y</c>\n</a>",
        {|Error (3, 12, "unknown entity &nbsp;")|} );
      ( "unterminated comment", lim (), "<a>\n<!-- never\nclosed </a>\n",
        {|Error (3, 11, "unterminated -->")|} );
      ( "unterminated CDATA", lim (), "<a>\n<b><![CDATA[raw\n text</b>\n</a>",
        {|Error (4, 5, "unterminated CDATA section")|} );
      ( "unterminated PI", lim (), "<a>\n<?pi never\nclosed </a>",
        {|Error (3, 11, "unterminated ?>")|} );
      ( "unterminated element", lim (), "<a>\n<b>\ntext",
        {|Error (3, 5, "unterminated element <b>")|} );
      ( "depth bomb", lim ~depth:3 (),
        "<a>\n <b>\n  <c>\n   <d/>\n  </c>\n </b>\n</a>",
        {|Limit (4, 5, "max_depth", 4, 3)|} );
      ( "attribute bomb", lim ~attrs:2 (), "<a>\n<b x='1'\n   y='2' z='3'/>\n</a>",
        {|Limit (3, 10, "max_attrs", 3, 2)|} );
      ( "node bomb", lim ~nodes:3 (), "<a>\n<b/>\n<c/>\n<d/>\n</a>",
        {|Limit (4, 2, "max_nodes", 4, 3)|} );
      ( "text bomb", lim ~text:10 (), "<a>\n<b>0123</b>\n<c>456789abc</c>\n</a>",
        {|Limit (3, 8, "max_text_bytes", 11, 10)|} );
      ( "text bomb in an attribute", lim ~text:5 (),
        "<a>\n<b v='0123456789'/>\n</a>",
        {|Limit (2, 12, "max_text_bytes", 6, 5)|} );
      ( "text bomb in CDATA", lim ~text:6 (),
        "<a>\n<b><![CDATA[0123\n456789]]></b>\n</a>",
        {|Limit (3, 7, "max_text_bytes", 12, 6)|} );
      ( "text bomb through references", lim ~text:2 (),
        "<a>\n<b>&amp;&lt;&gt;</b>\n</a>",
        {|Limit (2, 13, "max_text_bytes", 3, 2)|} );
    ]

let test_balanced_on_random_docs =
  QCheck2.Test.make ~name:"starts and ends balance on generated documents"
    ~count:200 ~print:Helpers.print_doc Helpers.gen_doc (fun doc ->
      let src = Xks_xml.Writer.to_string doc in
      let depth = ref 0 and max_depth = ref 0 and count = ref 0 in
      let h =
        Sax.handler
          ~on_start:(fun _ _ ->
            incr depth;
            incr count;
            if !depth > !max_depth then max_depth := !depth)
          ~on_end:(fun _ _ _ _ -> decr depth)
          ()
      in
      Sax.parse_string h src;
      !depth = 0 && !count = Xks_xml.Tree.size doc)

let test_streaming_word_count () =
  (* The canonical SAX use: count keyword occurrences without a tree. *)
  let doc = Xks_datagen.Paper_fixtures.publications () in
  let src = Xks_xml.Writer.to_string doc in
  let count = ref 0 in
  let feed s =
    Xks_xml.Tokenizer.iter_words
      (fun w -> if w = "keyword" then incr count)
      s
  in
  let h =
    Sax.handler
      ~on_start:(fun name attrs ->
        feed name;
        List.iter
          (fun (k, v) ->
            feed k;
            feed v)
          attrs)
      ~on_end:(fun _ s off len -> feed (String.sub s off len))
      ()
  in
  Sax.parse_string h src;
  let idx = Xks_index.Inverted.build doc in
  Alcotest.(check int) "same count as the index"
    (Xks_index.Inverted.occurrence_count idx "keyword")
    !count

let test_errors_positioned () =
  let h = Sax.handler () in
  (match Sax.parse_string h "<a>\n<b></c></a>" with
  | exception Sax.Error { line; _ } -> Alcotest.(check int) "line" 2 line
  | () -> Alcotest.fail "expected an error");
  Alcotest.(check bool) "error rendering" true
    (Sax.error_to_string (Sax.Error { line = 1; col = 2; message = "x" }) <> None);
  Alcotest.(check bool) "other exceptions ignored" true
    (Sax.error_to_string Exit = None)

let prop_errors_documented =
  let small =
    {
      Xks_robust.Limits.max_depth = 4;
      max_attrs = 2;
      max_text_bytes = 64;
      max_nodes = 8;
    }
  in
  QCheck2.Test.make ~name:"random bytes raise only Error or Limit_exceeded"
    ~count:3000 ~print:(fun (_, s) -> Printf.sprintf "%S" s)
    QCheck2.Gen.(
      pair bool
        (Helpers.gen_untrusted
           (map Xks_xml.Writer.to_string Helpers.gen_doc)
           ~tokens:
             [ "<a>"; "</a>"; "<b x='1' y=\"2\">"; "</b>"; "<c/>"; "<"; ">";
               "/>"; "&amp;"; "&#x41;"; "&#65;"; "&#99999999;"; "&bogus;";
               "<!--"; "-->"; "<![CDATA["; "]]>"; "<?xml version='1.0'?>";
               "<!DOCTYPE a>"; "="; "'"; "\"" ]))
    (fun (use_small, bytes) ->
      let limits = if use_small then small else Xks_robust.Limits.default in
      Helpers.raises_only
        (function
          | Sax.Error _ | Xks_robust.Limits.Limit_exceeded _ -> true
          | _ -> false)
        (fun () -> Sax.parse_string ~limits (Sax.handler ()) bytes))

let tests =
  [
    Alcotest.test_case "event order" `Quick test_event_order;
    Alcotest.test_case "text segments are raw" `Quick test_text_segments_untrimmed;
    Alcotest.test_case "entities and CDATA" `Quick test_entities_and_cdata;
    Alcotest.test_case "text slices" `Quick test_text_slices;
    Alcotest.test_case "error and limit positions pinned" `Quick test_positions_pinned;
    Helpers.qtest test_balanced_on_random_docs;
    Alcotest.test_case "streaming word count" `Quick test_streaming_word_count;
    Alcotest.test_case "errors carry positions" `Quick test_errors_positioned;
    Helpers.qtest prop_errors_documented;
  ]
