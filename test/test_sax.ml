(* Streaming SAX interface. *)

module Sax = Xks_xml.Sax

type event = Start of string * (string * string) list | Text of string | End of string

let events_of src =
  let acc = ref [] in
  let h =
    Sax.handler
      ~on_start:(fun name attrs -> acc := Start (name, attrs) :: !acc)
      ~on_text:(fun s -> acc := Text s :: !acc)
      ~on_end:(fun name -> acc := End name :: !acc)
      ()
  in
  Sax.parse_string h src;
  List.rev !acc

let test_event_order () =
  let events = events_of "<a x='1'>hi<b/>there</a>" in
  Alcotest.(check bool) "expected stream" true
    (events
    = [
        Start ("a", [ ("x", "1") ]); Text "hi"; Start ("b", []); End "b";
        Text "there"; End "a";
      ])

let test_text_segments_untrimmed () =
  let events = events_of "<a> padded </a>" in
  Alcotest.(check bool) "raw segment" true (events = [ Start ("a", []); Text " padded "; End "a" ])

let test_entities_and_cdata () =
  let events = events_of "<a>&amp;<![CDATA[<x>]]></a>" in
  Alcotest.(check bool) "decoded" true
    (events = [ Start ("a", []); Text "&<x>"; End "a" ])

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
          ~on_end:(fun _ -> decr depth)
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
      ~on_text:feed ()
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
    Helpers.qtest test_balanced_on_random_docs;
    Alcotest.test_case "streaming word count" `Quick test_streaming_word_count;
    Alcotest.test_case "errors carry positions" `Quick test_errors_positioned;
    Helpers.qtest prop_errors_documented;
  ]
