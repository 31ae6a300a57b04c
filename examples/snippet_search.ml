(* Extension showcase: labeled query terms, query-biased snippets,
   did-you-mean suggestions and index persistence working together on a
   small catalogue.

     dune exec examples/snippet_search.exe
*)

module Engine = Xks_core.Engine
module Labeled = Xks_core.Labeled
module Snippet = Xks_core.Snippet

let catalogue =
  "<catalog>\
   <book><title>The XML Handbook</title>\
   <summary>a practical tour of xml modelling and keyword search over \
   document trees</summary></book>\
   <book><title>Streams and Trees</title>\
   <summary>stream processing with tree automata, with a short xml \
   appendix</summary></book>\
   <article><title>Keyword Search Engines</title>\
   <summary>ranking keyword search results for semi structured \
   data</summary></article>\
   </catalog>"

let () =
  let engine = Engine.of_string catalogue in
  Printf.printf "indexed: %s\n\n" (Engine.stats engine);

  (* Plain keyword search with snippets. *)
  let query = [ "xml"; "keyword"; "search" ] in
  Printf.printf "query: %s\n" (String.concat " " query);
  let result = Engine.run engine query in
  let q = result.Xks_core.Pipeline.query in
  List.iteri
    (fun i frag ->
      Printf.printf "  %d. %s\n" (i + 1) (Snippet.of_fragment q frag))
    result.Xks_core.Pipeline.fragments;

  (* The same query restricted to titles. *)
  print_newline ();
  let terms = [ "title:keyword"; "title:search" ] in
  Printf.printf "labeled query: %s\n" (String.concat " " terms);
  List.iter
    (fun (hit : Engine.hit) ->
      print_string (Engine.render engine hit))
    (Labeled.search engine terms);

  (* Suggestions when a keyword is misspelled. *)
  print_newline ();
  List.iter
    (fun (w, correction) ->
      match correction with
      | Some better -> Printf.printf "did you mean: %s -> %s\n" w better
      | None -> ())
    (Xks_index.Suggest.correct_query (Engine.index engine)
       [ "xlm"; "keyword" ]);

  (* Persist the index and reopen it. *)
  let path = Filename.temp_file "xks_demo" ".idx" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Xks_index.Persist.save path (Engine.index engine);
      let reopened = Xks_index.Persist.load path (Engine.doc engine) in
      let again = Xks_core.Validrtf.run reopened query in
      Printf.printf "\nreloaded index: %d result(s), identical to %d\n"
        (List.length again.Xks_core.Pipeline.fragments)
        (List.length result.Xks_core.Pipeline.fragments))
