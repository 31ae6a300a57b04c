(* xks — command-line XML keyword search.

   Subcommands:
     search   run a keyword query against an XML file
     stats    show document/index statistics and top words
     shred    dump the relational tables (label/element/value)
     gen      emit a synthetic DBLP-like or XMark-like corpus
     index    build and persist an inverted index
     sql      keyword lookup through the relational path
     serve    overload-safe HTTP search over a Unix-domain socket

   Exit codes (also in the man pages): 2 = XML parse error, 3 =
   ingestion limit or query budget error, 4 = corrupt index file,
   5 = serving-socket setup failure. *)

open Cmdliner

let exit_parse_error = 2
let exit_limit_error = 3
let exit_corrupt_index = 4
let exit_socket_error = 5

let exits =
  Cmd.Exit.info exit_parse_error ~doc:"on a malformed XML document."
  :: Cmd.Exit.info exit_limit_error
       ~doc:
         "when an ingestion limit (depth, attributes, text bytes, nodes) or \
          a query budget is exceeded."
  :: Cmd.Exit.info exit_corrupt_index
       ~doc:"on a corrupt, truncated or unreadable index file."
  :: Cmd.Exit.info exit_socket_error
       ~doc:"when the serving socket cannot be set up."
  :: Cmd.Exit.defaults

let die code msg =
  prerr_endline msg;
  exit code

let engine_of_file path =
  try Xks_core.Engine.of_file path with
  | e when Xks_xml.Parser.error_to_string e <> None ->
      (match Xks_xml.Parser.error_to_string e with
      | Some msg -> die exit_parse_error msg
      | None -> assert false)
  | e when Xks_robust.Limits.error_to_string e <> None ->
      (match Xks_robust.Limits.error_to_string e with
      | Some msg -> die exit_limit_error msg
      | None -> assert false)
  | Sys_error msg -> die exit_parse_error msg

let doc_of_file path =
  try Xks_xml.Parser.parse_file path with
  | e when Xks_xml.Parser.error_to_string e <> None ->
      (match Xks_xml.Parser.error_to_string e with
      | Some msg -> die exit_parse_error msg
      | None -> assert false)
  | e when Xks_robust.Limits.error_to_string e <> None ->
      (match Xks_robust.Limits.error_to_string e with
      | Some msg -> die exit_limit_error msg
      | None -> assert false)
  | Sys_error msg -> die exit_parse_error msg

(* Load a persisted index against [file]'s document; [repair] rebuilds
   from the document instead of failing on corruption. *)
let engine_of_index ~repair idx_path file =
  let doc = doc_of_file file in
  if repair then
    Xks_core.Engine.of_index
      (Xks_index.Persist.load_or_rebuild idx_path doc)
  else
    match Xks_index.Persist.load idx_path doc with
    | idx -> Xks_core.Engine.of_index idx
    | exception Failure msg -> die exit_corrupt_index msg
    | exception Sys_error msg -> die exit_corrupt_index msg

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"XML document to search.")

(* --- search --- *)

let algorithm_conv =
  Arg.enum
    [
      ("validrtf", Xks_core.Engine.Validrtf);
      ("maxmatch", Xks_core.Engine.Maxmatch);
      ("maxmatch-original", Xks_core.Engine.Maxmatch_original);
    ]

(* One query per line; '#' lines and blank lines are skipped. *)
let read_batch_file path =
  let ic =
    try open_in path with Sys_error msg -> die Cmd.Exit.cli_error ("xks: " ^ msg)
  in
  let queries = ref [] in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try
        while true do
          let line = String.trim (input_line ic) in
          if line <> "" && line.[0] <> '#' then
            match
              String.split_on_char ' ' line
              |> List.filter (fun w -> w <> "")
            with
            | [] -> ()
            | ws -> queries := ws :: !queries
        done
      with End_of_file -> ());
  List.rev !queries

let search_cmd =
  let keywords =
    Arg.(
      value
      & pos_right 0 string []
      & info [] ~docv:"KEYWORD"
          ~doc:"Query keywords (omit when $(b,--batch) is given).")
  in
  let algorithm =
    Arg.(
      value
      & opt algorithm_conv Xks_core.Engine.Validrtf
      & info [ "a"; "algorithm" ] ~docv:"ALGO"
          ~doc:
            "Algorithm: $(b,validrtf) (default), $(b,maxmatch) (revised) or \
             $(b,maxmatch-original) (SLCA only).")
  in
  let rank_conv =
    let parse = function
      | "heuristic" -> Ok `Heuristic
      | "bm25" -> Ok `Bm25
      | "doc" -> Ok `Doc
      | s -> Error (`Msg (Printf.sprintf "unknown rank mode %S" s))
    in
    let print fmt (r : Xks_core.Engine.rank_mode) =
      Format.pp_print_string fmt
        (match r with
        | `Heuristic -> "heuristic"
        | `Bm25 -> "bm25"
        | `Doc -> "doc")
    in
    Arg.conv (parse, print)
  in
  let rank =
    Arg.(
      value
      & opt rank_conv `Heuristic
      & info [ "rank" ] ~docv:"MODE"
          ~doc:
            "Hit ordering: $(b,heuristic) (default, structural score), \
             $(b,bm25) (BM25 over posting statistics) or $(b,doc) \
             (document order).")
  in
  let top_k =
    Arg.(
      value
      & opt (some int) None
      & info [ "top-k" ] ~docv:"K"
          ~doc:
            "Retrieve only the best $(docv) results.  With \
             $(b,--rank bm25) the engine scores fragments during the \
             traversal and terminates the scan early once no unseen \
             fragment can enter the top $(docv); otherwise the ranked \
             list is truncated.")
  in
  let xml_out =
    Arg.(value & flag & info [ "x"; "xml" ] ~doc:"Print fragments as XML.")
  in
  let exact_cid =
    Arg.(
      value & flag
      & info [ "exact-cid" ]
          ~doc:
            "Use exact tree content sets instead of the paper's (min, max) \
             approximation when pruning.")
  in
  let limit =
    Arg.(
      value & opt int 10
      & info [ "n"; "limit" ] ~docv:"N" ~doc:"Show at most $(docv) results.")
  in
  let snippets =
    Arg.(
      value & flag
      & info [ "s"; "snippets" ]
          ~doc:"Show a query-biased snippet under each result.")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Show, for every node of each raw RTF, which pruning rule \
             kept or discarded it.")
  in
  let timeout_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Wall-clock budget for the query.  On exhaustion the engine \
             answers with the SLCA-only algorithm (original MaxMatch) \
             instead of running on; a note is printed when results are \
             degraded.")
  in
  let max_nodes =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-nodes" ] ~docv:"N"
          ~doc:
            "Visited-node budget for the query; degrades like \
             $(b,--timeout-ms) on exhaustion.")
  in
  let stats_flag =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Trace the query (or the whole $(b,--batch)) and print each \
             stage's calls and time, pipeline counters and degradation \
             events to stderr.")
  in
  let trace_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-json" ] ~docv:"FILE"
          ~doc:
            "Write the query trace (each stage's calls and time, counters, \
             degradation events) to $(docv) as JSON; with $(b,--batch), \
             the whole batch's.")
  in
  let batch_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "batch" ] ~docv:"FILE"
          ~doc:
            "Run every query in $(docv) (one query per line, keywords \
             separated by spaces; blank lines and $(b,#) comments are \
             skipped) instead of a single positional query.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "With $(b,--batch): fan the queries out over $(docv) worker \
             domains (1 = sequential on the calling domain).")
  in
  let cache_mb =
    Arg.(
      value & opt int 0
      & info [ "cache-mb" ] ~docv:"MB"
          ~doc:
            "With $(b,--batch): front the queries with a sharded LRU \
             result cache of roughly $(docv) MB (0, the default, disables \
             caching).  Repeated queries in the batch are answered from \
             the cache.")
  in
  let run file ws algorithm rank top_k xml_out exact_cid limit snippets explain
      timeout_ms max_nodes index_path repair stats_flag trace_json batch_file
      jobs cache_mb =
    let engine =
      match index_path with
      | Some idx_path -> engine_of_index ~repair idx_path file
      | None -> engine_of_file file
    in
    (match (timeout_ms, max_nodes) with
    | Some ms, _ when ms < 0 ->
        die Cmd.Exit.cli_error "xks: --timeout-ms must be non-negative"
    | _, Some n when n < 0 ->
        die Cmd.Exit.cli_error "xks: --max-nodes must be non-negative"
    | _ -> ());
    (match top_k with
    | Some k when k < 1 -> die Cmd.Exit.cli_error "xks: --top-k must be >= 1"
    | Some _ | None -> ());
    if jobs < 1 then die Cmd.Exit.cli_error "xks: --jobs must be >= 1";
    if cache_mb < 0 then
      die Cmd.Exit.cli_error "xks: --cache-mb must be non-negative";
    let budget =
      if timeout_ms = None && max_nodes = None then None
      else
        Some
          (Xks_robust.Budget.create ?deadline_ms:timeout_ms
             ?max_nodes:max_nodes ())
    in
    let cid_mode =
      if exact_cid then Xks_index.Cid.Exact else Xks_index.Cid.Approx
    in
    let trace =
      if stats_flag || trace_json <> None then Some (Xks_trace.Trace.create ())
      else None
    in
    let traced f =
      match trace with
      | None -> f ()
      | Some t -> Xks_trace.Trace.with_current t f
    in
    let report_trace () =
      match trace with
      | None -> ()
      | Some t -> (
          if stats_flag then prerr_string (Xks_trace.Trace.summary t);
          match trace_json with
          | None -> ()
          | Some path ->
              let oc = open_out path in
              Fun.protect
                ~finally:(fun () -> close_out_noerr oc)
                (fun () ->
                  output_string oc
                    (Xks_trace.Json.to_string (Xks_trace.Trace.to_json t));
                  output_char oc '\n'))
    in
    (* The hits of one query, as both paths print them: the fragment,
       then its snippet and its pruning decisions when asked for. *)
    let print_hits query hits =
      List.iteri
        (fun i (hit : Xks_core.Engine.hit) ->
          if i < limit then begin
            Printf.printf "-- #%d score %.2f %s\n" (i + 1)
              hit.Xks_core.Engine.score
              (if hit.Xks_core.Engine.is_slca then "(slca)" else "(lca)");
            print_string (Xks_core.Engine.render ~xml:xml_out engine hit);
            if snippets then
              Printf.printf "   %s\n"
                (Xks_core.Snippet.of_fragment (Lazy.force query)
                   hit.Xks_core.Engine.fragment);
            if explain then begin
              let info =
                Xks_core.Node_info.construct ~cid_mode (Lazy.force query)
                  hit.Xks_core.Engine.rtf
              in
              let decisions =
                match algorithm with
                | Xks_core.Engine.Validrtf ->
                    Xks_core.Explain.valid_contributor info
                | Xks_core.Engine.Maxmatch
                | Xks_core.Engine.Maxmatch_original ->
                    Xks_core.Explain.contributor info
              in
              print_string
                (Xks_core.Explain.render (Xks_core.Engine.doc engine)
                   decisions)
            end
          end)
        hits
    in
    match batch_file with
    | Some path ->
        if ws <> [] then
          die Cmd.Exit.cli_error
            "xks: --batch and positional keywords are mutually exclusive";
        let queries = read_batch_file path in
        if queries = [] then
          die Cmd.Exit.cli_error ("xks: no queries in " ^ path);
        let cache =
          if cache_mb > 0 then
            Some
              (Xks_exec.Cache.create ~max_bytes:(cache_mb * 1024 * 1024) ())
          else None
        in
        let budget_spec =
          if timeout_ms = None && max_nodes = None then None
          else Some { Xks_exec.Exec.deadline_ms = timeout_ms; max_nodes }
        in
        let results =
          traced (fun () ->
              try
                if jobs > 1 then
                  Xks_exec.Pool.with_pool ~size:jobs (fun pool ->
                      Xks_exec.Exec.search_batch_results ~pool ?cache
                        ~algorithm ~rank ?k:top_k ~cid_mode
                        ?budget:budget_spec engine queries)
                else
                  Xks_exec.Exec.search_batch_results ?cache ~algorithm ~rank
                    ?k:top_k ~cid_mode ?budget:budget_spec engine queries
              with Xks_exec.Pool.Task_error e -> raise e)
        in
        List.iteri
          (fun qi ws ->
            let result = results.(qi) in
            let hits = result.Xks_core.Engine.hits in
            Printf.printf "%d result(s) for \"%s\"\n" (List.length hits)
              (String.concat " " ws);
            (match result.Xks_core.Engine.degraded with
            | Some reason ->
                Printf.printf "   (degraded: %s)\n"
                  (Xks_robust.Budget.reason_to_string reason)
            | None -> ());
            print_hits
              (lazy (Xks_core.Query.make (Xks_core.Engine.index engine) ws))
              hits)
          queries;
        (match cache with
        | Some c when stats_flag ->
            let s = Xks_exec.Cache.stats c in
            Printf.eprintf
              "cache: %d hit(s), %d miss(es), %d eviction(s), %d live \
               entry(ies) (~%d bytes)\n"
              s.Xks_exec.Cache.hits s.Xks_exec.Cache.misses
              s.Xks_exec.Cache.evictions s.Xks_exec.Cache.entries
              s.Xks_exec.Cache.bytes
        | _ -> ());
        report_trace ()
    | None ->
    if ws = [] then
      die Cmd.Exit.cli_error "xks: expected keywords or --batch FILE";
    (* Terms containing ':' use the labeled-search extension. *)
    let labeled = List.exists (fun w -> String.contains w ':') ws in
    if labeled && (rank <> `Heuristic || top_k <> None) then
      die Cmd.Exit.cli_error
        "xks: --rank/--top-k are not supported with labeled (:) terms";
    let result =
      traced (fun () ->
          if labeled then
            {
              Xks_core.Engine.hits =
                Xks_core.Labeled.search ~algorithm engine ws;
              degraded = None;
            }
          else
            Xks_core.Engine.search_result ~algorithm ~rank ?k:top_k ~cid_mode
              ?budget engine ws)
    in
    let hits = result.Xks_core.Engine.hits in
    (* [search_result] keeps the degradation signal even when the hit
       list is empty; report it either way. *)
    (match result.Xks_core.Engine.degraded with
    | Some reason ->
        Printf.eprintf
          "note: query %s exhausted; results degraded to a cheaper algorithm\n"
          (Xks_robust.Budget.reason_to_string reason)
    | None -> ());
    report_trace ();
    let query =
      if labeled then Xks_core.Labeled.query (Xks_core.Engine.index engine) ws
      else Xks_core.Query.make (Xks_core.Engine.index engine) ws
    in
    Printf.printf "%d result(s) for \"%s\"\n" (List.length hits)
      (String.concat " " ws);
    if hits = [] && not labeled then
      List.iter
        (fun (w, correction) ->
          match correction with
          | Some better -> Printf.printf "no \"%s\" — did you mean \"%s\"?\n" w better
          | None -> ())
        (Xks_index.Suggest.correct_query (Xks_core.Engine.index engine) ws);
    print_hits (Lazy.from_val query) hits
  in
  let index_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "index" ] ~docv:"IDX"
          ~doc:
            "Load the inverted index from $(docv) (written by $(b,xks \
             index)) instead of re-indexing the document.  A corrupt or \
             truncated file exits with code 4 unless $(b,--repair) is \
             given.")
  in
  let repair =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:
            "With $(b,--index): on corruption, rebuild the index from the \
             document (and re-save it) instead of failing.")
  in
  Cmd.v
    (Cmd.info "search" ~exits
       ~doc:"Run an XML keyword query and print fragments.")
    Term.(
      const run $ file_arg $ keywords $ algorithm $ rank $ top_k $ xml_out
      $ exact_cid $ limit $ snippets $ explain $ timeout_ms $ max_nodes
      $ index_path $ repair $ stats_flag $ trace_json $ batch_file $ jobs
      $ cache_mb)

(* --- stats --- *)

let stats_cmd =
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Show the $(docv) most frequent words.")
  in
  let run file top =
    let engine = engine_of_file file in
    print_endline (Xks_core.Engine.stats engine);
    let idx = Xks_core.Engine.index engine in
    List.iter
      (fun (w, c) -> Printf.printf "%8d  %s\n" c w)
      (Xks_index.Inverted.top_words idx top)
  in
  Cmd.v
    (Cmd.info "stats" ~exits ~doc:"Document and index statistics.")
    Term.(const run $ file_arg $ top)

(* --- index --- *)

let index_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"IDX" ~doc:"Index output path.")
  in
  let run file out =
    match Xks_index.Stream_index.save_file ~input:file ~output:out () with
    | words -> Printf.printf "wrote %s (%d distinct words)\n" out words
    | exception e when Xks_xml.Sax.error_to_string e <> None ->
        (match Xks_xml.Sax.error_to_string e with
        | Some msg -> die exit_parse_error msg
        | None -> assert false)
    | exception e when Xks_robust.Limits.error_to_string e <> None ->
        (match Xks_robust.Limits.error_to_string e with
        | Some msg -> die exit_limit_error msg
        | None -> assert false)
    | exception Sys_error msg -> die exit_parse_error msg
  in
  Cmd.v
    (Cmd.info "index" ~exits
       ~doc:
         "Stream-index an XML file and persist the checksummed inverted \
          index (reload it with $(b,xks search --index)).")
    Term.(const run $ file_arg $ out)

(* --- shred --- *)

let shred_cmd =
  let run file =
    let doc = Xks_xml.Parser.parse_file file in
    let tables = Xks_index.Shredder.shred doc in
    let nl, ne, nv = Xks_index.Shredder.row_count tables in
    Printf.printf "label table (%d rows):\n" nl;
    List.iter
      (fun r ->
        Printf.printf "  %3d %s\n" r.Xks_index.Shredder.label_id
          r.Xks_index.Shredder.label_name)
      tables.Xks_index.Shredder.labels;
    Printf.printf "element table: %d rows\nvalue table: %d rows\n" ne nv
  in
  Cmd.v
    (Cmd.info "shred" ~exits
       ~doc:"Shred a document into the paper's relational tables.")
    Term.(const run $ file_arg)

(* --- gen --- *)

let gen_cmd =
  let dataset =
    Arg.(
      required
      & pos 0
          (some
             (Arg.enum
                [
                  ("dblp", `Dblp); ("xmark-std", `Xmark Xks_datagen.Xmark_gen.Standard);
                  ("xmark1", `Xmark Xks_datagen.Xmark_gen.Data1);
                  ("xmark2", `Xmark Xks_datagen.Xmark_gen.Data2);
                ]))
          None
      & info [] ~docv:"DATASET"
          ~doc:"One of $(b,dblp), $(b,xmark-std), $(b,xmark1), $(b,xmark2).")
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output path.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Generator seed.")
  in
  let size =
    Arg.(
      value & opt int 0
      & info [ "size" ] ~docv:"N"
          ~doc:
            "Size knob: DBLP entries (default 12000) or XMark items per \
             region at standard scale (default 60).")
  in
  let run dataset out seed size =
    let doc =
      match dataset with
      | `Dblp ->
          let d = Xks_datagen.Dblp_gen.default_config in
          let entries = if size > 0 then size else d.Xks_datagen.Dblp_gen.entries in
          Xks_datagen.Dblp_gen.generate
            ~config:{ d with seed; entries } ()
      | `Xmark sz ->
          let d = Xks_datagen.Xmark_gen.default_config in
          let items = if size > 0 then size else d.Xks_datagen.Xmark_gen.items in
          Xks_datagen.Xmark_gen.generate ~config:{ d with seed; items } sz
    in
    Xks_xml.Writer.to_file out doc;
    Printf.printf "wrote %s (%d nodes)\n" out (Xks_xml.Tree.size doc)
  in
  Cmd.v
    (Cmd.info "gen" ~exits ~doc:"Generate a synthetic corpus as an XML file.")
    Term.(const run $ dataset $ out $ seed $ size)

(* --- sql --- *)

let sql_cmd =
  let keyword =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"KEYWORD" ~doc:"Keyword to look up in the value table.")
  in
  (* [select id, dewey, label, attribute from value where keyword = w]:
     the shredder emits one value row per (node, keyword) in document
     order, so the rows come out distinct and ordered by id. *)
  let run file keyword =
    let doc = Xks_xml.Parser.parse_file file in
    let header = [ "id"; "dewey"; "label"; "attribute" ] in
    let rows =
      List.map
        (fun (r : Xks_index.Shredder.value_row) ->
          [
            string_of_int r.v_id;
            Xks_xml.Dewey.to_string r.v_dewey;
            r.v_label;
            r.v_attribute;
          ])
        (Xks_index.Shredder.find_values (Xks_index.Shredder.values doc) keyword)
    in
    let widths =
      List.fold_left
        (List.map2 (fun w cell -> max w (String.length cell)))
        (List.map String.length header)
        rows
    in
    let print_row cells =
      print_endline
        (String.concat " | " (List.map2 (Printf.sprintf "%-*s") widths cells))
    in
    List.iter print_row (header :: rows)
  in
  Cmd.v
    (Cmd.info "sql" ~exits
       ~doc:
         "Answer a keyword lookup through the relational (shredded-table) \
          path, as the paper's platform does.")
    Term.(const run $ file_arg $ keyword)

(* --- serve --- *)

let serve_cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Unix-domain socket to serve on.  A stale socket file left by \
             a previous run is replaced; any other file at $(docv) is an \
             error (exit code 5).")
  in
  let workers =
    Arg.(
      value & opt int 0
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Worker domains = in-flight request budget (default: one per \
             available core).")
  in
  let queue =
    Arg.(
      value
      & opt (some int) None
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admitted connections allowed to wait for a worker (default \
             2×workers).  Connections beyond workers+queue are shed with \
             503 + Retry-After — the server never buffers unboundedly.")
  in
  let timeout_ms =
    Arg.(
      value & opt int 200
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Per-request budget deadline; a slow query is answered by the \
             SLCA-only algorithm and the response is tagged. 0 disables.")
  in
  let max_nodes =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-nodes" ] ~docv:"N"
          ~doc:"Per-request visited-node budget.")
  in
  let idle_ms =
    Arg.(
      value & opt int 5000
      & info [ "idle-ms" ] ~docv:"MS"
          ~doc:"Keep-alive idle timeout awaiting a request's first byte.")
  in
  let read_ms =
    Arg.(
      value & opt int 2000
      & info [ "read-ms" ] ~docv:"MS"
          ~doc:"Total timeout for reading one request.")
  in
  let write_ms =
    Arg.(
      value & opt int 2000
      & info [ "write-ms" ] ~docv:"MS"
          ~doc:"Total timeout for writing one response.")
  in
  let drain_ms =
    Arg.(
      value & opt int 2000
      & info [ "drain-ms" ] ~docv:"MS"
          ~doc:
            "Graceful-shutdown drain budget: on SIGTERM/SIGINT the server \
             stops accepting and waits this long for in-flight connections \
             before cutting them.")
  in
  let cache_mb =
    Arg.(
      value & opt int 8
      & info [ "cache-mb" ] ~docv:"MB"
          ~doc:"Result-cache budget (0 disables caching).")
  in
  let algorithm =
    Arg.(
      value
      & opt algorithm_conv Xks_core.Engine.Validrtf
      & info [ "a"; "algorithm" ] ~docv:"ALGO"
          ~doc:"Default algorithm (per-request override via ?algorithm=).")
  in
  let index_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "index" ] ~docv:"IDX"
          ~doc:"Serve from a persisted index instead of re-indexing.")
  in
  let repair =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:"With $(b,--index): rebuild on corruption instead of failing.")
  in
  let run file socket workers queue timeout_ms max_nodes idle_ms read_ms
      write_ms drain_ms cache_mb algorithm index_path repair =
    if workers < 0 then die Cmd.Exit.cli_error "xks: --workers must be >= 0";
    if timeout_ms < 0 then
      die Cmd.Exit.cli_error "xks: --timeout-ms must be non-negative";
    (match queue with
    | Some q when q < 0 ->
        die Cmd.Exit.cli_error "xks: --queue must be non-negative"
    | _ -> ());
    let engine =
      match index_path with
      | Some idx_path -> engine_of_index ~repair idx_path file
      | None -> engine_of_file file
    in
    let workers =
      if workers > 0 then workers else Xks_exec.Pool.default_size ()
    in
    let queue = match queue with Some q -> q | None -> 2 * workers in
    let cfg =
      {
        (Xks_serve.Server.default_config ~socket_path:socket ()) with
        workers;
        queue;
        deadline_ms = (if timeout_ms > 0 then Some timeout_ms else None);
        max_nodes;
        idle_timeout_ms = idle_ms;
        read_timeout_ms = read_ms;
        write_timeout_ms = write_ms;
        drain_timeout_ms = drain_ms;
        cache_mb;
        algorithm;
        log = prerr_endline;
      }
    in
    let srv =
      try Xks_serve.Server.create cfg engine with
      | Unix.Unix_error (err, _, _) ->
          die exit_socket_error
            (Printf.sprintf "xks: cannot bind %s: %s" socket
               (Unix.error_message err))
      | Failure msg -> die exit_socket_error ("xks: " ^ msg)
    in
    let stop _ = Xks_serve.Server.request_shutdown srv in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Printf.eprintf "xks: serving %s on %s (workers=%d queue=%d)\n%!" file
      socket workers queue;
    Xks_serve.Server.run srv
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:
         "Serve keyword search over a Unix-domain socket with bounded \
          admission, per-request budgets and graceful shutdown on \
          SIGTERM/SIGINT.")
    Term.(
      const run $ file_arg $ socket $ workers $ queue $ timeout_ms $ max_nodes
      $ idle_ms $ read_ms $ write_ms $ drain_ms $ cache_mb $ algorithm
      $ index_path $ repair)

(* Escaped exceptions must never reach the user as raw backtraces: map
   the structured ones to their documented exit codes, anything else to
   cmdliner's internal-error code. *)
let () =
  let doc = "XML keyword search with meaningful relaxed tightest fragments" in
  let info = Cmd.info "xks" ~version:"1.0.0" ~doc ~exits in
  let group =
    Cmd.group info
      [
        search_cmd; stats_cmd; shred_cmd; gen_cmd; index_cmd; sql_cmd;
        serve_cmd;
      ]
  in
  match Cmd.eval ~catch:false group with
  | code -> exit code
  | exception e ->
      let code, msg =
        match Xks_xml.Parser.error_to_string e with
        | Some msg -> (exit_parse_error, msg)
        | None -> (
            match Xks_xml.Sax.error_to_string e with
            | Some msg -> (exit_parse_error, msg)
            | None -> (
                match Xks_robust.Limits.error_to_string e with
                | Some msg -> (exit_limit_error, msg)
                | None -> (
                    match e with
                    | Xks_robust.Budget.Exhausted reason ->
                        ( exit_limit_error,
                          "query budget exhausted: "
                          ^ Xks_robust.Budget.reason_to_string reason )
                    | Failure msg
                      when String.length msg >= 8
                           && String.sub msg 0 8 = "Persist:" ->
                        (exit_corrupt_index, msg)
                    | Sys_error msg -> (exit_parse_error, msg)
                    | e ->
                        ( Cmd.Exit.internal_error,
                          "internal error: " ^ Printexc.to_string e ))))
      in
      die code ("xks: " ^ msg)
