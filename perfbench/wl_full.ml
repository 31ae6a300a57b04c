(* dblp-full: Engine.search (ValidRTF, heuristic rank, no cache, no
   budget), one closed-loop client, on the default DBLP corpus.

   The paper's Fig. 5 path on a flat, wide tree: few large RTFs make
   node-info construction and pruning the bulk of the work.  It bypasses
   top-k, the result cache and HTTP. *)

module Engine = Xks_core.Engine
module Query = Xks_core.Query
module Json = Xks_trace.Json

let pool_size = 200
let pool_seed = 1101  (* the pool is fixed; the run seed orders the stream *)
let epoch = 2000

(* Algorithm 1 stage by stage through the layers' public functions, in
   the order Engine.search calls them. *)
let replay (sp : Spans.wrap) ?(on_rtf = fun _ _ _ -> ()) engine ws =
  let q =
    sp.w "query.make" (fun () ->
        Query.make ~order:`Rarest (Engine.index engine) ws)
  in
  let lcas =
    sp.w "indexed_stack.elca" (fun () ->
        if Query.has_results q then
          Xks_lca.Indexed_stack.elca q.Query.doc q.Query.postings
        else [])
  in
  let rtfs = sp.w "rtf.get_rtfs" (fun () -> Xks_core.Rtf.get_rtfs q lcas) in
  let fragments =
    List.map
      (fun rtf ->
        let w0 = Gc.minor_words () in
        let info =
          sp.w "node_info.construct" (fun () -> Xks_core.Node_info.construct q rtf)
        in
        let words = Gc.minor_words () -. w0 in
        let fragment =
          sp.w "prune.valid_contributor" (fun () ->
              Xks_core.Prune.valid_contributor info)
        in
        on_rtf info fragment words;
        fragment)
      rtfs
  in
  let scored =
    sp.w "ranking.rank" (fun () ->
        Xks_core.Ranking.rank { Xks_core.Pipeline.query = q; lcas; rtfs; fragments })
  in
  let slcas =
    if scored = [] then [||]
    else
      sp.w "slca.lookup" (fun () ->
          Array.of_list (Xks_lca.Slca.indexed_lookup_eager q.Query.doc q.Query.postings))
  in
  (q, lcas, rtfs, scored, slcas)

let same_hits (hits : Engine.hit list) (scored, slcas) =
  List.length hits = List.length scored
  && List.for_all2
       (fun (h : Engine.hit) (s : Xks_core.Ranking.scored) ->
         Xks_core.Fragment.equal h.fragment s.fragment
         && h.rtf.lca = s.rtf.lca && Float.equal h.score s.score
         && h.is_slca = Xks_util.Bsearch.mem slcas s.rtf.lca)
       hits scored

let hits_digest buf (hits : Engine.hit list) =
  List.iter
    (fun (h : Engine.hit) ->
      Printf.bprintf buf "%d:%h:%b:" h.fragment.root h.score h.is_slca;
      Array.iter (fun m -> Printf.bprintf buf "%d," m) h.fragment.members;
      Buffer.add_char buf ';')
    hits

(* Members of a constructed info tree (keyword nodes + path nodes). *)
let rec members (i : Xks_core.Node_info.info) =
  List.fold_left (fun acc c -> acc + members c) 1 i.rtf_children

let span_names =
  [
    ("query.make", "query.make_ms");
    ("indexed_stack.elca", "indexed_stack.elca_ms");
    ("rtf.get_rtfs", "rtf.get_rtfs_ms");
    ("node_info.construct", "node_info.construct_ms");
    ("prune.valid_contributor", "prune.valid_contributor_ms");
    ("ranking.rank", "ranking.rank_ms");
    ("slca.lookup", "slca.lookup_ms");
  ]

let run ~dir ~seed ~seconds ~trace =
  let s = Corpus.setup ~dir Corpus.Dblp in
  let tr = Loop.traced () in
  let write_problems, write_metrics = Loop.write_path tr ~trace ~dir Corpus.Dblp in
  let engine = s.engine in
  let pool =
    Array.of_list
      (Xks_datagen.Workload_gen.generate ~seed:pool_seed ~count:pool_size
         (Engine.index engine))
  in
  let stream = Zipf.create ~seed ~n:pool_size ~epoch in
  (* warm-up, untimed: the head of the pool once *)
  for r = 0 to 19 do
    ignore (Engine.search engine pool.(r) : Engine.hit list)
  done;
  let first = Hashtbl.create pool_size in
  let failed = ref 0 and problems = ref (List.rev write_problems) in
  let sp = Spans.wrap tr.spans in
  let postings = ref 0 and elcas = ref 0 and knodes = ref 0 in
  let members_total = ref 0 and kept = ref 0 and construct_words = ref 0. in
  let on_rtf info fragment words =
    let m = members (Xks_core.Node_info.root info) in
    members_total := !members_total + m;
    kept := !kept + Xks_core.Fragment.size fragment;
    construct_words := !construct_words +. words
  in
  let run =
    Loop.closed ~seconds (fun _ ->
        let rank = Zipf.next stream in
        let ws = pool.(rank) in
        let search () = Engine.search engine ws in
        let hits, ms =
          if trace then Loop.untraced tr search else Loop.time search
        in
        if not (Hashtbl.mem first rank) then Hashtbl.replace first rank hits;
        if trace then begin
          let q, lcas, rtfs, scored, slcas =
            Loop.replay tr (fun () -> replay sp ~on_rtf engine ws)
          in
          postings :=
            !postings
            + Array.fold_left (fun a p -> a + Array.length p) 0 q.Query.postings;
          elcas := !elcas + List.length lcas;
          List.iter
            (fun (r : Xks_core.Rtf.t) -> knodes := !knodes + Array.length r.knodes)
            rtfs;
          if not (same_hits hits (scored, slcas)) then begin
            incr failed;
            problems := Printf.sprintf "replay differs on [%s]" (String.concat " " ws) :: !problems
          end
        end;
        ms)
  in
  (* Output check of the untraced run: every distinct query's replayed
     fragments equal Engine.search's (untimed). *)
  let ranks = List.sort compare (Hashtbl.fold (fun r _ acc -> r :: acc) first []) in
  let buf = Buffer.create 4096 in
  if not trace then
    List.iter
      (fun r ->
        let _, _, _, scored, slcas = replay Spans.untimed engine pool.(r) in
        if not (same_hits (Hashtbl.find first r) (scored, slcas)) then begin
          incr failed;
          problems :=
            Printf.sprintf "replay differs on [%s]" (String.concat " " pool.(r))
            :: !problems
        end)
      ranks;
  List.iter
    (fun r ->
      Printf.bprintf buf "%s|" (String.concat " " pool.(r));
      hits_digest buf (Hashtbl.find first r))
    ranks;
  let meta =
    [
      ("corpus", Corpus.setup_meta s);
      ("pool_distinct", Json.Int pool_size);
      ("distinct_run", Json.Int (List.length ranks));
    ]
    @ Loop.latency_meta run
  in
  let metrics, problems' =
    if not trace then
      ( Loop.latency_metrics run
        @ Corpus.setup_metrics s
        @ [ ("peak_rss_mb", Report.peak_rss_mb ()) ],
        [] )
    else begin
      let stage, self, stage_ms, coverage = Loop.stage_metrics tr ~names:span_names in
      let ops = float_of_int (max 1 tr.ops) in
      let construct =
        Option.value ~default:0. (List.assoc_opt "node_info.construct" self)
      in
      ( stage @ write_metrics
        @ [
            ("query.postings", float_of_int !postings /. ops);
            ("indexed_stack.elcas", float_of_int !elcas /. ops);
            ("rtf.knodes", float_of_int !knodes /. ops);
            ("node_info.members", float_of_int !members_total /. ops);
            ("node_info.construct_words", !construct_words /. ops);
            ("node_info.stage_share", construct /. Float.max 1e-9 stage_ms);
            ( "prune.kept_ratio",
              float_of_int !kept /. float_of_int (max 1 !members_total) );
          ],
        Loop.coverage_problem ~coverage )
    end
  in
  ( {
      Report.attempted = Array.length run.lat;
      failed = !failed;
      metrics;
      meta;
      digest = Digest.to_hex (Digest.string (Buffer.contents buf));
      problems = problems' @ List.rev !problems;
    },
    tr.spans )
