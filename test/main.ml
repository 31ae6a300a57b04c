let () =
  Alcotest.run "xks"
    [
      ("util", Test_util.tests);
      ("dewey", Test_dewey.tests);
      ("tokenizer", Test_tokenizer.tests);
      ("parser", Test_parser.tests);
      ("writer", Test_writer.tests);
      ("sax", Test_sax.tests);
      ("tree", Test_tree.tests);
      ("index", Test_index.tests);
      ("persist", Test_persist.tests);
      ("robust", Test_robust.tests);
      ("stream_index", Test_stream_index.tests);
      ("ingest", Test_ingest.tests);
      ("gdmct", Test_gdmct.tests);
      ("lca", Test_lca.tests);
      ("scan_work", Test_scan_work.tests);
      ("rtf", Test_rtf.tests);
      ("fragment", Test_fragment.tests);
      ("query", Test_query.tests);
      ("prune", Test_prune.tests);
      ("explain", Test_explain.tests);
      ("spec", Test_spec.tests);
      ("axioms", Test_axioms.tests);
      ("metrics", Test_metrics.tests);
      ("bench", Test_bench.tests);
      ("datagen", Test_datagen.tests);
      ("engine", Test_engine.tests);
      ("ranking", Test_ranking.tests);
      ("rank", Test_rank.tests);
      ("extensions", Test_extensions.tests);
      ("check", Test_check.tests);
      ("exec", Test_exec.tests);
      ("serve", Test_serve.tests);
      ("paper_figures", Test_paper_figures.tests);
      ("analyzers", Test_annot.tests);
    ]
