(* xksbench: measures one workload for a fixed time and prints its
   metrics by name (see README.md in this directory).  run.py builds and
   invokes it, and turns the last line into the result line with the
   units of BENCHMARK.json; it can also be run directly:

     xksbench --workload dblp-full --seed 1 --seconds 10 --trace 0 \
       --dir perfbench/_work --xks _build/default/bin/xks.exe *)

open Perfbench
module Json = Xks_trace.Json

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and dir = ref "perfbench/_work" in
  let xks = ref "_build/default/bin/xks.exe" and commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W a workload named in BENCHMARK.json");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--dir", Arg.Set_string dir, "DIR scratch directory for corpora");
      ("--xks", Arg.Set_string xks, "PATH the xks binary (serve-zipf)");
      ("--commit", Arg.Set_string commit, "ID recorded in the run metadata");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "xksbench --workload W --seed N --seconds S --trace 0|1";
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "xksbench: --trace must be 0 or 1";
    exit 2
  end;
  if !seconds <= 0. then begin
    prerr_endline "xksbench: --seconds must be positive";
    exit 2
  end;
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  let dir = !dir in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let outcome, spans =
    match !workload with
    | "dblp-full" -> Wl_full.run ~dir ~seed ~seconds ~trace
    | "xmark-topk" -> Wl_topk.run ~dir ~seed ~seconds ~trace
    | "serve-zipf" -> Wl_serve.run ~dir ~xks:!xks ~seed ~seconds ~trace
    | w ->
        prerr_endline ("xksbench: unknown workload " ^ w);
        exit 2
  in
  if trace then Spans.write spans (Filename.concat dir (!workload ^ ".spans.tsv"));
  let info =
    Json.Obj
      [
        ("workload", Json.String !workload);
        ("seed", Json.Int seed);
        ("trace", Json.Bool trace);
        ("seconds", Json.Float seconds);
        ("commit", Json.String !commit);
        ("nproc", Json.Int (Report.nproc ()));
        ("recommended_domains", Json.Int (Domain.recommended_domain_count ()));
        ("ocaml", Json.String Sys.ocaml_version);
        ("setup_reps", Json.Int Corpus.reps);
        ("meta", Json.Obj outcome.Report.meta);
        ("digest", Json.String outcome.digest);
        ("problems", Json.List (List.map (fun p -> Json.String p) outcome.problems));
      ]
  in
  print_endline (Json.to_string (Json.Obj [ ("info", info) ]));
  List.iter (fun p -> prerr_endline ("xksbench: check failed: " ^ p)) outcome.problems;
  print_endline (Report.result_line outcome)
