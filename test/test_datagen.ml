(* Generators: determinism, planted keyword frequencies, workload sanity. *)

module Rng = Xks_datagen.Rng
module Vocab = Xks_datagen.Vocab
module Dblp = Xks_datagen.Dblp_gen
module Xmark = Xks_datagen.Xmark_gen
module Queries = Xks_datagen.Queries
module Workload_gen = Xks_datagen.Workload_gen
module Inverted = Xks_index.Inverted
module Tree = Xks_xml.Tree

let test_rng_deterministic () =
  let a = Rng.create 99 and b = Rng.create 99 in
  let xs = List.init 50 (fun _ -> Rng.int a 1000) in
  let ys = List.init 50 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys;
  let c = Rng.create 100 in
  let zs = List.init 50 (fun _ -> Rng.int c 1000) in
  Alcotest.(check bool) "different seed differs" true (xs <> zs)

let test_rng_bounds () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let x = Rng.int r 7 in
    if x < 0 || x >= 7 then Alcotest.fail "out of bounds"
  done;
  for _ = 1 to 1000 do
    let f = Rng.float r 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.fail "float out of bounds"
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int: bound")
    (fun () -> ignore (Rng.int r 0))

let test_rng_shuffle_permutes () =
  let r = Rng.create 5 in
  let a = Array.init 30 Fun.id in
  Rng.shuffle r a;
  Alcotest.(check (list int)) "same multiset"
    (List.init 30 Fun.id)
    (List.sort compare (Array.to_list a))

let test_zipf_skew () =
  let r = Rng.create 11 in
  let counts = Array.make 20 0 in
  for _ = 1 to 2000 do
    let x = Rng.zipf r ~n:20 ~s:1.0 in
    counts.(x) <- counts.(x) + 1
  done;
  Alcotest.(check bool) "rank 0 beats rank 10" true (counts.(0) > counts.(10))

let test_vocab_sampler () =
  let smp = Vocab.sampler ~s:1.2 Vocab.common in
  let r = Rng.create 3 in
  for _ = 1 to 500 do
    let w = Vocab.sample smp r in
    if not (Array.exists (String.equal w) Vocab.common) then
      Alcotest.failf "sampled %s outside the vocabulary" w
  done;
  let s = Vocab.sentence smp r ~min_words:3 ~max_words:5 in
  let n = List.length (String.split_on_char ' ' s) in
  Alcotest.(check bool) "sentence length" true (n >= 3 && n <= 5)

let test_dblp_deterministic () =
  let cfg = { Dblp.default_config with entries = 200 } in
  let a = Dblp.generate ~config:cfg () and b = Dblp.generate ~config:cfg () in
  Alcotest.(check string) "equal documents"
    (Xks_xml.Writer.to_string a) (Xks_xml.Writer.to_string b)

let test_dblp_planted_frequencies () =
  let cfg = { Dblp.default_config with entries = 500; scale = 0.005 } in
  let doc = Dblp.generate ~config:cfg () in
  let idx = Inverted.build doc in
  List.iter
    (fun (w, expected) ->
      Alcotest.(check int) (Printf.sprintf "occurrences of %s" w) expected
        (Inverted.occurrence_count idx w))
    (Dblp.planted_counts cfg)

let test_dblp_shape () =
  let cfg = { Dblp.default_config with entries = 100 } in
  let doc = Dblp.generate ~config:cfg () in
  Alcotest.(check string) "root label" "dblp" (Tree.label_name doc 0);
  Alcotest.(check int) "one child per entry" 100
    (Tree.fold_children (fun n _ -> n + 1) 0 doc 0)

let test_xmark_deterministic_and_scaled () =
  let cfg = { Xmark.default_config with items = 4 } in
  let std = Xmark.generate ~config:cfg Xmark.Standard in
  let std' = Xmark.generate ~config:cfg Xmark.Standard in
  Alcotest.(check string) "deterministic"
    (Xks_xml.Writer.to_string std) (Xks_xml.Writer.to_string std');
  let d2 = Xmark.generate ~config:cfg Xmark.Data2 in
  Alcotest.(check bool) "data2 is much bigger" true
    (Tree.size d2 > 4 * Tree.size std)

let test_xmark_planted_frequencies () =
  let cfg = { Xmark.default_config with items = 6; keyword_scale = 0.002 } in
  let doc = Xmark.generate ~config:cfg Xmark.Standard in
  let idx = Inverted.build doc in
  List.iter
    (fun (w, expected) ->
      Alcotest.(check int) (Printf.sprintf "occurrences of %s" w) expected
        (Inverted.occurrence_count idx w))
    (Xmark.planted_counts cfg Xmark.Standard)

let test_xmark_frequency_growth () =
  (* The 1:3:6 dataset ratio carries over to keyword counts. *)
  let cfg = Xmark.default_config in
  let count size w =
    List.assoc w (Xmark.planted_counts cfg size)
  in
  List.iter
    (fun (w, _, _, _) ->
      let s = count Xmark.Standard w
      and d1 = count Xmark.Data1 w
      and d2 = count Xmark.Data2 w in
      Alcotest.(check bool) (w ^ " grows") true (s <= d1 && d1 <= d2))
    Xmark.keywords

let test_queries_workloads () =
  Alcotest.(check int) "19 dblp queries" 19 (List.length Queries.dblp.Queries.queries);
  Alcotest.(check int) "25 xmark queries" 25 (List.length Queries.xmark.Queries.queries);
  (* Every mnemonic expands to known keywords. *)
  let check_workload abbrs (wl : Queries.workload) keywords =
    List.iter
      (fun (mnemonic, ws) ->
        Alcotest.(check int)
          (mnemonic ^ " arity")
          (String.length mnemonic) (List.length ws);
        List.iter
          (fun w ->
            if not (List.mem w keywords) then
              Alcotest.failf "query %s uses unknown keyword %s" mnemonic w)
          ws;
        Alcotest.(check (list string))
          (mnemonic ^ " expands consistently")
          ws
          (Queries.expand abbrs mnemonic))
      wl.Queries.queries
  in
  check_workload Queries.dblp_abbreviations Queries.dblp
    (List.map fst Dblp.keywords);
  check_workload Queries.xmark_abbreviations Queries.xmark
    (List.map (fun (w, _, _, _) -> w) Xmark.keywords)

let test_workload_gen () =
  let doc = Dblp.generate ~config:{ Dblp.default_config with entries = 300 } () in
  let idx = Inverted.build doc in
  let queries = Xks_datagen.Workload_gen.generate ~seed:5 ~count:20 idx in
  Alcotest.(check int) "count" 20 (List.length queries);
  List.iter
    (fun q ->
      let n = List.length q in
      if n < 2 || n > 6 then Alcotest.failf "bad arity %d" n;
      if List.length (List.sort_uniq compare q) <> n then
        Alcotest.fail "duplicate keyword in a query";
      List.iter
        (fun w ->
          if Inverted.occurrence_count idx w < 2 then
            Alcotest.failf "workload keyword %s below the frequency floor" w)
        q)
    queries;
  (* Deterministic. *)
  Alcotest.(check bool) "same seed, same workload" true
    (queries = Xks_datagen.Workload_gen.generate ~seed:5 ~count:20 idx);
  Alcotest.(check bool) "different seed differs" true
    (queries <> Xks_datagen.Workload_gen.generate ~seed:6 ~count:20 idx)

let test_workload_bands () =
  let doc = Dblp.generate ~config:{ Dblp.default_config with entries = 300 } () in
  let idx = Inverted.build doc in
  let bands = Xks_datagen.Workload_gen.bands idx in
  Alcotest.(check int) "three bands" 3 (List.length bands);
  (* Bands are ordered by frequency. *)
  let max_count ws =
    List.fold_left (fun m w -> max m (Inverted.occurrence_count idx w)) 0 ws
  in
  let min_count ws =
    List.fold_left (fun m w -> min m (Inverted.occurrence_count idx w)) max_int ws
  in
  match bands with
  | [ (b_r, r); (b_m, m); (b_f, f) ] ->
      Alcotest.(check bool) "band order" true
        (b_r = Workload_gen.Rare && b_m = Workload_gen.Medium
        && b_f = Workload_gen.Frequent);
      Alcotest.(check bool) "rare <= medium" true (max_count r <= min_count m || m = []);
      Alcotest.(check bool) "medium <= frequent" true (max_count m <= min_count f || f = [])
  | [] | _ :: _ -> Alcotest.fail "unexpected band structure"

let test_expand_unknown () =
  Alcotest.check_raises "unknown letter"
    (Invalid_argument "Queries.expand: unknown abbreviation 'z'") (fun () ->
      ignore (Queries.expand Queries.xmark_abbreviations "z"))

let tests =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_deterministic;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng shuffle" `Quick test_rng_shuffle_permutes;
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "vocab sampler" `Quick test_vocab_sampler;
    Alcotest.test_case "dblp determinism" `Quick test_dblp_deterministic;
    Alcotest.test_case "dblp planted frequencies are exact" `Quick
      test_dblp_planted_frequencies;
    Alcotest.test_case "dblp shape" `Quick test_dblp_shape;
    Alcotest.test_case "xmark determinism and scaling" `Quick
      test_xmark_deterministic_and_scaled;
    Alcotest.test_case "xmark planted frequencies are exact" `Quick
      test_xmark_planted_frequencies;
    Alcotest.test_case "xmark frequency growth" `Quick test_xmark_frequency_growth;
    Alcotest.test_case "query workloads" `Quick test_queries_workloads;
    Alcotest.test_case "workload generator" `Quick test_workload_gen;
    Alcotest.test_case "workload bands" `Quick test_workload_bands;
    Alcotest.test_case "expand rejects unknown letters" `Quick test_expand_unknown;
  ]
