(* Robustness layer: budgets, ingestion limits, failpoints, and the
   engine's graceful degradation. *)

module Budget = Xks_robust.Budget
module Limits = Xks_robust.Limits
module Failpoint = Xks_robust.Failpoint
module Engine = Xks_core.Engine
module Fragment = Xks_core.Fragment

(* --- Budget semantics --- *)

let test_node_budget () =
  let b = Budget.create ~max_nodes:10 () in
  Budget.tick b 10;
  (* exactly at the cap: still fine *)
  (match Budget.tick b 1 with
  | exception Budget.Exhausted Budget.Node_budget -> ()
  | () -> Alcotest.fail "node cap not enforced"
  | exception Budget.Exhausted Budget.Deadline ->
      Alcotest.fail "wrong exhaustion reason");
  Alcotest.(check int) "ticks counted" 11 (Budget.visited b)

let test_deadline_fake_clock () =
  let now = ref 0.0 in
  let b =
    Budget.create ~now:(fun () -> !now) ~check_interval:1 ~deadline_ms:100 ()
  in
  Budget.tick b 1;
  (* 50 ms in: still alive *)
  now := 0.05;
  Budget.tick b 1;
  (* 200 ms in: past the deadline *)
  now := 0.2;
  match Budget.tick b 1 with
  | exception Budget.Exhausted Budget.Deadline -> ()
  | () -> Alcotest.fail "deadline not enforced"

let test_clock_checked_every_interval () =
  let calls = ref 0 in
  let now () = incr calls; 0.0 in
  let b = Budget.create ~now ~check_interval:100 ~deadline_ms:60_000 () in
  Budget.tick b 1;
  (* the first tick always checks; from here on, one check per interval *)
  let before = !calls in
  for _ = 1 to 99 do Budget.tick b 1 done;
  Alcotest.(check int) "no clock reads between intervals" before !calls;
  Budget.tick b 1;
  Alcotest.(check int) "one clock read at the interval" (before + 1) !calls

let test_unlimited_budget () =
  let b = Budget.create () in
  Budget.tick b 10_000_000;
  Budget.check b;
  Alcotest.(check int) "visited still tracked" 10_000_000 (Budget.visited b)

let test_create_validation () =
  (match Budget.create ~max_nodes:(-1) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative max_nodes accepted");
  match Budget.create ~check_interval:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero check_interval accepted"

(* --- Ingestion limits --- *)

let deep_doc n =
  String.concat "" (List.init n (fun _ -> "<a>"))
  ^ "x"
  ^ String.concat "" (List.init n (fun _ -> "</a>"))

let expect_limit ~name limits src =
  match Xks_xml.Parser.parse_string ~limits src with
  | exception Limits.Limit_exceeded { limit; line; col; value; max } ->
      Alcotest.(check string) "which cap" name limit;
      Alcotest.(check bool) "positioned" true (line >= 1 && col >= 1);
      Alcotest.(check bool) "value crossed the cap" true (value > max)
  | _ -> Alcotest.failf "%s bomb accepted" name

let test_depth_bomb () =
  expect_limit ~name:"max_depth"
    { Limits.unlimited with max_depth = 16 }
    (deep_doc 64)

let test_attr_bomb () =
  let attrs =
    String.concat " " (List.init 64 (fun i -> Printf.sprintf "a%d=\"v\"" i))
  in
  expect_limit ~name:"max_attrs"
    { Limits.unlimited with max_attrs = 16 }
    (Printf.sprintf "<a %s/>" attrs)

let test_text_bomb () =
  expect_limit ~name:"max_text_bytes"
    { Limits.unlimited with max_text_bytes = 16 }
    ("<a>" ^ String.make 64 'x' ^ "</a>")

let test_entity_text_counts () =
  (* entity expansions charge the text budget too *)
  expect_limit ~name:"max_text_bytes"
    { Limits.unlimited with max_text_bytes = 4 }
    ("<a>" ^ String.concat "" (List.init 8 (fun _ -> "&amp;")) ^ "</a>")

let test_node_bomb () =
  expect_limit ~name:"max_nodes"
    { Limits.unlimited with max_nodes = 16 }
    ("<a>" ^ String.concat "" (List.init 64 (fun _ -> "<b/>")) ^ "</a>")

let test_defaults_admit_normal_documents () =
  let doc = Xks_datagen.Paper_fixtures.publications () in
  let src = Xks_xml.Writer.to_string doc in
  let reparsed = Xks_xml.Parser.parse_string ~limits:Limits.default src in
  Alcotest.(check int) "same size" (Xks_xml.Tree.size doc)
    (Xks_xml.Tree.size reparsed)

(* --- Failpoints --- *)

let with_temp_bytes data f =
  let path = Filename.temp_file "xks_robust" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc data;
      close_out oc;
      f path)

let test_failpoint_passthrough () =
  Failpoint.clear_all ();
  with_temp_bytes "hello" (fun path ->
      Alcotest.(check string) "disarmed passthrough" "hello"
        (Failpoint.read_file ~site:"t.site" path);
      Alcotest.(check int) "hit counted" 1 (Failpoint.hits "t.site"));
  Failpoint.clear_all ()

let test_failpoint_actions () =
  with_temp_bytes "hello" (fun path ->
      let read () = Failpoint.read_file ~site:"t.site" path in
      Alcotest.(check string) "truncate" "he"
        (Failpoint.with_failpoint "t.site" (Failpoint.Truncate 2) read);
      let corrupted =
        Failpoint.with_failpoint "t.site" (Failpoint.Corrupt 1) read
      in
      Alcotest.(check char) "bit-flipped byte"
        (Char.chr (Char.code 'e' lxor 0xFF))
        corrupted.[1];
      (match
         Failpoint.with_failpoint "t.site"
           (Failpoint.Raise (Sys_error "injected")) read
       with
      | exception Sys_error m when m = "injected" -> ()
      | _ -> Alcotest.fail "armed exception not raised");
      (* with_failpoint disarms even after the exception above *)
      Alcotest.(check string) "disarmed afterwards" "hello" (read ()));
  Failpoint.clear_all ()

let test_failpoint_skip () =
  with_temp_bytes "hello" (fun path ->
      let read () = Failpoint.read_file ~site:"t.site" path in
      Failpoint.with_failpoint ~skip:2 "t.site" (Failpoint.Truncate 0)
        (fun () ->
          Alcotest.(check string) "first skipped" "hello" (read ());
          Alcotest.(check string) "second skipped" "hello" (read ());
          Alcotest.(check string) "third fires" "" (read ())));
  Failpoint.clear_all ()

(* --- Budget coverage of the hot traversal loops ---

   Each of these loops once ran unticked (xkscost's unticked-loop rule
   flagged them): a request deadline could not interrupt the traversal
   itself, only the work before or after it.  The tests pin the ticks
   by exhausting a budget sized to run out inside the loop. *)

let doc_and_postings xml query =
  let doc = Xks_xml.Parser.parse_string xml in
  (doc, Helpers.postings_for doc query)

let wide_xml n =
  "<r>" ^ String.concat "" (List.init n (fun _ -> "<a>w1 w2</a>")) ^ "</r>"

let test_budget_interrupts_rtf_merge () =
  (* keyword_node_ids ticks once per posting occurrence merged *)
  let doc, ps = doc_and_postings (wide_xml 32) [ "w1"; "w2" ] in
  let features = Xks_index.Inverted.features (Xks_index.Inverted.build doc) in
  let q = Xks_core.Query.of_postings ~features doc ~keywords:[ "w1"; "w2" ] ps in
  let b = Budget.create ~max_nodes:10 () in
  match Xks_core.Rtf.keyword_node_ids ~budget:b q with
  | exception Budget.Exhausted Budget.Node_budget -> ()
  | _ -> Alcotest.fail "posting-merge loop ran past the node budget"

let test_budget_interrupts_slca_sweep () =
  (* indexed_lookup_eager ticks once per rarest-keyword occurrence *)
  let doc, ps = doc_and_postings (wide_xml 32) [ "w1"; "w2" ] in
  let b = Budget.create ~max_nodes:10 () in
  match Xks_lca.Slca.indexed_lookup_eager ~budget:b doc ps with
  | exception Budget.Exhausted Budget.Node_budget -> ()
  | _ -> Alcotest.fail "SLCA candidate sweep ran past the node budget"

let test_budget_interrupts_elca_witness () =
  (* is_elca ticks once per witness probe, even with no child ranges *)
  let doc, ps = doc_and_postings (wide_xml 4) [ "w1"; "w2" ] in
  let b = Budget.create ~max_nodes:0 () in
  match
    Xks_lca.Indexed_stack.is_elca ~budget:b doc ps (Xks_lca.Probe.cursors ps) 0
      (Xks_util.Int_vec.create ()) 0
  with
  | exception Budget.Exhausted Budget.Node_budget -> ()
  | _ -> Alcotest.fail "witness probe ran past the node budget"

(* A root-to-leaf chain where every node holds both keywords: the top-k
   driver pushes one stack entry per occurrence and never unwinds, so
   every pop — and the per-passed-range accounting it triggers in
   [emit] — happens in the post-driver drain. *)
let chain_doc_and_postings d =
  let xml =
    String.concat "" (List.init d (fun _ -> "<a>w1 w2"))
    ^ String.concat "" (List.init d (fun _ -> "</a>"))
  in
  doc_and_postings xml [ "w1"; "w2" ]

let run_topk ~budget ~k doc ps =
  Xks_lca.Topk.run ~budget ~k
    ~score:(fun ~lca:_ ~tf:_ -> 0.0)
    ~bound:(fun ~avail:_ -> infinity)
    doc ps

let test_budget_interrupts_topk_drain () =
  let d = 16 in
  let doc, ps = chain_doc_and_postings d in
  (* the drain performs ticks of its own, beyond the driver's one per
     occurrence: pops, witness probes and passed-range transfers *)
  let full = Budget.create () in
  ignore (run_topk ~budget:full ~k:1 doc ps : Xks_lca.Topk.outcome);
  Alcotest.(check bool) "drain work is ticked" true (Budget.visited full > d);
  (* a budget that survives the driver exactly dies in the drain *)
  let b = Budget.create ~max_nodes:d () in
  match run_topk ~budget:b ~k:1 doc ps with
  | exception Budget.Exhausted Budget.Node_budget -> ()
  | _ -> Alcotest.fail "post-driver drain ran past the node budget"

let test_deadline_interrupts_topk () =
  (* fake clock advancing 10 ms per read, checked on every tick: the
     deadline fires mid-scan no matter which loop is running *)
  let doc, ps = chain_doc_and_postings 16 in
  let reads = ref 0 in
  let now () = incr reads; float_of_int !reads *. 0.01 in
  let b = Budget.create ~now ~check_interval:1 ~deadline_ms:50 () in
  match run_topk ~budget:b ~k:1 doc ps with
  | exception Budget.Exhausted Budget.Deadline -> ()
  | _ -> Alcotest.fail "deadline did not interrupt the top-k scan"

(* --- Graceful degradation: one step down to the SLCA-only floor --- *)

let skeleton hits =
  hits
  |> List.map (fun h ->
         (h.Engine.fragment.Fragment.root, Fragment.members_list h.Engine.fragment))
  |> List.sort compare

let test_degrades_to_slca_answer () =
  (* A budget of one node exhausts the first attempt, so the search
     lands on the unbudgeted SLCA-only floor: same fragments, tagged
     degraded. *)
  let e = Engine.of_doc (Xks_datagen.Paper_fixtures.publications ()) in
  let q = Xks_datagen.Paper_fixtures.q2 in
  let budget = Budget.create ~max_nodes:1 () in
  let r = Engine.search_result ~budget e q in
  Alcotest.(check bool) "tagged degraded" true
    (r.Engine.degraded = Some Budget.Node_budget);
  let floor = Engine.search ~algorithm:Engine.Maxmatch_original e q in
  Alcotest.(check bool) "equals the SLCA-only answer" true
    (skeleton r.Engine.hits = skeleton floor)

let test_generous_budget_is_full_fidelity () =
  let e = Engine.of_doc (Xks_datagen.Paper_fixtures.publications ()) in
  let q = Xks_datagen.Paper_fixtures.q3 in
  let budget = Budget.create ~max_nodes:10_000_000 ~deadline_ms:600_000 () in
  let budgeted = Engine.search_result ~budget e q in
  let unbudgeted = Engine.search e q in
  Alcotest.(check bool) "not degraded" true (budgeted.Engine.degraded = None);
  Alcotest.(check bool) "same answer" true
    (skeleton budgeted.Engine.hits = skeleton unbudgeted)

let test_expired_deadline_still_answers () =
  let e = Engine.of_doc (Xks_datagen.Paper_fixtures.team ()) in
  let q = Xks_datagen.Paper_fixtures.q4 in
  (* deadline long gone before the query starts *)
  let r =
    Engine.search_result ~budget:(Xks_check.Topk.expired_deadline ()) e q
  in
  Alcotest.(check bool) "degraded by deadline" true
    (r.Engine.degraded = Some Budget.Deadline);
  Alcotest.(check bool) "still produced the SLCA answer" true
    (skeleton r.Engine.hits
    = skeleton (Engine.search ~algorithm:Engine.Maxmatch_original e q))

(* A degraded search runs two algorithms: the requested one (ValidRTF,
   or the top-k scan) and then the floor, with no revised-MaxMatch
   attempt between them.  The budget covers the up-front posting charge
   exactly, so the first attempt opens its stage and exhausts inside
   it. *)
let posting_charge e q =
  let prepared = Xks_core.Query.make ~order:`Rarest (Engine.index e) q in
  Array.fold_left
    (fun acc p -> acc + Array.length p)
    0 prepared.Xks_core.Query.postings

let degraded_trace ?rank ?k e q =
  let t = Xks_trace.Trace.create () in
  let r =
    Xks_trace.Trace.with_current t (fun () ->
        Engine.search_result ?rank ?k
          ~budget:(Budget.create ~max_nodes:(posting_charge e q) ())
          e q)
  in
  Alcotest.(check bool) "degraded" true
    (r.Engine.degraded = Some Budget.Node_budget);
  (r, t)

let test_degraded_search_stages () =
  let e = Engine.of_doc (Xks_datagen.Paper_fixtures.publications ()) in
  let q = Xks_datagen.Paper_fixtures.q2 in
  let attempts ?rank ?k () =
    let _, t = degraded_trace ?rank ?k e q in
    List.map
      (fun s -> (Xks_trace.Trace.stage_name s, Xks_trace.Trace.stage_calls t s))
      Xks_trace.Trace.[ Validrtf; Maxmatch; Maxmatch_original; Topk ]
  in
  Alcotest.(check (list (pair string int))) "ValidRTF, then the floor"
    [ ("validrtf", 1); ("maxmatch", 0); ("maxmatch_original", 1); ("topk", 0) ]
    (attempts ());
  Alcotest.(check (list (pair string int))) "top-k scan, then the floor"
    [ ("validrtf", 0); ("maxmatch", 0); ("maxmatch_original", 1); ("topk", 1) ]
    (attempts ~rank:`Bm25 ~k:2 ())

(* A degraded top-k search builds only the floor's k best fragments,
   not every SLCA fragment it ranks. *)
let test_degraded_topk_builds_k () =
  let doc =
    "<r>"
    ^ String.concat ""
        (List.init 30 (fun i ->
             Printf.sprintf "<e><a>w1 x%d</a>%s<b>w2</b></e>" i
               (if i mod 3 = 0 then "<c>w1</c>" else "")))
    ^ "</r>"
  in
  let e = Engine.of_string doc in
  let q = [ "w1"; "w2" ] in
  let r, t = degraded_trace ~rank:`Bm25 ~k:10 e q in
  Alcotest.(check int) "ten hits" 10 (List.length r.Engine.hits);
  Alcotest.(check int) "thirty SLCA fragments to rank" 30
    (List.length (Engine.search ~algorithm:Engine.Maxmatch_original e q));
  let built = Xks_trace.Trace.stage_calls t Xks_trace.Trace.Construct in
  if built > 10 then
    Alcotest.failf "the floor constructed %d fragments for k = 10" built;
  Alcotest.(check bool) "the floor's BM25 k-prefix" true
    (r.Engine.hits
    = List.filteri
        (fun i _ -> i < 10)
        (Engine.search ~algorithm:Engine.Maxmatch_original ~rank:`Bm25 e q))

let prop_budgeted_equals_some_ladder_rung =
  (* Whatever the budget and the rank mode, the answer is exactly the
     one its tag names (Xks_check's [ladder] rule): untagged, the
     requested algorithm's unbudgeted answer; tagged, the unbudgeted
     SLCA-only answer.  Degradation never invents fragments. *)
  let modes = [ (`Heuristic, None); (`Bm25, None); (`Bm25, Some 2) ] in
  QCheck2.Test.make ~name:"budgeted answer is some ladder rung's answer"
    ~count:60
    QCheck2.Gen.(
      quad Helpers.gen_doc (int_range 0 2) (int_range 0 200) bool)
    ~print:(fun (doc, mode, n, expired) ->
      Printf.sprintf "%s mode %d %s" (Helpers.print_doc doc) mode
        (if expired then "expired deadline"
         else Printf.sprintf "~max_nodes:%d" n))
    (fun (doc, mode, max_nodes, expired) ->
      let e = Engine.of_doc doc in
      let rank, k = List.nth modes mode in
      let budget =
        if expired then Xks_check.Topk.expired_deadline ()
        else Budget.create ~max_nodes ()
      in
      Xks_check.Topk.check_budgeted ~rank ?k ~what:"a generated budget" e
        [ "w0"; "w1" ] budget
      = [])

let tests =
  [
    Alcotest.test_case "node budget" `Quick test_node_budget;
    Alcotest.test_case "deadline (fake clock)" `Quick test_deadline_fake_clock;
    Alcotest.test_case "clock checked per interval" `Quick
      test_clock_checked_every_interval;
    Alcotest.test_case "unlimited budget" `Quick test_unlimited_budget;
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "depth bomb" `Quick test_depth_bomb;
    Alcotest.test_case "attribute bomb" `Quick test_attr_bomb;
    Alcotest.test_case "text bomb" `Quick test_text_bomb;
    Alcotest.test_case "entity expansion charges text" `Quick
      test_entity_text_counts;
    Alcotest.test_case "node bomb" `Quick test_node_bomb;
    Alcotest.test_case "defaults admit normal documents" `Quick
      test_defaults_admit_normal_documents;
    Alcotest.test_case "failpoint passthrough" `Quick test_failpoint_passthrough;
    Alcotest.test_case "failpoint actions" `Quick test_failpoint_actions;
    Alcotest.test_case "failpoint skip" `Quick test_failpoint_skip;
    Alcotest.test_case "budget interrupts the RTF posting merge" `Quick
      test_budget_interrupts_rtf_merge;
    Alcotest.test_case "budget interrupts the SLCA sweep" `Quick
      test_budget_interrupts_slca_sweep;
    Alcotest.test_case "budget interrupts the ELCA witness probe" `Quick
      test_budget_interrupts_elca_witness;
    Alcotest.test_case "budget interrupts the top-k drain" `Quick
      test_budget_interrupts_topk_drain;
    Alcotest.test_case "deadline interrupts the top-k scan" `Quick
      test_deadline_interrupts_topk;
    Alcotest.test_case "tiny budget degrades to the SLCA answer" `Quick
      test_degrades_to_slca_answer;
    Alcotest.test_case "generous budget is full fidelity" `Quick
      test_generous_budget_is_full_fidelity;
    Alcotest.test_case "expired deadline still answers" `Quick
      test_expired_deadline_still_answers;
    Alcotest.test_case "degraded search runs the floor next" `Quick
      test_degraded_search_stages;
    Alcotest.test_case "degraded top-k builds only k fragments" `Quick
      test_degraded_topk_builds_k;
    Helpers.qtest prop_budgeted_equals_some_ladder_rung;
  ]
