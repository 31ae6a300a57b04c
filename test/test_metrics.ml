(* CFR / APR / APR' / Max APR (Section 5.1), plus the Trace
   observability layer. *)

module Metrics = Xks_metrics.Metrics
module Engine = Xks_core.Engine
module Trace = Xks_trace.Trace
module Json = Xks_trace.Json

let metrics_for xml query =
  let engine = Engine.of_string xml in
  let validrtf = Engine.run ~algorithm:Engine.Validrtf engine query in
  let maxmatch = Engine.run ~algorithm:Engine.Maxmatch engine query in
  Metrics.compare_results ~validrtf ~maxmatch

let test_identical_results () =
  (* Distinct keyword sets per sibling: both algorithms agree. *)
  let m = metrics_for "<r><a>w1</a><b>w2</b></r>" [ "w1"; "w2" ] in
  Alcotest.(check int) "lcas" 1 m.Metrics.lca_count;
  Alcotest.(check (float 1e-9)) "cfr" 1.0 m.Metrics.cfr;
  Alcotest.(check (float 1e-9)) "apr" 0.0 m.Metrics.apr;
  Alcotest.(check (float 1e-9)) "max apr" 0.0 m.Metrics.max_apr

let test_validrtf_prunes_more () =
  (* Q4-style redundancy: MaxMatch keeps the duplicate, ValidRTF prunes
     2 of the 9 fragment nodes. *)
  let m =
    metrics_for
      "<team><name>grizzlies</name><players><player><pos>forward</pos></player><player><pos>guard</pos></player><player><pos>forward</pos></player></players></team>"
      [ "grizzlies"; "pos" ]
  in
  Alcotest.(check int) "one lca" 1 m.Metrics.lca_count;
  Alcotest.(check (float 1e-9)) "cfr 0" 0.0 m.Metrics.cfr;
  Alcotest.(check (float 1e-3)) "apr = 2/9" (2.0 /. 9.0) m.Metrics.apr;
  Alcotest.(check (float 1e-3)) "max apr = apr (single)" m.Metrics.apr m.Metrics.max_apr;
  Alcotest.(check (float 1e-9)) "apr' drops the extreme" 0.0 m.Metrics.apr'

let test_validrtf_keeps_more () =
  (* False-positive case: ValidRTF keeps a node MaxMatch drops; fragments
     differ but ValidRTF discards nothing, so APR stays 0 while CFR < 1. *)
  let m =
    metrics_for "<r><t>w1</t><abs>w1 w2</abs><z>w3</z></r>"
      [ "w1"; "w2"; "w3" ]
  in
  Alcotest.(check (float 1e-9)) "cfr" 0.0 m.Metrics.cfr;
  Alcotest.(check (float 1e-9)) "apr" 0.0 m.Metrics.apr

let test_mismatched_lcas_rejected () =
  let engine = Engine.of_string "<r><a>w1</a><b>w1 w2</b></r>" in
  let validrtf = Engine.run ~algorithm:Engine.Validrtf engine [ "w1"; "w2" ] in
  let original =
    Engine.run ~algorithm:Engine.Maxmatch_original engine [ "w1" ]
  in
  Alcotest.check_raises "different LCA sets"
    (Invalid_argument "Metrics.compare_results: different LCA sets")
    (fun () -> ignore (Metrics.compare_results ~validrtf ~maxmatch:original))

let test_empty_results () =
  let m = metrics_for "<r><a>w1</a></r>" [ "w1"; "w9" ] in
  Alcotest.(check int) "no lcas" 0 m.Metrics.lca_count;
  Alcotest.(check (float 1e-9)) "cfr 1 by convention" 1.0 m.Metrics.cfr

(* Properties over random documents. *)

let gen_case = QCheck2.Gen.pair Helpers.gen_doc Helpers.gen_query

let print_case (doc, ws) =
  Printf.sprintf "query=%s doc=%s" (String.concat "," ws) (Helpers.print_doc doc)

let metrics_of (doc, ws) =
  let engine = Engine.of_doc doc in
  let validrtf = Engine.run ~algorithm:Engine.Validrtf engine ws in
  let maxmatch = Engine.run ~algorithm:Engine.Maxmatch engine ws in
  Metrics.compare_results ~validrtf ~maxmatch

let prop_ranges =
  QCheck2.Test.make ~name:"metric ranges: 0 <= APR' <= MaxAPR < 1, CFR in [0,1]"
    ~count:300 ~print:print_case gen_case (fun case ->
      let m = metrics_of case in
      m.Metrics.cfr >= 0.0
      && m.Metrics.cfr <= 1.0
      && m.Metrics.apr >= 0.0
      && m.Metrics.apr' >= 0.0
      && m.Metrics.apr' <= m.Metrics.max_apr +. 1e-9
      && m.Metrics.max_apr < 1.0
      && m.Metrics.common <= m.Metrics.lca_count)

let prop_cfr_one_iff_all_common =
  QCheck2.Test.make ~name:"CFR = 1 iff every fragment is common" ~count:300
    ~print:print_case gen_case (fun case ->
      let m = metrics_of case in
      (abs_float (m.Metrics.cfr -. 1.0) < 1e-9)
      = (m.Metrics.common = m.Metrics.lca_count))

(* --- Trace layer --- *)

let search_doc = "<r><a>w1 w2</a><b>w1</b><c>w2 w1</c></r>"

let test_trace_disabled_is_noop () =
  Alcotest.(check bool) "disabled by default" false (Trace.enabled ());
  (* Recording calls without an installed trace are dropped... *)
  Trace.add Trace.Nodes_visited 5;
  Trace.incr Trace.Postings_scanned;
  Trace.degradation "deadline";
  Alcotest.(check int) "with_span is transparent" 42
    (Trace.with_span "outer" (fun () -> 42));
  (* ...and a full untraced search leaves a later trace at zero. *)
  let engine = Engine.of_string search_doc in
  ignore (Engine.search engine [ "w1"; "w2" ]);
  let t = Trace.create () in
  List.iter
    (fun c ->
      Alcotest.(check int)
        ("fresh counter " ^ Trace.counter_name c)
        0 (Trace.counter t c))
    Trace.all_counters;
  Alcotest.(check int) "no spans" 0 (List.length (Trace.spans t));
  Alcotest.(check int) "no events" 0 (List.length (Trace.degradation_events t))

let test_trace_counters_enabled_and_monotone () =
  let engine = Engine.of_string search_doc in
  let t = Trace.create () in
  let snap1, snap2 =
    Trace.with_current t (fun () ->
        ignore (Engine.search engine [ "w1"; "w2" ]);
        let snap1 = List.map snd (Trace.counters t) in
        ignore (Engine.search engine [ "w1"; "w2" ]);
        (snap1, List.map snd (Trace.counters t)))
  in
  Alcotest.(check bool) "postings scanned" true
    (Trace.counter t Trace.Postings_scanned > 0);
  Alcotest.(check bool) "nodes visited" true
    (Trace.counter t Trace.Nodes_visited > 0);
  Alcotest.(check bool) "elca pushes" true
    (Trace.counter t Trace.Elca_pushed > 0);
  Alcotest.(check bool) "fragment nodes kept" true
    (Trace.counter t Trace.Frag_nodes_kept > 0);
  (* Counters only grow; the second identical search adds real work. *)
  List.iter2
    (fun a b -> Alcotest.(check bool) "monotone" true (b >= a))
    snap1 snap2;
  Alcotest.(check bool) "second search counted" true
    (List.nth snap2 0 > List.nth snap1 0);
  (* Not degraded: no events. *)
  Alcotest.(check int) "no degradations" 0
    (Trace.counter t Trace.Degradations)

let test_trace_spans_nest () =
  let t = Trace.create () in
  Trace.with_current t (fun () ->
      Trace.with_span "outer" (fun () ->
          Trace.with_span "inner" (fun () -> ());
          Trace.with_span "inner2" (fun () -> ())));
  match Trace.spans t with
  | [ outer; inner; inner2 ] ->
      Alcotest.(check string) "outer first (start order)" "outer" outer.Trace.label;
      Alcotest.(check int) "outer at depth 0" 0 outer.Trace.depth;
      Alcotest.(check string) "inner second" "inner" inner.Trace.label;
      Alcotest.(check int) "inner nested" 1 inner.Trace.depth;
      Alcotest.(check int) "inner2 nested" 1 inner2.Trace.depth;
      Alcotest.(check bool) "outer spans its children" true
        (outer.Trace.ms >= inner.Trace.ms)
  | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l)

let test_trace_search_stage_spans () =
  let engine = Engine.of_string search_doc in
  let t = Trace.create () in
  Trace.with_current t (fun () -> ignore (Engine.search engine [ "w1"; "w2" ]));
  let spans = Trace.spans t in
  let find label =
    match List.find_opt (fun s -> s.Trace.label = label) spans with
    | Some s -> s
    | None -> Alcotest.failf "missing span %s" label
  in
  Alcotest.(check int) "search is outermost" 0 (find "search").Trace.depth;
  Alcotest.(check int) "validrtf under search" 1 (find "validrtf").Trace.depth;
  List.iter
    (fun stage ->
      Alcotest.(check int) (stage ^ " under validrtf") 2 (find stage).Trace.depth)
    [ "lca"; "rtf"; "prune" ];
  Alcotest.(check int) "rank under search" 1 (find "rank").Trace.depth;
  List.iter
    (fun s ->
      Alcotest.(check bool) (s.Trace.label ^ " non-negative") true
        (s.Trace.ms >= 0.0))
    spans

let test_trace_json_round_trip () =
  let engine = Engine.of_string search_doc in
  let t = Trace.create () in
  Trace.with_current t (fun () -> ignore (Engine.search engine [ "w1" ]));
  let j = Json.parse (Json.to_string (Trace.to_json t)) in
  let counters = Option.get (Json.member "counters" j) in
  Alcotest.(check bool) "postings_scanned exported positive" true
    (match
       Option.bind (Json.member "postings_scanned" counters) Json.to_int
     with
    | Some n -> n > 0
    | None -> false);
  match Option.bind (Json.member "spans" j) Json.to_list with
  | Some (_ :: _) -> ()
  | _ -> Alcotest.fail "spans missing from JSON"

(* --- JSON printing: byte identity with the Printf-based printer --- *)

(* The printer [Json.to_string] replaced, kept verbatim as the
   reference: [Printf] for control-character escapes and floats,
   [string_of_int] for ints, one [Buffer.add_char] per plain byte. *)
module Reference_json = struct
  let escape buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let rec emit buf = function
    | Json.Null -> Buffer.add_string buf "null"
    | Json.Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Json.Int i -> Buffer.add_string buf (string_of_int i)
    | Json.Float f ->
        if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.6g" f)
        else Buffer.add_string buf "null"
    | Json.String s ->
        Buffer.add_char buf '"';
        escape buf s;
        Buffer.add_char buf '"'
    | Json.List l ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            emit buf v)
          l;
        Buffer.add_char buf ']'
    | Json.Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            escape buf k;
            Buffer.add_string buf "\":";
            emit buf v)
          fields;
        Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    emit buf v;
    Buffer.contents buf
end

let gen_json =
  let open QCheck2.Gen in
  (* every byte value, with the ones that need escaping drawn often *)
  let byte =
    frequency
      [ (3, char); (1, map Char.chr (int_range 0 0x1f));
        (1, oneofl [ '"'; '\\'; '\x7f'; '\xff' ]) ]
  in
  let str = string_size ~gen:byte (int_range 0 12) in
  let int =
    oneof
      [ oneofl [ min_int; max_int; min_int + 1; -1; 0; 9; 10; -10; 99; 100 ];
        int_range (-1000) 1000; int ]
  in
  let float =
    oneof
      [ oneofl
          [ nan; infinity; neg_infinity; -0.; 0.; 4.9e-324; -4.9e-324;
            2.2250738585072009e-308; 1e300; -1e300; 1e-300; 1.; -3.; 1e6;
            123456.; 1234565.; 0.1234565; 999999.5; 9999995.; 1.0000005 ];
        float; map float_of_int int ]
  in
  sized_size (int_range 0 12)
  @@ fix (fun self n ->
         let scalar =
           oneof
             [ return Json.Null; map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) int; map (fun f -> Json.Float f) float;
               map (fun s -> Json.String s) str ]
         in
         if n = 0 then scalar
         else
           frequency
             [ (2, scalar);
               (1, map (fun l -> Json.List l) (list_size (int_range 0 4) (self (n / 2))));
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_range 0 4) (pair str (self (n / 2)))) ) ])

let prop_json_byte_identity =
  QCheck2.Test.make ~name:"json: to_string is byte-identical to the Printf printer"
    ~count:2000 ~print:Reference_json.to_string gen_json (fun v ->
      String.equal (Json.to_string v) (Reference_json.to_string v))

(* The values the property draws rarely, pinned once. *)
let test_json_edge_values () =
  let check name v =
    Alcotest.(check string) name (Reference_json.to_string v) (Json.to_string v)
  in
  check "min_int" (Json.Int min_int);
  check "max_int" (Json.Int max_int);
  check "all bytes" (Json.String (String.init 256 Char.chr));
  check "non-finite floats"
    (Json.List [ Json.Float nan; Json.Float infinity; Json.Float neg_infinity ]);
  check "empty containers" (Json.Obj [ ("", Json.List []); ("\x01", Json.Obj []) ])

let tests =
  [
    Alcotest.test_case "identical results" `Quick test_identical_results;
    Alcotest.test_case "ValidRTF prunes more" `Quick test_validrtf_prunes_more;
    Alcotest.test_case "ValidRTF keeps more" `Quick test_validrtf_keeps_more;
    Alcotest.test_case "mismatched LCA sets rejected" `Quick test_mismatched_lcas_rejected;
    Alcotest.test_case "empty results" `Quick test_empty_results;
    Helpers.qtest prop_ranges;
    Helpers.qtest prop_cfr_one_iff_all_common;
    Alcotest.test_case "trace disabled is a no-op" `Quick
      test_trace_disabled_is_noop;
    Alcotest.test_case "trace counters enabled + monotone" `Quick
      test_trace_counters_enabled_and_monotone;
    Alcotest.test_case "trace spans nest" `Quick test_trace_spans_nest;
    Alcotest.test_case "trace search stage spans" `Quick
      test_trace_search_stage_spans;
    Alcotest.test_case "trace json round-trip" `Quick
      test_trace_json_round_trip;
    Helpers.qtest prop_json_byte_identity;
    Alcotest.test_case "json: edge values byte-identical" `Quick
      test_json_edge_values;
  ]
