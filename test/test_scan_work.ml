(* The work of the Indexed Stack scan, pinned on two benchmark-sized
   documents: the default DBLP corpus and perfbench's xmark1, each with
   its Figure 5 workload ([Xks_datagen.Queries]) and a few high-df
   pairs.  The lca and rank tests compare answers only; these rows
   also fix where the top-k scan stops, how many postings its early exit
   leaves undispatched and how many budget ticks each scan charges.
   Both reach served answers: an early exit decides which postings are
   never dispatched, and the ticks drive the degradation ladder.

   A row reads

     ELCAs visited pushed/popped | exit scanned pruned popped visited | winners

   for [Indexed_stack.elca], then [Topk.run ~k:10] under BM25
   ([Rank.score_tf] / [Rank.bound]): [visited] is [Budget.visited] of an
   unbounded budget, pushed/popped/pruned are the [Elca_pushed],
   [Elca_popped] and [Topk_pruned_postings] trace counters, [exit] is
   [early_exit], and the winners are the top-k LCA ids, best first. *)

module Trace = Xks_trace.Trace
module Budget = Xks_robust.Budget
module Query = Xks_core.Query
module Rank = Xks_core.Rank

let traced f =
  let t = Trace.create () and b = Budget.create () in
  let r = Trace.with_current t (fun () -> f b) in
  (r, t, Budget.visited b)

let row (q : Query.t) =
  let elcas, et, ev =
    traced (fun b -> Xks_lca.Indexed_stack.elca ~budget:b q.doc q.postings)
  in
  let w = Rank.weights q in
  let o, tt, tv =
    traced (fun b ->
        Xks_lca.Topk.run ~budget:b ~k:10
          ~score:(fun ~lca:_ ~tf -> Rank.score_tf w tf)
          ~bound:(fun ~avail -> Rank.bound w ~avail)
          q.doc q.postings)
  in
  Printf.sprintf "%d %d %d/%d | %s %d %d %d %d | %s" (List.length elcas) ev
    (Trace.counter et Trace.Elca_pushed)
    (Trace.counter et Trace.Elca_popped)
    (if o.early_exit then "exit" else "full")
    o.scanned
    (Trace.counter tt Trace.Topk_pruned_postings)
    (Trace.counter tt Trace.Elca_popped)
    tv
    (String.concat " "
       (List.map (fun (c : Xks_lca.Topk.candidate) -> string_of_int c.lca) o.top))

let check_rows generate rows () =
  let idx = Xks_index.Inverted.build (generate ()) in
  List.iter
    (fun (query, expected) ->
      let q = Query.make ~order:`Rarest idx (String.split_on_char ' ' query) in
      Alcotest.(check string) query expected (row q))
    rows

let dblp_rows =
  [
    ("keyword similarity",
     "1 7 1/1 | full 5 0 1 73 | 0");
    ("keyword recognition",
     "1 7 1/1 | full 5 0 1 331 | 0");
    ("keyword algorithm",
     "2 9 2/2 | full 5 0 2 708 | 0 30654");
    ("data query",
     "23 224 23/23 | full 178 0 23 1694 | 0 2700 4990 7133 13633 17449 19764 21705 26044 26942");
    ("data recognition probabilistic xml",
     "1 109 1/1 | full 105 0 1 1877 | 0");
    ("algorithm dynamic sigmod tree",
     "1 179 1/1 | full 175 0 1 1601 | 0");
    ("tree query pattern similarity",
     "1 65 1/1 | full 61 0 1 799 | 0");
    ("xml tree automata algorithm",
     "1 109 1/1 | full 105 0 1 1245 | 0");
    ("dynamic probabilistic efficient",
     "1 117 1/1 | full 114 0 1 999 | 0");
    ("dynamic probabilistic efficient retrieval",
     "1 118 1/1 | full 114 0 1 1254 | 0");
    ("xml keyword retrieval algorithm",
     "1 9 1/1 | full 5 0 1 1063 | 0");
    ("automata similarity searching",
     "1 64 1/1 | full 61 0 1 521 | 0");
    ("xml efficient tree data recognition",
     "1 110 1/1 | full 105 0 1 2348 | 0");
    ("xml data keyword retrieval algorithm",
     "1 10 1/1 | full 5 0 1 2294 | 0");
    ("xml algorithm dynamic pattern",
     "1 109 1/1 | full 105 0 1 1583 | 0");
    ("vldb efficient xml data keyword retrieval",
     "1 11 1/1 | full 5 0 1 2129 | 0");
    ("automata similarity henry searching",
     "1 65 1/1 | full 61 0 1 588 | 0");
    ("keyword probabilistic sigmod",
     "1 8 1/1 | full 5 0 1 325 | 0");
    ("keyword searching semantics similarity efficient",
     "1 10 1/1 | full 5 0 1 898 | 0");
    ("data xml",
     "14 133 14/14 | full 105 0 14 1512 | 0 6486 13246 23806 25008 25554 36413 38608 43790 43822");
    ("database system",
     "59 205 59/59 | full 87 0 59 8168 | 0 5491 5959 6815 9585 12657 13280 15436 15450 16158");
    ("search keyword",
     "0 0 0/0 | full 0 0 0 0 | ");
  ]

let xmark1_rows =
  [
    ("particle threshold",
     "2 6 2/2 | full 2 0 2 14 | 5403 2");
    ("particle dominator",
     "2 6 2/2 | full 2 0 2 11 | 2 5403");
    ("particle preventions",
     "2 6 2/2 | full 2 0 2 10 | 4086 7804");
    ("chronicle method",
     "9 81 9/9 | full 63 0 9 226 | 50950 32949 68264 2 10804 21606 16205 27007 5403");
    ("description order",
     "366 2299 366/366 | full 1566 0 366 6263 | 32949 50950 68264 16205 2 5403 27007 21606 10804 108");
    ("preventions description",
     "1149 3866 1149/1149 | full 1566 0 1149 13222 | 32949 68264 50950 16205 10804 27007 2 5403 21606 27");
    ("threshold chronicle method",
     "8 44 8/8 | full 20 0 8 200 | 32949 10804 2 5403 50950 68264 21606 27007");
    ("chronicle method strings",
     "9 90 9/9 | full 63 0 9 327 | 32949 50950 68264 2 10804 21606 27007 16205 5403");
    ("invention leon egypt",
     "9 259 9/9 | full 232 0 9 1125 | 32949 50950 68264 5403 21606 10804 2 27007 16205");
    ("strings description chronicle",
     "9 90 9/9 | full 63 0 9 1811 | 32949 50950 68264 10804 2 27007 16205 21606 5403");
    ("preventions description order",
     "262 2353 262/262 | full 1566 0 262 11871 | 32949 50950 68264 16205 2 10804 21606 27007 5403 108");
    ("particle threshold chronicle method",
     "2 10 2/2 | full 2 0 2 41 | 2 5403");
    ("chronicle method strings unjust",
     "9 99 9/9 | full 63 0 9 487 | 32949 50950 68264 2 10804 21606 27007 16205 5403");
    ("strings unjust invention leon",
     "9 128 9/9 | full 92 0 9 977 | 32949 50950 68264 27007 10804 2 21606 16205 5403");
    ("invention particle dominator method",
     "2 10 2/2 | full 2 0 2 77 | 2 5403");
    ("preventions description order invention",
     "19 308 19/19 | full 232 0 19 9340 | 32949 50950 68264 5403 2 21606 10804 16205 27007 10558");
    ("threshold chronicle method strings unjust",
     "8 60 8/8 | full 20 0 8 447 | 32949 10804 2 50950 68264 5403 21606 27007");
    ("invention leon egypt strings description",
     "9 137 9/9 | full 92 0 9 2661 | 32949 50950 68264 27007 10804 2 21606 16205 5403");
    ("particle threshold chronicle method strings",
     "2 12 2/2 | full 2 0 2 52 | 2 5403");
    ("particle threshold chronicle method dominator",
     "2 12 2/2 | full 2 0 2 46 | 2 5403");
    ("particle threshold chronicle method preventions",
     "2 12 2/2 | full 2 0 2 929 | 2 5403");
    ("particle threshold chronicle dominator preventions",
     "2 12 2/2 | full 2 0 2 920 | 2 5403");
    ("particle threshold chronicle dominator preventions egypt",
     "2 14 2/2 | full 2 0 2 960 | 2 5403");
    ("particle threshold chronicle method preventions egypt",
     "2 14 2/2 | full 2 0 2 969 | 2 5403");
    ("dominator threshold chronicle method preventions order",
     "4 32 4/4 | full 8 0 4 4165 | 32949 2 50950 5403");
    ("auction bidder",
     "5707 20666 6000/6000 | exit 8346 1131 5999 38831 | 32949 5403 27007 16205 2 10804 21606 32408 51045 51161");
    ("item increase",
     "1200 5371 1200/1200 | exit 2971 5492 1199 5429 | 51045 51161 51223 51732 51950 52230 52438 52457 52527 52546");
    ("reserve price",
     "289 2271 300/300 | exit 1477 767 299 4382 | 32949 50950 21606 27007 5403 16205 2 10804 32408 234");
    ("ship description",
     "396 2366 397/397 | exit 752 815 396 4864 | 2 5403 21606 16205 10804 27007 129 246 300 390");
    ("will antique",
     "259 1573 260/260 | exit 554 488 259 3927 | 10804 21606 5403 16205 2 27007 3684 4386 9031 15629");
    ("description price",
     "347 2440 363/363 | exit 1472 746 361 4335 | 32949 50950 21606 27007 16205 5403 2 10804 1431 3168");
    ("cash listing",
     "393 2234 394/394 | exit 765 672 393 4918 | 16205 10804 2 21606 27007 5403 2145 12182 21670 24541");
  ]

let tests =
  [
    Alcotest.test_case "dblp: scan work pinned" `Quick
      (check_rows Xks_datagen.Dblp_gen.generate dblp_rows);
    Alcotest.test_case "xmark1: scan work pinned" `Quick
      (check_rows
         (fun () ->
           Xks_datagen.Xmark_gen.generate
             ~config:{ Xks_datagen.Xmark_gen.default_config with items = 200 }
             Xks_datagen.Xmark_gen.Data1)
         xmark1_rows);
  ]
