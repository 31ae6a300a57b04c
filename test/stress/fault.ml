(* Fault-injection stress suite, independent of `dune runtest` (see the
   @stress alias): torn writes, bit flips, mid-read I/O errors and a
   writer killed mid-save against the persistence layer; parser bombs and random byte mutation against
   ingestion; tiny-budget query storms against the engine.  The invariant
   throughout is that only the structured errors escape — Failure with a
   position, Limits.Limit_exceeded, Sax/Parser.Error, Sys_error — and
   that the recovery paths (load_or_rebuild, the degradation ladder)
   still produce a correct answer.

     dune exec test/stress/fault.exe -- [iterations] [seed]

   Exits non-zero on the first unstructured escape or wrong recovery. *)

module Tree = Xks_xml.Tree
module Rng = Xks_datagen.Rng
module Persist = Xks_index.Persist
module Inverted = Xks_index.Inverted
module Failpoint = Xks_robust.Failpoint
module Limits = Xks_robust.Limits
module Budget = Xks_robust.Budget
module Engine = Xks_core.Engine

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr failures;
      Printf.eprintf "FAULT FAILURE: %s\n%!" m)
    fmt

(* An exception is "structured" when it is one of the documented error
   channels; anything else (Invalid_argument, Out_of_memory, stack
   overflow, array bounds) is a robustness bug. *)
let structured = function
  | Failure _ | Sys_error _ -> true
  | Limits.Limit_exceeded _ -> true
  | Xks_xml.Sax.Error _ | Xks_xml.Parser.Error _ -> true
  | Budget.Exhausted _ -> true
  | _ -> false

let expect_structured name f =
  match f () with
  | _ -> () (* surviving unharmed is acceptable (e.g. flip in slack space) *)
  | exception e ->
      if not (structured e) then
        fail "%s: unstructured escape: %s" name (Printexc.to_string e)

let with_temp data f =
  let path = Filename.temp_file "xks_fault" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      output_string oc data;
      close_out oc;
      f path)

let labels = [| "a"; "b"; "c"; "d" |]
let words = [| "w0"; "w1"; "w2"; "w3"; "w4" |]

let random_doc rng max_nodes =
  let budget = ref (2 + Rng.int rng (max_nodes - 1)) in
  let rec build depth =
    decr budget;
    let n_children =
      if depth > 6 || !budget <= 0 then 0
      else Rng.int rng (min 4 (max 1 !budget))
    in
    let children = List.init n_children (fun _ -> build (depth + 1)) in
    let text =
      if Rng.bool rng then Rng.pick rng words
      else Rng.pick rng words ^ " " ^ Rng.pick rng words
    in
    Tree.elem ~text (Rng.pick rng labels) children
  in
  Tree.build (build 0)

let random_query rng =
  List.sort_uniq compare
    (List.init (1 + Rng.int rng 3) (fun _ -> Rng.pick rng words))

(* --- Persistence under injected faults --- *)

let persist_faults rng doc =
  let idx = Inverted.build doc in
  let rows = Persist.dump idx in
  let bytes = Persist.encode rows in
  let n = String.length bytes in
  (* torn write: every decode of a random prefix fails with Failure only *)
  for _ = 1 to 8 do
    let k = Rng.int rng n in
    match Persist.decode (String.sub bytes 0 k) with
    | _ -> fail "prefix of %d/%d bytes accepted" k n
    | exception Failure _ -> ()
    | exception e ->
        fail "prefix of %d/%d bytes: unstructured %s" k n (Printexc.to_string e)
  done;
  (* random single-byte mutation: decode either rejects with Failure or
     returns rows that still load (a flip may hit unchecked slack) *)
  for _ = 1 to 8 do
    let k = Rng.int rng n in
    let b = Bytes.of_string bytes in
    Bytes.set b k (Char.chr (Rng.int rng 256));
    expect_structured "mutated decode" (fun () ->
        Persist.decode (Bytes.to_string b))
  done;
  (* injected truncation / corruption / I/O error at the read site *)
  with_temp bytes (fun path ->
      expect_structured "load under truncation" (fun () ->
          Failpoint.with_failpoint Persist.read_site
            (Failpoint.Truncate (Rng.int rng n))
            (fun () -> Persist.load path doc));
      expect_structured "load under corruption" (fun () ->
          Failpoint.with_failpoint Persist.read_site
            (Failpoint.Corrupt (Rng.int rng n))
            (fun () -> Persist.load path doc));
      (match
         Failpoint.with_failpoint Persist.read_site
           (Failpoint.Raise (Sys_error "injected: disk gone"))
           (fun () -> Persist.load path doc)
       with
      | _ -> fail "injected I/O error ignored"
      | exception Sys_error _ -> ()
      | exception e ->
          fail "injected I/O error escaped as %s" (Printexc.to_string e)));
  (* load_or_rebuild always recovers the exact index, whatever the damage *)
  with_temp bytes (fun path ->
      let damage = Rng.int rng 3 in
      (match damage with
      | 0 ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc
                (String.sub bytes 0 (Rng.int rng n)))
      | 1 ->
          let b = Bytes.of_string bytes in
          Bytes.set b (Rng.int rng n) (Char.chr (Rng.int rng 256));
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_bytes oc b)
      | _ -> Sys.remove path);
      let idx' = Persist.load_or_rebuild ~log:(fun _ -> ()) path doc in
      if Persist.dump idx' <> rows then
        fail "load_or_rebuild returned a different index (damage %d)" damage;
      let reread = In_channel.with_open_bin path In_channel.input_all in
      if reread <> bytes then fail "repaired file not byte-identical")

(* A child process rewrites one index file with [Persist.save_table],
   alternating two row sets, until it is SIGKILLed after a random delay;
   the file must then load as exactly one of the two.  One child per
   round.  Forks, so it runs before any domain is spawned. *)
let kill_during_save rng ~rounds =
  let doc =
    Xks_datagen.Dblp_gen.generate
      ~config:{ Xks_datagen.Dblp_gen.default_config with entries = 1000 }
      ()
  in
  let rows_a = Persist.dump (Inverted.build doc) in
  (* Every other row: still sorted by word, ids still inside [doc]. *)
  let rows_b = List.filteri (fun i _ -> i mod 2 = 0) rows_a in
  let dir = Filename.temp_dir "xks_kill" "" in
  let path = Filename.concat dir "index.idx" in
  Persist.save_table path rows_a;
  let seen_a = ref 0 and seen_b = ref 0 in
  for round = 1 to rounds do
    match Unix.fork () with
    | 0 ->
        (try
           while true do
             Persist.save_table path rows_b;
             Persist.save_table path rows_a
           done
         with e -> prerr_endline (Printexc.to_string e));
        Unix._exit 2
    | pid -> (
        Unix.sleepf (0.001 *. float_of_int (1 + Rng.int rng 40));
        Unix.kill pid Sys.sigkill;
        (match Unix.waitpid [] pid with
        | _, Unix.WSIGNALED s when s = Sys.sigkill -> ()
        | _, (Unix.WSIGNALED _ | Unix.WEXITED _ | Unix.WSTOPPED _) ->
            fail "kill during save, round %d: the writer stopped on its own"
              round);
        match Persist.dump (Persist.load path doc) with
        | rows when rows = rows_a -> incr seen_a
        | rows when rows = rows_b -> incr seen_b
        | _ -> fail "kill during save, round %d: the file holds neither row set" round
        | exception e ->
            fail "kill during save, round %d: load raised %s" round
              (Printexc.to_string e))
  done;
  (* A killed writer leaves its temporary file behind; [path] is all
     that loads. *)
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  Printf.printf
    "kill during save: %d rounds, %d loaded the first row set, %d the second\n%!"
    rounds !seen_a !seen_b

(* --- Ingestion under bombs and mutation --- *)

let small_limits =
  { Limits.max_depth = 32; max_attrs = 32; max_text_bytes = 4096;
    max_nodes = 256 }

let ingestion_faults rng doc =
  let src = Xks_xml.Writer.to_string doc in
  (* random byte mutation of well-formed XML: parse with tight limits *)
  for _ = 1 to 8 do
    let b = Bytes.of_string src in
    let k = Rng.int rng (Bytes.length b) in
    Bytes.set b k (Char.chr (Rng.int rng 256));
    expect_structured "mutated XML" (fun () ->
        Xks_xml.Parser.parse_string ~limits:small_limits (Bytes.to_string b))
  done;
  (* bombs must hit their cap, not the stack or heap *)
  let deep =
    String.concat "" (List.init 200 (fun _ -> "<a>"))
    ^ "x"
    ^ String.concat "" (List.init 200 (fun _ -> "</a>"))
  in
  (match Xks_xml.Parser.parse_string ~limits:small_limits deep with
  | _ -> fail "depth bomb accepted"
  | exception Limits.Limit_exceeded _ -> ()
  | exception e -> fail "depth bomb escaped as %s" (Printexc.to_string e));
  let entities =
    "<a>" ^ String.concat "" (List.init 2000 (fun _ -> "&amp;&lt;&gt;")) ^ "</a>"
  in
  (match Xks_xml.Parser.parse_string ~limits:small_limits entities with
  | _ -> fail "entity bomb accepted"
  | exception Limits.Limit_exceeded _ -> ()
  | exception e -> fail "entity bomb escaped as %s" (Printexc.to_string e));
  let attrs =
    "<a "
    ^ String.concat " " (List.init 100 (fun i -> Printf.sprintf "x%d=\"v\"" i))
    ^ "/>"
  in
  (match Xks_xml.Parser.parse_string ~limits:small_limits attrs with
  | _ -> fail "attribute bomb accepted"
  | exception Limits.Limit_exceeded _ -> ()
  | exception e -> fail "attribute bomb escaped as %s" (Printexc.to_string e));
  (* mid-parse I/O fault at the file-read site *)
  with_temp src (fun path ->
      expect_structured "parse_file under truncation" (fun () ->
          Failpoint.with_failpoint Xks_xml.Sax.read_site
            (Failpoint.Truncate (Rng.int rng (String.length src)))
            (fun () -> Xks_xml.Parser.parse_file path)))

(* --- Query storms under tiny budgets --- *)

(* Each budgeted answer must be the one its tag names (Xks_check's
   [ladder] rule): heuristic, BM25 and BM25 top-k searches, under node
   budgets and under a deadline already past on a fake clock. *)
let budget_faults rng doc =
  let e = Engine.of_doc doc in
  let q = random_query rng in
  let modes = [| (`Heuristic, None); (`Bm25, None); (`Bm25, Some 3) |] in
  for _ = 1 to 4 do
    let rank, k = modes.(Rng.int rng (Array.length modes)) in
    let what, budget =
      if Rng.int rng 4 = 0 then
        ("an expired deadline", Xks_check.Topk.expired_deadline ())
      else
        let n = Rng.int rng 50 in
        (Printf.sprintf "a %d-node budget" n, Budget.create ~max_nodes:n ())
    in
    match
      Xks_check.Topk.check_budgeted ~tag:(String.concat " " q) ~rank ?k ~what
        e q budget
    with
    | [] -> ()
    | v :: _ -> fail "%s" (Xks_check.Invariant.to_string v)
    | exception e ->
        fail "budgeted search escaped with %s" (Printexc.to_string e)
  done

let () =
  let iterations =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 200
  in
  let seed = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 1 in
  let rng = Rng.create seed in
  kill_during_save rng ~rounds:20;
  for i = 1 to iterations do
    let doc = random_doc rng (10 + Rng.int rng 90) in
    persist_faults rng doc;
    ingestion_faults rng doc;
    budget_faults rng doc;
    if i mod 50 = 0 then Printf.printf "%d/%d fault cases ok\n%!" i iterations
  done;
  Failpoint.clear_all ();
  if !failures > 0 then begin
    Printf.eprintf "fault: %d failures (seed %d)\n" !failures seed;
    exit 1
  end;
  Printf.printf "fault: %d cases, all faults handled (seed %d)\n" iterations seed
