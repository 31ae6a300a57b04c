(* Binary index persistence: round-trips, format validation. *)

module Inverted = Xks_index.Inverted
module Persist = Xks_index.Persist

let with_temp f =
  let path = Filename.temp_file "xks_persist" ".idx" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let sample_doc () = Xks_datagen.Paper_fixtures.publications ()

let test_roundtrip () =
  let doc = sample_doc () in
  let idx = Inverted.build doc in
  with_temp (fun path ->
      Persist.save path idx;
      let idx' = Persist.load path doc in
      Alcotest.(check int) "vocabulary size" (Inverted.vocabulary_size idx)
        (Inverted.vocabulary_size idx');
      List.iter
        (fun w ->
          Alcotest.(check (list int))
            ("posting of " ^ w)
            (Array.to_list (Inverted.posting idx w))
            (Array.to_list (Inverted.posting idx' w));
          Alcotest.(check int)
            ("occurrences of " ^ w)
            (Inverted.occurrence_count idx w)
            (Inverted.occurrence_count idx' w))
        (Inverted.vocabulary idx))

let test_loaded_index_searches () =
  let doc = sample_doc () in
  let idx = Inverted.build doc in
  with_temp (fun path ->
      Persist.save path idx;
      let idx' = Persist.load path doc in
      let run idx = Xks_core.Validrtf.run idx Xks_datagen.Paper_fixtures.q2 in
      let frags r = List.map Xks_core.Fragment.members_list r.Xks_core.Pipeline.fragments in
      Alcotest.(check (list (list int)))
        "same search results" (frags (run idx)) (frags (run idx')))

let test_rejects_garbage () =
  with_temp (fun path ->
      let oc = open_out_bin path in
      output_string oc "not an index";
      close_out oc;
      match Persist.load path (sample_doc ()) with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "garbage accepted")

let test_rejects_wrong_document () =
  let doc = sample_doc () in
  let idx = Inverted.build doc in
  with_temp (fun path ->
      Persist.save path idx;
      let tiny = Xks_xml.Parser.parse_string "<a/>" in
      match Persist.load path tiny with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "mismatched document accepted")

let test_dump_of_table_inverse () =
  let doc = sample_doc () in
  let idx = Inverted.build doc in
  let rows = Persist.dump idx in
  let idx' = Persist.of_table doc rows in
  Alcotest.(check bool) "rows round-trip" true (Persist.dump idx' = rows)

let test_of_table_validation () =
  let doc = sample_doc () in
  let bad_order = [ ("w", 2, [| 3; 1 |]) ] in
  (match Persist.of_table doc bad_order with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "unsorted posting accepted");
  let bad_range = [ ("w", 1, [| 10_000 |]) ] in
  match Persist.of_table doc bad_range with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "out-of-range id accepted"

(* --- XKSIDX2 integrity (checksums, framing, structured failure) --- *)

let sample_bytes () = Persist.encode (Persist.dump (Inverted.build (sample_doc ())))

let test_encode_decode_roundtrip () =
  let rows = Persist.dump (Inverted.build (sample_doc ())) in
  Alcotest.(check bool) "bytes round-trip" true (Persist.decode (Persist.encode rows) = rows)

let expect_failure name bytes =
  match Persist.decode bytes with
  | exception Failure _ -> ()
  | exception e ->
      Alcotest.failf "%s: escaped with %s, not Failure" name (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: accepted" name

let test_every_prefix_fails_cleanly () =
  (* A torn write can stop at any byte; each prefix must be rejected with
     Failure — never an Invalid_argument, Out_of_memory or array error. *)
  let bytes = sample_bytes () in
  for k = 0 to String.length bytes - 1 do
    expect_failure (Printf.sprintf "prefix of %d bytes" k) (String.sub bytes 0 k)
  done

let test_trailing_garbage_rejected () =
  let bytes = sample_bytes () in
  (match Persist.decode (bytes ^ "\x00") with
  | exception Failure msg ->
      Alcotest.(check bool) "names the garbage" true
        (Helpers.contains msg "trailing")
  | _ -> Alcotest.fail "trailing byte accepted")

let test_varint_overflow_rejected () =
  (* magic + (ignored) CRC + a varint whose continuation bits never end:
     must fail on the overflow, not loop or wrap negative. *)
  expect_failure "overflowing varint"
    ("XKSIDX2\n\x00\x00\x00\x00" ^ String.make 10 '\xff')

let test_bit_flip_names_the_word_block () =
  let bytes = sample_bytes () in
  (* flip a byte well inside the word sections, past magic + CRC + count *)
  let pos = String.length bytes / 2 in
  let b = Bytes.of_string bytes in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xFF));
  match Persist.decode (Bytes.to_string b) with
  | exception Failure msg ->
      Alcotest.(check bool)
        (Printf.sprintf "localises the damage (got %S)" msg)
        true
        (Helpers.contains msg "word block" || Helpers.contains msg "byte")
  | _ -> Alcotest.fail "bit flip undetected"

let test_legacy_v1_still_readable () =
  (* A hand-assembled XKSIDX1 file: one word "w", 1 occurrence,
     posting [3] (all values < 0x80, so varints are single bytes). *)
  let v1 = "XKSIDX1\n\x01\x01w\x01\x01\x03" in
  Alcotest.(check bool) "v1 decodes" true
    (Persist.decode v1 = [ ("w", 1, [| 3 |]) ])

let test_load_or_rebuild_recovers () =
  let doc = sample_doc () in
  let idx = Inverted.build doc in
  with_temp (fun path ->
      Persist.save path idx;
      let good = In_channel.with_open_bin path In_channel.input_all in
      (* tear the file *)
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub good 0 (String.length good / 3)));
      let logged = ref [] in
      let idx' = Persist.load_or_rebuild ~log:(fun m -> logged := m :: !logged) path doc in
      Alcotest.(check bool) "warned" true
        (List.exists (fun m -> Helpers.contains m "rebuild") !logged);
      Alcotest.(check bool) "rebuilt index equals the original" true
        (Persist.dump idx' = Persist.dump idx);
      (* the repaired file is written back, byte-identical to a fresh save *)
      let repaired = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check bool) "re-saved byte-identical" true (repaired = good))

let test_load_failpoint_truncation () =
  let doc = sample_doc () in
  with_temp (fun path ->
      Persist.save path (Inverted.build doc);
      match
        Xks_robust.Failpoint.with_failpoint Persist.read_site
          (Xks_robust.Failpoint.Truncate 12) (fun () -> Persist.load path doc)
      with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "injected truncation accepted")

let prop_any_prefix_fails_cleanly =
  QCheck2.Test.make ~name:"every prefix of encode fails decode with Failure"
    ~count:60 ~print:Helpers.print_doc Helpers.gen_doc (fun doc ->
      let bytes = Persist.encode (Persist.dump (Inverted.build doc)) in
      let ok = ref true in
      for k = 0 to String.length bytes - 1 do
        (match Persist.decode (String.sub bytes 0 k) with
        | exception Failure _ -> ()
        | exception _ -> ok := false
        | _ -> ok := false)
      done;
      !ok)

let prop_decode_errors_documented =
  (* Valid inputs in both formats: encoded random documents, and the
     hand-assembled XKSIDX1 file of the legacy test (no checksums, so
     edits reach the block parser). *)
  let valid =
    QCheck2.Gen.oneof
      [
        QCheck2.Gen.map
          (fun doc -> Persist.encode (Persist.dump (Inverted.build doc)))
          Helpers.gen_doc;
        QCheck2.Gen.return "XKSIDX1\n\x01\x01w\x01\x01\x03";
      ]
  in
  QCheck2.Test.make ~name:"random bytes fail decode only with Failure"
    ~count:2000 ~print:(Printf.sprintf "%S")
    (Helpers.gen_untrusted valid
       ~tokens:
         [ "XKSIDX2\n"; "XKSIDX1\n"; "\x00"; "\x7f"; "\x80"; "\xff";
           String.make 10 '\xff' ])
    (fun bytes ->
      Helpers.raises_only
        (function Failure _ -> true | _ -> false)
        (fun () -> Persist.decode bytes))

let prop_roundtrip_random =
  QCheck2.Test.make ~name:"persistence round-trip on random documents"
    ~count:100 ~print:Helpers.print_doc Helpers.gen_doc (fun doc ->
      let idx = Inverted.build doc in
      let idx' = Persist.of_table doc (Persist.dump idx) in
      Persist.dump idx = Persist.dump idx')

(* Saving over an index replaces the file rather than rewriting it in
   place: a hard link to the old file keeps the old bytes, the path loads
   as the new index, and no temporary file is left in the directory. *)
let check_save_replaces save () =
  let dir = Filename.temp_dir "xks_persist" "" in
  let path = Filename.concat dir "c.idx" in
  let link = Filename.concat dir "old.idx" in
  let read f = In_channel.with_open_bin f In_channel.input_all in
  let doc_a = sample_doc () and doc_b = Xks_datagen.Paper_fixtures.team () in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      save path doc_a;
      let bytes_a = read path in
      Unix.link path link;
      Unix.chmod path 0o600;
      save path doc_b;
      Alcotest.(check int) "permissions kept" 0o600 (Unix.stat path).st_perm;
      Alcotest.(check bool) "path loads as the new index" true
        (Persist.dump (Persist.load path doc_b)
        = Persist.dump (Inverted.build doc_b));
      Alcotest.(check string) "the link keeps the old bytes" bytes_a (read link);
      Alcotest.(check bool) "the link still decodes" true
        (Persist.decode (read link) = Persist.dump (Inverted.build doc_a));
      Alcotest.(check (list string)) "no temporary file left"
        [ "c.idx"; "old.idx" ]
        (List.sort String.compare (Array.to_list (Sys.readdir dir))))

let save_index path doc = Persist.save path (Inverted.build doc)

let stream_index path doc =
  let xml = Filename.temp_file "xks_persist" ".xml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove xml)
    (fun () ->
      Xks_xml.Writer.to_file xml doc;
      ignore (Xks_index.Stream_index.save_file ~input:xml ~output:path () : int))

let tests =
  [
    Alcotest.test_case "round-trip through a file" `Quick test_roundtrip;
    Alcotest.test_case "loaded index searches identically" `Quick
      test_loaded_index_searches;
    Alcotest.test_case "rejects garbage" `Quick test_rejects_garbage;
    Alcotest.test_case "rejects a mismatched document" `Quick
      test_rejects_wrong_document;
    Alcotest.test_case "dump/of_table inverse" `Quick test_dump_of_table_inverse;
    Alcotest.test_case "of_table validation" `Quick test_of_table_validation;
    Alcotest.test_case "encode/decode round-trip" `Quick test_encode_decode_roundtrip;
    Alcotest.test_case "every prefix fails cleanly" `Quick
      test_every_prefix_fails_cleanly;
    Alcotest.test_case "trailing garbage rejected" `Quick
      test_trailing_garbage_rejected;
    Alcotest.test_case "varint overflow rejected" `Quick
      test_varint_overflow_rejected;
    Alcotest.test_case "bit flip names the word block" `Quick
      test_bit_flip_names_the_word_block;
    Alcotest.test_case "legacy XKSIDX1 still readable" `Quick
      test_legacy_v1_still_readable;
    Alcotest.test_case "load_or_rebuild recovers" `Quick
      test_load_or_rebuild_recovers;
    Alcotest.test_case "save replaces the file, not its bytes" `Quick
      (check_save_replaces save_index);
    Alcotest.test_case "save_file replaces the file, not its bytes" `Quick
      (check_save_replaces stream_index);
    Alcotest.test_case "load under injected truncation" `Quick
      test_load_failpoint_truncation;
    Helpers.qtest prop_roundtrip_random;
    Helpers.qtest prop_any_prefix_fails_cleanly;
    Helpers.qtest prop_decode_errors_documented;
  ]
