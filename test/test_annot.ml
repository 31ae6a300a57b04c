(* The annotation grammar shared by the static analyzers
   (tools/common/front.ml).  A malformed annotation raises
   [Bad_annotation], which every analyzer turns into exit 2: misspelled
   discipline must never pass silently as an ignored comment. *)

module Front = Xks_report.Front

type ann =
  | Guarded_by of string
  | Owns of string
  | Allow of string
  | Domain_safe
  | Unticked
  | Hot

(* The four argument forms, under the keywords the analyzers use. *)
let grammar =
  Front.
    [
      ("guarded_by", Name (fun m -> Guarded_by m));
      ("owns", Name (fun p -> Owns p));
      ("allow", Rule (fun r -> Allow r));
      ("domain_safe", Reason Domain_safe);
      ("unticked", Reason Unticked);
      ("hot", Flag Hot);
    ]

let scan src =
  Front.scan ~tool:"xkstest" ~rules:[ "list-append" ] grammar src

let rejected src =
  match scan src with
  | _ -> false
  | exception Front.Bad_annotation _ -> true

let test_accepts_each_form () =
  let src =
    "let x = ref 0  (* xkstest: guarded_by m held by every caller *)\n\
     (* xkstest: allow list-append bounded by k *)\n\
     (* xkstest: domain_safe frozen before sharing *)\n\
     (* xkstest: hot *) (* xkstest: owns fd *)\n\
     prose that mentions xkstest: hot is not an annotation\n"
  in
  Alcotest.(check bool)
    "lines and values" true
    (scan src
    = [
        (1, Guarded_by "m");
        (2, Allow "list-append");
        (3, Domain_safe);
        (4, Hot);
        (4, Owns "fd");
      ])

let check_rejected what src =
  Alcotest.(check bool) what true (rejected src)

let test_unknown_keyword () =
  check_rejected "misspelled keyword" "(* xkstest: gaurded_by m *)";
  check_rejected "bare tool tag" "(* xkstest: *)"

let test_unknown_rule () =
  check_rejected "unknown rule id" "(* xkstest: allow list-apend bounded *)"

let test_exemption_needs_reason () =
  check_rejected "allow without reason" "(* xkstest: allow list-append *)";
  check_rejected "domain_safe without reason" "(* xkstest: domain_safe *)";
  check_rejected "unticked without reason" "(* xkstest: unticked   *)"

let test_name_required () =
  check_rejected "guarded_by without name" "(* xkstest: guarded_by *)";
  check_rejected "owns without name" "(* xkstest: owns *)";
  check_rejected "flag with an argument" "(* xkstest: hot path *)"

let tests =
  [
    Alcotest.test_case "scanner: accepts each argument form" `Quick
      test_accepts_each_form;
    Alcotest.test_case "scanner: unknown keyword rejected" `Quick
      test_unknown_keyword;
    Alcotest.test_case "scanner: unknown rule id rejected" `Quick
      test_unknown_rule;
    Alcotest.test_case "scanner: exemption without a reason rejected" `Quick
      test_exemption_needs_reason;
    Alcotest.test_case "scanner: guarded_by/owns without a name rejected"
      `Quick test_name_required;
  ]
