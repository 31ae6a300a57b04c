module Tree = Xks_xml.Tree

type scored = { fragment : Fragment.t; rtf : Rtf.t; score : float }

let score (q : Query.t) (rtf : Rtf.t) frag =
  let depth = float_of_int (Tree.depth q.doc rtf.lca) in
  let knode_count =
    (* xkscost: unticked pre-charged: scores RTFs the pipeline already materialised — get_rtfs ticked once per keyword node counted here *)
    Array.fold_left
      (fun acc kn -> if Fragment.mem frag kn then acc + 1 else acc)
      0 rtf.knodes
  in
  let density =
    float_of_int knode_count /. float_of_int (max 1 (Fragment.size frag))
  in
  let coverage = log (1.0 +. float_of_int knode_count) in
  (1.0 +. depth) *. density *. (1.0 +. coverage)

let sort_scored scored =
  List.sort
    (fun a b ->
      let c = Float.compare b.score a.score in
      if c <> 0 then c else Int.compare a.rtf.lca b.rtf.lca)
    scored

let rank_by scorer (result : Pipeline.result) =
  (* xkscost: unticked pre-charged: one scoring pass over the already-budgeted pipeline result, |rtfs| bounded by the ticked LCA sweep *)
  List.map2
    (fun rtf fragment ->
      { fragment; rtf; score = scorer result.query rtf fragment })
    result.rtfs result.fragments
  |> sort_scored

let rank result = rank_by score result
