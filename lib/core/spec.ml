module Tree = Xks_xml.Tree
module Dewey = Xks_xml.Dewey

let max_combinations = 50_000

module Iset = Set.Make (Int)

let nonempty_subsets ids =
  List.fold_left
    (fun acc id -> acc @ List.map (Iset.add id) acc)
    [ Iset.empty ] ids
  |> List.filter (fun s -> not (Iset.is_empty s))

let check_size postings =
  let size =
    Array.fold_left
      (fun acc s ->
        let n = Array.length s in
        if n > 14 then max_int
        else
          let c = (1 lsl n) - 1 in
          if acc > max_combinations then acc else acc * max 1 c)
      1 postings
  in
  if size > max_combinations then
    invalid_arg "Spec: input too large for the brute-force oracle"

let lca_id (q : Query.t) set =
  let deweys = List.map (Tree.dewey q.doc) (Iset.elements set) in
  match Tree.find_by_dewey q.doc (Dewey.lca_list deweys) with
  | Some id -> id
  | None -> assert false (* the LCA of existing nodes exists *)

(* All unions of one non-empty subset per keyword, deduplicated. *)
let ectq_sets (q : Query.t) =
  check_size q.postings;
  let per_keyword =
    Array.to_list
      (Array.map (fun s -> nonempty_subsets (Array.to_list s)) q.postings)
  in
  let combos =
    List.fold_left
      (fun acc subsets ->
        List.concat_map (fun u -> List.map (Iset.union u) subsets) acc)
      [ Iset.empty ] per_keyword
  in
  List.sort_uniq Iset.compare combos

let ectq q = List.map Iset.elements (ectq_sets q)

let rtf_partitions (q : Query.t) =
  if not (Query.has_results q) then []
  else begin
    let all = ectq_sets q in
    let restrict set i =
      Iset.filter (fun id -> Xks_util.Bsearch.mem q.postings.(i) id) set
    in
    let k = Query.k q in
    let indices = List.init k Fun.id in
    let deepest_full_container id =
      match Xks_lca.Probe.fc q.doc q.postings (Xks_lca.Probe.cursors q.postings) id with
      | -1 -> None
      | f -> Some (Tree.dewey q.doc f)
    in
    (* Every way to pick one non-empty subset of [parts.(i)] per keyword,
       as unions. *)
    let sub_combination_unions parts =
      List.fold_left
        (fun acc i ->
          let subsets = nonempty_subsets (Iset.elements parts.(i)) in
          List.concat_map (fun u -> List.map (Iset.union u) subsets) acc)
        [ Iset.empty ] indices
    in
    let is_rtf set =
      let l = lca_id q set in
      let parts = Array.init k (restrict set) in
      if Array.exists Iset.is_empty parts then false
      else begin
        (* Condition 1: every sub-combination has the same LCA. *)
        let cond1 =
          List.for_all
            (fun u -> lca_id q u = l)
            (sub_combination_unions parts)
        in
        (* Condition 2: no part can be grown within its Di keeping the
           LCA — the partition is maximal for its LCA.  Read literally
           this contradicts the paper's own Example 4 (growing the
           "keyword" part of {n, t, a} by r keeps the LCA, yet {n, t, a}
           is declared an RTF), so we apply the refinement the paper's
           Section 4.3 analysis implies: growth candidates already claimed
           by a strictly deeper partition (their deepest full container
           lies below this LCA) do not count. *)
        let cond2 =
          let claimed_deeper id =
            match deepest_full_container id with
            | Some f -> Dewey.is_ancestor (Tree.dewey q.doc l) f
            | None -> false
          in
          List.for_all
            (fun i ->
              let di = Array.to_list q.postings.(i) in
              let extras =
                List.filter
                  (fun id -> (not (Iset.mem id parts.(i))) && not (claimed_deeper id))
                  di
              in
              List.for_all
                (fun extra ->
                  let grown = Iset.union set (Iset.add extra parts.(i)) in
                  lca_id q grown <> l)
                extras)
            indices
        in
        (* Condition 3: no keyword node of the partition combines with
           arbitrary full-set choices into an LCA strictly below l.  By
           the semilattice structure it is enough to test singletons
           against the closest possible partners, i.e. every
           sub-combination of the full Di's containing the node; we test
           the deepest full container of each member instead, which is
           equivalent: a strictly deeper LCA exists iff some member's
           deepest full container is strictly below l. *)
        let cond3 =
          Iset.for_all
            (fun id ->
              match deepest_full_container id with
              | Some f ->
                  not (Dewey.is_ancestor (Tree.dewey q.doc l) f)
              | None -> true)
            set
        in
        cond1 && cond2 && cond3
      end
    in
    List.filter is_rtf all
    |> List.map (fun set -> (lca_id q set, Iset.elements set))
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  end
