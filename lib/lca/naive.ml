module Tree = Xks_xml.Tree
module Dewey = Xks_xml.Dewey

let in_range doc node id = id >= node && id <= (Tree.subtree_ends doc).(node)

(* Every node id, in document order. *)
let all_nodes doc = List.init (Tree.size doc) Fun.id

let is_full_container doc postings id =
  (* xkscost: unticked oracle: brute-force reference used only by tests and the check oracle, never on the serving path *)
  Array.for_all (fun s -> Array.exists (in_range doc id) s) postings

let full_containers doc postings =
  (* xkscost: unticked oracle: O(n * occurrences) reference, test/check-oracle only *)
  List.filter (is_full_container doc postings) (all_nodes doc)

let slca doc postings =
  let fcs = full_containers doc postings in
  let strict_desc a b = Dewey.is_ancestor (Tree.dewey doc a) (Tree.dewey doc b) in
  (* xkscost: unticked oracle: quadratic minimality filter, test/check-oracle only *)
  List.filter (fun a -> not (List.exists (fun b -> strict_desc a b) fcs)) fcs

let elca doc postings =
  let fcs = full_containers doc postings in
  let keeps n =
    (* Occurrences surviving the exclusion: in the subtree of [n] but not
       in the subtree of any full container strictly below [n]. *)
    let excluded id =
      (* xkscost: unticked oracle: per-occurrence exclusion scan, test/check-oracle only *)
      List.exists
        (fun f ->
          f <> n
          && in_range doc n f
          && in_range doc f id)
        fcs
    in
    (* xkscost: unticked oracle: witness scan straight off Definition 3, test/check-oracle only *)
    Array.for_all
      (fun s ->
        (* xkscost: unticked oracle: same witness scan, inner occurrence sweep *)
        Array.exists (fun id -> in_range doc n id && not (excluded id)) s)
      postings
  in
  (* xkscost: unticked oracle: visits every tree node, test/check-oracle only *)
  List.filter keeps (all_nodes doc)

let lca_of_witnesses doc postings =
  let k = Array.length postings in
  (* xkscost: unticked k-bounded: one emptiness test per keyword list *)
  if Array.exists (fun s -> Array.length s = 0) postings || k = 0 then []
  else begin
    let acc = ref [] in
    (* xkscost: unticked oracle: exponential witness enumeration, test/check-oracle only *)
    let rec go i current_lca =
      if i = k then acc := current_lca :: !acc
      else
        (* xkscost: unticked oracle: same witness enumeration, one branch per occurrence *)
        Array.iter
          (fun id ->
            go (i + 1) (Dewey.lca current_lca (Tree.dewey doc id)))
          postings.(i)
    in
    (* xkscost: unticked oracle: drives the witness enumeration, test/check-oracle only *)
    Array.iter
      (fun id -> go 1 (Tree.dewey doc id))
      postings.(0);
    let ids = List.filter_map (Tree.find_by_dewey doc) !acc in
    List.sort_uniq Int.compare ids
  end
