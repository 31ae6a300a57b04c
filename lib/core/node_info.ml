module Tree = Xks_xml.Tree
module Klist = Xks_index.Klist
module Cid = Xks_index.Cid

type info = {
  id : int;
  label : Xks_xml.Label.t;
  mutable klist : Klist.t;
  mutable cid : Cid.t;
  mutable rtf_children : info list;
}

(* The tree is its root; every other member hangs off [rtf_children]. *)
type t = info

(* The constructing step in one sweep over the keyword nodes in reverse
   document order.  [stack] is the open path from the RTF root to the
   last keyword node swept, deepest member first.  Going backwards means:
   - a new member is created before its earlier siblings, so prepending
     it leaves every [rtf_children] list in document order;
   - a member whose id exceeds the next keyword node can receive nothing
     more (its subtree lies entirely after that node), so it is closed:
     its kList/cID are final and are folded into its parent once.
   Folding on close gives every member the union of its subtree's
   keyword-node information, exactly what Algorithm 1's push to every
   ancestor computes, because [Klist.union] and [Cid.merge] are
   associative, commutative and idempotent. *)
let construct ?(cid_mode = Cid.Approx) (q : Query.t) (rtf : Rtf.t) =
  let doc = q.doc in
  let root_end = (Tree.node doc rtf.lca).subtree_end in
  let fresh id =
    {
      id;
      label = (Tree.node doc id).label;
      klist = Klist.empty;
      cid = Cid.empty;
      rtf_children = [];
    }
  in
  let root = fresh rtf.lca in
  let stack = ref [ root ] in
  (* xkscost: unticked amortised: closes each RTF member once across the whole sweep, under the pre-charged keyword-node sweep *)
  let rec close_above id =
    match !stack with
    | info :: (parent :: _ as rest) when info.id > id ->
        parent.klist <- Klist.union parent.klist info.klist;
        parent.cid <- Cid.merge parent.cid info.cid;
        stack := rest;
        close_above id
    | _ -> ()
  in
  (* The deepest open member is an ancestor-or-self of [id] once the
     members after [id] are closed; open the path below it, creating each
     member exactly once. *)
  (* xkscost: unticked amortised: opens each RTF member once across the whole sweep, under the pre-charged keyword-node sweep *)
  let rec open_path id =
    match !stack with
    | top :: _ when top.id = id -> top
    | _ ->
        let parent = open_path (Tree.node doc id).parent in
        let info = fresh id in
        parent.rtf_children <- info :: parent.rtf_children;
        stack := info :: !stack;
        info
  in
  (* Key numbers by posting cursors: [cursors.(i)] is the number of
     entries of posting [i] at or before the node being swept.  One
     binary search places it at the RTF's last id; from there it only
     moves backwards, galloping, in step with the sweep. *)
  let k = Query.k q in
  let postings = q.postings in
  let cursors =
    (* xkscost: unticked k-bounded: one binary search per keyword list *)
    Array.map (fun p -> Xks_util.Bsearch.upper_bound p root_end) postings
  in
  let klist_of kn =
    let mask = ref Klist.empty in
    (* xkscost: unticked k-bounded: one galloping step per keyword list, at most a binary search each *)
    for i = 0 to k - 1 do
      let p = postings.(i) in
      let c = Xks_util.Bsearch.upper_bound_back p ~hi:cursors.(i) kn in
      cursors.(i) <- c;
      if c > 0 && p.(c - 1) = kn then
        mask := Klist.union !mask (Klist.singleton ~k i)
    done;
    !mask
  in
  (* Keyword-node features come from the index's precomputed table when
     it is available (Approx mode only — the table stores (min, max)
     pairs).  The fallback re-tokenises the node; it covers Exact mode
     and queries built by [of_postings] without a table. *)
  let feature kn =
    match cid_mode with
    | Cid.Approx when Array.length q.approx_cids > 0 -> q.approx_cids.(kn)
    | Cid.Approx | Cid.Exact ->
        Cid.of_words cid_mode (Tree.content_words doc (Tree.node doc kn))
  in
  let knodes = rtf.knodes in
  (* xkscost: unticked pre-charged: one step per keyword node; every caller ticks 1+|knodes| per RTF before construct *)
  for j = Array.length knodes - 1 downto 0 do
    let kn = knodes.(j) in
    if kn < rtf.lca || kn > root_end then
      invalid_arg
        (Printf.sprintf
           "Node_info.construct: keyword node %d is outside the subtree of \
            RTF root %d"
           kn rtf.lca);
    if j > 0 && knodes.(j - 1) > kn then
      invalid_arg
        (Printf.sprintf
           "Node_info.construct: keyword nodes %d and %d are out of \
            document order"
           knodes.(j - 1) kn);
    close_above kn;
    let info = open_path kn in
    info.klist <- Klist.union info.klist (klist_of kn);
    info.cid <- Cid.merge info.cid (feature kn)
  done;
  close_above rtf.lca;
  root

let root t = t

type label_group = {
  group_label : Xks_xml.Label.t;
  counter : int;
  chklist : int array;
  group_children : info list;
}

let label_groups info =
  let order = ref [] in
  let groups = Hashtbl.create 8 in
  (* xkscost: unticked pre-charged: one grouping pass over a node's RTF children, inside the pruning walk prune_all charged for *)
  List.iter
    (fun (child : info) ->
      match Hashtbl.find_opt groups child.label with
      | Some members -> members := child :: !members
      | None ->
          Hashtbl.add groups child.label (ref [ child ]);
          order := child.label :: !order)
    info.rtf_children;
  List.rev_map
    (fun label ->
      let members =
        (* [order] only records labels inserted into [groups] above. *)
        match Hashtbl.find_opt groups label with
        | Some members -> List.rev !members
        | None -> assert false
      in
      let chklist =
        List.map (fun (i : info) -> i.klist) members
        |> List.sort_uniq Int.compare |> Array.of_list
      in
      {
        group_label = label;
        counter = List.length members;
        chklist;
        group_children = members;
      })
    !order

(* Children are in ascending id order and their subtrees are disjoint id
   ranges, so member [id], if any, lies under the last child whose id
   does not exceed it. *)
let info_of t id =
  let rec last_at_most best = function
    | (c : info) :: rest when c.id <= id -> last_at_most (Some c) rest
    | _ -> best
  in
  let rec descend (info : info) =
    if info.id = id then Some info
    else
      match last_at_most None info.rtf_children with
      | Some child -> descend child
      | None -> None
  in
  descend t
