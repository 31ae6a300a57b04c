module Tree = Xks_xml.Tree
module Klist = Xks_index.Klist
module Cid = Xks_index.Cid

type info = {
  id : int;
  label : Xks_xml.Label.t;
  mutable klist : Klist.t;
  mutable feature : int;
  mutable rtf_children : info list;
}

type t = { root : info; cid_of : int -> Cid.t }

module Feature_ids = Hashtbl.Make (struct
  type t = Cid.t

  let equal = Cid.equal
  let hash = Cid.hash
end)

(* Exact-mode features (the A1 ablation): re-tokenised word sets.
   While a member is open its [feature] is a slot of [open_sets]; when
   it closes its set is final, and it is numbered so that equal sets get
   equal numbers ([values] maps a number back to its set).  Numbering at
   close hashes each member's set once. *)
type sets = {
  mutable open_sets : Cid.t array;
  mutable slots : int;
  numbers : int Feature_ids.t;
  mutable values : Cid.t array;
}

let room a n =
  if n < Array.length a then a
  else Array.append a (Array.make (Int.max 8 (Array.length a)) Cid.empty)

let slot s =
  s.open_sets <- room s.open_sets s.slots;
  s.open_sets.(s.slots) <- Cid.empty;
  s.slots <- s.slots + 1;
  s.slots - 1

let absorb s into c = s.open_sets.(into) <- Cid.merge s.open_sets.(into) c

let number s slot =
  let c = s.open_sets.(slot) in
  match Feature_ids.find_opt s.numbers c with
  | Some i -> i
  | None ->
      let i = Feature_ids.length s.numbers in
      s.values <- room s.values i;
      s.values.(i) <- c;
      Feature_ids.add s.numbers c i;
      i

type features = Ranked of Cid.table | Sets of sets

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
   associative, commutative and idempotent.  Parents, labels and the
   root's end come from the tree's columns. *)
let construct ?(cid_mode = Cid.Approx) (q : Query.t) (rtf : Rtf.t) =
  let doc = q.doc in
  let parents = Tree.parents doc and labels = Tree.label_ids doc in
  let root_end = (Tree.subtree_ends doc).(rtf.lca) in
  (* Approx keyword-node features are the index's packed rank pairs:
     folding them is an integer min and max.  Exact mode (the A1
     ablation) re-tokenises each keyword node. *)
  let features =
    match cid_mode with
    | Cid.Approx -> Ranked q.features
    | Cid.Exact ->
        Sets
          {
            open_sets = [||];
            slots = 0;
            numbers = Feature_ids.create 16;
            values = [||];
          }
  in
  let fresh id =
    {
      id;
      label = labels.(id);
      klist = Klist.empty;
      feature =
        (match features with Ranked _ -> Cid.packed_empty | Sets s -> slot s);
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
        (match features with
        | Ranked _ ->
            parent.feature <- Cid.merge_packed parent.feature info.feature
        | Sets s ->
            absorb s parent.feature s.open_sets.(info.feature);
            info.feature <- number s info.feature);
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
        let parent = open_path parents.(id) in
        let info = fresh id in
        parent.rtf_children <- info :: parent.rtf_children;
        stack := info :: !stack;
        info
  in
  (* Key numbers by posting cursors: [cursors.(i)] is the number of
     entries of posting [i] at or before the node being swept.  One
     binary search places it at the RTF's last id; from there it only
     moves backwards, galloping, in step with the sweep.  It usually
     sits at the node already, so the gallop (an out-of-line call) is
     made only when the entry before it lies past the node. *)
  let k = Query.k q in
  let postings = q.postings in
  let cursors =
    (* xkscost: unticked k-bounded: one binary search per keyword list *)
    Array.map (fun p -> Xks_util.Bsearch.upper_bound p root_end) postings
  in
  let bits = Array.init k (fun i -> Klist.singleton ~k i) in
  let klist_of kn =
    let mask = ref Klist.empty in
    (* xkscost: unticked k-bounded: one galloping step per keyword list, at most a binary search each *)
    for i = 0 to k - 1 do
      let p = postings.(i) in
      if cursors.(i) > 0 && p.(cursors.(i) - 1) > kn then
        cursors.(i) <- Xks_util.Bsearch.upper_bound_back p ~hi:cursors.(i) kn;
      let c = cursors.(i) in
      if c > 0 && p.(c - 1) = kn then mask := !mask lor bits.(i)
    done;
    !mask
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
    match features with
    | Ranked t -> info.feature <- Cid.merge_packed info.feature t.nodes.(kn)
    | Sets s ->
        absorb s info.feature
          (Cid.of_words Cid.Exact (Tree.content_words doc kn))
  done;
  close_above rtf.lca;
  match features with
  | Ranked t -> { root; cid_of = Cid.decode t }
  | Sets s ->
      root.feature <- number s root.feature;
      { root; cid_of = (fun i -> s.values.(i)) }

let root t = t.root
let cid t (info : info) = t.cid_of info.feature

type label_group = {
  group_label : Xks_xml.Label.t;
  counter : int;
  chklist : int array;
  group_children : info list;
}

(* [chklist] sorts the group's key numbers in a scratch buffer, in
   place: only the distinct ones are copied out. *)
let group label members =
  let counter = ref 0 in
  let chklist =
    Xks_util.Scratch.with_ints (fun buf ->
        (* xkscost: unticked pre-charged: one key number per child of the group, inside the pruning walk prune_all charged for *)
        List.iter
          (fun (i : info) ->
            incr counter;
            Xks_util.Int_vec.push buf i.klist)
          members;
        Xks_util.Int_vec.sort_uniq buf;
        Xks_util.Int_vec.to_array buf)
  in
  { group_label = label; counter = !counter; chklist; group_children = members }

(* Per-domain scratch for [label_groups]: [by_label.(l)] collects the
   children labelled [l] of the member being grouped, most recent
   first, and is emptied again before [label_groups] returns (nothing
   in between can raise). *)
let by_label : info list array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

let label_groups info =
  match info.rtf_children with
  | [] -> []
  | [ only ] -> [ group only.label [ only ] ]
  | children ->
      let slots = Domain.DLS.get by_label in
      (* Labels in reverse order of first appearance. *)
      let order =
        (* xkscost: unticked pre-charged: one pass over a node's RTF children, inside the pruning walk prune_all charged for *)
        List.fold_left
          (fun firsts (c : info) ->
            let l = c.label in
            if l >= Array.length !slots then begin
              let grown = Array.make (Int.max (l + 1) (2 * Array.length !slots)) [] in
              Array.blit !slots 0 grown 0 (Array.length !slots);
              slots := grown
            end;
            let prev = !slots.(l) in
            !slots.(l) <- c :: prev;
            match prev with [] -> l :: firsts | _ :: _ -> firsts)
          [] children
      in
      (* xkscost: unticked pre-charged: one step per distinct child label, inside the same pass *)
      List.fold_left
        (fun groups l ->
          let members = List.rev !slots.(l) in
          !slots.(l) <- [];
          group l members :: groups)
        [] order

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
  descend t.root
