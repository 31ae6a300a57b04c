module Tree = Xks_xml.Tree
module Dewey = Xks_xml.Dewey
module Bsearch = Xks_util.Bsearch
module Inverted = Xks_index.Inverted
module Klist = Xks_index.Klist
module Cid = Xks_index.Cid
module Query = Xks_core.Query
module Rtf = Xks_core.Rtf
module Fragment = Xks_core.Fragment
module Node_info = Xks_core.Node_info
module Prune = Xks_core.Prune

type violation = { rule : string; detail : string }

let v rule fmt = Printf.ksprintf (fun detail -> { rule; detail }) fmt
let to_string { rule; detail } = Printf.sprintf "[%s] %s" rule detail

(* ------------------------------------------------------------------ *)
(* Posting lists                                                      *)

let posting ?(word = "?") doc ids =
  let n = Tree.size doc in
  let out = ref [] in
  Array.iteri
    (fun i id ->
      if id < 0 || id >= n then
        out :=
          v "posting-range" "word %S: id %d outside the document (size %d)"
            word id n
          :: !out;
      if i > 0 && ids.(i - 1) >= id then
        out :=
          v "posting-order"
            "word %S: ids.(%d)=%d >= ids.(%d)=%d (unsorted or duplicate)" word
            (i - 1)
            ids.(i - 1)
            i id
          :: !out)
    ids;
  List.rev !out

let index idx =
  let doc = Inverted.doc idx in
  List.concat_map
    (fun word -> posting ~word doc (Inverted.posting idx word))
    (Inverted.vocabulary idx)

(* ------------------------------------------------------------------ *)
(* Document order                                                     *)

let doc_order doc ids =
  let out = ref [] and dp = ref Dewey.root in
  Array.iteri
    (fun i id ->
      (* Each code is derived once, then compared with the next one. *)
      let dc = Tree.dewey doc id in
      if i > 0 && Dewey.compare !dp dc >= 0 then
        out :=
          v "doc-order"
            "node array not in document order at index %d: Dewey %s \
             (id %d) does not precede Dewey %s (id %d)"
            i (Dewey.to_string !dp) ids.(i - 1) (Dewey.to_string dc) id
          :: !out;
      dp := dc)
    ids;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* RTF well-formedness                                                *)

let is_keyword_node (q : Query.t) id =
  Array.exists (fun p -> Bsearch.mem p id) q.postings

let rtf ?(require_coverage = true) (q : Query.t) (r : Rtf.t) =
  let doc = q.doc in
  let n = Tree.size doc in
  let out = ref [] in
  let push x = out := x :: !out in
  if r.lca < 0 || r.lca >= n then
    push (v "rtf-root" "LCA id %d outside the document (size %d)" r.lca n)
  else begin
    let last = (Tree.subtree_ends doc).(r.lca) in
    Array.iteri
      (fun i id ->
        if i > 0 && r.knodes.(i - 1) >= id then
          push
            (v "rtf-knodes-order"
               "RTF at %d: keyword nodes unsorted or duplicated at index %d"
               r.lca i);
        if id < 0 || id >= n then
          push (v "rtf-knodes-range" "RTF at %d: keyword node id %d invalid" r.lca id)
        else begin
          if id < r.lca || id > last then
            push
              (v "rtf-containment"
                 "RTF at %d: keyword node %d (Dewey %s) outside the LCA subtree"
                 r.lca id
                 (Dewey.to_string (Tree.dewey doc id)));
          if not (is_keyword_node q id) then
            push
              (v "rtf-keyword-node"
                 "RTF at %d: member %d matches no query keyword" r.lca id)
        end)
      r.knodes;
    if require_coverage then begin
      let k = Query.k q in
      let mask =
        Array.fold_left
          (fun m id -> Klist.union m (Query.node_klist q id))
          Klist.empty r.knodes
      in
      if not (Klist.is_full ~k mask) then
        push
          (v "rtf-coverage"
             "RTF at %d: keyword nodes cover only %d of %d query keywords"
             r.lca (Klist.cardinal mask) k)
    end
  end;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Fragment connectivity                                              *)

let fragment doc (f : Fragment.t) =
  let n = Tree.size doc in
  let out = ref [] in
  let push x = out := x :: !out in
  if f.root < 0 || f.root >= n then
    push (v "fragment-root" "fragment root %d outside the document" f.root)
  else begin
    let last = (Tree.subtree_ends doc).(f.root) and parents = Tree.parents doc in
    if not (Fragment.mem f f.root) then
      push (v "fragment-root" "fragment root %d is not a member" f.root);
    Array.iter
      (fun id ->
        if id < 0 || id >= n then
          push (v "fragment-range" "fragment member %d outside the document" id)
        else begin
          if id < f.root || id > last then
            push
              (v "fragment-containment"
                 "member %d (Dewey %s) outside the subtree of root %d" id
                 (Dewey.to_string (Tree.dewey doc id)) f.root);
          if id <> f.root && not (Fragment.mem f parents.(id)) then
            push
              (v "fragment-connectivity"
                 "member %d (Dewey %s) is disconnected: parent %d not in \
                  the fragment"
                 id
                 (Dewey.to_string (Tree.dewey doc id))
                 parents.(id))
        end)
      f.members
  end;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Node-info construction (section 4.1)                               *)

(* The reference reads everything from the definitions: a member's
   tree keyword set and content feature come from the RTF keyword nodes
   inside its subtree, the keyword set by posting membership and the
   feature by re-tokenising each node. *)
let node_info ?(cid_mode = Cid.Approx) (q : Query.t) (r : Rtf.t)
    (t : Node_info.t) =
  let doc = q.doc in
  let out = ref [] in
  let push x = out := x :: !out in
  let raw = Rtf.raw_fragment q r in
  let seen = ref [] in
  let rec walk (info : Node_info.info) =
    seen := info.id :: !seen;
    let lo = Bsearch.lower_bound r.knodes info.id
    and hi = Bsearch.upper_bound r.knodes (Tree.subtree_ends doc).(info.id) in
    let klist = ref Klist.empty and cid = ref Cid.empty in
    for i = lo to hi - 1 do
      let kn = r.knodes.(i) in
      klist := Klist.union !klist (Query.node_klist q kn);
      cid :=
        Cid.merge !cid
          (Cid.of_words cid_mode (Tree.content_words doc kn))
    done;
    if not (Int.equal info.klist !klist) then
      push
        (v "node-info-klist" "RTF at %d: member %d has key number %d, not %d"
           r.lca info.id info.klist !klist);
    if not (Cid.equal (Node_info.cid t info) !cid) then
      push
        (v "node-info-cid" "RTF at %d: member %d has cID %s, not %s" r.lca
           info.id
           (Format.asprintf "%a" Cid.pp (Node_info.cid t info))
           (Format.asprintf "%a" Cid.pp !cid));
    let _ : int =
      List.fold_left
        (fun prev (child : Node_info.info) ->
          if child.id <= prev then
            push
              (v "node-info-order"
                 "RTF at %d: children of member %d not in ascending id \
                  order (%d after %d)"
                 r.lca info.id child.id prev);
          let parent = (Tree.parents doc).(child.id) in
          if parent <> info.id then
            push
              (v "node-info-parent"
                 "RTF at %d: member %d listed under %d but its parent is %d"
                 r.lca child.id info.id parent);
          child.id)
        info.id info.rtf_children
    in
    List.iter walk info.rtf_children
  in
  walk (Node_info.root t);
  let members = List.sort Int.compare !seen in
  if not (List.equal Int.equal members (Fragment.members_list raw)) then
    push
      (v "node-info-members"
         "RTF at %d: info tree members differ from the raw RTF's (%d vs %d \
          nodes)"
         r.lca (List.length members) (Fragment.size raw));
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Valid-contributor post-conditions (Definition 4)                   *)

let covered_keywords (q : Query.t) members =
  Array.fold_left
    (fun m id -> Klist.union m (Query.node_klist q id))
    Klist.empty members

let valid_contributor_post ?cid_mode (q : Query.t) (r : Rtf.t)
    (pruned : Fragment.t) =
  let doc = q.doc in
  let out = ref (fragment doc pruned) in
  let push x = out := x :: !out in
  if pruned.root <> r.lca then
    push
      (v "prune-root" "pruned fragment root %d differs from the RTF LCA %d"
         pruned.root r.lca);
  let raw = Rtf.raw_fragment q r in
  Array.iter
    (fun id ->
      if not (Fragment.mem raw id) then
        push
          (v "prune-subset"
             "pruned fragment member %d is not a member of the raw RTF at %d"
             id r.lca))
    pruned.members;
  (* Keyword preservation: rule 2(a) only discards a child whose keyword
     set is strictly covered by a sibling's, and rule 2(b) keeps one
     representative per keyword-set/content pair — so pruning never
     loses a query keyword the raw RTF covered. *)
  let raw_mask = covered_keywords q raw.members in
  let pruned_mask = covered_keywords q pruned.members in
  if pruned_mask <> raw_mask then
    push
      (v "prune-keyword-loss"
         "RTF at %d: pruning changed keyword coverage (%d keywords before, \
          %d after)"
         r.lca
         (Klist.cardinal raw_mask)
         (Klist.cardinal pruned_mask));
  (* Rule 1: a single child of its label under a kept node is always
     kept. *)
  let info_tree = Node_info.construct ?cid_mode q r in
  let rec walk (info : Node_info.info) =
    if Fragment.mem pruned info.id then begin
      List.iter
        (fun (g : Node_info.label_group) ->
          match (g.counter, g.group_children) with
          | 1, [ only ] ->
              if not (Fragment.mem pruned only.id) then
                push
                  (v "prune-single-child"
                     "RTF at %d: node %d discarded its only '%s'-labelled \
                      child %d (Definition 4 rule 1 keeps it)"
                     r.lca info.id
                     (Tree.label_name doc only.id)
                     only.id)
          | _ -> ())
        (Node_info.label_groups info);
      List.iter walk info.rtf_children
    end
  in
  walk (Node_info.root info_tree);
  List.rev !out
