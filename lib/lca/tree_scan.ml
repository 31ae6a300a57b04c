module Tree = Xks_xml.Tree
module Klist = Xks_index.Klist

type masks = { own : int array; sub : int array }

let compute_masks doc postings =
  let n = Tree.size doc in
  let k = Array.length postings in
  let own = Array.make n Klist.empty in
  (* xkscost: unticked pre-charged: run_query charges every posting entry up front; one mask write per entry *)
  Array.iteri
    (fun i posting ->
      let bit = Klist.singleton ~k i in
      (* xkscost: unticked pre-charged: same posting sweep, inner loop *)
      Array.iter (fun id -> own.(id) <- Klist.union own.(id) bit) posting)
    postings;
  let sub = Array.copy own and parents = Tree.parents doc in
  (* Children have larger preorder ids than their parent, so a descending
     pass folds every subtree into its root. *)
  for id = n - 1 downto 1 do
    let parent = parents.(id) in
    sub.(parent) <- Klist.union sub.(parent) sub.(id)
  done;
  { own; sub }

let full_containers doc postings =
  let k = Array.length postings in
  let { sub; _ } = compute_masks doc postings in
  let acc = ref [] in
  (* xkscost: unticked baseline: O(n) reference scan; the pipeline charges per result after it, and production serving uses the indexed stack *)
  for id = Tree.size doc - 1 downto 0 do
    if Klist.is_full ~k sub.(id) then acc := id :: !acc
  done;
  !acc

let slca doc postings =
  let k = Array.length postings in
  let { sub; _ } = compute_masks doc postings in
  let full id = Klist.is_full ~k sub.(id) in
  let has_full_child id =
    (* xkscost: unticked baseline: one child-mask read per child, amortised O(n) across the scan *)
    Tree.fold_children (fun found c -> found || full c) false doc id
  in
  let acc = ref [] in
  (* xkscost: unticked baseline: O(n) reference scan; the pipeline charges per result after it, and production serving uses the indexed stack *)
  for id = Tree.size doc - 1 downto 0 do
    if full id && not (has_full_child id) then acc := id :: !acc
  done;
  !acc

let elca doc postings =
  let k = Array.length postings in
  let { own; sub } = compute_masks doc postings in
  (* A keyword occurrence under child [c] survives the exclusion iff [c]'s
     subtree is not a full container (containment is upward-monotone, so a
     full container below [c] would make [c] full as well). *)
  let is_elca id =
    Klist.is_full ~k sub.(id)
    &&
    let surviving =
      (* xkscost: unticked baseline: one child-mask fold per node, amortised O(n) across the scan *)
      Tree.fold_children
        (fun acc c ->
          if Klist.is_full ~k sub.(c) then acc else Klist.union acc sub.(c))
        own.(id) doc id
    in
    Klist.is_full ~k surviving
  in
  let acc = ref [] in
  (* xkscost: unticked baseline: O(n) reference scan; the pipeline charges per result after it, and production serving uses the indexed stack *)
  for id = Tree.size doc - 1 downto 0 do
    if is_elca id then acc := id :: !acc
  done;
  !acc
