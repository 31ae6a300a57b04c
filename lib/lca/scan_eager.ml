module Tree = Xks_xml.Tree

let slca doc postings =
  let k = Array.length postings in
  (* xkscost: unticked k-bounded: one emptiness test per keyword list *)
  if k = 0 || Array.exists (fun s -> Array.length s = 0) postings then []
  else begin
    let anchor = Probe.smallest_list_index postings in
    let s1 = postings.(anchor) in
    (* One forward cursor per non-anchor list, pointing at the first
       element >= the current anchor occurrence. *)
    let cursors = Array.make k 0 in
    let parents = Tree.parents doc and ends = Tree.subtree_ends doc in
    (* The depth of the LCA of [v] (at depth [dv]) and [w]: one step up
       from [v] per level until the subtree holds [w]. *)
    let rec lca_depth v dv w =
      if v <= w && w <= ends.(v) then dv else lca_depth parents.(v) (dv - 1) w
    in
    let closest_depth i v dv =
      let s = postings.(i) in
      let n = Array.length s in
      (* xkscost: unticked baseline: SLCA cross-check for tests/stress; cursors only move forward, amortised one step per occurrence *)
      while cursors.(i) < n && s.(cursors.(i)) < v do
        cursors.(i) <- cursors.(i) + 1
      done;
      let depth_with id = lca_depth v dv id in
      let right =
        if cursors.(i) < n then Some (depth_with s.(cursors.(i))) else None
      in
      let left =
        if cursors.(i) > 0 then Some (depth_with s.(cursors.(i) - 1)) else None
      in
      match (left, right) with
      | None, None -> assert false (* the list is non-empty *)
      | Some d, None | None, Some d -> d
      | Some l, Some r -> Int.max l r
    in
    let candidate v =
      let dv = Tree.depth doc v in
      let depth = ref dv in
      (* xkscost: unticked k-bounded: one cursor probe per keyword list *)
      for i = 0 to k - 1 do
        if i <> anchor then depth := Int.min !depth (closest_depth i v dv)
      done;
      Probe.ancestor_at doc v !depth
    in
    let cands =
      (* xkscost: unticked baseline: SLCA cross-check for tests/stress; serving uses Slca.indexed_lookup_eager, which ticks per driver occurrence *)
      Array.to_list (Array.map candidate s1) |> List.sort_uniq Int.compare
    in
    Slca.filter_minimal doc cands
  end
