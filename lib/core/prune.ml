module Klist = Xks_index.Klist
module Trace = Xks_trace.Trace

(* Kept (kList, feature) pairs of one label group. *)
module Kept = Hashtbl.Make (struct
  type t = Klist.t * int

  let equal ((k : int), (c : int)) (k', c') = k = k' && c = c'

  (* A packed feature keeps its low rank in the high bits: fold them
     down before mixing in the key number. *)
  let hash (k, c) = (((c lxor (c lsr 31)) * 31) + k) land max_int
end)

(* Children of [info] surviving Definition 4, document order preserved
   within each label group.

   Note a deliberate deviation from the paper's pseudocode: Algorithm 1
   keeps one [usedCIDs] set per label group, which would also discard a
   child whose content feature collides with a sibling of a {e
   different} keyword set; Definition 4's rule 2(b) compares contents
   only among siblings with {e equal} keyword sets, so content features
   are tracked per keyword set here.  EXPERIMENTS.md discusses the
   discrepancy; test_prune.ml pins the behaviour. *)
let valid_children (info : Node_info.info) =
  let keep_of_group (g : Node_info.label_group) =
    if g.counter = 1 then g.group_children
    else begin
      (* A child survives rule 2(a) iff no sibling's keyword set strictly
         covers its own, and rule 2(b) iff no kept sibling has its
         (kList, cID) pair: a hash probe per child keeps a wide label
         group linear. *)
      let kept = Kept.create 8 in
      List.filter
        (fun (ch : Node_info.info) ->
          let key = (ch.klist, ch.feature) in
          if Klist.covered_by_any ch.klist g.chklist || Kept.mem kept key then
            false
          else begin
            Kept.add kept key ();
            true
          end)
        g.group_children
    end
  in
  match info.rtf_children with
  | ([] | [ _ ]) as children -> children
  | _ :: _ :: _ -> List.concat_map keep_of_group (Node_info.label_groups info)

(* Children surviving MaxMatch's contributor test: no sibling (any label)
   with a strictly larger keyword set.  A lone child has no sibling; with
   more, the distinct key numbers are sorted in a scratch buffer, as
   [Node_info.group] does. *)
let contributor_children (info : Node_info.info) =
  match info.rtf_children with
  | ([] | [ _ ]) as children -> children
  | children ->
      let all_knums =
        Xks_util.Scratch.with_ints (fun buf ->
            List.iter
              (fun (c : Node_info.info) -> Xks_util.Int_vec.push buf c.klist)
              children;
            Xks_util.Int_vec.sort_uniq buf;
            Xks_util.Int_vec.to_array buf)
      in
      List.filter
        (fun (ch : Node_info.info) ->
          not (Klist.covered_by_any ch.klist all_knums))
        children

(* Members are pushed as the walk visits them: in document order unless
   kept children of different labels interleave ([valid_children]
   returns them grouped by label), so [Fragment.of_ids] rarely sorts. *)
let collect select t =
  let root = Node_info.root t in
  Xks_util.Scratch.with_ints (fun ids ->
      let rec go (info : Node_info.info) =
        Xks_util.Int_vec.push ids info.id;
        Trace.incr Trace.Frag_nodes_kept;
        let kept = select info in
        if Trace.enabled () then
          Trace.add Trace.Frag_nodes_pruned
            (List.length info.rtf_children - List.length kept);
        List.iter go kept
      in
      go root;
      Fragment.of_ids ~root:root.id ids)

let valid_contributor t = collect valid_children t
let contributor t = collect contributor_children t
let keep_all t = collect (fun (i : Node_info.info) -> i.rtf_children) t
