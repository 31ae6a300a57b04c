module Klist = Xks_index.Klist
module Dewey = Xks_xml.Dewey
module Tree = Xks_xml.Tree

type reason =
  | Kept_root
  | Kept_unique_label
  | Kept_maximal
  | Kept_distinct_content
  | Discarded_covered of int
  | Discarded_duplicate of int
  | Discarded_with_ancestor of int

type decision = { node : int; reason : reason }

let kept d =
  match d.reason with
  | Kept_root | Kept_unique_label | Kept_maximal | Kept_distinct_content ->
      true
  | Discarded_covered _ | Discarded_duplicate _ | Discarded_with_ancestor _ ->
      false

(* Decisions within one label group under Definition 4, mirroring
   Prune.valid_children exactly (content features tracked per keyword
   set). *)
let group_decisions (g : Node_info.label_group) =
  if g.counter = 1 then
    List.map
      (fun (ch : Node_info.info) -> (ch, Kept_unique_label))
      g.group_children
  else begin
    (* knum -> (feature, owner id) list for the kept children so far *)
    let used = Hashtbl.create 4 in
    let covering_sibling (ch : Node_info.info) =
      List.find_opt
        (fun (sib : Node_info.info) ->
          Klist.strict_subset ch.klist sib.klist)
        g.group_children
    in
    List.map
      (fun (ch : Node_info.info) ->
        match Hashtbl.find_opt used ch.klist with
        | Some owners -> (
            match
              List.find_opt (fun (f, _) -> Int.equal f ch.feature) !owners
            with
            | Some (_, owner) -> (ch, Discarded_duplicate owner)
            | None ->
                owners := (ch.feature, ch.id) :: !owners;
                (ch, Kept_distinct_content))
        | None ->
            if Klist.covered_by_any ch.klist g.chklist then
              match covering_sibling ch with
              | Some sib -> (ch, Discarded_covered sib.id)
              | None -> assert false (* chklist is built from the group *)
            else begin
              Hashtbl.add used ch.klist (ref [ (ch.feature, ch.id) ]);
              (ch, Kept_maximal)
            end)
      g.group_children
  end

(* Contributor (MaxMatch): label-blind coverage only. *)
let contributor_decisions (info : Node_info.info) =
  let siblings = info.rtf_children in
  List.map
    (fun (ch : Node_info.info) ->
      match
        List.find_opt
          (fun (sib : Node_info.info) ->
            Klist.strict_subset ch.klist sib.klist)
          siblings
      with
      | Some sib -> (ch, Discarded_covered sib.id)
      | None -> (ch, Kept_maximal))
    siblings

let collect child_decisions t =
  let acc = ref [] in
  let rec discard_subtree ancestor (info : Node_info.info) =
    List.iter
      (fun (c : Node_info.info) ->
        acc := { node = c.id; reason = Discarded_with_ancestor ancestor } :: !acc;
        discard_subtree ancestor c)
      info.rtf_children
  in
  let rec go (info : Node_info.info) =
    List.iter
      (fun ((ch : Node_info.info), reason) ->
        acc := { node = ch.id; reason } :: !acc;
        let d = { node = ch.id; reason } in
        if kept d then go ch else discard_subtree ch.id ch)
      (child_decisions info)
  in
  let root = Node_info.root t in
  acc := [ { node = root.id; reason = Kept_root } ];
  go root;
  List.sort (fun a b -> Int.compare a.node b.node) !acc

let valid_contributor t =
  collect
    (fun info -> List.concat_map group_decisions (Node_info.label_groups info))
    t

let contributor t = collect contributor_decisions t

let reason_to_string doc = function
  | Kept_root -> "kept: RTF root"
  | Kept_unique_label -> "kept: unique label among its siblings (rule 1)"
  | Kept_maximal -> "kept: keyword set covered by no sibling (rule 2a)"
  | Kept_distinct_content -> "kept: same keywords but new content (rule 2b)"
  | Discarded_covered sib ->
      Printf.sprintf "discarded: keyword set strictly covered by %s (rule 2a)"
        (Dewey.to_string (Tree.dewey doc sib))
  | Discarded_duplicate sib ->
      Printf.sprintf "discarded: duplicates the content of %s (rule 2b)"
        (Dewey.to_string (Tree.dewey doc sib))
  | Discarded_with_ancestor a ->
      Printf.sprintf "discarded: inside the pruned subtree of %s"
        (Dewey.to_string (Tree.dewey doc a))

let render doc decisions =
  let line d =
    Printf.sprintf "%s (%s): %s"
      (Dewey.to_string (Tree.dewey doc d.node))
      (Tree.label_name doc d.node)
      (reason_to_string doc d.reason)
  in
  String.concat "\n" (List.map line decisions) ^ "\n"
