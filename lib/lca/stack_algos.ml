module Tree = Xks_xml.Tree
module Dewey = Xks_xml.Dewey
module Klist = Xks_index.Klist

(* The merged stream: every keyword node once, in document order, with
   its query-keyword bitset. *)
let merged_stream postings =
  let k = Array.length postings in
  let masks = Hashtbl.create 256 in
  (* xkscost: unticked baseline: ELCA/SLCA cross-check for tests/stress/bench; serving uses Indexed_stack.elca, which ticks per node *)
  Array.iteri
    (fun i s ->
      let bit = Klist.singleton ~k i in
      (* xkscost: unticked baseline: same posting sweep, inner loop *)
      Array.iter
        (fun id ->
          let m =
            match Hashtbl.find_opt masks id with
            | Some m -> m
            | None -> Klist.empty
          in
          Hashtbl.replace masks id (Klist.union m bit))
        s)
    postings;
  (* xkscost: allow hashtbl-fold runs once to materialise the stream — the iterator argument is evaluated before any loop starts *)
  Hashtbl.fold (fun id m acc -> (id, m) :: acc) masks []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

type entry = {
  node_id : int;
  mutable total : Klist.t;  (* keywords anywhere in the subtree *)
  mutable free : Klist.t;
      (* own content plus subtrees of non-full-container children *)
  mutable slca_below : bool;
}

(* Stack discipline: the path stack always contains at least the root
   while the merged stream is being scanned.  An empty stack here means
   the pop loop over-popped — fail loudly with the Dewey position being
   visited instead of a bare [Failure "hd"]. *)
let stack_top doc path ~at =
  match path with
  | top :: _ -> top
  | [] ->
      invalid_arg
        (Printf.sprintf
           "Stack_algos: empty path stack while visiting Dewey %s \
            (stack discipline violated)"
           (Dewey.to_string (Tree.dewey doc at)))

(* Generic driver: scans the merged stream maintaining the path stack;
   [on_pop] sees each finalised entry together with its parent. *)
let scan doc postings ~on_pop =
  let k = Array.length postings in
  (* xkscost: unticked k-bounded: one emptiness test per keyword list *)
  if k = 0 || Array.exists (fun s -> Array.length s = 0) postings then ()
  else begin
    let root_entry =
      { node_id = 0; total = Klist.empty; free = Klist.empty; slca_below = false }
    in
    (* The stack as a growable path: a chain from the root down. *)
    let path = ref [ root_entry ] (* top first; bottom is the root *) in
    let parents = Tree.parents doc and ends = Tree.subtree_ends doc in
    let pop () =
      match !path with
      | e :: (parent :: _ as rest) ->
          path := rest;
          parent.total <- Klist.union parent.total e.total;
          if not (Klist.is_full ~k e.total) then
            parent.free <- Klist.union parent.free e.total;
          if e.slca_below then parent.slca_below <- true;
          on_pop ~k e ~parent:(Some parent)
      | [ e ] ->
          path := [];
          on_pop ~k e ~parent:None
      | [] -> assert false
    in
    let holds (e : entry) id = e.node_id <= id && id <= ends.(e.node_id) in
    let push_to id =
      (* Extend the path down to [id] (callers ensure the top is an
         ancestor-or-self of it): one walk up [id]'s ancestor chain
         gathers the entries to push, top-down. *)
      let top = (stack_top doc !path ~at:id).node_id in
      (* xkscost: unticked baseline: one parent step per entry pushed below; serving uses Indexed_stack.elca, which ticks per node *)
      let rec chain id below =
        if id = top then below else chain parents.(id) (id :: below)
      in
      (* xkscost: unticked baseline: each path entry is pushed once per stream step; serving uses Indexed_stack.elca, which ticks per node *)
      List.iter
        (fun id ->
          path :=
            { node_id = id; total = Klist.empty; free = Klist.empty;
              slca_below = false }
            :: !path)
        (chain id [])
    in
    let visit (id, mask) =
      (* Pop down to the deepest entry whose subtree holds [id]; the
         root holds every node. *)
      (* xkscost: unticked baseline: each path entry pops once, amortised by the pushes above *)
      while not (holds (stack_top doc !path ~at:id) id) do
        pop ()
      done;
      push_to id;
      let top = stack_top doc !path ~at:id in
      top.total <- Klist.union top.total mask;
      top.free <- Klist.union top.free mask
    in
    (* xkscost: unticked baseline: one visit per distinct keyword node; cross-check only, off the serving path *)
    List.iter visit (merged_stream postings);
    (* xkscost: unticked baseline: drains the remaining path spine, at most one pop per pushed entry *)
    while !path <> [] do
      pop ()
    done
  end

let slca doc postings =
  let acc = ref [] in
  scan doc postings ~on_pop:(fun ~k e ~parent ->
      if Klist.is_full ~k e.total && not e.slca_below then begin
        acc := e.node_id :: !acc;
        match parent with Some p -> p.slca_below <- true | None -> ()
      end);
  List.sort Int.compare !acc

let elca doc postings =
  let acc = ref [] in
  scan doc postings ~on_pop:(fun ~k e ~parent:_ ->
      if Klist.is_full ~k e.free then acc := e.node_id :: !acc);
  List.sort Int.compare !acc
