module Tree = Xks_xml.Tree

type t = { lca : int; knodes : int array }

(* Union of all posting lists.  The lists are already sorted, so a
   k-way merge into a per-domain scratch buffer produces the sorted,
   deduplicated union directly — the previous cons-everything-then-
   [List.sort_uniq] version allocated a list cell per occurrence on
   every query, which is minor-GC pressure the multicore batch path
   cannot afford (each minor collection stops all domains). *)
let keyword_node_ids ?budget (q : Query.t) =
  let postings = q.postings in
  let k = Array.length postings in
  let heads = Array.make (max 1 k) 0 in
  Xks_util.Scratch.with_ints (fun out ->
      let exhausted = ref false in
      let last = ref min_int in
      while not !exhausted do
        (* One merge step per posting occurrence: ticked so a deadline
           interrupts the union itself, not just the later dispatch. *)
        Xks_robust.Budget.tick_opt budget 1;
        let best = ref (-1) in
        (* xkscost: unticked k-bounded: one head comparison per keyword list *)
        for i = 0 to k - 1 do
          if heads.(i) < Array.length postings.(i) then
            let v = postings.(i).(heads.(i)) in
            if !best < 0 || v < postings.(!best).(heads.(!best)) then best := i
        done;
        match !best with
        | -1 -> exhausted := true
        | i ->
            let v = postings.(i).(heads.(i)) in
            heads.(i) <- heads.(i) + 1;
            if v <> !last then begin
              Xks_util.Int_vec.push out v;
              last := v
            end
      done;
      Xks_util.Int_vec.to_array out)

let get_rtfs ?budget (q : Query.t) lcas =
  let ends = Tree.subtree_ends q.doc in
  let knodes = keyword_node_ids ?budget q in
  let buckets = List.map (fun a -> (a, Xks_util.Int_vec.create ())) lcas in
  (* Sweep keyword nodes in document order, keeping a stack of the LCA
     intervals that contain the current position; the top of the stack is
     the deepest LCA ancestor. *)
  let stack = ref [] in
  let remaining = ref buckets in
  let dispatch id =
    Xks_robust.Budget.tick_opt budget 1;
    (* Open the LCA intervals starting at or before [id]. *)
    (* xkscost: unticked amortised: each LCA interval is opened exactly once across the sweep; dispatch ticks per keyword node *)
    let rec open_intervals () =
      match !remaining with
      | ((a, _) as entry) :: rest when a <= id ->
          remaining := rest;
          stack := entry :: !stack;
          open_intervals ()
      | _ -> ()
    in
    open_intervals ();
    (* Close the intervals that ended before [id]. *)
    (* xkscost: unticked amortised: each open interval is closed exactly once across the sweep; dispatch ticks per keyword node *)
    let rec close_intervals () =
      match !stack with
      | (a, _) :: rest when ends.(a) < id ->
          stack := rest;
          close_intervals ()
      | _ -> ()
    in
    close_intervals ();
    match !stack with
    | (_, bucket) :: _ -> Xks_util.Int_vec.push bucket id
    | [] -> () (* keyword node under no LCA: not part of any partition *)
  in
  Array.iter dispatch knodes;
  List.map
    (fun (a, bucket) -> { lca = a; knodes = Xks_util.Int_vec.to_array bucket })
    buckets

let raw_fragment (q : Query.t) { lca; knodes } =
  let parents = Tree.parents q.doc in
  let members = ref [] in
  let add_path id =
    let rec up id =
      if id <> lca then begin
        members := id :: !members;
        up parents.(id)
      end
    in
    up id
  in
  Array.iter add_path knodes;
  Fragment.make ~root:lca ~members:!members
