module Tree = Xks_xml.Tree
module Int_vec = Xks_util.Int_vec

type t = { lca : int; knodes : int array }

(* Union of all posting lists, pushed into [out].  The lists are
   already sorted, so a k-way merge produces the sorted, deduplicated
   union directly, with no allocation per occurrence: minor-GC pressure
   is what the multicore batch path cannot afford (each minor
   collection stops all domains). *)
let merge_postings ?budget (q : Query.t) out =
  let postings = q.postings in
  let k = Array.length postings in
  let heads = Array.make (max 1 k) 0 in
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
          Int_vec.push out v;
          last := v
        end
  done

let keyword_node_ids ?budget q =
  Xks_util.Scratch.with_ints (fun out ->
      merge_postings ?budget q out;
      Int_vec.to_array out)

(* Two passes over the keyword nodes, in scratch buffers.  The first
   sweeps them in document order with a stack of the LCA intervals that
   contain the current position (the top is the deepest LCA ancestor),
   records each node's owner — the index of that LCA, or -1 — and counts
   the nodes of each LCA; the second copies each node into its owner's
   array, made at its final size. *)
let get_rtfs ?budget (q : Query.t) lcas =
  let ends = Tree.subtree_ends q.doc in
  let starts = Array.of_list lcas in
  let n = Array.length starts in
  let counts = Array.make n 0 in
  let knodes =
    Xks_util.Scratch.with_ints (fun ids ->
        merge_postings ?budget q ids;
        Xks_util.Scratch.with_ints (fun owners ->
            let stack = ref [] and next = ref 0 in
            for i = 0 to Int_vec.length ids - 1 do
              Xks_robust.Budget.tick_opt budget 1;
              let id = Int_vec.get ids i in
              (* Open the LCA intervals starting at or before [id]. *)
              (* xkscost: unticked amortised: each LCA interval is opened exactly once across the sweep, which ticks per keyword node *)
              while !next < n && starts.(!next) <= id do
                stack := !next :: !stack;
                incr next
              done;
              (* Close the intervals that ended before [id]. *)
              let closing = ref true in
              (* xkscost: unticked amortised: each open interval is closed exactly once across the sweep, which ticks per keyword node *)
              while !closing do
                match !stack with
                | r :: rest when ends.(starts.(r)) < id -> stack := rest
                | _ -> closing := false
              done;
              match !stack with
              | r :: _ ->
                  Int_vec.push owners r;
                  counts.(r) <- counts.(r) + 1
              | [] ->
                  (* under no LCA: not part of any partition *)
                  Int_vec.push owners (-1)
            done;
            let knodes = Array.map (fun c -> Array.make c 0) counts in
            Array.fill counts 0 n 0;
            (* xkscost: unticked pre-charged: one copy per keyword node, which the sweep above ticked *)
            for i = 0 to Int_vec.length owners - 1 do
              let r = Int_vec.get owners i in
              if r >= 0 then begin
                knodes.(r).(counts.(r)) <- Int_vec.get ids i;
                counts.(r) <- counts.(r) + 1
              end
            done;
            knodes))
  in
  List.mapi (fun r lca -> { lca; knodes = knodes.(r) }) lcas

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
