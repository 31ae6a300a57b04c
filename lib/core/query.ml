module Tokenizer = Xks_xml.Tokenizer
module Klist = Xks_index.Klist

type t = {
  doc : Xks_xml.Tree.t;
  keywords : string array;
  postings : int array array;
  features : Xks_index.Cid.table;
  dfs : int array;
  avg_df : float;
}

(* Per-keyword document frequency is just the posting length — [make]
   already fetched the lists to order keywords rarest-first, so the
   ranking layer must never re-fetch them from the index. *)
(* xkscost: unticked k-bounded: one length read per keyword list *)
let dfs_of postings = Array.map Array.length postings

let make ?(order = `Given) idx ws =
  let seen = Hashtbl.create 8 in
  let keywords =
    (* Each argument may carry several words ("xml search"); split into
       tokens (stop words kept — a user typing one deserves the empty
       posting, not a silently changed query). *)
    List.concat_map (Tokenizer.words ~keep_stopwords:true) ws
    |> List.filter_map (fun w ->
           if Hashtbl.mem seen w then None
           else begin
             Hashtbl.add seen w ();
             Some w
           end)
  in
  if keywords = [] then invalid_arg "Query.make: empty query";
  if List.length keywords > Klist.max_keywords then
    invalid_arg "Query.make: too many keywords";
  let keywords = Array.of_list keywords in
  let postings =
    Array.map (fun w -> Xks_index.Inverted.posting idx w) keywords
  in
  let keywords, postings =
    match order with
    | `Given -> (keywords, postings)
    | `Rarest ->
        (* Shortest posting list first (ties keep query order, so the
           permutation is deterministic).  The stack-based ELCA/SLCA
           walks drive off the smallest list and probe the others, so a
           rarity-sorted query puts the driver at index 0 and the most
           selective probes first.  The keyword {e set} is unchanged —
           every LCA semantics is order-invariant. *)
        let order = Array.init (Array.length keywords) Fun.id in
        (* xkscost: unticked k-bounded: sorts the k-entry permutation, comparing posting lengths only *)
        Array.sort
          (fun i j ->
            let c =
              Int.compare (Array.length postings.(i))
                (Array.length postings.(j))
            in
            if c <> 0 then c else Int.compare i j)
          order;
        ( Array.map (fun i -> keywords.(i)) order,
          (* xkscost: unticked k-bounded: permutes the k posting-list pointers, not their contents *)
          Array.map (fun i -> postings.(i)) order )
  in
  {
    doc = Xks_index.Inverted.doc idx;
    keywords;
    postings;
    features = Xks_index.Inverted.features idx;
    dfs = dfs_of postings;
    avg_df = (Xks_index.Inverted.stats idx).avg_posting_len;
  }

let of_postings ~features doc ~keywords postings =
  if keywords = [] then invalid_arg "Query.of_postings: empty query";
  if List.length keywords <> Array.length postings then
    invalid_arg "Query.of_postings: arity mismatch";
  if List.length (List.sort_uniq String.compare keywords) <> List.length keywords
  then invalid_arg "Query.of_postings: duplicate keyword";
  if List.exists (fun w -> w = "") keywords then
    invalid_arg "Query.of_postings: empty keyword";
  let n = Xks_xml.Tree.size doc in
  Array.iter
    (fun posting ->
      Array.iteri
        (fun i id ->
          if id < 0 || id >= n then
            invalid_arg "Query.of_postings: id out of range";
          if i > 0 && posting.(i - 1) >= id then
            invalid_arg "Query.of_postings: posting not sorted")
        posting)
    postings;
  let dfs = dfs_of postings in
  (* No index in sight: fall back to the mean of the query's own
     posting lengths as the corpus pivot. *)
  let avg_df =
    if Array.length dfs = 0 then 0.
    else
      float_of_int (Array.fold_left ( + ) 0 dfs)
      /. float_of_int (Array.length dfs)
  in
  {
    doc;
    keywords = Array.of_list keywords;
    postings;
    features;
    dfs;
    avg_df;
  }

let k q = Array.length q.keywords
let df q i = q.dfs.(i)
(* xkscost: unticked k-bounded: one emptiness test per keyword list *)
let has_results q = Array.for_all (fun s -> Array.length s > 0) q.postings

let keyword_index q w =
  let w = Tokenizer.normalize w in
  let rec loop i =
    if i = Array.length q.keywords then None
    else if String.equal q.keywords.(i) w then Some i
    else loop (i + 1)
  in
  loop 0

let node_klist q id =
  let k = k q in
  let mask = ref Klist.empty in
  Array.iteri
    (fun i posting ->
      if Xks_util.Bsearch.mem posting id then
        mask := Klist.union !mask (Klist.singleton ~k i))
    q.postings;
  !mask

let pp fmt q =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_seq
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       Format.pp_print_string)
    (Array.to_seq q.keywords)
