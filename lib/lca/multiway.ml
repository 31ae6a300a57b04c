module Bsearch = Xks_util.Bsearch

let slca doc postings =
  let k = Array.length postings in
  (* xkscost: unticked k-bounded: one emptiness test per keyword list *)
  if k = 0 || Array.exists (fun s -> Array.length s = 0) postings then []
  else begin
    let candidates = ref [] in
    (* Anchors ascend, so one cursor array serves every probe. *)
    let cursors = Probe.cursors postings in
    (* xkscost: unticked baseline: SLCA cross-check for tests/stress; serving uses Slca.indexed_lookup_eager, which ticks per driver occurrence *)
    let rec step pos =
      (* Heads: the first occurrence of each keyword at or past [pos];
         the step ends when some keyword is exhausted. *)
      (* xkscost: unticked k-bounded: one binary search per keyword list per step *)
      let rec heads i anchor =
        if i = k then Some anchor
        else
          match Bsearch.right_match postings.(i) pos with
          | Some h -> heads (i + 1) (Int.max anchor h)
          | None -> None
      in
      match heads 0 (-1) with
      | None -> ()
      | Some anchor ->
          (* Never -1: no list is empty. *)
          candidates := Probe.fc doc postings cursors anchor :: !candidates;
          step (anchor + 1)
    in
    step 0;
    let cands = List.sort_uniq Int.compare !candidates in
    Slca.filter_minimal doc cands
  end
