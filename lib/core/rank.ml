(* BM25-style scoring over the statistics the query already holds.

   Nodes play the role of documents: df_i is keyword i's posting length
   (how many nodes contain it — [Query.dfs], fetched once by
   [Query.make]) and N is the document's node count.  A fragment's term
   frequency tf_i is the number of keyword-i nodes its RTF received
   under the dispatch semantics.  The per-keyword contribution is the
   saturating form

     contribution_i(tf) = idf_i * tf * (k1 + 1)
                          / ((1 + k1*b/pivot) * tf + k1*(1 - b))

   with pivot the corpus average posting length ([Query.avg_df]).  For
   tf >= 0 this is monotone nondecreasing in tf (the derivative is
   proportional to k1*(1-b) >= 0; at b = 1 it is constant from tf = 1
   up), which is exactly what the early-termination bound needs:
   contribution_i(avail_i) caps contribution_i(tf) for any tf <=
   avail_i.  Classic BM25's per-document length normalisation has no
   sound position-independent analogue for fragments that do not exist
   yet, so length dampening enters only through the corpus pivot. *)

type params = { k1 : float; b : float }

let default_params = { k1 = 1.2; b = 0.75 }

type weights = {
  params : params;
  idfs : float array;  (* per query keyword *)
  sat : float;  (* 1 + k1*b/pivot: the tf coefficient of the denominator *)
}

let idf ~nodes ~df =
  let n = float_of_int nodes and d = float_of_int df in
  log (1. +. ((n -. d +. 0.5) /. (d +. 0.5)))

let weights ?(params = default_params) (q : Query.t) =
  if not (params.k1 >= 0.) then invalid_arg "Rank.weights: k1 must be >= 0";
  if not (params.b >= 0. && params.b <= 1.) then
    invalid_arg "Rank.weights: b must be in [0, 1]";
  let nodes = Xks_xml.Tree.size q.doc in
  {
    params;
    idfs = Array.map (fun df -> idf ~nodes ~df) q.dfs;
    sat = 1. +. (params.k1 *. params.b /. Float.max 1. q.avg_df);
  }

let contribution w i tf =
  if tf <= 0 then 0.
  else
    let tf = float_of_int tf in
    w.idfs.(i) *. tf *. (w.params.k1 +. 1.)
    /. ((w.sat *. tf) +. (w.params.k1 *. (1. -. w.params.b)))

let score_tf w tf =
  let acc = ref 0. in
  for i = 0 to Array.length tf - 1 do
    acc := !acc +. contribution w i tf.(i)
  done;
  !acc

(* An RTF's tf vector: how many of its dispatched keyword nodes contain
   each query keyword (a node holding two keywords counts toward both).
   Reads only the query's own postings — the index is never consulted. *)
let tf_of_rtf (q : Query.t) (rtf : Rtf.t) =
  (* xkscost: unticked pre-charged: scores RTFs the pipeline already materialised — get_rtfs ticked once per keyword node counted here *)
  Array.map
    (fun posting ->
      (* xkscost: unticked pre-charged: same knode sweep as the outer map, one binary search per dispatched node *)
      Array.fold_left
        (fun acc kn -> if Xks_util.Bsearch.mem posting kn then acc + 1 else acc)
        0 rtf.knodes)
    q.postings

let score_rtf w q rtf = score_tf w (tf_of_rtf q rtf)

let bound w ~avail =
  (* Every fragment holds at least one node per keyword, so exhausted
     availability on any keyword rules all future fragments out. *)
  if Array.exists (fun a -> a <= 0) avail then neg_infinity
  else score_tf w avail
