(* Batch query execution: fan independent queries out over a Domain
   pool, front them with the sharded result cache, and preserve the
   exact sequential semantics per query.

   Safety argument, in one place: a worker touches (1) the engine's
   document tree and inverted index — immutable post-build (see
   Inverted's interface; the sharing audit in test/test_index.ml pins
   it), (2) its own Query/RTF/pruning state — freshly allocated per
   query, (3) its own Budget — created on the worker at query start, so
   the mutable tick counters stay single-domain, (4) the installed
   Trace — its counters and stage table are atomic cells, so every
   worker records its queries' stages into the installing domain's
   trace — and the cache shards — mutex-guarded.  Nothing else is
   shared, so a batch run is observationally identical to the
   sequential loop. *)

module Engine = Xks_core.Engine
module Budget = Xks_robust.Budget
module Pool = Pool
module Cache = Cache

type budget_spec = { deadline_ms : int option; max_nodes : int option }

let budget_class_of = function
  | None | Some { deadline_ms = None; max_nodes = None } -> Cache.unbudgeted
  | Some { deadline_ms; max_nodes } ->
      let part prefix = function
        | None -> prefix ^ "-"
        | Some v -> prefix ^ string_of_int v
      in
      part "t" deadline_ms ^ ":" ^ part "n" max_nodes

let search_batch_results ?pool ?cache ?(algorithm = Engine.Validrtf) ?cid_mode
    ?rank ?k ?budget engine queries =
  let budget_class = budget_class_of budget in
  let fresh_budget () =
    (* Created on the domain that runs the query, at the moment it
       starts: the deadline clock begins exactly where the sequential
       loop would start it, and the mutable counters never cross a
       domain boundary. *)
    match budget with
    | None | Some { deadline_ms = None; max_nodes = None } -> None
    | Some { deadline_ms; max_nodes } ->
        Some (Budget.create ?deadline_ms ?max_nodes ())
  in
  let run_one ws () =
    let compute () =
      Engine.search_result ~algorithm ?cid_mode ?rank ?k
        ?budget:(fresh_budget ()) engine ws
    in
    match cache with
    | None -> compute ()
    | Some c -> (
        match Cache.key ~engine ~algorithm ?rank ?k ~budget_class ws with
        | None -> compute () (* empty query: let the engine raise *)
        | Some k -> (
            match Cache.find c k with
            | Some result -> result
            | None ->
                let result = compute () in
                (* An answer degraded by a deadline depends on the time
                   the run took, not on the key: serve it once, never
                   from the cache.  A node budget is part of the key
                   (its budget class), so that answer is kept. *)
                (match result.Engine.degraded with
                | Some Budget.Deadline -> ()
                | Some Budget.Node_budget | None -> Cache.add c k result);
                result))
  in
  let thunks = List.map run_one queries in
  match pool with
  | Some p -> Pool.run_all p thunks
  | None -> Array.of_list (List.map (fun f -> f ()) thunks)

let search_batch ?pool ?cache ?algorithm ?cid_mode ?rank ?k engine queries =
  Array.map
    (fun (r : Engine.search_result) -> r.hits)
    (search_batch_results ?pool ?cache ?algorithm ?cid_mode ?rank ?k engine
       queries)
