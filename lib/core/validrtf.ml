let run_query ?cid_mode ?budget q =
  Pipeline.run_query ?cid_mode ?budget ~lca:Elca_indexed_stack
    ~pruning:Valid_contributor q

let run ?cid_mode idx ws = run_query ?cid_mode (Query.make idx ws)
