let run_revised_query ?budget q =
  Pipeline.run_query ?budget ~lca:Elca_indexed_stack ~pruning:Contributor q

let run_original_query ?budget q =
  Pipeline.run_query ?budget ~lca:Slca_only ~pruning:Contributor q

let run_revised idx ws = run_revised_query (Query.make idx ws)
let run_original idx ws = run_original_query (Query.make idx ws)
