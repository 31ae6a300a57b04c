(* Per-query observability: a fixed stage table + monotonic counters.

   One global "current trace" slot keeps the disabled fast path to a
   single load-and-branch per instrumentation point — the pipeline's hot
   loops tick counters unconditionally, so when no trace is installed
   the cost must be negligible.  Every field of a trace is an atomic
   cell (a flat array per table), so any domain records into it without
   a lock and nothing is allocated per call: [Xks_exec] batch workers
   time their stages into the installing domain's trace exactly as the
   installing domain does. *)

type counter =
  | Postings_scanned
  | Nodes_visited
  | Elca_pushed
  | Elca_popped
  | Frag_nodes_kept
  | Frag_nodes_pruned
  | Budget_ticks
  | Degradations
  | Cache_hits
  | Cache_misses
  | Cache_evictions
  | Topk_pruned_postings
  | Topk_early_exit

let counter_index = function
  | Postings_scanned -> 0
  | Nodes_visited -> 1
  | Elca_pushed -> 2
  | Elca_popped -> 3
  | Frag_nodes_kept -> 4
  | Frag_nodes_pruned -> 5
  | Budget_ticks -> 6
  | Degradations -> 7
  | Cache_hits -> 8
  | Cache_misses -> 9
  | Cache_evictions -> 10
  | Topk_pruned_postings -> 11
  | Topk_early_exit -> 12

let n_counters = 13

let all_counters =
  [
    Postings_scanned; Nodes_visited; Elca_pushed; Elca_popped;
    Frag_nodes_kept; Frag_nodes_pruned; Budget_ticks; Degradations;
    Cache_hits; Cache_misses; Cache_evictions; Topk_pruned_postings;
    Topk_early_exit;
  ]

let counter_name = function
  | Postings_scanned -> "postings_scanned"
  | Nodes_visited -> "nodes_visited"
  | Elca_pushed -> "elca_pushed"
  | Elca_popped -> "elca_popped"
  | Frag_nodes_kept -> "frag_nodes_kept"
  | Frag_nodes_pruned -> "frag_nodes_pruned"
  | Budget_ticks -> "budget_ticks"
  | Degradations -> "degradations"
  | Cache_hits -> "cache_hits"
  | Cache_misses -> "cache_misses"
  | Cache_evictions -> "cache_evictions"
  | Topk_pruned_postings -> "topk.pruned_postings"
  | Topk_early_exit -> "topk.early_exit"

type stage =
  | Search
  | Validrtf
  | Maxmatch
  | Maxmatch_original
  | Query_make
  | Topk
  | Lca
  | Rtf
  | Construct
  | Prune
  | Rank
  | Slca_tag

let stage_index = function
  | Search -> 0
  | Validrtf -> 1
  | Maxmatch -> 2
  | Maxmatch_original -> 3
  | Query_make -> 4
  | Topk -> 5
  | Lca -> 6
  | Rtf -> 7
  | Construct -> 8
  | Prune -> 9
  | Rank -> 10
  | Slca_tag -> 11

let n_stages = 12

let all_stages =
  [
    Search; Validrtf; Maxmatch; Maxmatch_original; Query_make; Topk; Lca;
    Rtf; Construct; Prune; Rank; Slca_tag;
  ]

let leaf_stages =
  [ Query_make; Topk; Lca; Rtf; Construct; Prune; Rank; Slca_tag ]

let stage_name = function
  | Search -> "search"
  | Validrtf -> "validrtf"
  | Maxmatch -> "maxmatch"
  | Maxmatch_original -> "maxmatch_original"
  | Query_make -> "query_make"
  | Topk -> "topk"
  | Lca -> "lca"
  | Rtf -> "rtf"
  | Construct -> "construct"
  | Prune -> "prune"
  | Rank -> "rank"
  | Slca_tag -> "slca_tag"

type t = {
  counters : int Atomic.t array;
  stage_ns : int Atomic.t array;
  stage_calls : int Atomic.t array;
  events : string list Atomic.t;  (* degradation reasons, reverse order *)
}

let atomics n = Array.init n (fun _ -> Atomic.make 0)

let create () =
  {
    counters = atomics n_counters;
    stage_ns = atomics n_stages;
    stage_calls = atomics n_stages;
    events = Atomic.make [];
  }

let current : t option Atomic.t = Atomic.make None

let enabled () =
  match Atomic.get current with None -> false | Some _ -> true

let with_current t f =
  let saved = Atomic.get current in
  Atomic.set current (Some t);
  Fun.protect ~finally:(fun () -> Atomic.set current saved) f

let bump cells i n = ignore (Atomic.fetch_and_add cells.(i) n : int)

let add c n =
  match Atomic.get current with
  | None -> ()
  | Some t -> bump t.counters (counter_index c) n

let incr c = add c 1

let push_event t reason =
  let rec loop () =
    let old = Atomic.get t.events in
    if not (Atomic.compare_and_set t.events old (reason :: old)) then loop ()
  in
  loop ()

let degradation reason =
  match Atomic.get current with
  | None -> ()
  | Some t ->
      push_event t reason;
      bump t.counters (counter_index Degradations) 1

(* Nanoseconds on the monotonic clock; an unboxed external, so reading
   it allocates nothing. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let start () =
  match Atomic.get current with None -> 0 | Some _ -> now_ns ()

(* [t0 = 0] is a start taken while no trace was installed: a trace
   installed since then has no start time to charge. *)
let stop stage t0 =
  match Atomic.get current with
  | None -> ()
  | Some _ when t0 = 0 -> ()
  | Some t ->
      let i = stage_index stage in
      bump t.stage_ns i (now_ns () - t0);
      bump t.stage_calls i 1

let with_stage stage f =
  match Atomic.get current with
  | None -> f ()
  | Some _ ->
      let t0 = start () in
      Fun.protect ~finally:(fun () -> stop stage t0) f

let counter t c = Atomic.get t.counters.(counter_index c)
let counters t = List.map (fun c -> (counter_name c, counter t c)) all_counters
let stage_calls t s = Atomic.get t.stage_calls.(stage_index s)
let stage_ms t s = float_of_int (Atomic.get t.stage_ns.(stage_index s)) /. 1e6
let degradation_events t = List.rev (Atomic.get t.events)

let summary t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "-- trace: stages --\n";
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "%-24s %10d %10.3f ms\n" (stage_name s)
           (stage_calls t s) (stage_ms t s)))
    all_stages;
  Buffer.add_string buf "-- trace: counters --\n";
  List.iter
    (fun (name, v) ->
      Buffer.add_string buf (Printf.sprintf "%-24s %10d\n" name v))
    (counters t);
  (match degradation_events t with
  | [] -> ()
  | events ->
      Buffer.add_string buf "-- trace: degradations --\n";
      List.iter
        (fun e -> Buffer.add_string buf (Printf.sprintf "degraded: %s\n" e))
        events);
  Buffer.contents buf

let to_json t =
  Json.Obj
    [
      ( "stages",
        Json.Obj
          (List.map
             (fun s ->
               ( stage_name s,
                 Json.Obj
                   [
                     ("calls", Json.Int (stage_calls t s));
                     ("ms", Json.Float (stage_ms t s));
                   ] ))
             all_stages) );
      ( "counters",
        Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) (counters t))
      );
      ( "degradations",
        Json.List
          (List.map (fun e -> Json.String e) (degradation_events t)) );
    ]
