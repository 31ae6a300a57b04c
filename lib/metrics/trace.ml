(* Per-query observability: stage spans + monotonic counters.

   One global "current trace" slot keeps the disabled fast path to a
   single load-and-branch per instrumentation point — the pipeline's hot
   loops tick counters unconditionally, so when no trace is installed
   the cost must be negligible.  The slot is an [Atomic.t] and the
   counters are atomic because work may run on several domains
   ([Xks_exec] batch execution); spans are recorded only on the domain
   that installed the trace, so the span stack stays single-domain
   mutable state. *)

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

type span = { label : string; depth : int; seq : int; ms : float }

type t = {
  counters : int Atomic.t array;
  owner : int Atomic.t;  (* id of the domain that installed the trace *)
  events : string list Atomic.t;  (* degradation reasons, reverse order *)
  (* The span fields are deliberately unsynchronized: [owns] gates
     every write so only the domain that installed the trace touches
     them (worker domains tick the atomic counters only). *)
  (* xksrace: domain_safe owner-domain protocol, every write gated by owns *)
  mutable stack : (string * int * float) list;  (* label, seq, start s *)
  (* xksrace: domain_safe owner-domain protocol, every write gated by owns *)
  mutable closed : span list;  (* reverse completion order *)
  (* xksrace: domain_safe owner-domain protocol, every write gated by owns *)
  mutable next_seq : int;
}

let domain_id () = (Domain.self () :> int)

let create () =
  {
    counters = Array.init n_counters (fun _ -> Atomic.make 0);
    owner = Atomic.make (domain_id ());
    events = Atomic.make [];
    stack = [];
    closed = [];
    next_seq = 0;
  }

let current : t option Atomic.t = Atomic.make None

let set_current o =
  (match o with Some t -> Atomic.set t.owner (domain_id ()) | None -> ());
  Atomic.set current o

let get_current () = Atomic.get current
let enabled () = Atomic.get current <> None

let add c n =
  match Atomic.get current with
  | None -> ()
  | Some t -> ignore (Atomic.fetch_and_add t.counters.(counter_index c) n : int)

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
      ignore
        (Atomic.fetch_and_add t.counters.(counter_index Degradations) 1 : int)

let now = Unix.gettimeofday

(* Spans mutate the trace's stack, which is not synchronised: only the
   installing domain records them.  Worker domains (batch execution)
   still tick the atomic counters above. *)
let owns t = Atomic.get t.owner = domain_id ()

let span_begin label =
  match Atomic.get current with
  | None -> ()
  | Some t when not (owns t) -> ()
  | Some t ->
      let seq = t.next_seq in
      t.next_seq <- seq + 1;
      t.stack <- (label, seq, now ()) :: t.stack

let span_end label =
  match Atomic.get current with
  | None -> ()
  | Some t when not (owns t) -> ()
  | Some t -> (
      match t.stack with
      | (l, seq, t0) :: rest when l = label ->
          t.stack <- rest;
          t.closed <-
            {
              label;
              depth = List.length rest;
              seq;
              ms = (now () -. t0) *. 1000.;
            }
            :: t.closed
      | _ -> () (* unmatched end: drop rather than corrupt the stack *))

let with_span label f =
  match Atomic.get current with
  | None -> f ()
  | Some _ ->
      span_begin label;
      Fun.protect ~finally:(fun () -> span_end label) f

let with_current t f =
  let saved = Atomic.get current in
  set_current (Some t);
  Fun.protect ~finally:(fun () -> Atomic.set current saved) f

let counter t c = Atomic.get t.counters.(counter_index c)
let counters t = List.map (fun c -> (counter_name c, counter t c)) all_counters

let spans t =
  List.sort (fun a b -> Int.compare a.seq b.seq) t.closed

let degradation_events t = List.rev (Atomic.get t.events)

let summary t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "-- trace: stage timings --\n";
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "%s%-*s %10.3f ms\n"
           (String.make (2 * s.depth) ' ')
           (24 - (2 * s.depth))
           s.label s.ms))
    (spans t);
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
      ( "spans",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("label", Json.String s.label);
                   ("depth", Json.Int s.depth);
                   ("ms", Json.Float s.ms);
                 ])
             (spans t)) );
      ( "counters",
        Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) (counters t))
      );
      ( "degradations",
        Json.List
          (List.map (fun e -> Json.String e) (degradation_events t)) );
    ]
