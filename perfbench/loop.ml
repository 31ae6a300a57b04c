(* Closed-loop driving, windowed run metrics and the traced run's
   bookkeeping, shared by the workloads. *)

type run = {
  lat : float array;  (* per-operation latency, ms *)
  ends : float array;  (* completion time of each operation, ms *)
  refs : (float * float) array;  (* host speed timings: start, ms *)
  elapsed_s : float;
}

(* One client, next operation only after the previous one completes,
   until [seconds] have passed, with a host speed timing every
   [Speed.every_ms] between operations.  [op i] runs operation [i] and
   returns its latency in ms (the caller times exactly the call under
   test). *)
let closed ~seconds op =
  let lat = ref [] and ends = ref [] and refs = ref [] and n = ref 0 in
  let start = Stats.now_ms () in
  let stop = start +. (seconds *. 1000.) in
  let next_ref = ref start in
  while Stats.now_ms () < stop do
    if Stats.now_ms () >= !next_ref then begin
      let t, ms = Speed.measure () in
      refs := (t, ms) :: !refs;
      next_ref := t +. ms +. Speed.every_ms
    end;
    lat := op !n :: !lat;
    ends := Stats.now_ms () :: !ends;
    incr n
  done;
  let arr l = Array.of_list (List.rev l) in
  let ends = arr !ends in
  {
    lat = arr !lat;
    ends;
    refs = arr !refs;
    elapsed_s = (ends.(Array.length ends - 1) -. start) /. 1000.;
  }

(* Time one call, in ms. *)
let time f =
  let t0 = Stats.now_ms () in
  let r = f () in
  (r, Stats.now_ms () -. t0)

(* p50 is taken over the whole run: a median shrugs off stalls, and a
   short window's query mix would move it between the cost clusters of
   the pool.  The completion rate (operations per second of busy time)
   is the median over up to ten windows of at least 100 operations; p99
   is the median over windows of at least 1000 operations, so every
   window keeps ten samples beyond its p99.  A host stall then moves
   only the windows it hit. *)
let rate_windows = (100, 10)
let p99_windows = (1000, 10)

let p99 lat =
  let min_size, max_windows = p99_windows in
  Stats.windowed ~min_size ~max_windows (Stats.percentile 99.) lat

let rate lat =
  let min_size, max_windows = rate_windows in
  Stats.windows ~min_size ~max_windows (Array.length lat)
  |> Array.map (fun (lo, hi) ->
         float_of_int (hi - lo) /. (Array.fold_left ( +. ) 0. (Array.sub lat lo (hi - lo)) /. 1000.))
  |> Stats.median

(* The latencies at the reference host speed (see speed.ml). *)
let scaled r =
  Speed.scale ~refs:r.refs ~at:(Array.mapi (fun i l -> r.ends.(i) -. l) r.lat) r.lat

let latency_metrics r =
  let lat = scaled r in
  [
    ("p50_ms", Stats.median lat);
    ("p99_ms", p99 lat);
    ("qps", rate lat);
    (* one client on one worker: the closed-loop completion rate is the
       highest rate the system sustains *)
    ("capacity_qps", rate lat);
  ]

(* The raw figures, the host speed and the p99 windows. *)
let latency_meta r =
  let open Xks_trace.Json in
  let lat = scaled r in
  let min_size, max_windows = p99_windows in
  let w = Stats.windows ~min_size ~max_windows (Array.length lat) in
  [
    ("ops", Int (Array.length lat));
    ("measured_s", Float r.elapsed_s);
    ("raw_p50_ms", Float (Stats.median r.lat));
    ("raw_p99_ms", Float (p99 r.lat));
    ("raw_qps", Float (rate r.lat));
    ("speed_ref_ms", Float Speed.ref_ms);
    ("speed_timings", Int (Array.length r.refs));
    ("speed_median_ms", Float (if r.refs = [||] then 0. else Stats.median (Array.map snd r.refs)));
    ("p99_windows", Int (Array.length w));
    ( "p99_window_ms",
      List
        (Array.to_list
           (Array.map (fun (lo, hi) -> Float (Stats.percentile 99. (Array.sub lat lo (hi - lo)))) w))
    );
    ( "p99_samples_beyond_min",
      Int
        (Array.fold_left
           (fun acc (lo, hi) -> min acc (Stats.beyond 99. (Array.sub lat lo (hi - lo))))
           max_int w) );
  ]

(* Traced-run accumulator: the untraced time of every operation plus the
   GC work it did, next to the recorder its replays write into. *)
type traced = {
  spans : Spans.t;
  mutable ops : int;
  mutable untraced_ms : float;
  mutable replay_ms : float;
  mutable minor_words : float;
  mutable major_collections : int;
}

let traced () =
  {
    spans = Spans.create ();
    ops = 0;
    untraced_ms = 0.;
    replay_ms = 0.;
    minor_words = 0.;
    major_collections = 0;
  }

(* The untraced call of operation [op], with its GC deltas. *)
let untraced tr f =
  let w0 = Gc.minor_words () and m0 = (Gc.quick_stat ()).Gc.major_collections in
  let r, ms = time f in
  tr.minor_words <- tr.minor_words +. (Gc.minor_words () -. w0);
  tr.major_collections <-
    tr.major_collections + ((Gc.quick_stat ()).Gc.major_collections - m0);
  tr.untraced_ms <- tr.untraced_ms +. ms;
  (r, ms)

(* The replay of operation [op] under the span recorder. *)
let replay tr f =
  Spans.set_op tr.spans tr.ops;
  let r, ms = time f in
  tr.replay_ms <- tr.replay_ms +. ms;
  tr.ops <- tr.ops + 1;
  r

(* The set-up write path ([Corpus.write_path]) under operation id -1,
   in a forked child so its second copy of the index never counts in
   this process's peak RSS: its output check in every run, its
   per-layer metrics (per set-up, on this workload's corpus) in traced
   runs, whose span dump also gets the child's spans. *)
let write_path tr ~trace ~dir kind =
  let problems, words, bytes, spans =
    Corpus.in_child (fun () ->
        let t = Spans.create () in
        Spans.set_op t (-1);
        let sp = if trace then Spans.wrap t else Spans.untimed in
        let problems, words, bytes = Corpus.write_path sp ~dir kind in
        (problems, words, bytes, Spans.to_array t))
  in
  Spans.add_all tr.spans spans;
  let self = Stats.self_by_name spans in
  let ms span = Option.value ~default:0. (List.assoc_opt span self) in
  let metrics =
    if not trace then []
    else
      [
        ("stream_index.rows_ms", ms "stream_index.rows");
        ("stream_index.rows_words", words);
        ("persist.encode_ms", ms "persist.encode");
        ("persist.save_ms", ms "persist.save");
        ("persist.decode_ms", ms "persist.decode");
        ("persist.load_ms", ms "persist.load");
        ("persist.bytes", float_of_int bytes);
        ("parser.parse_file_ms", ms "parser.parse_file");
        ("inverted.build_ms", ms "inverted.build");
      ]
  in
  (problems, metrics)

(* Per-operation self time of every stage, the coverage rule, and the
   cross-stage metrics.  [names] maps span names to metric names. *)
let stage_metrics tr ~names =
  let ops = float_of_int (max 1 tr.ops) in
  let self =
    Stats.self_by_name ~keep:(fun s -> s.Stats.op >= 0) (Spans.to_array tr.spans)
  in
  let stage_ms = List.fold_left (fun acc (_, v) -> acc +. v) 0. self in
  let coverage = Stats.coverage ~stage_ms ~op_ms:tr.untraced_ms in
  let per_stage =
    List.filter_map
      (fun (span, metric) ->
        Option.map (fun v -> (metric, v /. ops)) (List.assoc_opt span self))
      names
  in
  let metrics =
    per_stage
    @ [
        ("engine.other_ms", (tr.untraced_ms -. stage_ms) /. ops);
        ("engine.coverage", coverage);
        ("gc.minor_words", tr.minor_words /. ops);
        ("gc.major_collections", float_of_int tr.major_collections /. ops);
        ("trace.overhead_ratio", tr.replay_ms /. Float.max 1e-9 tr.untraced_ms);
      ]
  in
  (metrics, self, stage_ms, coverage)

let coverage_problem ~coverage =
  if Stats.coverage_ok coverage then []
  else
    [
      Printf.sprintf
        "stage coverage %.3f outside 1 +/- %.2f: the replay no longer matches \
         the engine's path"
        coverage Stats.coverage_tolerance;
    ]
