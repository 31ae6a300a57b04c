(* The two corpora and the set-up path every workload shares.

   Set-up is what a deployment does before its first query: generate
   the corpus, write it as XML, index it with the streaming indexer
   straight into a persisted index ([Stream_index.save_file]), then
   reopen it ([Parser.parse_file] + [Persist.load]) into an engine. *)

module Engine = Xks_core.Engine

type kind = Dblp | Xmark

let name = function Dblp -> "dblp" | Xmark -> "xmark1"

(* DBLP: the generator's defaults (12,000 entries, ~84k nodes).  XMark:
   the Data1 size at the figure harness's 200 items per region. *)
let generate = function
  | Dblp -> Xks_datagen.Dblp_gen.generate ()
  | Xmark ->
      Xks_datagen.Xmark_gen.generate
        ~config:{ Xks_datagen.Xmark_gen.default_config with items = 200 }
        Xks_datagen.Xmark_gen.Data1

let file_size path = (Unix.stat path).Unix.st_size

let xml_path ~dir kind = Filename.concat dir (name kind ^ ".xml")
let idx_path ~dir kind = Filename.concat dir (name kind ^ ".idx")

(* Generate and write the XML; returns the file size. *)
let write_xml ~dir kind =
  let path = xml_path ~dir kind in
  Xks_xml.Writer.to_file path (generate kind);
  file_size path

type ingest = { ingest_ms : float; index_bytes : int }

let ingest ~dir kind =
  let t0 = Stats.now_ms () in
  ignore
    (Xks_index.Stream_index.save_file ~input:(xml_path ~dir kind)
       ~output:(idx_path ~dir kind) ()
      : int);
  let ingest_ms = Stats.now_ms () -. t0 in
  { ingest_ms; index_bytes = file_size (idx_path ~dir kind) }

let reopen ~dir kind =
  let t0 = Stats.now_ms () in
  let doc = Xks_xml.Parser.parse_file (xml_path ~dir kind) in
  let index = Xks_index.Persist.load (idx_path ~dir kind) doc in
  (index, Stats.now_ms () -. t0)

(* [total_s] is [raw_s] at the reference host speed ([Speed.setup_scaled]). *)
type timing = {
  total_s : float;
  raw_s : float;  (* as measured *)
  speed_ms : float;  (* the host speed around it *)
  ingest_ms : float;
  reopen_ms : float;
  xml_bytes : int;
}

type setup = {
  engine : Engine.t;
  nodes : int;
  xml_bytes : int;
  index_bytes : int;
  setup_s : float;  (* median over the repetitions, at the reference host speed *)
  ingest_mb_s : float;  (* median over the repetitions *)
  reopen_ms : float;  (* median over the repetitions *)
  runs : timing array;
}

let mb bytes = float_of_int bytes /. 1e6

let setup_once ~dir kind =
  let (engine, ing, reopen_ms, xml_bytes), raw_s, speed_ms =
    Speed.timed_raw (fun () ->
        let xml_bytes = write_xml ~dir kind in
        let ing = ingest ~dir kind in
        let index, reopen_ms = reopen ~dir kind in
        (Engine.of_index index, ing, reopen_ms, xml_bytes))
  in
  ( engine,
    ing.index_bytes,
    {
      total_s = Speed.setup_scaled raw_s speed_ms;
      raw_s;
      speed_ms;
      ingest_ms = ing.ingest_ms;
      reopen_ms;
      xml_bytes;
    } )

(* [f ()] in a forked child, its result marshalled back through a pipe:
   what [f] allocates stays out of this process's heap and peak RSS. *)
let in_child (f : unit -> 'a) : 'a =
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let code =
        match f () with
        | v ->
            let oc = Unix.out_channel_of_descr w in
            Marshal.to_channel oc v [];
            close_out oc;
            0
        | exception _ -> 1
      in
      Unix._exit code
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let v =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> try Some (Marshal.from_channel ic : 'a) with End_of_file -> None)
      in
      ignore (Unix.waitpid [] pid : int * Unix.process_status);
      (match v with Some v -> v | None -> failwith "perfbench: a forked child failed")

(* Set-up repetitions per run, for the medians of the set-up metrics. *)
let reps = 5

(* Run the whole set-up [reps] times and report medians: [reps - 1] in
   forked children, the last in this process, whose engine the workload
   queries. *)
let setup ~dir kind =
  let children =
    List.init (reps - 1) (fun _ ->
        in_child (fun () ->
            let _, _, t = setup_once ~dir kind in
            t))
  in
  let engine, index_bytes, last = setup_once ~dir kind in
  let runs = Array.of_list (last :: children) in
  let med f = Stats.median (Array.map f runs) in
  {
    engine;
    nodes = Xks_xml.Tree.size (Engine.doc engine);
    xml_bytes = last.xml_bytes;
    index_bytes;
    setup_s = med (fun t -> t.total_s);
    ingest_mb_s = med (fun t -> mb t.xml_bytes /. (t.ingest_ms /. 1000.));
    reopen_ms = med (fun t -> t.reopen_ms);
    runs;
  }

(* The write path of set-up stage by stage, through the layers' public
   functions: [Stream_index] rows, [Persist] encode and save,
   [Parser.parse_file], [Persist] decode and load, [Inverted.build].
   Every run does it once after set-up, in a forked child, as the output
   check of that path (the streamed rows must equal the rows of the
   tree-built index, and the saved index must reload to the same rows);
   traced runs record its spans under operation id -1.  Returns the
   failed checks, the minor words of the row build and the index
   bytes. *)
let write_path (sp : Spans.wrap) ~dir kind =
  let module Persist = Xks_index.Persist in
  let module Inverted = Xks_index.Inverted in
  let xml = xml_path ~dir kind and idx = idx_path ~dir kind in
  let w0 = Gc.minor_words () in
  let rows = sp.w "stream_index.rows" (fun () -> Xks_index.Stream_index.rows_of_file xml) in
  let words = Gc.minor_words () -. w0 in
  let bytes = sp.w "persist.encode" (fun () -> Persist.encode rows) in
  sp.w "persist.save" (fun () ->
      Out_channel.with_open_bin idx (fun oc -> output_string oc bytes));
  let doc = sp.w "parser.parse_file" (fun () -> Xks_xml.Parser.parse_file xml) in
  ignore (sp.w "persist.decode" (fun () -> Persist.decode bytes) : Persist.table);
  let index = sp.w "persist.load" (fun () -> Persist.load idx doc) in
  let built = sp.w "inverted.build" (fun () -> Inverted.build doc) in
  let check ok what = if ok then [] else [ name kind ^ ": " ^ what ] in
  ( check (rows = Inverted.to_rows built) "streamed rows differ from Inverted.build"
    @ check (Persist.dump index = rows) "reloaded index differs from the saved rows",
    words,
    String.length bytes )

let setup_metrics s =
  [
    ("setup_s", s.setup_s);
    ("index_bytes_ratio", float_of_int s.index_bytes /. float_of_int s.xml_bytes);
  ]

(* The ingest and reopen steps of set-up take ~200 ms each, too short to
   time steadily on a shared host: they are run metadata, and setup_s
   measures them end to end. *)
let setup_meta s =
  let open Xks_trace.Json in
  Obj
    [
      ("nodes", Int s.nodes);
      ("xml_bytes", Int s.xml_bytes);
      ("index_bytes", Int s.index_bytes);
      ("ingest_mb_s", Float s.ingest_mb_s);
      ("reopen_ms", Float s.reopen_ms);
      ("raw_s", List (Array.to_list (Array.map (fun t -> Float t.raw_s) s.runs)));
      ("speed_ms", List (Array.to_list (Array.map (fun t -> Float t.speed_ms) s.runs)));
    ]
