(* In-memory span recorder for the traced run.

   The benchmark wraps its own calls into each layer's public functions
   in [span]; nothing inside lib/ is instrumented.  A span keeps its
   name, start, end, parent and operation id; slots are reserved when a
   span opens so children can point at their parent, and the recorder
   grows by doubling so recording stays O(1) amortised. *)

type t = {
  mutable names : string array;
  mutable starts : float array;
  mutable stops : float array;
  mutable parents : int array;
  mutable ops : int array;
  mutable len : int;
  mutable current : int;  (* innermost open span, -1 when none *)
  mutable op : int;
}

let create () =
  let cap = 1024 in
  {
    names = Array.make cap "";
    starts = Array.make cap 0.;
    stops = Array.make cap 0.;
    parents = Array.make cap (-1);
    ops = Array.make cap 0;
    len = 0;
    current = -1;
    op = 0;
  }

let set_op t op = t.op <- op

let grow t =
  let cap = 2 * Array.length t.names in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.names <- extend t.names "";
  t.starts <- extend t.starts 0.;
  t.stops <- extend t.stops 0.;
  t.parents <- extend t.parents (-1);
  t.ops <- extend t.ops 0

let span t name f =
  if t.len = Array.length t.names then grow t;
  let i = t.len in
  t.len <- i + 1;
  t.names.(i) <- name;
  t.parents.(i) <- t.current;
  t.ops.(i) <- t.op;
  t.current <- i;
  t.starts.(i) <- Stats.now_ms ();
  Fun.protect
    ~finally:(fun () ->
      t.stops.(i) <- Stats.now_ms ();
      t.current <- t.parents.(i))
    f

(* Append spans recorded by another recorder (a forked child's),
   keeping their parent links. *)
let add_all t (spans : Stats.span array) =
  let base = t.len in
  Array.iter
    (fun (s : Stats.span) ->
      if t.len = Array.length t.names then grow t;
      let i = t.len in
      t.len <- i + 1;
      t.names.(i) <- s.name;
      t.starts.(i) <- s.start;
      t.stops.(i) <- s.stop;
      t.parents.(i) <- (if s.parent < 0 then -1 else base + s.parent);
      t.ops.(i) <- s.op)
    spans

(* A span wrapper the replays take, so one replay serves both the traced
   run and the untimed output check. *)
type wrap = { w : 'a. string -> (unit -> 'a) -> 'a }

let wrap t = { w = (fun name f -> span t name f) }
let untimed = { w = (fun _ f -> f ()) }

let to_array t =
  Array.init t.len (fun i ->
      {
        Stats.name = t.names.(i);
        start = t.starts.(i);
        stop = t.stops.(i);
        parent = t.parents.(i);
        op = t.ops.(i);
      })

(* One tab-separated line per span: index, op, parent, name, start_ms,
   end_ms (start of the run = 0). *)
let write t path =
  let base = if t.len > 0 then t.starts.(0) else 0. in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "span\top\tparent\tname\tstart_ms\tend_ms\n";
      for i = 0 to t.len - 1 do
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%.4f\t%.4f\n" i t.ops.(i)
          t.parents.(i) t.names.(i)
          (t.starts.(i) -. base)
          (t.stops.(i) -. base)
      done)
