(* Order statistics, span self time and the stage-coverage rule.

   Everything here is pure so the self-test can pin it: the percentile
   convention is nearest rank (the smallest sample with at least p% of
   the samples at or below it), the one the benchmark's p50/p99 use. *)

let now_ms () = Int64.to_float (Monotonic_clock.now ()) /. 1e6

(* Nearest-rank percentile of [xs] (unsorted; not modified).
   [p] is in (0, 100]. *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  if p <= 0. || p > 100. then invalid_arg "Stats.percentile: p out of (0, 100]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  sorted.(max 1 rank - 1)

let median xs = percentile 50. xs

(* How many samples lie strictly above the nearest-rank p-th percentile:
   the guide asks for at least ten beyond the reported tail. *)
let beyond p xs =
  let v = percentile p xs in
  Array.fold_left (fun acc x -> if x > v then acc + 1 else acc) 0 xs

(* Cut [0, n) into at most [max_windows] contiguous near-equal windows of
   at least [min_size] elements (one window when n < 2 * min_size), as
   (lo, hi) bounds. *)
let windows ~min_size ~max_windows n =
  let k = max 1 (min max_windows (n / max 1 min_size)) in
  Array.init k (fun i -> ((i * n) / k, ((i + 1) * n) / k))

(* Median over windows of [f] applied to each window of [xs]: a host
   stall that slows part of a run moves only the windows it hit. *)
let windowed ~min_size ~max_windows f xs =
  windows ~min_size ~max_windows (Array.length xs)
  |> Array.map (fun (lo, hi) -> f (Array.sub xs lo (hi - lo)))
  |> median

let mean xs =
  if Array.length xs = 0 then 0.
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* --- spans --- *)

type span = {
  name : string;
  start : float;  (* ms, monotonic *)
  stop : float;
  parent : int;  (* index of the parent span, -1 for a root *)
  op : int;  (* operation id shared by every span of one operation *)
}

(* Self time of every span: its duration minus the part of its interval
   covered by its direct children (children are clipped to the parent's
   interval and their overlaps merged, so a span never goes negative). *)
let self_times (spans : span array) =
  let n = Array.length spans in
  let children = Array.make n [] in
  Array.iteri
    (fun i s -> if s.parent >= 0 then children.(s.parent) <- i :: children.(s.parent))
    spans;
  Array.mapi
    (fun i s ->
      let ivs =
        List.map
          (fun c ->
            let cs = spans.(c) in
            (Float.max s.start cs.start, Float.min s.stop cs.stop))
          children.(i)
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0., neg_infinity) ivs
      in
      s.stop -. s.start -. covered)
    spans

(* Sum of self times per span name over the spans [keep] selects, in
   first-seen order (self times are computed over all spans, so parent
   links stay valid). *)
let self_by_name ?(keep = fun _ -> true) spans =
  let self = self_times spans in
  let tbl = Hashtbl.create 16 and order = ref [] in
  Array.iteri
    (fun i s ->
      if keep s then
        match Hashtbl.find_opt tbl s.name with
        | Some v -> Hashtbl.replace tbl s.name (v +. self.(i))
        | None ->
            order := s.name :: !order;
            Hashtbl.replace tbl s.name self.(i))
    spans;
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order

(* --- coverage rule --- *)

(* Stage self times must add up to the untraced operation time: a ratio
   outside [1 - tolerance, 1 + tolerance] means the replay no longer
   follows the engine's real path (or the measurement has a bug). *)
let coverage_tolerance = 0.15

let coverage ~stage_ms ~op_ms = if op_ms <= 0. then 0. else stage_ms /. op_ms

let coverage_ok ratio = Float.abs (ratio -. 1.) <= coverage_tolerance +. 1e-9
