(* The benchmark's own tests: nearest-rank percentile, windowed
   medians, the host speed scaling, the seeded Zipf stream, span self
   time, the stage coverage rule and the forked-child helper.  Run with:
   dune build @perfbench/selftest *)

open Perfbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end
  else Printf.printf "ok   %s\n" name

let close a b = Float.abs (a -. b) < 1e-9

let test_percentile () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  (* nearest rank: the smallest value with at least p% at or below it *)
  check "p50 of 1..100 is 50" (close (Stats.percentile 50. xs) 50.);
  check "p99 of 1..100 is 99" (close (Stats.percentile 99. xs) 99.);
  check "p100 is the max" (close (Stats.percentile 100. xs) 100.);
  check "p1 is the min" (close (Stats.percentile 1. xs) 1.);
  check "p99 of 1..1000 has ten beyond" (Stats.beyond 99. (Array.init 1000 float_of_int) = 10);
  check "median of 1 sample" (close (Stats.median [| 7. |]) 7.);
  check "p50 of four is the second" (close (Stats.median [| 4.; 1.; 3.; 2. |]) 2.);
  check "input not reordered" (xs.(0) = 100.);
  check "empty input rejected"
    (match Stats.percentile 50. [||] with _ -> false | exception Invalid_argument _ -> true)

let test_windows () =
  let w = Stats.windows ~min_size:1000 ~max_windows:10 2500 in
  check "2500 samples make two windows of >= 1000" (Array.length w = 2);
  check "windows tile the range" (w.(0) = (0, 1250) && w.(1) = (1250, 2500));
  check "small runs get one window"
    (Stats.windows ~min_size:1000 ~max_windows:10 999 = [| (0, 999) |]);
  check "window count is capped"
    (Array.length (Stats.windows ~min_size:100 ~max_windows:10 100_000) = 10);
  (* one slow window out of three does not move the median *)
  let xs = Array.init 3000 (fun i -> if i < 1000 then 50. else 1.) in
  check "a stalled window is outvoted"
    (close (Stats.windowed ~min_size:1000 ~max_windows:10 (Stats.percentile 99.) xs) 1.)

let test_speed () =
  let refs = [| (0., 1.); (100., 1.); (2000., 2.); (2100., 2.) |] in
  let scaled = Speed.scale ~refs ~at:[| 50.; 2050.; 10_000.; -5000. |] [| 3.; 3.; 3.; 3. |] in
  let f t = (Speed.ref_ms /. Float.min t Speed.max_ms) ** Speed.gamma in
  check "a latency is scaled by the timings around it"
    (close scaled.(0) (3. *. f 1.) && close scaled.(1) (3. *. f 2.));
  check "far from every timing, the nearest one counts"
    (close scaled.(2) (3. *. f 2.) && close scaled.(3) (3. *. f 1.));
  check "at the reference time nothing changes" (close (Speed.factor Speed.ref_ms) 1.);
  check "a task time beyond max_ms counts as max_ms"
    (close (Speed.factor (4. *. Speed.max_ms)) (Speed.factor Speed.max_ms));
  check "a set-up at half the reference speed counts half"
    (close (Speed.setup_scaled 3. (2. *. Speed.ref_ms)) 1.5);
  check "without timings latencies stay as they are"
    (Speed.scale ~refs:[||] ~at:[| 0. |] [| 3. |] = [| 3. |]);
  ignore (Speed.measure () : float * float);
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Speed.task ()) : int);
  check "the reference task allocates nothing" (Gc.minor_words () -. w0 < 64.)

let test_zipf () =
  let a = Zipf.take (Zipf.create ~seed:7 ~n:50 ~epoch:500) 1500 in
  let b = Zipf.take (Zipf.create ~seed:7 ~n:50 ~epoch:500) 1500 in
  let c = Zipf.take (Zipf.create ~seed:8 ~n:50 ~epoch:500) 1500 in
  check "same seed, same stream" (a = b);
  check "another seed, another order" (a <> c);
  let counts = Zipf.counts ~n:50 ~epoch:500 in
  check "counts fill the epoch" (Array.fold_left ( + ) 0 counts = 500);
  check "counts are non-increasing in rank"
    (let ok = ref true in
     for i = 1 to 49 do
       if counts.(i) > counts.(i - 1) then ok := false
     done;
     !ok);
  (* every epoch holds each rank exactly its count *)
  let epoch = Array.sub a 500 500 in
  let seen = Array.make 50 0 in
  Array.iter (fun r -> seen.(r) <- seen.(r) + 1) epoch;
  check "an epoch is the exact Zipf mix" (seen = counts);
  check "rank 0 weight ~ 1/H(50, 1.1)"
    (let h = ref 0. in
     for i = 1 to 50 do
       h := !h +. (1. /. (float_of_int i ** 1.1))
     done;
     abs (counts.(0) - int_of_float (Float.round (500. /. !h))) <= 1)

let span name start stop parent = { Stats.name; start; stop; parent; op = 0 }

let test_self_time () =
  (* root [0,10] with children [1,4] and [4,6] and a grandchild [2,3]
     under the first child *)
  let spans =
    [| span "root" 0. 10. (-1); span "a" 1. 4. 0; span "b" 4. 6. 0; span "c" 2. 3. 1 |]
  in
  let self = Stats.self_times spans in
  check "root self = 10 - children" (close self.(0) 5.);
  check "a self = 3 - grandchild" (close self.(1) 2.);
  check "b self = full duration" (close self.(2) 2.);
  check "leaf self = duration" (close self.(3) 1.);
  let overlap =
    Stats.self_times [| span "root" 0. 10. (-1); span "a" 1. 4. 0; span "b" 3. 6. 0 |]
  in
  check "overlapping children are counted once" (close overlap.(0) 5.);
  let clipped = Stats.self_times [| span "root" 0. 2. (-1); span "a" 1. 5. 0 |] in
  check "a child is clipped to its parent" (close clipped.(0) 1.);
  let by = Stats.self_by_name (Array.append spans [| span "a" 20. 21. (-1) |]) in
  check "self times sum per name" (close (List.assoc "a" by) 3.);
  check "self times add up to the root interval"
    (close (Array.fold_left ( +. ) 0. self) 10.);
  (* the recorder nests spans and records parents *)
  let t = Spans.create () in
  Spans.set_op t 3;
  Spans.span t "outer" (fun () -> Spans.span t "inner" ignore);
  let a = Spans.to_array t in
  check "recorder keeps parent links"
    (Array.length a = 2 && a.(0).parent = -1 && a.(1).parent = 0 && a.(1).op = 3)

let test_spans_add_all () =
  let child = Spans.create () in
  Spans.set_op child (-1);
  Spans.span child "outer" (fun () -> Spans.span child "inner" ignore);
  let t = Spans.create () in
  Spans.span t "first" ignore;
  Spans.add_all t (Spans.to_array child);
  let a = Spans.to_array t in
  check "appended spans keep their parent links"
    (Array.length a = 3 && a.(1).parent = -1 && a.(2).parent = 1 && a.(2).op = -1)

let test_in_child () =
  check "a child's result comes back" (Corpus.in_child (fun () -> (42, [ "x" ])) = (42, [ "x" ]));
  check "a failing child raises"
    (match Corpus.in_child (fun () -> failwith "boom") with
     | () -> false
     | exception Failure _ -> true)

let test_coverage () =
  check "coverage ratio" (close (Stats.coverage ~stage_ms:90. ~op_ms:100.) 0.9);
  check "within tolerance passes" (Stats.coverage_ok 0.9);
  check "at the edge passes" (Stats.coverage_ok (1. -. Stats.coverage_tolerance));
  check "a replay missing a stage fails" (not (Stats.coverage_ok 0.5));
  check "a replay doing extra work fails" (not (Stats.coverage_ok 1.3));
  check "no time is zero coverage" (close (Stats.coverage ~stage_ms:1. ~op_ms:0.) 0.)

let () =
  test_percentile ();
  test_windows ();
  test_speed ();
  test_zipf ();
  test_self_time ();
  test_spans_add_all ();
  test_coverage ();
  test_in_child ();
  if !failures > 0 then begin
    Printf.printf "%d failure(s)\n" !failures;
    exit 1
  end
