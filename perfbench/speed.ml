(* The host speed reference.

   The bench host is a shared 2-vCPU virtual machine whose CPU speed
   changes by up to ±25% within seconds and between runs, and every
   latency moves with it: over ten 30-s runs the spread (IQR / median)
   of raw p50, p99 and completion rate reached 0.13-0.77.  A fixed
   reference task, timed every [every_ms] between operations, measures
   that speed next to the workload.  The latency metrics count each
   operation at the reference speed: its latency times
   ([ref_ms] / t) ** [gamma], where t is the median reference time within
   [window_ms] of the operation, at most [max_ms].  [ref_ms] is the
   reference's median time on the bench host, so the scaled figures read
   as milliseconds on that host at its median speed.  Set-up times are
   scaled by [sample]s taken just before and just after each set-up,
   with their own exponent ([setup_gamma]).

   The workloads slow down more than the task when the host slows:
   regressing log latency on log t gave exponents of 1.4-1.9 for p50 and
   the completion rate, both over 2-s windows within runs and over whole
   runs (the p99 of dblp-full and xmark-topk: 1.05 and 1.35).  [gamma]
   is one exponent for every workload and metric.  A walk over 16 MiB,
   which misses the caches, slowed no more than this one, so the excess
   is not memory latency, and a mean instead of a median fitted worse.

   The task allocates nothing, so no GC work of the program under test
   lands in it, and it calls nothing in lib/, so a change to the program
   cannot move it. *)

let every_ms = 100.
let window_ms = 1000.
let ref_ms = 0.75
let gamma = 1.6

(* Up to ~1.2 ms the workloads slow down with the task; beyond it they
   do not.  In runs whose task took a median 1.36-1.84 ms, raw p50 was
   what runs at 1.1-1.2 ms gave (xmark-topk at 1.55 ms: what 0.93 ms
   gave), and [gamma] made them read 30-50% fast.  A task time above
   [max_ms] counts as [max_ms]. *)
let max_ms = 1.2

(* The factor that brings a time measured while the task took [t] ms to
   the reference speed. *)
let factor t = (ref_ms /. Float.min t max_ms) ** gamma

(* A walk over a fixed random cyclic permutation of 2^12 ints, mixed
   with integer arithmetic.  The 32 KiB stay in the first-level cache,
   so the time follows the CPU's speed, not what the operation before it
   left in the caches (over 1 MiB the timings spread fourfold). *)
let size = 1 lsl 12
let steps = 400_000

let perm =
  lazy
    (let p = Array.init size Fun.id in
     let rng = Random.State.make [| 17 |] in
     (* Sattolo's shuffle: a single cycle through every slot *)
     for i = size - 1 downto 1 do
       let j = Random.State.int rng i in
       let t = p.(i) in
       p.(i) <- p.(j);
       p.(j) <- t
     done;
     p)

let task () =
  let p = Lazy.force perm in
  let i = ref 0 and acc = ref 0 in
  for _ = 1 to steps do
    i := p.(!i);
    acc := (!acc * 31) + !i
  done;
  !acc

(* One timing of the task: (start, ms). *)
let measure () =
  ignore (Lazy.force perm : int array);
  let t0 = Stats.now_ms () in
  ignore (Sys.opaque_identity (task ()) : int);
  (t0, Stats.now_ms () -. t0)

(* The host speed now: the median of five timings of the task, in ms. *)
let sample () = Stats.median (Array.init 5 (fun _ -> snd (measure ())))

(* [f ()], its time in seconds as measured, and the host speed: the mean
   of the [sample]s taken just before and just after it. *)
let timed_raw f =
  let before = sample () in
  let t0 = Stats.now_ms () in
  let r = f () in
  let ms = Stats.now_ms () -. t0 in
  (r, ms /. 1000., (before +. sample ()) /. 2.)

(* Set-up times move with the task in proportion: over ten runs,
   regressing log set-up time on log t gave 1.1 for the corpus set-up
   and 1.0 for the server start (run medians; 0.9 for single corpus
   set-ups), so they are scaled with an exponent of 1.  With [gamma] the
   same runs' serve-zipf set-up figures spread half as much again. *)
let setup_gamma = 1.

(* A set-up time [s] measured while the task took [t] ms, at the
   reference speed. *)
let setup_scaled s t = s *. ((ref_ms /. t) ** setup_gamma)

(* [lat.(i)] at the reference speed: times the [factor] of the median of
   the reference timings [refs] (start, ms; in time order) that started
   within [window_ms] of [at.(i)], or of the nearest one when none did.
   Without timings the latencies are returned as they are. *)
let scale ~refs ~at lat =
  let n = Array.length refs in
  if n = 0 then Array.copy lat
  else begin
    let times = Array.map fst refs and ms = Array.map snd refs in
    (* the first index whose time is at least [t] *)
    let first_at t =
      let lo = ref 0 and hi = ref n in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if times.(mid) < t then lo := mid + 1 else hi := mid
      done;
      !lo
    in
    Array.mapi
      (fun i l ->
        let lo = first_at (at.(i) -. window_ms) and hi = first_at (at.(i) +. window_ms) in
        let lo, hi = if hi > lo then (lo, hi) else (min lo (n - 1), min lo (n - 1) + 1) in
        l *. factor (Stats.median (Array.sub ms lo (hi - lo))))
      lat
  end
