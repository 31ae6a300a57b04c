(* Seeded Zipf(1.1) repeat streams over a fixed query pool.

   Pool rank i (0-based) has weight 1 / (i + 1)^s.  The stream is a
   sequence of epochs; each epoch holds every rank in exact proportion
   to its weight (largest-remainder rounding to [epoch] slots), shuffled
   by the seed.  Any run that spans whole epochs therefore sees the
   Zipf mix exactly, and the seed only decides the order — which keeps
   the latency percentiles from depending on which heavy queries a
   random draw happened to favour. *)

let s = 1.1

let counts ~n ~epoch =
  if n < 1 || epoch < 1 then invalid_arg "Zipf.counts";
  let w = Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let exact = Array.map (fun x -> x /. total *. float_of_int epoch) w in
  let c = Array.map (fun x -> int_of_float (Float.floor x)) exact in
  let short = epoch - Array.fold_left ( + ) 0 c in
  (* hand the remaining slots to the largest remainders, ties to the
     lower rank *)
  let order = Array.init n Fun.id in
  let rem i = exact.(i) -. Float.floor exact.(i) in
  Array.stable_sort (fun a b -> Float.compare (rem b) (rem a)) order;
  for j = 0 to short - 1 do
    c.(order.(j)) <- c.(order.(j)) + 1
  done;
  c

type t = {
  rng : Xks_datagen.Rng.t;
  slots : int array;  (* one epoch's ranks, reshuffled per epoch *)
  mutable pos : int;
}

let create ~seed ~n ~epoch =
  let c = counts ~n ~epoch in
  let slots = Array.make epoch 0 and k = ref 0 in
  Array.iteri
    (fun rank m ->
      for _ = 1 to m do
        slots.(!k) <- rank;
        incr k
      done)
    c;
  { rng = Xks_datagen.Rng.create seed; slots; pos = epoch }

let next t =
  if t.pos >= Array.length t.slots then begin
    Xks_datagen.Rng.shuffle t.rng t.slots;
    t.pos <- 0
  end;
  let r = t.slots.(t.pos) in
  t.pos <- t.pos + 1;
  r

let take t len = Array.init len (fun _ -> next t)
