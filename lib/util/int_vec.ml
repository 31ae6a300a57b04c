type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 16) () = { data = Array.make (max 1 capacity) 0; len = 0 }
let length v = v.len

let push v x =
  if v.len = Array.length v.data then begin
    let data = Array.make (2 * v.len) 0 in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let check v i = if i < 0 || i >= v.len then invalid_arg "Int_vec: index"
let get v i = check v i; v.data.(i)
let set v i x = check v i; v.data.(i) <- x
let clear v = v.len <- 0

let truncate v n =
  if n < 0 || n > v.len then invalid_arg "Int_vec.truncate";
  v.len <- n
let to_array v = Array.sub v.data 0 v.len

let last v = if v.len = 0 then invalid_arg "Int_vec.last: empty" else v.data.(v.len - 1)

let pop v =
  if v.len = 0 then invalid_arg "Int_vec.pop: empty";
  v.len <- v.len - 1;
  v.data.(v.len)

(* In-place heapsort + compaction: sorting a scratch buffer must not
   allocate (the whole point of the buffer is to keep the query path off
   the minor heap), which rules out [Array.sort] on a [to_array] copy.
   Buffers filled in document order (a pruned fragment's members) are
   often sorted already, so one pass looks for a descent first. *)
let sort_uniq v =
  let a = v.data and n = v.len in
  let swap i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  let rec sift_down root limit =
    let child = (2 * root) + 1 in
    if child < limit then begin
      let child =
        if child + 1 < limit && a.(child + 1) > a.(child) then child + 1
        else child
      in
      if a.(child) > a.(root) then begin
        swap root child;
        sift_down child limit
      end
    end
  in
  let ascending = ref true and i = ref 1 in
  while !ascending && !i < n do
    if a.(!i) < a.(!i - 1) then ascending := false;
    incr i
  done;
  if not !ascending then begin
    for i = (n / 2) - 1 downto 0 do
      sift_down i n
    done;
    for i = n - 1 downto 1 do
      swap 0 i;
      sift_down 0 i
    done
  end;
  if n > 0 then begin
    let w = ref 1 in
    for r = 1 to n - 1 do
      if a.(r) <> a.(!w - 1) then begin
        a.(!w) <- a.(r);
        incr w
      end
    done;
    v.len <- !w
  end
