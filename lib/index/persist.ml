module Crc32 = Xks_util.Crc32
module Failpoint = Xks_robust.Failpoint

type table = (string * int * int array) list

let magic = "XKSIDX2\n"
let magic_v1 = "XKSIDX1\n"
let read_site = "persist.read"

(* Unsigned LEB128. *)
let write_varint buf n =
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  if n < 0 then invalid_arg "Persist: negative varint";
  go n

(* [limit] bounds reads to the enclosing section so a corrupt length
   cannot make one block consume its neighbours. *)
type reader = { data : string; mutable pos : int; mutable limit : int }

let reader data = { data; pos = 0; limit = String.length data }

let read_byte r =
  if r.pos >= r.limit then
    failwith (Printf.sprintf "Persist: truncated index at byte %d" r.pos);
  let c = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  c

(* Rejects encodings past 9 bytes (shift 63): on 64-bit OCaml those
   either overflow into negative ints or do not fit an int at all. *)
let read_varint r =
  let rec go shift acc =
    if shift > 56 then
      failwith (Printf.sprintf "Persist: varint overflow at byte %d" r.pos);
    let b = read_byte r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  let n = go 0 0 in
  if n < 0 then
    failwith (Printf.sprintf "Persist: negative varint at byte %d" r.pos);
  n

let write_string buf s =
  write_varint buf (String.length s);
  Buffer.add_string buf s

let read_string r =
  let n = read_varint r in
  (* Compare against the remaining bytes, not [pos + n]: a corrupt
     length near [max_int] would overflow the addition. *)
  if n > r.limit - r.pos then
    failwith (Printf.sprintf "Persist: truncated index at byte %d" r.pos);
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let dump = Inverted.to_rows
let of_table = Inverted.of_rows

(* One word's section: word, occurrence count, delta-coded posting. *)
let encode_block buf (w, occurrences, posting) =
  write_string buf w;
  write_varint buf occurrences;
  write_varint buf (Array.length posting);
  (* Sorted ids: store the first id, then the gaps. *)
  ignore
    (Array.fold_left
       (fun prev id ->
         write_varint buf (id - prev);
         id)
       0 posting)

let decode_block r =
  let w = read_string r in
  let occurrences = read_varint r in
  let len = read_varint r in
  (* Each posting entry takes at least one byte, so a length beyond the
     remaining bytes is corrupt — reject it before allocating. *)
  if len > r.limit - r.pos then
    failwith
      (Printf.sprintf "Persist: posting length %d exceeds input at byte %d" len
         r.pos);
  let posting = Array.make len 0 in
  let prev = ref 0 in
  for i = 0 to len - 1 do
    prev := !prev + read_varint r;
    posting.(i) <- !prev
  done;
  (w, occurrences, posting)

(* Layout: magic, u32le CRC of everything after this field, varint word
   count, then per word [varint length][u32le CRC][block bytes].  The
   per-word frame lets [decode] localise damage to one word even though
   the global CRC only says "something is wrong". *)
let encode rows =
  let buf = Buffer.create (1 lsl 16) in
  write_varint buf (List.length rows);
  let scratch = Buffer.create 256 in
  List.iter
    (fun row ->
      Buffer.clear scratch;
      encode_block scratch row;
      let block = Buffer.contents scratch in
      write_varint buf (String.length block);
      Buffer.add_string buf (Crc32.to_le_bytes (Crc32.string block));
      Buffer.add_string buf block)
    rows;
  let payload = Buffer.contents buf in
  magic ^ Crc32.to_le_bytes (Crc32.string payload) ^ payload

let read_crc r =
  if r.pos + 4 > r.limit then
    failwith (Printf.sprintf "Persist: truncated index at byte %d" r.pos);
  let c = Crc32.of_le_bytes r.data ~pos:r.pos in
  r.pos <- r.pos + 4;
  c

let decode_v2 data =
  let r = reader data in
  r.pos <- String.length magic;
  let stored_crc = read_crc r in
  let payload_ok =
    Crc32.sub data ~pos:r.pos ~len:(String.length data - r.pos) = stored_crc
  in
  let count = read_varint r in
  let rows =
    List.init count (fun i ->
        let damaged msg =
          failwith
            (Printf.sprintf "Persist: corrupt index: word block %d %s" i msg)
        in
        let block_len = read_varint r in
        let block_crc = read_crc r in
        let start = r.pos in
        if block_len > r.limit - start then
          damaged (Printf.sprintf "overruns the file at byte %d" start);
        if Crc32.sub data ~pos:start ~len:block_len <> block_crc then
          damaged (Printf.sprintf "(checksum mismatch at byte %d)" start);
        let saved_limit = r.limit in
        r.limit <- start + block_len;
        let ((w, _, _) as row) = decode_block r in
        if r.pos <> start + block_len then
          damaged
            (Printf.sprintf "(%S): %d trailing bytes inside the block" w
               (start + block_len - r.pos));
        r.limit <- saved_limit;
        row)
  in
  if r.pos <> String.length data then
    failwith
      (Printf.sprintf "Persist: trailing garbage at byte %d (%d bytes)" r.pos
         (String.length data - r.pos));
  if not payload_ok then
    (* Every word block checked out, so the damage is in the header
       (count field) or the global checksum itself. *)
    failwith "Persist: corrupt index: header checksum mismatch";
  rows

(* Legacy XKSIDX1 files: no checksums, still readable. *)
let decode_v1 data =
  let r = reader data in
  r.pos <- String.length magic_v1;
  let count = read_varint r in
  let rows = List.init count (fun _ -> decode_block r) in
  if r.pos <> String.length data then
    failwith
      (Printf.sprintf "Persist: trailing garbage at byte %d (%d bytes)" r.pos
         (String.length data - r.pos));
  rows

let has_magic data m =
  String.length data >= String.length m
  && String.sub data 0 (String.length m) = m

let decode data =
  if has_magic data magic then decode_v2 data
  else if has_magic data magic_v1 then decode_v1 data
  else failwith "Persist: not an xks index file"

(* The bytes go to a temporary file beside [path], are fsynced, and only
   then renamed over it, so a crash at any point leaves either the old
   file or the new one.  The new file takes an existing [path]'s
   permissions, as an in-place rewrite would keep them.  On failure the
   temporary file is removed and the error re-raised, a [Unix_error] as
   [Sys_error]. *)
let save_table path rows =
  let bytes = encode rows in
  let tmp, oc =
    Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o666
      ~temp_dir:(Filename.dirname path) (Filename.basename path) ".tmp"
  in
  match
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        let fd = Unix.descr_of_out_channel oc in
        (match Unix.stat path with
        | st -> Unix.fchmod fd st.st_perm
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
        output_string oc bytes;
        flush oc;
        Unix.fsync fd);
    Unix.rename tmp path
  with
  | () -> ()
  | exception e -> (
      let bt = Printexc.get_raw_backtrace () in
      (try Sys.remove tmp with Sys_error _ -> ());
      match e with
      | Unix.Unix_error (err, _, _) ->
          raise (Sys_error (path ^ ": " ^ Unix.error_message err))
      | e -> Printexc.raise_with_backtrace e bt)

let save path idx = save_table path (dump idx)

let load path doc =
  of_table doc (decode (Failpoint.read_file ~site:read_site path))

let load_or_rebuild ?(log = prerr_endline) ?(save_repaired = true) path doc =
  let rebuild msg =
    log
      (Printf.sprintf
         "xks: index %s unusable (%s); rebuilding from the document" path msg);
    let idx = Inverted.build doc in
    if save_repaired then begin
      try save path idx
      with Sys_error msg ->
        log (Printf.sprintf "xks: could not re-save index %s (%s)" path msg)
    end;
    idx
  in
  match load path doc with
  | idx -> idx
  | exception Failure msg -> rebuild msg
  | exception Sys_error msg -> rebuild msg
