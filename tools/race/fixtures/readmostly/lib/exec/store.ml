(* A read-mostly store in the shape of lib/exec/cache.ml's shards:
   shared read sections and exclusive write sections both resolve to
   the same guard name, and every access to the guarded state belongs
   inside one of the two section helpers.  [hot_entries] reads the
   guarded field bare — the read path is precisely where "it's only a
   read" rationalisations sneak past review, so this is the acceptance
   case for [unlocked-access] on a read-mostly primitive. *)

type t = {
  rw : Mutex.t;  (* stand-in for the rwlock: one guard name, two helpers *)
  mutable entries : int;  (* xksrace: guarded_by rw *)
}

let create () = { rw = Mutex.create (); entries = 0 }

(* xksrace: locks rw *)
let with_read t f =
  Mutex.lock t.rw;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.rw) f

(* xksrace: locks rw *)
let with_write t f =
  Mutex.lock t.rw;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.rw) f

let find t = with_read t (fun () -> t.entries)

let add t n = with_write t (fun () -> t.entries <- t.entries + n)

let hot_entries t = t.entries

let run () =
  let s = create () in
  let d = Domain.spawn (fun () -> add s 1) in
  let seen = find s in
  Domain.join d;
  seen + hot_entries s

(* A bare read section, as an uninstrumented cache lookup takes it:
   the guarded read sits between [Rwlock.read_lock] and
   [Rwlock.read_unlock] on the same guard name, so it is held. *)
let find_bare t =
  Rwlock.read_lock t.rw;
  match t.entries with
  | n ->
      Rwlock.read_unlock t.rw;
      n
  | exception e ->
      Rwlock.read_unlock t.rw;
      raise e

(* The release ends the section: this read is unguarded. *)
let find_after_release t =
  Rwlock.read_lock t.rw;
  Rwlock.read_unlock t.rw;
  t.entries
