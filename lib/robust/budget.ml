type reason = Deadline | Node_budget

exception Exhausted of reason

type t = {
  deadline : float option;  (* absolute seconds on [now]'s clock *)
  max_nodes : int option;
  now : unit -> float;
  check_interval : int;
  mutable visited : int;
  mutable until_clock : int;  (* ticked nodes left before a clock check *)
}

let create ?(now = Unix.gettimeofday) ?(check_interval = 128) ?deadline_ms
    ?max_nodes () =
  (match deadline_ms with
  | Some ms when ms < 0 -> invalid_arg "Budget.create: negative deadline"
  | _ -> ());
  (match max_nodes with
  | Some n when n < 0 -> invalid_arg "Budget.create: negative node budget"
  | _ -> ());
  if check_interval <= 0 then
    invalid_arg "Budget.create: non-positive check interval";
  let deadline =
    Option.map (fun ms -> now () +. (float_of_int ms /. 1000.)) deadline_ms
  in
  { deadline; max_nodes; now; check_interval; visited = 0; until_clock = 0 }

let check_deadline b =
  match b.deadline with
  | Some d when b.now () > d -> raise (Exhausted Deadline)
  | _ -> ()

let check_nodes b =
  match b.max_nodes with
  | Some m when b.visited > m -> raise (Exhausted Node_budget)
  | _ -> ()

let check b =
  check_nodes b;
  check_deadline b

let tick b n =
  Xks_trace.Trace.incr Xks_trace.Trace.Budget_ticks;
  b.visited <- b.visited + n;
  check_nodes b;
  if b.deadline <> None then begin
    b.until_clock <- b.until_clock - n;
    if b.until_clock <= 0 then begin
      b.until_clock <- b.check_interval;
      check_deadline b
    end
  end

let tick_opt bo n = match bo with None -> () | Some b -> tick b n
let visited b = b.visited

let reason_to_string = function
  | Deadline -> "deadline"
  | Node_budget -> "node budget"
