let audit postings =
  let run () = List.iter (fun p -> ignore p) postings in
  run ()
