let run budget postings = Array.iter (fun p -> Budget.tick budget; ignore p) postings
