(* A run's outcome and its result line.

   The workload reports its metrics by name; run.py checks them against
   BENCHMARK.json, which alone holds the metric names and units, and
   prints the contract's result line. *)

module Json = Xks_trace.Json

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb ?(pid = "self") () =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] ->
                 Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                     float_of_int kb /. 1024.)
             | _ -> None)
      |> Option.value ~default:0.

type outcome = {
  attempted : int;
  failed : int;  (* failed, refused or wrong-answer operations *)
  metrics : (string * float) list;
  meta : (string * Json.t) list;
  digest : string;  (* of the results, to compare two commits' outputs *)
  problems : string list;  (* failed checks, for the log *)
}

(* {"correct", "attempted", "failed", "metrics": {name: value}};
   %.17g keeps every digit of the measurement. *)
let result_line o =
  let metric (name, value) = Printf.sprintf "%S: %.17g" name value in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (o.failed = 0 && o.problems = [])
    o.attempted o.failed
    (String.concat ", " (List.map metric o.metrics))

(* Online CPUs, as nproc counts them. *)
let nproc () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | exception Sys_error _ -> 1
  | text ->
      String.split_on_char '\n' text
      |> List.filter (fun l -> String.starts_with ~prefix:"processor" l)
      |> List.length |> max 1
