(* lfbench: one benchmark run of one workload.

     lfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
             --server <path to lfdict.exe> [--out dir]

   Five fresh servers are set up one after another, and each is measured
   for a fifth of the window; [setup_s] is the median setup time, and
   each timing is the median over all the one-second stretches.

   Prints a human-readable report, then, as its last line, one JSON
   object {correct, attempted, failed, metrics}: the end-to-end metrics
   with --trace 0, the per-layer ones with --trace 1.  Exits 1 on a wrong
   reply, 2 on bad arguments or a harness failure. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: lfbench --workload <kv-lockstep|shard-pipelined|large-pipelined> \
     --seed <n> --seconds <s> --trace <0|1> --server <lfdict.exe> [--out dir]";
  exit 2

let json_number v =
  if Float.is_finite v then
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v
  else "null"

let print_result ~correct ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed m

let servers = 5

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. in
  let trace = ref 0 and server = ref "" and out = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--server" :: v :: rest -> server := v; parse rest
    | "--out" :: v :: rest -> out := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let w = match Workload.find !workload with Some w -> w | None -> usage () in
  if !server = "" || not (Sys.file_exists !server) then usage ();
  if !trace <> 0 && !trace <> 1 then usage ();
  (* Writes to a connection the server already closed must fail, not kill us. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* A wrong reply, over TCP or in an in-process replay, fails the run. *)
  let checked f =
    try f ()
    with Workload.Wrong_answer msg ->
      Printf.printf "WRONG REPLY (%s): %s\n" w.name msg;
      print_result ~correct:false ~attempted:1 ~failed:1 [];
      exit 1
  in
  let r =
    checked (fun () -> Tcpdrive.run ~exe:!server ~seed:!seed ~seconds:!seconds ~servers w)
  in
  let us ns = ns /. 1e3 in
  let pct a p = us (Tcpdrive.percentile a p) in
  let replies = float_of_int (max 1 r.replies) in
  (* Each timing is the median over the window's equal stretches, so a
     burst of outside load in one stretch does not move it. *)
  let timings (c : Tcpdrive.chunk) =
    [
      ("throughput_rps", float_of_int c.n /. c.seconds, "1/s");
      ("latency_p50_us", pct c.lat 0.5, "us");
      ("latency_p99_us", pct c.lat 0.99, "us");
      ("read_p99_us", pct c.reads 0.99, "us");
      ("write_p99_us", pct c.writes 0.99, "us");
      ("server_cpu_us_per_req", c.cpu_s *. 1e6 /. float_of_int (max 1 c.n), "us");
    ]
  in
  let per_chunk = Array.map timings r.chunks in
  let medians =
    List.mapi
      (fun i (name, _, unit) ->
        ( name,
          median
            (Array.to_list
               (Array.map (fun t -> (fun (_, v, _) -> v) (List.nth t i)) per_chunk)),
          unit ))
      (timings r.whole)
  in
  let e2e =
    medians
    @ [
        ( "served_ratio",
          float_of_int (r.attempted - r.errors) /. float_of_int (max 1 r.attempted),
          "ratio" );
        ("server_rss_mb", float_of_int r.hwm_kb /. 1024., "MB");
        ("setup_s", median r.setups, "s");
      ]
  in
  let whole = timings r.whole in
  let note name =
    let w = List.find_map (fun (n, v, _) -> if n = name then Some v else None) whole in
    let count =
      match name with
      | "latency_p50_us" | "latency_p99_us" ->
          Printf.sprintf "n=%d, " r.whole.n
      | "read_p99_us" -> Printf.sprintf "n=%d, " (Array.length r.whole.reads)
      | "write_p99_us" -> Printf.sprintf "n=%d, " (Array.length r.whole.writes)
      | _ -> ""
    in
    match (name, w) with
    | "setup_s", _ ->
        Printf.sprintf "  (median of %s)"
          (String.concat ", " (List.map (Printf.sprintf "%.3f") r.setups))
    | _, Some v ->
        let i = ref 0 in
        List.iteri (fun j (n, _, _) -> if n = name then i := j) whole;
        Printf.sprintf "  (%swhole window %.3f; stretches %s)" count v
          (String.concat " "
             (Array.to_list
                (Array.map
                   (fun t -> (fun (_, v, _) -> Printf.sprintf "%.1f" v) (List.nth t !i))
                   per_chunk)))
    | _, None -> ""
  in
  Printf.printf "workload %s  seed %d  window %.2fs  lines %d  errors %d\n" w.name
    !seed r.whole.seconds r.attempted r.errors;
  List.iter
    (fun (n, v, u) -> Printf.printf "  %-28s %14.3f %-6s%s\n" n v u (note n))
    e2e;
  let metrics =
    if !trace = 0 then e2e
    else begin
      let spans_path =
        if !out = "" then None
        else Some (Filename.concat !out (w.name ^ "-spans.tsv"))
      in
      let l = checked (fun () -> Ledger.run ?spans_path w ~seed:!seed) in
      if l.errors > 0 then
        Printf.printf "in-process replay: %d lines not served\n" l.errors;
      let stack_p50 =
        List.find_map
          (fun (n, v, _) -> if n = "stack.ns_per_req_p50" then Some v else None)
          l.metrics
        |> Option.value ~default:0.
      in
      let per_req x = x /. replies in
      let serve =
        [
          ("serve.write_syscalls_per_req", per_req (float_of_int r.syscw), "count");
          ("serve.read_syscalls_per_req", per_req (float_of_int r.syscr), "count");
          ("serve.outside_stack_us", pct r.whole.lat 0.5 -. us stack_p50, "us");
          ("serve.minor_words_per_req", per_req r.gc.minor_words, "words");
          ("serve.promoted_words_per_req", per_req r.gc.promoted_words, "words");
          ("serve.minor_gcs_per_kreq", 1e3 *. per_req r.gc.minor_gcs, "count");
          ("serve.major_gcs_per_kreq", 1e3 *. per_req r.gc.major_gcs, "count");
          ( "error_ratio",
            float_of_int r.errors /. float_of_int (max 1 r.attempted),
            "ratio" );
          ("latency.samples", float_of_int r.whole.n, "count");
          (* The p999 swings with major-GC pauses from run to run, so it
             is a diagnostic here rather than an end-to-end metric. *)
          ("latency_p999_us", pct r.whole.lat 0.999, "us");
        ]
      in
      List.iter print_endline l.table;
      let all = serve @ l.metrics in
      List.iter (fun (n, v, u) -> Printf.printf "  %-32s %14.3f %s\n" n v u) all;
      all
    end
  in
  print_result ~correct:true ~attempted:r.attempted ~failed:r.errors metrics
