(* gfq — command-line front end for the Graphflow reproduction.

   Subcommands: generate, stats, plan, run, spectrum, catalogue. Graphs come
   either from a file saved by [generate] (--graph) or from a named
   synthetic dataset (--dataset, --scale). *)

open Cmdliner
module Gf = Graphflow
module Json = Gf_util.Json

let die msg =
  prerr_endline ("gfq: " ^ msg);
  exit 1

let load_graph graph_file dataset scale labels seed =
  let g =
    match (graph_file, dataset) with
    | Some path, _ -> (
        match Gf.Graph_io.load_result path with
        | Ok g -> g
        | Error e -> die (Gf.Graph_io.load_error_to_string e))
    | None, Some name -> (
        match Gf.Generators.dataset_name_of_string name with
        | Some d -> Gf.Generators.dataset ~scale d
        | None -> die (Printf.sprintf "unknown dataset %S" name))
    | None, None -> die "provide --graph FILE or --dataset NAME"
  in
  if labels > 1 then Gf.Graph.relabel g (Gf.Rng.create seed) ~num_vlabels:1 ~num_elabels:labels
  else g

(* Common options *)
let graph_file =
  Arg.(value & opt (some string) None & info [ "graph"; "g" ] ~docv:"FILE" ~doc:"Graph file.")

let dataset =
  Arg.(
    value
    & opt (some string) None
    & info [ "dataset"; "d" ] ~docv:"NAME"
        ~doc:"Synthetic dataset: amazon, epinions, google, berkstan, livejournal, twitter, human.")

let scale =
  Arg.(value & opt float 1.0 & info [ "scale" ] ~doc:"Dataset scale factor (default 1.0).")

let labels =
  Arg.(
    value & opt int 1
    & info [ "labels" ] ~doc:"Randomly assign this many edge labels (the paper's Q^J_i setup).")

let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Random seed for labeling.")

let kernel_arg =
  let kernel_conv =
    Arg.enum
      [ ("scalar", Gf.Sorted.Scalar); ("simd", Gf.Sorted.Simd); ("auto", Gf.Sorted.Auto) ]
  in
  Arg.(
    value
    & opt (some kernel_conv) None
    & info [ "kernel" ] ~docv:"KERNEL"
        ~doc:
          "Intersection kernel: $(b,scalar) (portable OCaml), $(b,simd) (vectorized C \
           stubs), or $(b,auto) (probe the CPU; the default). Overrides the GFQ_KERNEL \
           environment variable.")

let apply_kernel k = Option.iter Gf.Sorted.set_kernel_mode k

let query_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "query"; "q" ] ~docv:"PATTERN"
        ~doc:"Query pattern, e.g. 'a1->a2, a2->a3, a1->a3', or Q1..Q14 for the benchmark set.")

(* A parse error rendered with a caret under the offending offset. *)
let show_parse_error (e : Gf.Parse_error.t) =
  Printf.sprintf "parse error: %s\n  %s\n  %s^" e.Gf.Parse_error.message
    e.Gf.Parse_error.input
    (String.make (min e.Gf.Parse_error.pos (String.length e.Gf.Parse_error.input)) ' ')

let parse_query_result s =
  match
    if String.length s >= 2 && s.[0] = 'Q' then int_of_string_opt (String.sub s 1 (String.length s - 1))
    else None
  with
  | Some i -> (
      match Gf.Patterns.q i with
      | q -> Ok q
      | exception (Failure m | Invalid_argument m) -> Error m)
  | None -> (
      (* MATCH (...) patterns go through the Cypher frontend, everything
         else through the edge-list DSL. *)
      let upper = String.uppercase_ascii (String.trim s) in
      if String.length upper >= 5 && String.sub upper 0 5 = "MATCH" then
        match Gf.Cypher.parse_result s with
        | Ok (q, _) -> Ok q
        | Error e -> Error (show_parse_error e)
      else
        match Gf.Query_parser.parse_result s with
        | Ok q -> Ok q
        | Error e -> Error (show_parse_error e))

let parse_query s =
  match parse_query_result s with Ok q -> q | Error msg -> die msg

let generate_cmd =
  let out = Arg.(required & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Output path.") in
  let dataset_pos = Arg.(required & pos 0 (some string) None & info [] ~docv:"DATASET") in
  let go dname scale labels seed out =
    let g = load_graph None (Some dname) scale labels seed in
    Gf.Graph_io.save g out;
    Format.printf "wrote %s: %a@." out Gf.Graph_stats.pp_summary (Gf.Graph_stats.summarize g)
  in
  Cmd.v (Cmd.info "generate" ~doc:"Generate a synthetic dataset and save it.")
    Term.(const go $ dataset_pos $ scale $ labels $ seed $ out)

let snapshot_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Snapshot output path.")
  in
  let go graph_file dataset scale labels seed out =
    let g = load_graph graph_file dataset scale labels seed in
    let t0 = Unix.gettimeofday () in
    Gf.Graph_io.save_snapshot g out;
    let save_s = Unix.gettimeofday () -. t0 in
    let t1 = Unix.gettimeofday () in
    match Gf.Graph_io.load_snapshot_result out with
    | Error e -> die (Gf.Graph_io.load_error_to_string e)
    | Ok g2 ->
        let load_s = Unix.gettimeofday () -. t1 in
        let r = Gf.Graph.residency g2 in
        Format.printf
          "wrote %s: n=%d m=%d, %d bytes off-heap (%d-byte neighbour ids)@.save: %.3fs, \
           mmap load+verify: %.6fs@."
          out (Gf.Graph.num_vertices g2) (Gf.Graph.num_edges g2) r.Gf.Graph.offheap_bytes
          r.Gf.Graph.nbr_width save_s load_s
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:
         "Write a graph as an mmap-loadable binary snapshot and verify it loads. All \
          graph-reading commands auto-detect snapshots by their magic bytes.")
    Term.(const go $ graph_file $ dataset $ scale $ labels $ seed $ out)

let stats_cmd =
  let go graph_file dataset scale labels seed =
    let g = load_graph graph_file dataset scale labels seed in
    let r = Gf.Graph.residency g in
    Format.printf "%a@.storage: %d bytes off-heap (%d in hub bitmap rows), %d bytes heap@."
      Gf.Graph_stats.pp_summary (Gf.Graph_stats.summarize g) r.Gf.Graph.offheap_bytes
      r.Gf.Graph.row_bytes r.Gf.Graph.heap_bytes
  in
  Cmd.v (Cmd.info "stats" ~doc:"Print structural statistics of a graph.")
    Term.(const go $ graph_file $ dataset $ scale $ labels $ seed)

let plan_cmd =
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz dot instead of text.") in
  let go graph_file dataset scale labels seed qs dot =
    let g = load_graph graph_file dataset scale labels seed in
    let db = Gf.Db.create g in
    let q = parse_query qs in
    if dot then
      let p, _ = Gf.Db.plan db q in
      print_string (Gf.Plan.to_dot p)
    else print_string (Gf.Db.explain db q)
  in
  Cmd.v (Cmd.info "plan" ~doc:"Show the optimizer's plan for a query.")
    Term.(const go $ graph_file $ dataset $ scale $ labels $ seed $ query_arg $ dot)

(* --- wire client: one line out, one line back --------------------------- *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

(* [dial ep] connects to [ep], or exits with a message. With [retry_s], a
   refused or not-yet-created socket is retried every 100 ms until that
   many seconds have passed: the server may still be starting. With
   [reply_timeout_s], a read or write blocked that long raises [Sys_error],
   so a hung server fails a soak instead of stalling it. *)
let dial ?retry_s ?reply_timeout_s ep =
  let sockaddr =
    match ep with
    | Gf_server.Server.Unix_path path -> Unix.ADDR_UNIX path
    | Gf_server.Server.Tcp (h, p) ->
        let addr =
          try Unix.inet_addr_of_string h
          with Failure _ -> (Unix.gethostbyname h).Unix.h_addr_list.(0)
        in
        Unix.ADDR_INET (addr, p)
  in
  let deadline = Unix.gettimeofday () +. Option.value retry_s ~default:0. in
  let rec go () =
    let fd = Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0 in
    match Unix.connect fd sockaddr with
    | () ->
        Option.iter
          (fun t ->
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO t;
            Unix.setsockopt_float fd Unix.SO_SNDTIMEO t)
          reply_timeout_s;
        { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if (e = Unix.ECONNREFUSED || e = Unix.ENOENT) && Unix.gettimeofday () < deadline
        then begin
          Unix.sleepf 0.1;
          go ()
        end
        else
          die
            (Printf.sprintf "could not connect to %s: %s"
               (Gf_cluster.Topology.endpoint_to_string ep)
               (Unix.error_message e))
  in
  go ()

(* One request line out, one reply line back; [None] if the server closed
   the connection first. *)
let ask c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  try Some (input_line c.ic) with End_of_file -> None

let hang_up c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* [ask] for the interactive commands: a missing reply ends the process. *)
let ask_or_die c line =
  match ask c line with
  | Some reply -> reply
  | None -> die "server closed the connection before replying"

(* A connection for a single request. I/O errors count as no reply. *)
let oneshot ?retry_s ?reply_timeout_s ep line =
  let c = dial ?retry_s ?reply_timeout_s ep in
  let r = try ask c line with Sys_error _ -> None in
  hang_up c;
  r

(* A server reply as a JSON value; [None] for a line that is not JSON. *)
let reply_json line = Result.to_option (Json.parse line)

(* The Chrome trace inside a [trace id=N] reply, printed bare. *)
let trace_body reply =
  Option.map Json.to_string (Option.bind (reply_json reply) (Json.member "trace"))

let write_trace_file ~id ~path body =
  let oc = open_out path in
  output_string oc body;
  output_char oc '\n';
  close_out oc;
  Printf.printf "trace %d -> %s\n" id path

let run_cmd =
  let adaptive = Arg.(value & flag & info [ "adaptive" ] ~doc:"Adaptive QVO selection.") in
  let limit = Arg.(value & opt (some int) None & info [ "limit" ] ~doc:"Stop after N matches.") in
  let timeout_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:"Wall-clock deadline; the run returns a truncated outcome when it trips.")
  in
  let max_rows =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-rows" ] ~docv:"N" ~doc:"Output-row cap (like --limit, reported as truncation).")
  in
  let max_intermediate =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-intermediate" ] ~docv:"N" ~doc:"Cap on intermediate tuples produced.")
  in
  let max_bytes =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-bytes" ] ~docv:"B"
          ~doc:"Cap on approximate bytes of materialized state (join tables, batches).")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:"Execute on N domains with the morsel-driven parallel executor.")
  in
  let explain_analyze =
    Arg.(
      value & flag
      & info [ "explain-analyze" ]
          ~doc:
            "Profile per-operator actuals and print them joined against the optimizer's \
             estimates (cardinality and cost q-errors per operator).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the run (counters, outcome, per-operator rows) as one JSON object.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"After the run, print the Prometheus text exposition of the query metrics.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Record a full span trace of the run (planner, executor, per-domain morsels, \
             per-operator summary) and write it as Chrome trace-event JSON — load the file \
             at ui.perfetto.dev or chrome://tracing.")
  in
  let trace_tree =
    Arg.(
      value & flag
      & info [ "trace-tree" ]
          ~doc:"Record a span trace and print it as an indented tree on stdout.")
  in
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:
            "Run the query on a running gfq serve instead of locally: ADDR is unix:PATH or \
             tcp:HOST:PORT. Against a cluster coordinator with --trace-out, fetches the \
             stitched cross-process trace — coordinator attempts plus every worker that \
             served a shard, on their own process tracks — as one Chrome trace file.")
  in
  (* Remote mode: the serving process executes and traces; we just speak the
     wire protocol and, for --trace-out, pull the retained trace back out of
     its flight recorder. *)
  let run_remote ~addr ~qs ~timeout_ms ~max_output ~trace_out =
    let ep =
      match Gf_cluster.Topology.parse_endpoint addr with Ok e -> e | Error m -> die m
    in
    let c = dial ep in
    let ask = ask_or_die c in
    let opts = Buffer.create 32 in
    Option.iter (fun ms -> Buffer.add_string opts (Printf.sprintf " timeout_ms=%d" ms)) timeout_ms;
    Option.iter (fun n -> Buffer.add_string opts (Printf.sprintf " max_rows=%d" n)) max_output;
    if trace_out <> None then Buffer.add_string opts " trace";
    let reply = ask (Printf.sprintf "run%s q=%s" (Buffer.contents opts) qs) in
    print_endline reply;
    (match trace_out with
    | None -> ()
    | Some path -> (
        match Option.bind (reply_json reply) (Json.int "trace_id") with
        | None -> die "reply carries no trace_id (did the server refuse the run?)"
        | Some id -> (
            let treply = ask (Printf.sprintf "trace id=%d" id) in
            match trace_body treply with
            | Some body -> write_trace_file ~id ~path body
            | None ->
                prerr_endline treply;
                exit 1)));
    hang_up c
  in
  let go graph_file dataset scale labels seed qs kernel adaptive limit timeout_ms max_rows
      max_intermediate max_bytes domains explain_analyze json metrics trace_out trace_tree
      connect =
    apply_kernel kernel;
    let remote_max_output =
      match (limit, max_rows) with
      | Some a, Some b -> Some (min a b)
      | (Some _ as a), None -> a
      | None, b -> b
    in
    match connect with
    | Some addr ->
        if explain_analyze || json || trace_tree then
          die "--connect supports plain runs (drop --explain-analyze/--json/--trace-tree)";
        run_remote ~addr ~qs ~timeout_ms ~max_output:remote_max_output ~trace_out
    | None ->
    let g = load_graph graph_file dataset scale labels seed in
    let db = Gf.Db.create g in
    let q = parse_query qs in
    let max_output = remote_max_output in
    let budget =
      Gf.Governor.budget
        ?deadline_s:(Option.map (fun ms -> float_of_int ms /. 1000.) timeout_ms)
        ?max_output ?max_intermediate ?max_bytes ()
    in
    let trace =
      if trace_out <> None || trace_tree then Some (Gf.Trace.create ()) else None
    in
    if explain_analyze || json then begin
      if trace <> None then
        die "--trace-out/--trace-tree need a plain run (drop --explain-analyze/--json)";
      (* [--json] implies a profiled run so the envelope always carries the
         per-operator rows. *)
      let a = Gf.Db.explain_analyze ~adaptive ~domains ~budget db q in
      if json then print_endline (Gf.Db.analysis_to_json a)
      else print_string (Gf.Db.analysis_to_string a)
    end
    else begin
      let t0 = Unix.gettimeofday () in
      let c, outcome = Gf.Db.run_gov ~adaptive ~domains ~budget ?trace db q in
      let secs = Unix.gettimeofday () -. t0 in
      Format.printf "matches: %d@.outcome: %a@.time: %.3fs@.kernel: %s (%s build)@.%a@."
        c.Gf.Counters.output Gf.Governor.pp_outcome outcome secs (Gf.Sorted.kernel_name ())
        Gf.Build_info.profile Gf.Counters.pp c
    end;
    Option.iter
      (fun tr ->
        Option.iter
          (fun path ->
            let oc = open_out path in
            output_string oc (Gf.Trace.to_chrome_json tr);
            output_char oc '\n';
            close_out oc;
            Format.printf "trace: %d spans (%d dropped) -> %s@." (List.length (Gf.Trace.spans tr))
              (Gf.Trace.dropped tr) path)
          trace_out;
        if trace_tree then print_string (Gf.Trace.render tr))
      trace;
    if metrics then print_string (Gf.Db.metrics_exposition ())
  in
  Cmd.v (Cmd.info "run" ~doc:"Optimize and execute a query under an optional budget.")
    Term.(
      const go $ graph_file $ dataset $ scale $ labels $ seed $ query_arg $ kernel_arg
      $ adaptive $ limit $ timeout_ms $ max_rows $ max_intermediate $ max_bytes $ domains
      $ explain_analyze $ json $ metrics $ trace_out $ trace_tree $ connect)

let spectrum_cmd =
  let go graph_file dataset scale labels seed qs =
    let g = load_graph graph_file dataset scale labels seed in
    let db = Gf.Db.create g in
    let q = parse_query qs in
    let s = Gf.Spectrum.run g q in
    let picked, _ = Gf.Db.plan db q in
    print_string (Gf.Spectrum.summary s ~picked_signature:(Gf.Plan.signature picked))
  in
  Cmd.v (Cmd.info "spectrum" ~doc:"Run every plan in the query's plan spectrum.")
    Term.(const go $ graph_file $ dataset $ scale $ labels $ seed $ query_arg)

let catalogue_cmd =
  let h = Arg.(value & opt int 3 & info [ "H"; "max-pattern" ] ~doc:"Max pattern size (paper's h).") in
  let z = Arg.(value & opt int 1000 & info [ "z"; "samples" ] ~doc:"Sample size (paper's z).") in
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:"Persist the built catalogue (crash-safe: temp file + rename).")
  in
  let load =
    Arg.(
      value
      & opt (some string) None
      & info [ "load" ] ~docv:"FILE"
          ~doc:"Load a previously saved catalogue instead of building one.")
  in
  let go graph_file dataset scale labels seed h z save load =
    let g = load_graph graph_file dataset scale labels seed in
    match load with
    | Some path -> (
        match Gf.Catalog.load_result g path with
        | Ok cat ->
            Format.printf "catalogue: %d entries (h=%d z=%d) loaded from %s@."
              (Gf.Catalog.num_entries cat) (Gf.Catalog.h cat) (Gf.Catalog.z cat) path
        | Error e -> die (Gf.Catalog.load_error_to_string e))
    | None ->
        let cat = Gf.Catalog.create ~h ~z g in
        let t0 = Unix.gettimeofday () in
        let n = Gf.Catalog.build_exhaustive cat in
        let secs = Unix.gettimeofday () -. t0 in
        Format.printf "catalogue: %d entries (h=%d z=%d) built in %.2fs@." n h z secs;
        Option.iter
          (fun path ->
            Gf.Catalog.save cat path;
            Format.printf "saved to %s@." path)
          save
  in
  Cmd.v (Cmd.info "catalogue" ~doc:"Build, save, or load the exhaustive subgraph catalogue.")
    Term.(const go $ graph_file $ dataset $ scale $ labels $ seed $ h $ z $ save $ load)

(* --- serve: the resilient query service over a socket ------------------ *)

let endpoint_arg_of socket port host =
  match (socket, port) with
  | Some path, None -> Gf_server.Server.Unix_path path
  | None, Some p -> Gf_server.Server.Tcp (host, p)
  | Some _, Some _ -> die "provide --socket or --port, not both"
  | None, None -> die "provide --socket PATH or --port N"

let endpoint_to_string = function
  | Gf_server.Server.Unix_path p -> "unix:" ^ p
  | Gf_server.Server.Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let port_arg =
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"N" ~doc:"TCP port.")

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"TCP host.")

let serve_cmd =
  let workers =
    Arg.(
      value & opt int 4
      & info [ "workers" ] ~docv:"N"
          ~doc:"Requests executed at once, each on its connection's thread (at least 1).")
  in
  let queue =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:"Admission-queue capacity; excess requests are shed with a structured rejection.")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:"First-rung parallelism of the retry ladder (<= 1 skips the parallel rung).")
  in
  let timeout_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS" ~doc:"Default per-request deadline.")
  in
  let max_rows =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-rows" ] ~docv:"N" ~doc:"Default output-row cap per request.")
  in
  let max_intermediate =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-intermediate" ] ~docv:"N" ~doc:"Default intermediate-tuple cap per request.")
  in
  let degraded_timeout_ms =
    Arg.(
      value & opt int 2000
      & info [ "degraded-timeout-ms" ] ~docv:"MS"
          ~doc:"Deadline of the final (reduced-budget) ladder rung.")
  in
  let backoff_ms =
    Arg.(
      value & opt int 50
      & info [ "backoff-ms" ] ~docv:"MS" ~doc:"Base retry backoff (doubles per attempt, jittered).")
  in
  let backoff_cap_ms =
    Arg.(value & opt int 1000 & info [ "backoff-cap-ms" ] ~docv:"MS" ~doc:"Backoff ceiling.")
  in
  let breaker_window =
    Arg.(value & opt int 32 & info [ "breaker-window" ] ~docv:"N" ~doc:"Breaker sliding window.")
  in
  let breaker_min =
    Arg.(
      value & opt int 8
      & info [ "breaker-min" ] ~docv:"N" ~doc:"Minimum samples before the breaker may open.")
  in
  let breaker_threshold =
    Arg.(
      value & opt float 0.5
      & info [ "breaker-threshold" ] ~docv:"F" ~doc:"Failure fraction that opens the breaker.")
  in
  let breaker_cooldown_ms =
    Arg.(
      value & opt int 5000
      & info [ "breaker-cooldown-ms" ] ~docv:"MS"
          ~doc:"Time the breaker stays open before half-opening on a probe.")
  in
  let fault_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "fault-seed" ] ~docv:"SEED"
          ~env:(Cmd.Env.info "GFQ_FAULT_SEED")
          ~doc:"Chaos source: deterministically inject first-attempt faults into ~1/4 of requests.")
  in
  let data_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "data-dir" ] ~docv:"DIR"
          ~doc:
            "Durable store directory (checksummed snapshot + write-ahead log). Enables the \
             addedge/deledge/addvertex/delvertex/checkpoint wire commands; on restart the \
             graph is recovered from the newest valid snapshot plus WAL replay. \
             --graph/--dataset only seed the genesis graph the first time the directory is \
             used (default: an empty graph).")
  in
  let merge_threshold =
    Arg.(
      value
      & opt int Gf_wal.Store.default_config.Gf_wal.Store.merge_threshold
      & info [ "merge-threshold" ] ~docv:"N"
          ~doc:"Merge the delta overlay into a fresh CSR after N pending operations (0 = only at checkpoint).")
  in
  let segment_bytes =
    Arg.(
      value
      & opt int Gf_wal.Store.default_config.Gf_wal.Store.segment_bytes
      & info [ "segment-bytes" ] ~docv:"B" ~doc:"WAL segment rotation threshold in bytes.")
  in
  let sync_every_append =
    Arg.(
      value & flag
      & info [ "sync-every-append" ]
          ~doc:"fsync after every WAL record instead of group commit (slower, strictest durability).")
  in
  let snapshots_kept =
    Arg.(
      value
      & opt int Gf_wal.Store.default_config.Gf_wal.Store.snapshots_kept
      & info [ "snapshots-kept" ] ~docv:"N"
          ~doc:"Snapshot generations retained as fallback against bit rot.")
  in
  let plan_cache_cap =
    Arg.(
      value
      & opt int Gf.Plan_cache.default_capacity
      & info [ "plan-cache" ] ~docv:"N"
          ~doc:
            "Plan-cache capacity: recurring queries are served by cached plans (keyed by \
             canonical pattern + graph version) and converge on true-cost plans via \
             profiled-execution feedback. 0 disables the cache.")
  in
  let worker_node =
    Arg.(
      value
      & opt (some string) None
      & info [ "worker" ] ~docv:"NODE"
          ~doc:
            "Cluster worker role: answer hello handshakes and shard requests (ranged slices \
             of a query's driving scan) on top of the normal wire protocol. NODE is this \
             worker's id in handshakes and shard replies.")
  in
  let coordinator =
    Arg.(
      value
      & opt (some string) None
      & info [ "coordinator" ] ~docv:"FILE"
          ~doc:
            "Cluster coordinator role: route each run request as shard requests to the \
             workers listed in FILE (lines of 'shard <id> <endpoint> [<replica>...]'), with \
             per-shard circuit breakers, health-aware replica failover, and request \
             hedging. Needs no local graph.")
  in
  let attach_snap =
    Arg.(
      value
      & opt (some string) None
      & info [ "attach-snapshot" ] ~docv:"DIR"
          ~doc:
            "Serve the newest valid snapshot in a store directory read-only — no WAL \
             replay, no write lock, instant start. The worker-role fast path: many workers \
             can attach the same store.")
  in
  let hedge_ms =
    Arg.(
      value & opt int 250
      & info [ "hedge-ms" ] ~docv:"MS"
          ~doc:
            "Coordinator: hedge a shard request to the next replica after MS without an \
             answer (0 disables hedging).")
  in
  let rpc_timeout_ms =
    Arg.(
      value & opt int 10_000
      & info [ "rpc-timeout-ms" ] ~docv:"MS" ~doc:"Coordinator: per-attempt shard RPC deadline.")
  in
  let cluster_retries =
    Arg.(
      value & opt int 2
      & info [ "cluster-retries" ] ~docv:"N"
          ~doc:"Coordinator: extra endpoint attempts per shard after the first fails.")
  in
  let metrics_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ] ~docv:"PORT"
          ~doc:
            "Expose GET /metrics (Prometheus text exposition of every gf_* series) and GET \
             /healthz on this HTTP port, on any role — plain server, worker, or \
             coordinator. 0 picks a free port (printed at startup).")
  in
  let go graph_file dataset scale labels seed kernel socket port host workers queue domains
      timeout_ms max_rows max_intermediate degraded_timeout_ms backoff_ms backoff_cap_ms
      breaker_window breaker_min breaker_threshold breaker_cooldown_ms fault_seed data_dir
      merge_threshold segment_bytes sync_every_append snapshots_kept plan_cache_cap
      worker_node coordinator attach_snap hedge_ms rpc_timeout_ms cluster_retries
      metrics_port =
    apply_kernel kernel;
    if workers < 1 then die "--workers must be at least 1";
    let endpoint = endpoint_arg_of socket port host in
    (* The exposition listener serves the process-wide registry, so one
       endpoint covers whatever roles this process plays. *)
    let exposer =
      Option.map
        (fun p ->
          match
            Gf_obs.Expose.start ~port:p
              [
                ( "/metrics",
                  fun () -> ("text/plain; version=0.0.4", Gf.Db.metrics_exposition ()) );
                ("/healthz", fun () -> ("text/plain", "ok\n"));
              ]
          with
          | Ok ex ->
              Format.printf "gfq serve: metrics on http://127.0.0.1:%d/metrics@."
                (Gf_obs.Expose.port ex);
              Format.print_flush ();
              ex
          | Error m -> die ("metrics-port: " ^ m))
        metrics_port
    in
    let stop_exposer () = Option.iter Gf_obs.Expose.stop exposer in
    let breaker =
      {
        Gf_server.Breaker.window = breaker_window;
        min_samples = breaker_min;
        failure_threshold = breaker_threshold;
        cooldown_s = float_of_int breaker_cooldown_ms /. 1000.;
      }
    in
    match coordinator with
    | Some conf_file ->
        (* Coordinator role: no local graph — the hook answers every
           data-path line from the cluster; only ping/metrics/shutdown fall
           through to the (empty) hosting service. *)
        let topo =
          match Gf_cluster.Topology.load conf_file with
          | Ok t -> t
          | Error m -> die ("coordinator: " ^ m)
        in
        let config =
          {
            Gf_cluster.Coordinator.default_config with
            rpc_timeout_s = float_of_int rpc_timeout_ms /. 1000.;
            retries = cluster_retries;
            hedge_after_s =
              (if hedge_ms <= 0 then None else Some (float_of_int hedge_ms /. 1000.));
            breaker;
          }
        in
        let coord = Gf_cluster.Coordinator.create ~config topo in
        let db =
          Gf.Db.create (Gf.Graph.build ~num_vlabels:1 ~num_elabels:1 ~vlabel:[||] ~edges:[||])
        in
        let service = Gf_server.Service.create db in
        Gf_server.Server.serve
          ~hook:(Gf_cluster.Coordinator.hook coord)
          ~on_ready:(fun ep ->
            Format.printf
              "gfq serve: coordinator listening on %s (%d shards, hedge=%dms \
               rpc-timeout=%dms retries=%d)@."
              (endpoint_to_string ep)
              (Gf_cluster.Topology.num_shards topo)
              hedge_ms rpc_timeout_ms cluster_retries;
            Format.print_flush ())
          service endpoint;
        Gf_cluster.Coordinator.stop coord;
        stop_exposer ();
        Format.printf "gfq serve: drained, exiting@."
    | None ->
    if attach_snap <> None && data_dir <> None then
      die "provide --attach-snapshot or --data-dir, not both";
    let attached =
      Option.map
        (fun dir ->
          match Gf_wal.Store.attach_snapshot dir with
          | Ok (file, wv, g) ->
              Format.printf "gfq serve: attached snapshot %s v%d (read-only, n=%d m=%d)@."
                file wv (Gf.Graph.num_vertices g) (Gf.Graph.num_edges g);
              g
          | Error m -> die ("attach-snapshot: " ^ m))
        attach_snap
    in
    let g =
      match attached with
      | Some g -> g
      | None -> (
          match (data_dir, graph_file, dataset) with
          | Some _, None, None ->
              (* Durable store with no genesis source: start empty (or recover). *)
              Gf.Graph.build ~num_vlabels:1 ~num_elabels:1 ~vlabel:[||] ~edges:[||]
          | _ -> load_graph graph_file dataset scale labels seed)
    in
    let store =
      Option.map
        (fun dir ->
          let config =
            {
              Gf_wal.Store.segment_bytes;
              sync_every_append;
              merge_threshold;
              snapshots_kept;
            }
          in
          match Gf_wal.Store.open_store ~config ~init:g dir with
          | Error e -> die ("store: " ^ Gf_wal.Store.open_error_to_string e)
          | Ok st ->
              let r = Gf_wal.Store.recovery_info st in
              List.iter (fun w -> Format.printf "gfq serve: store warning: %s@." w) r.Gf_wal.Store.warnings;
              Format.printf "gfq serve: store %s: version %d (%s, %d wal records replayed)@."
                dir (Gf_wal.Store.version st)
                (match r.Gf_wal.Store.snapshot with
                | Some (file, v) -> Printf.sprintf "snapshot %s v%d" file v
                | None -> "no snapshot")
                r.Gf_wal.Store.replayed;
              st)
        data_dir
    in
    let plan_cache =
      if plan_cache_cap <= 0 then None
      else Some (Gf.Plan_cache.create ~capacity:plan_cache_cap ())
    in
    let db =
      Gf.Db.create ?plan_cache
        (match store with Some st -> Gf_wal.Store.graph st | None -> g)
    in
    let ladder =
      {
        Gf_server.Ladder.domains;
        budget =
          Gf.Governor.budget
            ?deadline_s:(Option.map (fun ms -> float_of_int ms /. 1000.) timeout_ms)
            ?max_output:max_rows ?max_intermediate ();
        degraded_budget =
          Gf.Governor.budget
            ~deadline_s:(float_of_int degraded_timeout_ms /. 1000.)
            ~max_output:(Option.value max_rows ~default:10_000)
            ~max_intermediate:(Option.value max_intermediate ~default:1_000_000)
            ();
        backoff_base_s = float_of_int backoff_ms /. 1000.;
        backoff_cap_s = float_of_int backoff_cap_ms /. 1000.;
      }
    in
    let config =
      { Gf_server.Service.default_config with queue_capacity = queue; workers; ladder; breaker; fault_seed; seed }
    in
    let service = Gf_server.Service.create ~config db in
    Option.iter (Gf_server.Service.attach_store service) store;
    let hook =
      match worker_node with
      | None -> None
      | Some node ->
          if Gf_cluster.Cfault.arm_from_env () then
            Format.printf "gfq serve: cluster fault armed from GFQ_CLUSTER_FAULT@.";
          let served =
            match store with Some st -> Gf_wal.Store.graph st | None -> g
          in
          let w =
            Gf_cluster.Worker.create ~node
              ~n:(Gf.Graph.num_vertices served)
              ~m:(Gf.Graph.num_edges served)
              service
          in
          Some (Gf_cluster.Worker.hook w)
    in
    Gf_server.Server.serve ?hook
      ~on_ready:(fun ep ->
        Format.printf
          "gfq serve: listening on %s (workers=%d queue=%d domains=%d plan-cache=%d%s%s%s)@."
          (endpoint_to_string ep) workers queue domains (max 0 plan_cache_cap)
          (match fault_seed with
          | Some s -> Printf.sprintf " fault-seed=%d" s
          | None -> "")
          (match data_dir with Some d -> " data-dir=" ^ d | None -> "")
          (match worker_node with Some n -> " worker=" ^ n | None -> "");
        Format.print_flush ())
      service endpoint;
    Option.iter Gf_wal.Store.close store;
    stop_exposer ();
    Format.printf "gfq serve: drained, exiting@."
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve queries over a socket: bounded admission queue, retry-with-degradation \
          ladder, circuit breaker, graceful drain on shutdown. With --data-dir, durable \
          graph mutations (write-ahead logged, crash-recoverable). With --worker or \
          --coordinator, a node of a fault-tolerant sharded cluster.")
    Term.(
      const go $ graph_file $ dataset $ scale $ labels $ seed $ kernel_arg $ socket_arg
      $ port_arg $ host_arg $ workers $ queue $ domains $ timeout_ms $ max_rows
      $ max_intermediate $ degraded_timeout_ms $ backoff_ms $ backoff_cap_ms
      $ breaker_window $ breaker_min $ breaker_threshold $ breaker_cooldown_ms $ fault_seed
      $ data_dir $ merge_threshold $ segment_bytes $ sync_every_append $ snapshots_kept
      $ plan_cache_cap $ worker_node $ coordinator $ attach_snap $ hedge_ms $ rpc_timeout_ms
      $ cluster_retries $ metrics_port)

(* --- soak: a concurrent client driver for CI and load checks ----------- *)

(* Multi-process cluster torture: spawn real worker and coordinator
   processes (this very binary) on unix sockets in a temp dir, drive the
   coordinator, and check that every reply is honestly classified even
   while a worker kill-9s itself between shard dispatch and reply. *)
let cluster_soak spec ~dataset ~scale ~clients ~requests ~soak_seed ~connect_timeout_s
    ~replicas ~kill_worker ~crash =
  let n_coord, n_workers =
    match String.split_on_char 'x' spec with
    | [ c; w ] -> (
        match (int_of_string_opt c, int_of_string_opt w) with
        | Some c, Some w when c >= 1 && w >= 1 -> (c, w)
        | _ -> die "soak: --topology expects CxW, e.g. 1x4")
    | _ -> die "soak: --topology expects CxW, e.g. 1x4"
  in
  if n_coord <> 1 then die "soak: only one coordinator is supported (use 1xW)";
  Option.iter
    (fun i -> if i < 0 || i >= n_workers then die "soak: --kill index out of range")
    kill_worker;
  let dir = Filename.temp_file "gfq-cluster" "" in
  Unix.unlink dir;
  Unix.mkdir dir 0o700;
  Printf.printf "soak: cluster dir %s\n%!" dir;
  (* Genesis graph -> read-only snapshot every worker attaches. *)
  let dname = Option.value dataset ~default:"amazon" in
  let g = load_graph None (Some dname) scale 1 7 in
  let store_dir = Filename.concat dir "store" in
  Unix.mkdir store_dir 0o700;
  Gf.Graph_io.save_snapshot g (Filename.concat store_dir "snap.0000000000000001.gfq");
  let triangle = "a1->a2, a2->a3, a1->a3" in
  let square = "a1->a2, a2->a3, a3->a4, a1->a4" in
  (* Ground truth: a completed cluster reply must carry exactly this count —
     anything less is a silent undercount and fails the soak. *)
  let expected = Gf.Db.count (Gf.Db.create g) (parse_query triangle) in
  let wsock i = Filename.concat dir (Printf.sprintf "w%d.sock" i) in
  let csock = Filename.concat dir "coord.sock" in
  let base_env =
    Array.of_list
      (List.filter
         (fun kv -> not (String.length kv >= 18 && String.sub kv 0 18 = "GFQ_CLUSTER_FAULT="))
         (Array.to_list (Unix.environment ())))
  in
  let spawn argv ~log ~fault =
    let env =
      match fault with
      | None -> base_env
      | Some f -> Array.append base_env [| "GFQ_CLUSTER_FAULT=" ^ f |]
    in
    let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
    let pid = Unix.create_process_env Sys.executable_name argv env Unix.stdin fd fd in
    Unix.close fd;
    pid
  in
  let worker_argv i =
    [|
      Sys.executable_name; "serve"; "--worker"; Printf.sprintf "w%d" i;
      "--attach-snapshot"; store_dir; "--socket"; wsock i; "--workers"; "2";
    |]
  in
  let spawn_worker ?fault i =
    spawn (worker_argv i) ~log:(Filename.concat dir (Printf.sprintf "w%d.log" i)) ~fault
  in
  let conf = Filename.concat dir "workers.conf" in
  let oc = open_out conf in
  let reps = max 1 (min replicas n_workers) in
  for i = 0 to n_workers - 1 do
    output_string oc (Printf.sprintf "shard %d" i);
    for r = 0 to reps - 1 do
      output_string oc (Printf.sprintf " unix:%s" (wsock ((i + r) mod n_workers)))
    done;
    output_char oc '\n'
  done;
  close_out oc;
  (* In crash mode worker 0 self-SIGKILLs on its 6th shard dispatch: the
     kill lands mid-query, between receiving the morsel and replying. *)
  let pids =
    Array.init n_workers (fun i ->
        let fault = if crash && i = 0 then Some "worker-kill:6" else None in
        spawn_worker ?fault i)
  in
  let coord_pid =
    spawn
      [|
        Sys.executable_name; "serve"; "--coordinator"; conf; "--socket"; csock;
        "--hedge-ms"; "150"; "--rpc-timeout-ms"; "5000"; "--cluster-retries"; "2";
      |]
      ~log:(Filename.concat dir "coord.log") ~fault:None
  in
  (* Until the teardown below has reaped them, every exit (a [die] in
     [dial] included) kills -9 and reaps the workers and the coordinator.
     Holding [sup_mu] keeps the supervisor from restarting a worker. *)
  let sup_mu = Mutex.create () in
  let reaped = ref false in
  at_exit (fun () ->
      if not !reaped then begin
        Mutex.lock sup_mu;
        let kill pid =
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
        in
        Array.iter kill pids;
        kill coord_pid
      end);
  let node path = Gf_server.Server.Unix_path path in
  let oneshot ?(retry_s = connect_timeout_s) path line =
    oneshot ~retry_s ~reply_timeout_s:30.0 (node path) line
  in
  (* Wait until every node answers a ping: before opening fire, and before
     teardown, so a worker killed late is back up before the supervisor
     stops and the shutdown requests go out. *)
  let await_nodes () =
    for i = 0 to n_workers - 1 do
      ignore (oneshot (wsock i) "ping")
    done;
    ignore (oneshot csock "ping")
  in
  await_nodes ();
  (* Supervisor: restart any worker that dies (the armed one, or the one we
     kill from outside) — restarts attach the same snapshot, fault disarmed. *)
  let restarts = ref 0 in
  let stop_sup = ref false in
  let supervisor =
    Thread.create
      (fun () ->
        while not !stop_sup do
          Mutex.lock sup_mu;
          Array.iteri
            (fun i pid ->
              match Unix.waitpid [ Unix.WNOHANG ] pid with
              | 0, _ -> ()
              | _, _ ->
                  incr restarts;
                  Printf.printf "soak: worker %d (pid %d) died; restarting\n%!" i pid;
                  pids.(i) <- spawn_worker i
              | exception Unix.Unix_error _ -> ())
            pids;
          Mutex.unlock sup_mu;
          Thread.delay 0.1
        done)
      ()
  in
  let killer =
    Option.map
      (fun i ->
        Thread.create
          (fun () ->
            Thread.delay 1.0;
            Mutex.lock sup_mu;
            let pid = pids.(i) in
            Mutex.unlock sup_mu;
            Printf.printf "soak: kill -9 worker %d (pid %d)\n%!" i pid;
            try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
          ())
      (match (kill_worker, crash) with
      | Some i, _ -> Some i
      | None, true when n_workers > 1 -> Some 1
      | None, _ -> None)
  in
  let bad = ref 0 in
  let completed = ref 0 and truncated = ref 0 and partial = ref 0 in
  let failed = ref 0 and refused = ref 0 in
  let tally = Mutex.create () in
  let count r = Mutex.lock tally; incr r; Mutex.unlock tally in
  let flag_bad why line =
    Mutex.lock tally;
    incr bad;
    Mutex.unlock tally;
    Printf.eprintf "soak: BAD (%s): %s\n%!" why line
  in
  let validate kind line =
    match reply_json line with
    | None -> flag_bad "malformed reply" line
    | Some v ->
        let outcome = Option.value (Json.str "outcome" v) ~default:"" in
        if outcome = "completed" then
          if kind = `Exact && Json.int "matches" v <> Some expected then
            flag_bad "completed reply with silent undercount" line
          else count completed
        else if String.starts_with ~prefix:"truncated" outcome then count truncated
        else if outcome = "partial" then
          if Json.list "incomplete_shards" v = [] then
            flag_bad "partial reply names no missing shard" line
          else count partial
        else if outcome = "failed" then count failed
        else if kind = `Stats then
          if Json.str "type" v = Some "cluster_stats" then count completed
          else flag_bad "stats" line
        else if Json.bool "ok" v = Some false then
          if kind = `Mutate then count refused else flag_bad "unexpected refusal" line
        else flag_bad "unclassified reply" line
  in
  let client ci =
    let c = dial ~retry_s:connect_timeout_s ~reply_timeout_s:30.0 (node csock) in
    let rng = Gf.Rng.create (soak_seed lxor (ci * 0x9e3779b9)) in
    (try
       for _ = 1 to requests do
         let line, kind =
           match Gf.Rng.int rng 10 with
           | 0 | 1 | 2 | 3 | 4 | 5 -> ("run q=" ^ triangle, `Exact)
           | 6 -> ("run rows=1 max_rows=5 q=" ^ square, `Any)
           | 7 -> ("stats", `Stats)
           | 8 ->
               (Printf.sprintf "addedge %d %d" (Gf.Rng.int rng 64) (Gf.Rng.int rng 64), `Mutate)
           | _ -> ("run q=" ^ square, `Any)
         in
         match ask c line with
         | Some reply -> validate kind reply
         | None -> flag_bad "connection closed mid-session" line
       done
     with Sys_error _ | Unix.Unix_error _ -> flag_bad "client i/o error (hung?)" "");
    hang_up c
  in
  let threads = List.init clients (fun i -> Thread.create client i) in
  List.iter Thread.join threads;
  Option.iter Thread.join killer;
  await_nodes ();
  (* Read coordinator stats and metrics before teardown. *)
  let ask_json line = Option.bind (oneshot csock line) reply_json in
  let failovers =
    Option.value (Option.bind (ask_json "stats") (Json.int "failovers")) ~default:0
  in
  let failovers_metric =
    Option.bind (ask_json "metrics") (Json.str "metrics")
    |> Option.value ~default:""
    |> String.split_on_char '\n'
    |> List.find_map (fun l ->
           match String.split_on_char ' ' l with
           | [ "gf_cluster_failovers_total"; n ] -> int_of_string_opt n
           | _ -> None)
    |> Option.value ~default:0
  in
  Printf.printf "soak: gf_cluster_failovers_total=%d\n%!" failovers_metric;
  stop_sup := true;
  Thread.join supervisor;
  ignore (oneshot csock "shutdown");
  for i = 0 to n_workers - 1 do
    ignore (oneshot ~retry_s:2.0 (wsock i) "shutdown")
  done;
  ignore (Unix.waitpid [] coord_pid);
  Array.iter (fun pid -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()) pids;
  reaped := true;
  Printf.printf
    "soak --topology 1x%d: %d clients x %d requests: completed=%d truncated=%d partial=%d \
     failed=%d refused=%d malformed=%d failovers=%d restarts=%d (expected matches=%d)\n"
    n_workers clients requests !completed !truncated !partial !failed !refused !bad failovers
    !restarts expected;
  let tortured = crash || kill_worker <> None in
  if tortured && min failovers failovers_metric = 0 then begin
    Printf.eprintf "soak: FAIL: a worker died but no shard failed over to a replica\n";
    exit 1
  end;
  if !completed = 0 then begin
    Printf.eprintf "soak: FAIL: no request completed\n";
    exit 1
  end;
  exit (if !bad > 0 then 1 else 0)

let soak_cmd =
  let clients =
    Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client connections.")
  in
  let requests =
    Arg.(value & opt int 25 & info [ "requests" ] ~docv:"N" ~doc:"Requests per client.")
  in
  let soak_seed =
    Arg.(value & opt int 11 & info [ "seed" ] ~docv:"SEED" ~doc:"Request-mix seed.")
  in
  let send_shutdown =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Send a shutdown request after the clients finish.")
  in
  let connect_timeout_s =
    Arg.(
      value & opt float 15.0
      & info [ "connect-timeout" ] ~docv:"S" ~doc:"Give up connecting after this long.")
  in
  let mutate_pct =
    Arg.(
      value & opt int 0
      & info [ "mutate" ] ~docv:"PCT"
          ~doc:
            "Make PCT percent of each client's requests graph mutations \
             (addedge/deledge/addvertex/delvertex/checkpoint) instead of queries — needs a \
             server running with --data-dir.")
  in
  let crash =
    Arg.(
      value & flag
      & info [ "crash" ]
          ~doc:
            "Crash-torture mode: no server needed. Fork a durable-store writer, kill -9 it \
             at each WAL/checkpoint fault point across a seed matrix, recover, and verify \
             the store came back as exactly the acknowledged prefix. Exits nonzero on any \
             lost or phantom write.")
  in
  let crash_seeds =
    Arg.(
      value & opt int 8
      & info [ "crash-seeds" ] ~docv:"N" ~doc:"Seeds per fault point in --crash mode.")
  in
  let topology =
    Arg.(
      value
      & opt (some string) None
      & info [ "topology" ] ~docv:"CxW"
          ~doc:
            "Cluster soak: spawn C coordinators (only 1 supported) and W worker processes \
             on unix sockets in a temp dir, wire them with replicated shards, and drive the \
             coordinator with the client mix. Every reply must be classified — completed \
             (with the exact full match count), truncated, or partial with its missing \
             shards named; anything else fails the soak. With --crash, one worker kill-9s \
             itself between shard dispatch and reply and is restarted, and the run asserts \
             at least one replica failover.")
  in
  let replicas =
    Arg.(
      value & opt int 2
      & info [ "replicas" ] ~docv:"N"
          ~doc:"Endpoints per shard in --topology mode (primary + N-1 replicas).")
  in
  let kill_worker =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill" ] ~docv:"I"
          ~doc:"In --topology mode: kill -9 worker I from outside mid-soak (it restarts).")
  in
  let go socket port host clients requests soak_seed send_shutdown connect_timeout_s
      mutate_pct crash crash_seeds topology dataset scale replicas kill_worker =
    match topology with
    | Some spec -> cluster_soak spec ~dataset ~scale ~clients ~requests ~soak_seed
                     ~connect_timeout_s ~replicas ~kill_worker ~crash
    | None ->
    if crash then begin
      (* Fork-based: must run before any thread is spawned. *)
      let points =
        [
          Gf_wal.Fault.Wal_mid_record;
          Gf_wal.Fault.Wal_pre_fsync;
          Gf_wal.Fault.Wal_mid_rotation;
          Gf_wal.Fault.Checkpoint_mid_rename;
        ]
      in
      let rounds = ref 0 and failures = ref 0 in
      for i = 0 to crash_seeds - 1 do
        let seed = soak_seed + (i * 131) in
        List.iteri
          (fun pi p ->
            incr rounds;
            (* Rare points (rotation, checkpoint) fire a handful of times per
               run; frequent ones every append. Scale the armed hit count so
               the crash usually lands mid-run. *)
            let after =
              match p with
              | Gf_wal.Fault.Wal_mid_record | Gf_wal.Fault.Wal_pre_fsync ->
                  1 + ((seed + (pi * 17)) mod 60)
              | Gf_wal.Fault.Wal_mid_rotation | Gf_wal.Fault.Checkpoint_mid_rename ->
                  1 + ((seed + pi) mod 3)
            in
            let cfg = { (Gf_wal.Torture.default ~seed) with crash = Some (p, after) } in
            match Gf_wal.Torture.run cfg with
            | Ok o ->
                Printf.printf "crash %-22s seed=%-4d after=%-2d %s\n%!"
                  (Gf_wal.Fault.point_to_string p) seed after (Gf_wal.Torture.pp_outcome o)
            | Error m ->
                incr failures;
                Printf.printf "crash %-22s seed=%-4d after=%-2d FAIL: %s\n%!"
                  (Gf_wal.Fault.point_to_string p) seed after m)
          points
      done;
      Printf.printf "soak --crash: %d rounds, %d failures\n" !rounds !failures;
      exit (if !failures > 0 then 1 else 0)
    end;
    let endpoint = endpoint_arg_of socket port host in
    (* The request mix: well-behaved runs, budget-tripping runs (truncate),
       and fault-injected runs (exercise the retry ladder). *)
    let request_line rng =
      let triangle = "a1->a2, a2->a3, a1->a3" in
      let square = "a1->a2, a2->a3, a3->a4, a1->a4" in
      match Gf.Rng.int rng 5 with
      | 0 | 1 -> "run q=" ^ triangle
      | 2 -> "run rows=1 max_rows=5 q=" ^ square
      | 3 -> Printf.sprintf "run max_intermediate=%d q=%s" (50 + Gf.Rng.int rng 200) square
      | _ -> Printf.sprintf "run fault_at=%d q=%s" (1 + Gf.Rng.int rng 500) triangle
    in
    (* Mutations stay within a small id range so most are valid whatever
       the server's graph; an occasional checkpoint exercises snapshotting
       under concurrent queries. *)
    let mutation_line rng =
      match Gf.Rng.int rng 10 with
      | 0 | 1 -> "addvertex"
      | 2 | 3 | 4 | 5 ->
          Printf.sprintf "addedge %d %d" (Gf.Rng.int rng 64) (Gf.Rng.int rng 64)
      | 6 | 7 -> Printf.sprintf "deledge %d %d" (Gf.Rng.int rng 64) (Gf.Rng.int rng 64)
      | 8 -> Printf.sprintf "delvertex %d" (Gf.Rng.int rng 64)
      | _ -> "checkpoint"
    in
    let request_line rng =
      if mutate_pct > 0 && Gf.Rng.int rng 100 < mutate_pct then mutation_line rng
      else request_line rng
    in
    let bad = ref 0 and ok_n = ref 0 and rejected_n = ref 0 and err_n = ref 0 in
    let tally = Mutex.create () in
    let validate line =
      Mutex.lock tally;
      (match reply_json line with
      | Some v when Json.bool "ok" v = Some true -> incr ok_n
      | Some v when Json.str "error" v = Some "rejected" -> incr rejected_n
      | Some v when Json.bool "ok" v = Some false -> incr err_n
      | _ ->
          incr bad;
          Printf.eprintf "soak: malformed response: %s\n%!" line);
      Mutex.unlock tally
    in
    let client i =
      let c = dial ~retry_s:connect_timeout_s ~reply_timeout_s:30.0 endpoint in
      let rng = Gf.Rng.create (soak_seed lxor (i * 0x9e3779b9)) in
      (try
         for _ = 1 to requests do
           match ask c (request_line rng) with
           | Some line -> validate line
           | None ->
               Mutex.lock tally;
               incr bad;
               Mutex.unlock tally;
               Printf.eprintf "soak: connection closed mid-session\n%!"
         done
       with Sys_error _ | Unix.Unix_error _ ->
         Mutex.lock tally;
         incr bad;
         Mutex.unlock tally);
      hang_up c
    in
    let threads = List.init clients (fun i -> Thread.create client i) in
    List.iter Thread.join threads;
    if send_shutdown then begin
      match oneshot ~retry_s:connect_timeout_s ~reply_timeout_s:30.0 endpoint "shutdown" with
      | Some line when Option.bind (reply_json line) (Json.bool "ok") = Some true -> ()
      | _ -> incr bad
    end;
    Printf.printf "soak: %d clients x %d requests: ok=%d rejected=%d error=%d malformed=%d\n"
      clients requests !ok_n !rejected_n !err_n !bad;
    if !bad > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Drive a running gfq serve with concurrent clients mixing good, budget-tripping, \
          faulted, and (with --mutate) durable-mutation requests; exit nonzero on any \
          malformed response. With --crash, run the fork/kill-9 durability torture matrix \
          instead (no server needed). With --topology CxW, spawn and torture a whole \
          cluster (no server needed either).")
    Term.(
      const go $ socket_arg $ port_arg $ host_arg $ clients $ requests $ soak_seed
      $ send_shutdown $ connect_timeout_s $ mutate_pct $ crash $ crash_seeds $ topology
      $ dataset $ scale $ replicas $ kill_worker)

(* --- slowlog: read a running server's flight recorder ------------------ *)

let slowlog_cmd =
  let count =
    Arg.(value & opt int 10 & info [ "n"; "count" ] ~docv:"N" ~doc:"Records to fetch.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Fetch the service health snapshot (the stats wire command).")
  in
  let trace_id =
    Arg.(
      value
      & opt (some int) None
      & info [ "trace" ] ~docv:"ID"
          ~doc:"Fetch the retained span trace for a flight-recorder record id.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:
            "With --trace: strip the wire envelope and write the bare Chrome trace JSON to \
             FILE, ready for ui.perfetto.dev.")
  in
  let go socket port host count stats trace_id out =
    let endpoint = endpoint_arg_of socket port host in
    let c = dial endpoint in
    let ask = ask_or_die c in
    (match (stats, trace_id) with
    | true, _ -> print_endline (ask "stats")
    | false, Some id -> (
        let reply = ask (Printf.sprintf "trace id=%d" id) in
        match trace_body reply with
        | Some body -> (
            match out with
            | Some path -> write_trace_file ~id ~path body
            | None -> print_endline body)
        | None ->
            prerr_endline reply;
            exit 1)
    | false, None -> print_endline (ask (Printf.sprintf "slowlog %d" count)));
    hang_up c
  in
  Cmd.v
    (Cmd.info "slowlog"
       ~doc:
         "Read a running gfq serve's always-on flight recorder: recent query records, the \
          stats health snapshot, or a retained span trace by id.")
    Term.(const go $ socket_arg $ port_arg $ host_arg $ count $ stats $ trace_id $ out)

(* --- top: a refreshing terminal dashboard over the stats command -------- *)

let top_cmd =
  let interval =
    Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"S" ~doc:"Refresh period in seconds.")
  in
  let frames =
    Arg.(
      value & opt int 0
      & info [ "count" ] ~docv:"N"
          ~doc:
            "Render N frames then exit (0 = refresh until interrupted; 1 prints a single \
             frame without clearing the screen).")
  in
  let fmt_ms v = match v with Some f -> Printf.sprintf "%.1f" f | None -> "-" in
  let render addr frame reply =
    let b = Buffer.create 1024 in
    let v = Option.value (reply_json reply) ~default:Json.Null in
    let inum o k = Option.value (Json.int k o) ~default:0 in
    let ms o k = fmt_ms (Json.float k o) in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
    if Json.str "type" v = Some "cluster_stats" then begin
      line "gfq top — %s — coordinator %s (frame %d)" addr
        (Option.value (Json.str "node" v) ~default:"?")
        frame;
      line "requests %d   failovers %d   hedges %d (wins %d)   shards %d" (inum v "requests")
        (inum v "failovers") (inum v "hedges") (inum v "hedge_wins") (inum v "shards");
      line "request latency  p50 %sms  p95 %sms  p99 %sms" (ms v "p50_ms") (ms v "p95_ms")
        (ms v "p99_ms");
      (match Json.list "shard_latency" v with
      | [] -> ()
      | shards ->
          line "";
          line "%5s %8s %8s %8s %8s" "shard" "count" "p50ms" "p95ms" "p99ms";
          List.iter
            (fun o ->
              line "%5d %8d %8s %8s %8s" (inum o "shard") (inum o "count") (ms o "p50_ms")
                (ms o "p95_ms") (ms o "p99_ms"))
            shards);
      match Json.list "fleet" v with
      | [] -> ()
      | fleet ->
          line "";
          line "fleet:";
          List.iter
            (fun o ->
              let ep = Option.value (Json.str "endpoint" o) ~default:"?" in
              match (Json.str "error" o, Json.member "stats" o) with
              | Some e, _ -> line "  %-32s DOWN  %s" ep e
              | None, st ->
                  let st = Option.value st ~default:Json.Null in
                  line "  %-32s up    done=%d fail=%d q=%d p99=%sms wal=v%d/%d cache=%d" ep
                    (inum st "completed") (inum st "failed") (inum st "queue_depth")
                    (ms st "p99_ms") (inum st "wal_version") (inum st "wal_pending")
                    (inum st "plan_cache_entries"))
            fleet
    end
    else begin
      (* A plain server: show its own health line. *)
      line "gfq top — %s (frame %d)" addr frame;
      line "completed %d   failed %d   retries %d   queue %d   breaker %s" (inum v "completed")
        (inum v "failed") (inum v "retries") (inum v "queue_depth")
        (Option.value (Json.str "breaker" v) ~default:"?");
      line "latency  p50 %sms  p95 %sms  p99 %sms" (ms v "p50_ms") (ms v "p95_ms")
        (ms v "p99_ms")
    end;
    Buffer.contents b
  in
  let go socket port host interval frames =
    let endpoint = endpoint_arg_of socket port host in
    let addr = endpoint_to_string endpoint in
    let c = dial endpoint in
    let ask = ask_or_die c in
    let frame = ref 0 in
    let continue () = frames <= 0 || !frame < frames in
    while continue () do
      incr frame;
      let reply = ask "stats" in
      if frames <> 1 then print_string "\027[2J\027[H";
      print_string (render addr !frame reply);
      flush stdout;
      if continue () then Unix.sleepf (Float.max 0.05 interval)
    done;
    hang_up c
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal dashboard over a running gfq serve: polls the stats wire command \
          and renders it. Against a cluster coordinator, shows cluster-wide request \
          counters, per-shard latency quantiles, and every worker's own health \
          (pulled and merged by the coordinator).")
    Term.(const go $ socket_arg $ port_arg $ host_arg $ interval $ frames)

let shell_cmd =
  let go graph_file dataset scale labels seed =
    let g = load_graph graph_file dataset scale labels seed in
    let db = Gf.Db.create g in
    (* In the shell a parse error must not exit the process. *)
    let parse_query s =
      match parse_query_result s with Ok q -> q | Error m -> failwith m
    in
    Format.printf "graphflow shell — %a@." Gf.Graph_stats.pp_summary
      (Gf.Graph_stats.summarize ~samples:200 g);
    print_endline
      "enter a pattern (DSL or MATCH ...) to count it; \\p PATTERN explains; \\e PATTERN\n\
       estimates cardinality; \\a PATTERN runs adaptively; \\q quits.";
    let rec loop () =
      print_string "gfq> ";
      match try Some (read_line ()) with End_of_file -> None with
      | None -> ()
      | Some line ->
          let line = String.trim line in
          let continue = ref true in
          (try
             if line = "" then ()
             else if line = "\\q" then continue := false
             else if String.length line >= 2 && line.[0] = '\\' then begin
               let cmd = line.[1] in
               let rest = String.trim (String.sub line 2 (String.length line - 2)) in
               let q = parse_query rest in
               match cmd with
               | 'p' -> print_string (Gf.Db.explain db q)
               | 'e' -> Format.printf "estimated %.1f matches@." (Gf.Db.estimate_cardinality db q)
               | 'a' ->
                   let t0 = Unix.gettimeofday () in
                   let c, _ = Gf.Db.run_gov ~adaptive:true db q in
                   Format.printf "%d matches in %.3fs (adaptive)@." c.Gf.Counters.output
                     (Unix.gettimeofday () -. t0)
               | _ -> print_endline "unknown command; \\p \\e \\a \\q"
             end
             else begin
               let q = parse_query line in
               let t0 = Unix.gettimeofday () in
               let c, _ = Gf.Db.run_gov db q in
               Format.printf "%d matches in %.3fs (i-cost %d, cache hits %d)@."
                 c.Gf.Counters.output
                 (Unix.gettimeofday () -. t0)
                 c.Gf.Counters.icost c.Gf.Counters.cache_hits
             end
           with
          | Failure m -> print_endline ("error: " ^ m)
          | Invalid_argument m -> print_endline ("error: " ^ m));
          if !continue then loop ()
    in
    loop ()
  in
  Cmd.v
    (Cmd.info "shell" ~doc:"Interactive query shell over a loaded graph.")
    Term.(const go $ graph_file $ dataset $ scale $ labels $ seed)

let () =
  let info = Cmd.info "gfq" ~doc:"Subgraph queries with hybrid worst-case optimal plans." in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd;
            snapshot_cmd;
            stats_cmd;
            plan_cmd;
            run_cmd;
            spectrum_cmd;
            catalogue_cmd;
            serve_cmd;
            soak_cmd;
            slowlog_cmd;
            top_cmd;
            shell_cmd;
          ]))
