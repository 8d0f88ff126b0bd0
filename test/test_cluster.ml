(* The cluster layer: shard protocol, topology parsing, ranged-scan
   partitioning, the worker hook, and the coordinator's failure ladder —
   replica failover, per-shard breakers, hedging, and honest partial
   results. End-to-end tests run real servers on unix sockets inside this
   process; the kill -9 variants live in the multi-process soak
   ([gfq soak --topology]), where SIGKILL cannot take the test runner
   down with it. *)

module Gf = Graphflow
module Breaker = Gf_server.Breaker
module Ladder = Gf_server.Ladder
module Service = Gf_server.Service
module Server = Gf_server.Server
module Wire = Gf_server.Wire
module Governor = Gf.Governor
module Proto = Gf_cluster.Proto
module Topology = Gf_cluster.Topology
module Worker = Gf_cluster.Worker
module Coordinator = Gf_cluster.Coordinator
module Cfault = Gf_cluster.Cfault
module Json = Gf_util.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let has hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  nn = 0 || at 0

let parse_json line = match Json.parse line with Ok v -> v | Error e -> Alcotest.fail e
let reply_int line key = Json.int key (parse_json line)

let graph () =
  Gf.Generators.holme_kim (Gf.Rng.create 11) ~n:300 ~m_per:4 ~p_triad:0.6 ~recip:0.3

let triangle = Gf.Patterns.q 1
let triangle_text = "a1->a2, a2->a3, a1->a3"

let sorted_rows rows = List.sort compare (List.map Array.to_list rows)

let reference db q =
  let rows = ref [] in
  let c, o = Gf.Db.run_gov ~sink:(fun r -> rows := Array.copy r :: !rows) db q in
  check_bool "reference completed" true (o = Governor.Completed);
  (sorted_rows !rows, c.Gf.Counters.output)

(* --- protocol ---------------------------------------------------------- *)

let test_proto_roundtrip () =
  (match Proto.parse_hello (Proto.hello_req ~node:"w3" ~role:"worker") with
  | Ok h ->
      check_int "proto" Proto.version h.Proto.p_proto;
      check_string "node" "w3" h.Proto.p_node;
      check_string "role" "worker" h.Proto.p_role
  | Error m -> Alcotest.fail m);
  check_bool "future proto parses" true
    (match Proto.parse_hello "hello proto=99 node=x role=y" with
    | Ok h -> h.Proto.p_proto = 99
    | Error _ -> false);
  check_bool "missing proto refused" true
    (Result.is_error (Proto.parse_hello "hello node=x"));
  let resp = Proto.hello_resp ~node:"w0" ~n:10 ~m:20 ~graph_version:3 ~clock_us:1234 in
  check_bool "hello resp n" true (reply_int resp "n" = Some 10);
  check_bool "hello resp clock" true (reply_int resp "clock_us" = Some 1234);
  check_bool "hello resp m" true (reply_int resp "m" = Some 20);
  check_bool "hello resp gv" true (reply_int resp "graph_version" = Some 3);
  let mm = Proto.version_mismatch ~node:"w0" ~theirs:99 in
  check_bool "mismatch structured" true
    (has mm "\"ok\":false" && has mm "\"error\":\"version_mismatch\"" && has mm "\"theirs\":99");
  (* Shard request line: part + options + query text, parsed back into a
     Service.request carrying the part. *)
  let line =
    Proto.shard_req ~part:(1, 4) ~timeout_ms:250 ~max_rows:10 ~rows:true triangle_text
  in
  (match Proto.parse_shard line with
  | Ok (req, ctx) ->
      check_bool "untraced" true (ctx = None && not req.Service.trace);
      check_bool "part" true (req.Service.part = Some (1, 4));
      check_bool "timeout" true (req.Service.timeout_ms = Some 250);
      check_bool "max_rows" true (req.Service.max_rows = Some 10);
      check_bool "rows" true req.Service.collect_rows;
      check_string "text preserved" triangle_text req.Service.text
  | Error m -> Alcotest.fail m);
  check_bool "bad part refused" true
    (Result.is_error (Proto.parse_part "part=4/4"));
  check_bool "degenerate part refused" true
    (Result.is_error (Proto.parse_part "part=0/0"));
  check_bool "shard without part refused" true
    (Result.is_error (Proto.parse_shard "shard q=Q1"));
  (match
     Proto.parse_shard
       (Proto.shard_req ~part:(0, 2) ~trace_ctx:(5, "shard-0") ~rows:false triangle_text)
   with
  | Ok (req, ctx) ->
      check_bool "trace context" true (ctx = Some (5, "shard-0") && req.Service.trace)
  | Error m -> Alcotest.fail m);
  (* Text after q= is query text, never an option: a trace_id in it gives
     the request no trace context; the query parser sees it and refuses. *)
  let smuggled = triangle_text ^ " trace_id=5" in
  (match Wire.parse_options ("part=0/2 q=" ^ smuggled) (fun _ _ -> ()) with
  | Ok q -> check_string "q= consumes the rest" smuggled q
  | Error m -> Alcotest.fail m);
  match Proto.parse_shard ("shard part=0/2 q=" ^ smuggled) with
  | Ok (_, ctx) -> check_bool "no trace context from query text" true (ctx = None)
  | Error m -> check_bool "refused by the query parser" true (has m "parse error")

let test_run_resp_shape () =
  let r =
    Proto.run_resp ~id:7 ~outcome:"partial" ~matches:41 ~shards:4 ~incomplete:[ 2 ]
      ~failovers:1 ~hedges:0 ~retries:3 ~exec_s:0.25 ~rows:[] ()
  in
  check_bool "ok" true (has r "\"ok\":true");
  check_bool "outcome" true (has r "\"outcome\":\"partial\"");
  check_bool "incomplete named" true (has r "\"incomplete_shards\":[2]");
  check_bool "matches" true (reply_int r "matches" = Some 41);
  check_bool "failovers" true (reply_int r "failovers" = Some 1);
  check_bool "no rows key when absent" true (not (has r "\"rows\""))

(* --- topology ---------------------------------------------------------- *)

let test_topology_parse () =
  let t =
    match
      Topology.parse
        "# comment\nshard 0 unix:/tmp/a.sock unix:/tmp/b.sock\n\nshard 1 tcp:127.0.0.1:7001\n"
    with
    | Ok t -> t
    | Error m -> Alcotest.fail m
  in
  check_int "shards" 2 (Topology.num_shards t);
  check_int "replicas of shard 0" 2 (List.length t.Topology.shards.(0).Topology.endpoints);
  check_string "primary first" "unix:/tmp/a.sock"
    (Topology.endpoint_to_string (List.hd t.Topology.shards.(0).Topology.endpoints));
  check_bool "gap in ids refused" true
    (Result.is_error (Topology.parse "shard 0 unix:/a\nshard 2 unix:/b\n"));
  check_bool "duplicate id refused" true
    (Result.is_error (Topology.parse "shard 0 unix:/a\nshard 0 unix:/b\n"));
  check_bool "bad endpoint refused" true
    (Result.is_error (Topology.parse "shard 0 carrier-pigeon:/a\n"));
  check_bool "empty refused" true (Result.is_error (Topology.parse "# nothing\n"))

(* --- ranged-scan sharding ---------------------------------------------- *)

let test_scan_part_exact_union () =
  (* The invariant the whole cluster rests on: disjoint parts of the
     driving scan union into exactly the full result — same count, same
     rows, no overlap, for any k. *)
  let db = Gf.Db.create (graph ()) in
  let expected_rows, expected = reference db triangle in
  List.iter
    (fun k ->
      let total = ref 0 in
      let rows = ref [] in
      for i = 0 to k - 1 do
        let c, o =
          Gf.Db.run_gov ~scan_part:(i, k)
            ~sink:(fun r -> rows := Array.copy r :: !rows)
            db triangle
        in
        check_bool "part completed" true (o = Governor.Completed);
        total := !total + c.Gf.Counters.output
      done;
      check_int (Printf.sprintf "k=%d count" k) expected !total;
      check_bool
        (Printf.sprintf "k=%d rows" k)
        true
        (sorted_rows !rows = expected_rows))
    [ 1; 2; 3; 5; 8 ]

(* --- ladder: deadline-aware backoff ------------------------------------ *)

let test_ladder_backoff_respects_deadline () =
  (* A retry storm near the deadline must not sleep past it: every backoff
     is capped at the remaining budget, hitting zero at the edge. *)
  let db = Gf.Db.create (graph ()) in
  let clock = ref 0.0 in
  let sleeps = ref [] in
  let cfg =
    {
      Ladder.domains = 1;
      budget = Governor.budget ~deadline_s:0.5 ();
      degraded_budget = Governor.budget ~deadline_s:0.5 ~max_output:10 ();
      backoff_base_s = 10.0 (* would sleep 5-10 s unclamped *);
      backoff_cap_s = 60.0;
    }
  in
  let r =
    Ladder.run
      ~sleep:(fun d ->
        sleeps := d :: !sleeps;
        clock := !clock +. d)
      ~now:(fun () -> !clock)
      ~fault:{ Governor.at_tuple = 1; operator = "test" }
      ~fault_attempts:max_int ~rng:(Gf.Rng.create 3) cfg db triangle
  in
  check_bool "retried" true (r.Ladder.attempts > 1);
  check_bool "some backoff taken" true (!sleeps <> []);
  List.iter
    (fun d -> check_bool "backoff within deadline budget" true (d <= 0.5 +. 1e-9))
    !sleeps;
  (* The clamp bottoms out at zero rather than going negative. *)
  List.iter (fun d -> check_bool "backoff non-negative" true (d >= 0.0)) !sleeps;
  (* Total sleep can never exceed the deadline itself. *)
  check_bool "total sleep within deadline" true
    (List.fold_left ( +. ) 0.0 !sleeps <= 0.5 +. 1e-9)

(* --- worker hook ------------------------------------------------------- *)

let worker_service ?(workers = 2) g =
  let ladder =
    {
      Ladder.domains = 1;
      budget = Governor.unlimited;
      degraded_budget = Governor.budget ~max_output:10 ();
      backoff_base_s = 0.001;
      backoff_cap_s = 0.01;
    }
  in
  let config = { Service.default_config with Service.workers; ladder } in
  Service.create ~config (Gf.Db.create g)

let test_worker_hook () =
  let g = graph () in
  let svc = worker_service g in
  let w =
    Worker.create ~node:"w7" ~n:(Gf.Graph.num_vertices g) ~m:(Gf.Graph.num_edges g) svc
  in
  let hook = Worker.hook w in
  (* Handshake: matching proto gets the fingerprint, a mixed-version pair
     is refused with a structured error. *)
  (match hook (Proto.hello_req ~node:"c" ~role:"coordinator") with
  | `Reply r ->
      check_bool "hello ok" true (has r "\"ok\":true");
      check_bool "hello n" true
        (reply_int r "n" = Some (Gf.Graph.num_vertices g))
  | _ -> Alcotest.fail "hello must reply");
  (match hook "hello proto=99 node=c role=coordinator" with
  | `Reply r -> check_bool "mixed version refused" true (has r "version_mismatch")
  | _ -> Alcotest.fail "bad hello must reply");
  (* A shard request executes just its slice. *)
  let db = Gf.Db.create g in
  let _, expected = reference db triangle in
  let m0, m1 =
    let matches part =
      match hook (Proto.shard_req ~part ~rows:false triangle_text) with
      | `Reply r ->
          check_bool "shard ok" true (has r "\"ok\":true");
          check_bool "shard completed" true (has r "\"outcome\":\"completed\"");
          Option.value (reply_int r "matches") ~default:(-1)
      | _ -> Alcotest.fail "shard must reply"
    in
    (matches (0, 2), matches (1, 2))
  in
  check_int "parts sum to full count" expected (m0 + m1);
  (* Non-cluster lines fall through to the normal wire protocol. *)
  check_bool "ping passes through" true (hook "ping" = `Pass);
  check_bool "run passes through" true (hook ("run q=" ^ triangle_text) = `Pass);
  Service.drain svc

let test_worker_fault_sites () =
  let g = graph () in
  let svc = worker_service g in
  let w =
    Worker.create ~node:"w0" ~n:(Gf.Graph.num_vertices g) ~m:(Gf.Graph.num_edges g) svc
  in
  let hook = Worker.hook w in
  let line = Proto.shard_req ~part:(0, 2) ~rows:false triangle_text in
  (* conn-drop: the connection dies without a reply byte — the
     coordinator-visible shape of a worker kill -9 mid-dispatch. *)
  Cfault.arm Cfault.Conn_drop ~after:1;
  check_bool "conn-drop closes" true (hook line = `Close);
  check_bool "fault disarmed after firing" true (hook line <> `Close);
  (* split-refusal: a worker that no longer believes it owns the shard
     refuses loudly instead of answering wrong. *)
  Cfault.arm Cfault.Split_refusal ~after:1;
  (match hook line with
  | `Reply r ->
      check_bool "not_owner" true (has r "\"error\":\"not_owner\"" && has r "\"ok\":false")
  | _ -> Alcotest.fail "split refusal must reply");
  Cfault.disarm ();
  Service.drain svc

(* --- end-to-end over sockets ------------------------------------------- *)

let tmpdir () =
  let dir = Filename.temp_file "gfclu" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

(* A worker server on a unix socket, shut down via its own wire command. *)
type live_worker = { path : string; thread : Thread.t; svc : Service.t }

let start_worker ~dir ~node g =
  let path = Filename.concat dir (node ^ ".sock") in
  let svc = worker_service g in
  let w =
    Worker.create ~node ~n:(Gf.Graph.num_vertices g) ~m:(Gf.Graph.num_edges g) svc
  in
  let ready_m = Mutex.create () and ready_cv = Condition.create () in
  let ready = ref false in
  let thread =
    Thread.create
      (fun () ->
        Server.serve ~hook:(Worker.hook w)
          ~on_ready:(fun _ ->
            Mutex.lock ready_m;
            ready := true;
            Condition.broadcast ready_cv;
            Mutex.unlock ready_m)
          svc (Server.Unix_path path))
      ()
  in
  Mutex.lock ready_m;
  while not !ready do
    Condition.wait ready_cv ready_m
  done;
  Mutex.unlock ready_m;
  { path; thread; svc }

let stop_worker lw =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.connect fd (Unix.ADDR_UNIX lw.path) with
  | () ->
      let oc = Unix.out_channel_of_descr fd in
      output_string oc "shutdown\n";
      flush oc;
      (try ignore (input_line (Unix.in_channel_of_descr fd)) with _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ( try Unix.close fd with Unix.Unix_error _ -> ()));
  Thread.join lw.thread

let coord_config ?(hedge = None) ?(retries = 2) ?(breaker = Breaker.default_config) () =
  {
    Coordinator.default_config with
    Coordinator.connect_timeout_s = 0.5;
    rpc_timeout_s = 5.0;
    retries;
    hedge_after_s = hedge;
    breaker;
    probe_interval_s = 0.2;
    probe_timeout_s = 0.2;
  }

let run_req () =
  match Wire.parse_request ("run rows q=" ^ triangle_text) with
  | Ok (Wire.Run req) -> req
  | _ -> Alcotest.fail "run request must parse"

let test_cluster_end_to_end () =
  let g = graph () in
  let db = Gf.Db.create g in
  let expected_rows, expected = reference db triangle in
  let dir = tmpdir () in
  let w0 = start_worker ~dir ~node:"w0" g in
  let w1 = start_worker ~dir ~node:"w1" g in
  let topo =
    match
      Topology.parse
        (Printf.sprintf "shard 0 unix:%s unix:%s\nshard 1 unix:%s unix:%s\n" w0.path
           w1.path w1.path w0.path)
    with
    | Ok t -> t
    | Error m -> Alcotest.fail m
  in
  let coord = Coordinator.create ~config:(coord_config ()) topo in
  (* Healthy cluster: the sharded answer is the exact full answer. *)
  let r = Coordinator.run coord ~text:triangle_text (run_req ()) in
  check_string "outcome" "completed" r.Coordinator.r_outcome;
  check_int "matches" expected r.Coordinator.r_matches;
  check_bool "rows exact" true (sorted_rows r.Coordinator.r_rows = expected_rows);
  check_bool "no failovers" true (r.Coordinator.r_failovers = 0);
  check_bool "nothing incomplete" true (r.Coordinator.r_incomplete = []);
  let reply = Coordinator.to_reply r in
  check_bool "reply classified" true (has reply "\"outcome\":\"completed\"");
  (* Kill w0's server: shard 0 fails over to its replica on w1 and the
     answer is still exact — and says so via the failover count. *)
  stop_worker w0;
  let r2 = Coordinator.run coord ~text:triangle_text (run_req ()) in
  check_string "outcome after failover" "completed" r2.Coordinator.r_outcome;
  check_int "matches after failover" expected r2.Coordinator.r_matches;
  check_bool "rows after failover" true (sorted_rows r2.Coordinator.r_rows = expected_rows);
  check_bool "failover counted" true (r2.Coordinator.r_failovers >= 1);
  (* Kill the last worker: nothing can answer, and the reply must say
     failed — never a silent zero-match "completed". *)
  stop_worker w1;
  let r3 = Coordinator.run coord ~text:triangle_text (run_req ()) in
  check_string "outcome after total loss" "failed" r3.Coordinator.r_outcome;
  check_int "both shards named" 2 (List.length r3.Coordinator.r_incomplete);
  let stats = Coordinator.stats_json coord in
  check_bool "stats carries failovers" true
    (match reply_int stats "failovers" with Some n -> n >= 1 | None -> false);
  Coordinator.stop coord

let test_partial_failure_is_explicit () =
  (* Shard 1's only endpoint accepts and instantly closes — the
     coordinator-visible shape of a worker kill -9 between dispatch and
     reply. The reply must carry partial + the missing shard id, with the
     live shard's matches intact: an undercount is only acceptable when it
     is announced. *)
  let g = graph () in
  let dir = tmpdir () in
  let w0 = start_worker ~dir ~node:"w0" g in
  let dead_path = Filename.concat dir "dead.sock" in
  let dead_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind dead_fd (Unix.ADDR_UNIX dead_path);
  Unix.listen dead_fd 8;
  let dead_stop = ref false in
  let dead_thread =
    Thread.create
      (fun () ->
        while not !dead_stop do
          match Unix.select [ dead_fd ] [] [] 0.1 with
          | [ _ ], _, _ ->
              let c, _ = Unix.accept dead_fd in
              Unix.close c
          | _ -> ()
        done)
      ()
  in
  let topo =
    match
      Topology.parse
        (Printf.sprintf "shard 0 unix:%s\nshard 1 unix:%s\n" w0.path dead_path)
    with
    | Ok t -> t
    | Error m -> Alcotest.fail m
  in
  let coord = Coordinator.create ~config:(coord_config ~retries:1 ()) topo in
  let db = Gf.Db.create g in
  let _, expected = reference db triangle in
  let r = Coordinator.run coord ~text:triangle_text (run_req ()) in
  check_string "outcome" "partial" r.Coordinator.r_outcome;
  check_bool "missing shard named" true (r.Coordinator.r_incomplete = [ 1 ]);
  (* The live shard's slice still arrived whole: strictly fewer matches
     than the full answer, strictly more than nothing is not guaranteed —
     but it must equal exactly the shard-0 slice. *)
  let c0, _ = Gf.Db.run_gov ~scan_part:(0, 2) db triangle in
  check_int "live slice intact" c0.Gf.Counters.output r.Coordinator.r_matches;
  check_bool "honest undercount" true (r.Coordinator.r_matches < expected);
  let reply = Coordinator.to_reply r in
  check_bool "reply names missing shard" true (has reply "\"incomplete_shards\":[1]");
  Coordinator.stop coord;
  dead_stop := true;
  Thread.join dead_thread;
  Unix.close dead_fd;
  stop_worker w0

let test_breaker_per_shard_isolation () =
  (* Shard 0 points at nothing; hammering it opens shard 0's breaker
     while shard 1 keeps answering — failure is contained per shard. *)
  let g = graph () in
  let dir = tmpdir () in
  let w0 = start_worker ~dir ~node:"w0" g in
  let nowhere = Filename.concat dir "nowhere.sock" in
  let topo =
    match
      Topology.parse (Printf.sprintf "shard 0 unix:%s\nshard 1 unix:%s\n" nowhere w0.path)
    with
    | Ok t -> t
    | Error m -> Alcotest.fail m
  in
  let breaker =
    { Breaker.window = 8; min_samples = 2; failure_threshold = 0.5; cooldown_s = 60.0 }
  in
  let coord = Coordinator.create ~config:(coord_config ~retries:0 ~breaker ()) topo in
  let last = ref None in
  for _ = 1 to 4 do
    last := Some (Coordinator.run coord ~text:triangle_text (run_req ()))
  done;
  let r = Option.get !last in
  check_string "still partial, never failed" "partial" r.Coordinator.r_outcome;
  check_bool "only shard 0 missing" true (r.Coordinator.r_incomplete = [ 0 ]);
  (* By now shard 0's breaker is open and fails fast; shard 1's is closed. *)
  check_bool "shard-0 breaker open" true
    (r.Coordinator.r_shards.(0).Coordinator.sr_detail = "per-shard circuit breaker open"
    || r.Coordinator.r_shards.(0).Coordinator.sr_outcome = "breaker_open");
  check_bool "shard-1 healthy" true r.Coordinator.r_shards.(1).Coordinator.sr_ok;
  let stats = Coordinator.stats_json coord in
  check_bool "stats shows one open breaker" true
    (has stats "\"open\"" && has stats "\"closed\"");
  Coordinator.stop coord;
  stop_worker w0

let test_hedging_beats_straggler () =
  (* Shard 0's primary stalls 0.6 s on every shard request; with a 50 ms
     hedge the replica answers first and the request completes fast and
     exact. *)
  let g = graph () in
  let db = Gf.Db.create g in
  let _, expected = reference db triangle in
  let dir = tmpdir () in
  let slow_svc = worker_service g in
  let slow =
    Worker.create ~slow_s:0.6 ~node:"slow"
      ~n:(Gf.Graph.num_vertices g)
      ~m:(Gf.Graph.num_edges g)
      slow_svc
  in
  let slow_path = Filename.concat dir "slow.sock" in
  let ready = ref false in
  let ready_m = Mutex.create () and ready_cv = Condition.create () in
  let slow_thread =
    Thread.create
      (fun () ->
        Server.serve ~hook:(Worker.hook slow)
          ~on_ready:(fun _ ->
            Mutex.lock ready_m;
            ready := true;
            Condition.broadcast ready_cv;
            Mutex.unlock ready_m)
          slow_svc (Server.Unix_path slow_path))
      ()
  in
  Mutex.lock ready_m;
  while not !ready do
    Condition.wait ready_cv ready_m
  done;
  Mutex.unlock ready_m;
  let fast = start_worker ~dir ~node:"fast" g in
  let topo =
    match
      Topology.parse
        (Printf.sprintf "shard 0 unix:%s unix:%s\nshard 1 unix:%s\n" slow_path fast.path
           fast.path)
    with
    | Ok t -> t
    | Error m -> Alcotest.fail m
  in
  let coord = Coordinator.create ~config:(coord_config ~hedge:(Some 0.05) ()) topo in
  let t0 = Unix.gettimeofday () in
  let r = Coordinator.run coord ~text:triangle_text (run_req ()) in
  let dt = Unix.gettimeofday () -. t0 in
  check_string "outcome" "completed" r.Coordinator.r_outcome;
  check_int "matches exact" expected r.Coordinator.r_matches;
  check_bool "hedge fired" true (r.Coordinator.r_hedges >= 1);
  check_bool "hedge won on shard 0" true r.Coordinator.r_shards.(0).Coordinator.sr_hedge_win;
  check_bool "replica answered" true r.Coordinator.r_shards.(0).Coordinator.sr_failover;
  check_bool "straggler did not gate latency" true (dt < 0.55);
  Coordinator.stop coord;
  stop_worker fast;
  (* The slow worker still owes its stalled reply; shutting it down drains
     that request first. *)
  stop_worker { path = slow_path; thread = slow_thread; svc = slow_svc }

let test_healthy_hedge_is_not_a_floor () =
  (* A healthy 1x2 answers in shard time, not in hedge time: with a 2 s
     hedge delay no request may wait for the hedge timer, and none is
     launched. *)
  let g = graph () in
  let db = Gf.Db.create g in
  let _, expected = reference db triangle in
  let dir = tmpdir () in
  let w0 = start_worker ~dir ~node:"w0" g in
  let w1 = start_worker ~dir ~node:"w1" g in
  let topo =
    match
      Topology.parse
        (Printf.sprintf "shard 0 unix:%s unix:%s\nshard 1 unix:%s unix:%s\n" w0.path
           w1.path w1.path w0.path)
    with
    | Ok t -> t
    | Error m -> Alcotest.fail m
  in
  let coord = Coordinator.create ~config:(coord_config ~hedge:(Some 2.0) ()) topo in
  let t0 = Unix.gettimeofday () in
  let r = Coordinator.run coord ~text:triangle_text (run_req ()) in
  let dt = Unix.gettimeofday () -. t0 in
  check_string "outcome" "completed" r.Coordinator.r_outcome;
  check_int "matches exact" expected r.Coordinator.r_matches;
  check_int "no hedges" 0 r.Coordinator.r_hedges;
  check_bool (Printf.sprintf "answered in %.3fs, under 1 s" dt) true (dt < 1.0);
  Coordinator.stop coord;
  stop_worker w0;
  stop_worker w1

let test_fingerprint_mismatch_refused () =
  (* Two workers serving different graphs cannot form one cluster: shard
     answers would be slices of different answer sets. The first hello
     fixes the fingerprint; a worker disagreeing with it is refused and
     its shard goes incomplete rather than poisoning the union. *)
  let g = graph () in
  let other =
    Gf.Generators.holme_kim (Gf.Rng.create 99) ~n:120 ~m_per:3 ~p_triad:0.5 ~recip:0.2
  in
  let dir = tmpdir () in
  let w0 = start_worker ~dir ~node:"w0" g in
  let w1 = start_worker ~dir ~node:"w1" other in
  let topo =
    match
      Topology.parse (Printf.sprintf "shard 0 unix:%s\nshard 1 unix:%s\n" w0.path w1.path)
    with
    | Ok t -> t
    | Error m -> Alcotest.fail m
  in
  let coord = Coordinator.create ~config:(coord_config ~retries:0 ()) topo in
  let r = Coordinator.run coord ~text:triangle_text (run_req ()) in
  check_string "outcome" "partial" r.Coordinator.r_outcome;
  (* Whichever worker handshakes first fixes the fingerprint; the *other*
     one is refused. Exactly one shard must go incomplete, explicitly. *)
  check_int "one shard incomplete" 1 (List.length r.Coordinator.r_incomplete);
  let bad = List.hd r.Coordinator.r_incomplete in
  check_bool "refusal is explicit" true
    (has r.Coordinator.r_shards.(bad).Coordinator.sr_detail "fingerprint");
  Coordinator.stop coord;
  stop_worker w0;
  stop_worker w1

let test_stitched_trace_failover () =
  (* Cross-process trace propagation, end to end: one shard whose primary
     endpoint is a dead socket and whose replica is a live worker, driven
     by a traced run. The stitched trace the coordinator retains must pin
     BOTH the failed attempt (coordinator-side span carrying its error)
     and the winning replica's worker-side spans, each under its own
     process track — and the retained Chrome JSON must stay balanced. *)
  let g = graph () in
  let db = Gf.Db.create g in
  let _, expected = reference db triangle in
  let dir = tmpdir () in
  let w0 = start_worker ~dir ~node:"w0" g in
  let dead = Filename.concat dir "dead.sock" in
  let topo =
    match Topology.parse (Printf.sprintf "shard 0 unix:%s unix:%s\n" dead w0.path) with
    | Ok t -> t
    | Error m -> Alcotest.fail m
  in
  let coord = Coordinator.create ~config:(coord_config ~retries:1 ()) topo in
  let req =
    match Wire.parse_request ("run rows trace q=" ^ triangle_text) with
    | Ok (Wire.Run req) -> req
    | _ -> Alcotest.fail "traced run request must parse"
  in
  let r = Coordinator.run coord ~text:triangle_text req in
  check_string "outcome" "completed" r.Coordinator.r_outcome;
  check_int "matches survive the failover" expected r.Coordinator.r_matches;
  check_bool "failover counted" true (r.Coordinator.r_failovers >= 1);
  let tid =
    match r.Coordinator.r_trace_id with
    | Some id -> id
    | None -> Alcotest.fail "traced cluster run must return a trace id"
  in
  check_bool "untraced run carries no trace id" true
    ((Coordinator.run coord ~text:triangle_text (run_req ())).Coordinator.r_trace_id = None);
  (* Fetch the retained trace exactly as a wire client would. *)
  let reply =
    match Coordinator.hook coord (Printf.sprintf "trace id=%d" tid) with
    | `Reply s -> s
    | _ -> Alcotest.fail "coordinator must answer trace id=N"
  in
  check_bool "envelope ok" true (has reply "\"ok\":true");
  (* Coordinator-side: the shard span, the dead attempt with its error, and
     the attempt that won. *)
  check_bool "shard span present" true (has reply "\"name\":\"shard-0\"");
  check_bool "failed attempt pinned with its error" true (has reply "\"result\":\"error: ");
  check_bool "winning attempt pinned" true (has reply "\"result\":\"completed\"");
  (* Worker-side spans landed under the worker's own process track (the
     in-process worker reports this very pid on the wire — distinct from
     the trace's default pid 1 all coordinator spans live on). *)
  let wpid = Unix.getpid () in
  check_bool "worker process track" true
    (has reply (Printf.sprintf "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d," wpid));
  check_bool "worker track labeled node (endpoint)" true (has reply "w0 (unix:");
  check_bool "worker request span grafted" true (has reply "\"name\":\"request\"");
  check_bool "coordinator process track" true
    (has reply "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,");
  (* Moved into the coordinator's clock by the handshake skew, the worker's
     request span starts inside the coordinator's shard-0 span. *)
  let events =
    Json.list "traceEvents"
      (Option.value (Json.member "trace" (parse_json reply)) ~default:Json.Null)
  in
  let ts ~pid ~ph name =
    List.filter_map
      (fun e ->
        if Json.int "pid" e = Some pid && Json.str "ph" e = Some ph && Json.str "name" e = Some name
        then Json.int "ts" e
        else None)
      events
  in
  (match (ts ~pid:1 ~ph:"B" "shard-0", ts ~pid:1 ~ph:"E" "shard-0") with
  | [ b ], [ e ] ->
      check_bool "worker request span under shard-0" true
        (List.exists (fun t -> t >= b && t <= e) (ts ~pid:wpid ~ph:"B" "request"))
  | _ -> Alcotest.fail "one shard-0 span expected");
  (* The nesting gate on the retained JSON: begins and ends pair off, and
     both processes contributed events. *)
  let count needle =
    let nh = String.length reply and nn = String.length needle in
    let rec go i acc =
      if i + nn > nh then acc
      else go (i + 1) (if String.sub reply i nn = needle then acc + 1 else acc)
    in
    go 0 0
  in
  check_bool "chrome events balanced" true
    (count "\"ph\":\"B\"" = count "\"ph\":\"E\"" && count "\"ph\":\"B\"" > 0);
  check_bool "events on both processes" true
    (count "\"pid\":1," > 0 && count (Printf.sprintf "\"pid\":%d," wpid) > 0);
  (* The distributed query also pinned itself in the coordinator slowlog. *)
  let slow =
    match Coordinator.hook coord "slowlog 5" with
    | `Reply s -> s
    | _ -> Alcotest.fail "coordinator must answer slowlog"
  in
  check_bool "slowlog knows the request" true (has slow "\"plan\":\"cluster\"");
  Coordinator.stop coord;
  stop_worker w0

(* A refusal's detail crosses the wire escaped and reads back intact on the
   client path; the substring scraper this replaced turned "a\nb" into
   "anb". *)
let test_error_detail_newline () =
  let path = Filename.concat (tmpdir ()) "refuser.sock" in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 1;
  let refuser =
    Thread.create
      (fun () ->
        let c, _ = Unix.accept fd in
        ignore (input_line (Unix.in_channel_of_descr c));
        let oc = Unix.out_channel_of_descr c in
        output_string oc (Wire.error_resp ~kind:"refused" ~detail:"a\nb" ^ "\n");
        flush oc;
        Unix.close c)
      ()
  in
  (match Gf_cluster.Remote.connect (Server.Unix_path path) with
  | Error e -> Alcotest.fail e
  | Ok c ->
      (match Gf_cluster.Remote.handshake c ~timeout_s:2.0 ~node:"t" ~role:"probe" with
      | Ok _ -> Alcotest.fail "a refusal must not complete the handshake"
      | Error e -> check_string "detail read back intact" "refused: a\nb" e);
      Gf_cluster.Remote.close c);
  Thread.join refuser;
  Unix.close fd;
  Sys.remove path

(* Worker stats nest inside the coordinator's fleet array. A top-level read
   must not find a key only a fleet entry carries: the substring scraper
   this replaced returned the first "completed" anywhere in the line. *)
let test_stats_fleet_keys_stay_nested () =
  let g = graph () in
  let dir = tmpdir () in
  let w0 = start_worker ~dir ~node:"w0" g in
  let topo =
    match Topology.parse (Printf.sprintf "shard 0 unix:%s\n" w0.path) with
    | Ok t -> t
    | Error m -> Alcotest.fail m
  in
  let coord =
    Coordinator.create ~config:{ (coord_config ()) with Coordinator.stats_interval_s = 0.0 } topo
  in
  let v = parse_json (Coordinator.stats_json coord) in
  let fleet_completed =
    List.filter_map
      (fun e -> Option.bind (Json.member "stats" e) (Json.int "completed"))
      (Json.list "fleet" v)
  in
  check_bool "fleet entry carries completed" true (fleet_completed <> []);
  check_bool "top level has no completed" true (Json.int "completed" v = None);
  check_bool "top level keys still read" true (Json.int "shards" v = Some 1);
  Coordinator.stop coord;
  stop_worker w0

let suite =
  [
    ( "cluster.proto",
      [
        Alcotest.test_case "handshake and shard roundtrip" `Quick test_proto_roundtrip;
        Alcotest.test_case "aggregate reply shape" `Quick test_run_resp_shape;
        Alcotest.test_case "error detail keeps its newline" `Quick test_error_detail_newline;
        Alcotest.test_case "topology parsing" `Quick test_topology_parse;
      ] );
    ( "cluster.shard",
      [
        Alcotest.test_case "ranged scans union exactly" `Quick test_scan_part_exact_union;
        Alcotest.test_case "backoff respects deadline" `Quick
          test_ladder_backoff_respects_deadline;
        Alcotest.test_case "worker hook" `Quick test_worker_hook;
        Alcotest.test_case "worker fault sites" `Quick test_worker_fault_sites;
      ] );
    ( "cluster.e2e",
      [
        Alcotest.test_case "exact answers and replica failover" `Quick
          test_cluster_end_to_end;
        Alcotest.test_case "partial failure is explicit" `Quick
          test_partial_failure_is_explicit;
        Alcotest.test_case "breakers isolate per shard" `Quick
          test_breaker_per_shard_isolation;
        Alcotest.test_case "hedging beats a straggler" `Quick test_hedging_beats_straggler;
        Alcotest.test_case "healthy hedge adds no latency floor" `Quick
          test_healthy_hedge_is_not_a_floor;
        Alcotest.test_case "fingerprint mismatch refused" `Quick
          test_fingerprint_mismatch_refused;
        Alcotest.test_case "stitched trace spans failed attempt and winner" `Quick
          test_stitched_trace_failover;
        Alcotest.test_case "fleet keys stay nested in stats" `Quick
          test_stats_fleet_keys_stay_nested;
      ] );
  ]
