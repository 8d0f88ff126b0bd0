(* The service layer: wire protocol, circuit breaker, retry ladder,
   admission queue, drain, and the socket server end-to-end. Every test is
   deterministic: fake clocks drive the breaker cooldown, recorded sleeps
   replace real backoff, and an awaited ticket runs on the awaiting
   thread, so one slot serializes the service tests. *)

module Gf = Graphflow
module Breaker = Gf_server.Breaker
module Ladder = Gf_server.Ladder
module Service = Gf_server.Service
module Server = Gf_server.Server
module Wire = Gf_server.Wire
module Governor = Gf.Governor
module Metrics = Gf.Metrics

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let graph () =
  Gf.Generators.holme_kim (Gf.Rng.create 11) ~n:400 ~m_per:5 ~p_triad:0.6 ~recip:0.3

let db () = Gf.Db.create (graph ())
let triangle = Gf.Patterns.q 1

let sorted_rows rows = List.sort compare (List.map Array.to_list rows)

let reference_rows db q =
  let rows = ref [] in
  let c, o = Gf.Db.run_gov ~sink:(fun r -> rows := Array.copy r :: !rows) db q in
  Alcotest.(check bool) "reference completed" true (o = Governor.Completed);
  (sorted_rows !rows, c.Gf.Counters.output)

(* --- wire ------------------------------------------------------------- *)

let test_wire_parse () =
  check_bool "ping" true (Wire.parse_request " ping " = Ok Wire.Ping);
  check_bool "metrics" true (Wire.parse_request "metrics" = Ok Wire.Metrics_req);
  check_bool "shutdown" true (Wire.parse_request "shutdown" = Ok Wire.Shutdown);
  (match Wire.parse_request "run timeout_ms=250 max_rows=10 rows=1 q=a1->a2, a2->a3, a1->a3" with
  | Ok (Wire.Run r) ->
      check_bool "timeout" true (r.Service.timeout_ms = Some 250);
      check_bool "max_rows" true (r.Service.max_rows = Some 10);
      check_bool "collect" true r.Service.collect_rows;
      check_bool "no fault" true (r.Service.fault_at = None)
  | _ -> Alcotest.fail "run with options must parse");
  (match Wire.parse_request "run fault_at=5 fault_all=1 q=Q1" with
  | Ok (Wire.Run r) ->
      check_bool "fault_at" true (r.Service.fault_at = Some 5);
      check_bool "fault_all" true r.Service.fault_all
  | _ -> Alcotest.fail "Q-pattern via q= must parse");
  (match Wire.parse_request "run rows fault_all q=Q1" with
  | Ok (Wire.Run r) ->
      check_bool "bare rows flag" true r.Service.collect_rows;
      check_bool "bare fault_all flag" true r.Service.fault_all
  | _ -> Alcotest.fail "bare boolean flags must parse");
  (match Wire.parse_request "a1->a2, a2->a3, a1->a3" with
  | Ok (Wire.Run r) -> check_bool "bare query defaults" true (not r.Service.collect_rows)
  | _ -> Alcotest.fail "bare line must parse as run");
  check_bool "empty rejected" true (Result.is_error (Wire.parse_request "   "));
  check_bool "bad option" true (Result.is_error (Wire.parse_request "run nope q=Q1"));
  check_bool "bad int" true (Result.is_error (Wire.parse_request "run max_rows=x q=Q1"));
  check_bool "missing q" true (Result.is_error (Wire.parse_request "run max_rows=3"));
  check_bool "bad query" true (Result.is_error (Wire.parse_request "run q=@@@"));
  (* The observability commands. *)
  check_bool "stats" true (Wire.parse_request "stats" = Ok Wire.Stats);
  check_bool "slowlog default" true (Wire.parse_request "slowlog" = Ok (Wire.Slowlog 10));
  check_bool "slowlog n" true (Wire.parse_request "slowlog 5" = Ok (Wire.Slowlog 5));
  check_bool "slowlog 0 rejected" true (Result.is_error (Wire.parse_request "slowlog 0"));
  check_bool "trace id=" true (Wire.parse_request "trace id=3" = Ok (Wire.Trace_of 3));
  check_bool "trace bare id" true (Wire.parse_request "trace 7" = Ok (Wire.Trace_of 7));
  check_bool "trace garbage rejected" true (Result.is_error (Wire.parse_request "trace x"));
  (match Wire.parse_request "run trace q=Q1" with
  | Ok (Wire.Run r) ->
      check_bool "trace flag" true r.Service.trace;
      check_string "query text captured" "Q1" r.Service.text
  | _ -> Alcotest.fail "run trace must parse");
  (match Wire.parse_request "run trace=1 rows q=Q1" with
  | Ok (Wire.Run r) -> check_bool "trace=1" true (r.Service.trace && r.Service.collect_rows)
  | _ -> Alcotest.fail "run trace=1 must parse");
  (* The mutation commands. *)
  check_bool "addedge" true
    (Wire.parse_request "addedge 3 7"
    = Ok (Wire.Mutate (Service.M_add_edge { u = 3; v = 7; elabel = 0 }, false)));
  check_bool "addedge labeled traced" true
    (Wire.parse_request "addedge 3 7 2 trace"
    = Ok (Wire.Mutate (Service.M_add_edge { u = 3; v = 7; elabel = 2 }, true)));
  check_bool "deledge" true
    (Wire.parse_request "deledge 4 5 1"
    = Ok (Wire.Mutate (Service.M_del_edge { u = 4; v = 5; elabel = 1 }, false)));
  check_bool "addvertex default label" true
    (Wire.parse_request "addvertex" = Ok (Wire.Mutate (Service.M_add_vertex { label = 0 }, false)));
  check_bool "addvertex labeled" true
    (Wire.parse_request "addvertex 3" = Ok (Wire.Mutate (Service.M_add_vertex { label = 3 }, false)));
  check_bool "delvertex" true
    (Wire.parse_request "delvertex 9" = Ok (Wire.Mutate (Service.M_del_vertex { v = 9 }, false)));
  check_bool "checkpoint" true
    (Wire.parse_request "checkpoint" = Ok (Wire.Mutate (Service.M_checkpoint, false)));
  check_bool "checkpoint traced" true
    (Wire.parse_request "checkpoint trace" = Ok (Wire.Mutate (Service.M_checkpoint, true)));
  check_bool "addedge arity" true (Result.is_error (Wire.parse_request "addedge 3"));
  check_bool "addedge bad int" true (Result.is_error (Wire.parse_request "addedge a b"));
  check_bool "delvertex arity" true (Result.is_error (Wire.parse_request "delvertex"));
  check_bool "checkpoint extra" true (Result.is_error (Wire.parse_request "checkpoint 3"))

(* Embedded query text must not break the one-line framing: newlines and
   quotes come back escaped inside the slowlog reply. *)
let test_wire_slowlog_escaping () =
  let r = Gf.Recorder.create () in
  let _ =
    Gf.Recorder.record r ~query:"a1->a2,\na2->a3 \"x\"" ~plan:"sig" ~outcome:"completed"
      ~latency_s:0.01 ~queue_s:0.0 ~rung:"sequential" ~attempts:1 ~retries:0 ~top_ops:[]
      ~traced:false ()
  in
  let resp = Wire.slowlog_resp (Gf.Recorder.recent r 10) in
  check_bool "single line" true (not (String.contains resp '\n'));
  let has hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  check_bool "count" true (has resp "\"count\":1");
  check_bool "newline escaped" true (has resp "a1->a2,\\na2->a3 \\\"x\\\"")

(* --- breaker ---------------------------------------------------------- *)

let test_breaker_state_machine () =
  let clock = ref 0.0 in
  let cfg =
    { Breaker.window = 4; min_samples = 4; failure_threshold = 0.5; cooldown_s = 10.0 }
  in
  let b = Breaker.create ~now:(fun () -> !clock) cfg in
  check_bool "starts closed" true (Breaker.state b = Breaker.Closed);
  (* Below min_samples nothing trips, even at 100% failure. *)
  Breaker.record b ~ok:false;
  Breaker.record b ~ok:false;
  Breaker.record b ~ok:false;
  check_bool "needs min samples" true (Breaker.state b = Breaker.Closed);
  Breaker.record b ~ok:false;
  check_bool "opens at threshold" true (Breaker.state b = Breaker.Open);
  check_bool "open rejects" true (Breaker.admit b = `Reject);
  (* Cooldown not elapsed: still rejecting. *)
  clock := 9.9;
  check_bool "still open" true (Breaker.admit b = `Reject);
  (* Cooldown elapsed: half-open, exactly one probe admitted. *)
  clock := 10.5;
  check_bool "probe admitted" true (Breaker.admit b = `Admit);
  check_bool "half-open" true (Breaker.state b = Breaker.Half_open);
  check_bool "second probe rejected" true (Breaker.admit b = `Reject);
  (* Failed probe: back to open, cooldown restarts. *)
  Breaker.record b ~ok:false;
  check_bool "reopened" true (Breaker.state b = Breaker.Open);
  clock := 15.0;
  check_bool "new cooldown running" true (Breaker.admit b = `Reject);
  clock := 21.0;
  check_bool "second probe" true (Breaker.admit b = `Admit);
  (* Successful probe: closed, window reset (old failures forgotten). *)
  Breaker.record b ~ok:true;
  check_bool "recovered" true (Breaker.state b = Breaker.Closed);
  Breaker.record b ~ok:false;
  Breaker.record b ~ok:false;
  Breaker.record b ~ok:false;
  check_bool "window was reset" true (Breaker.state b = Breaker.Closed)

let test_breaker_sliding_window () =
  let b =
    Breaker.create
      ~now:(fun () -> 0.0)
      { Breaker.window = 4; min_samples = 4; failure_threshold = 0.75; cooldown_s = 1.0 }
  in
  (* Two old failures slide out; the window never reaches 3/4 failures. *)
  Breaker.record b ~ok:false;
  Breaker.record b ~ok:false;
  Breaker.record b ~ok:true;
  Breaker.record b ~ok:true;
  Breaker.record b ~ok:true;
  Breaker.record b ~ok:false;
  check_bool "slid out" true (Breaker.state b = Breaker.Closed)

(* Half-open is a single-probe state: when the cooldown elapses and many
   threads race [admit] simultaneously, exactly one may win the probe slot
   — a second admitted probe would double-tap a backend that is still
   being assessed. *)
let test_breaker_half_open_single_probe () =
  let clock = ref 0.0 in
  let cfg =
    { Breaker.window = 4; min_samples = 4; failure_threshold = 0.5; cooldown_s = 1.0 }
  in
  let trip_then_race () =
    let b = Breaker.create ~now:(fun () -> !clock) cfg in
    for _ = 1 to 4 do
      Breaker.record b ~ok:false
    done;
    check_bool "tripped open" true (Breaker.state b = Breaker.Open);
    clock := !clock +. 2.0;
    let admitted = Atomic.make 0 and go = Atomic.make false in
    let worker () =
      while not (Atomic.get go) do
        Thread.yield ()
      done;
      match Breaker.admit b with
      | `Admit -> Atomic.incr admitted
      | `Reject -> ()
    in
    let ths = List.init 16 (fun _ -> Thread.create worker ()) in
    Atomic.set go true;
    List.iter Thread.join ths;
    check_int "exactly one probe admitted" 1 (Atomic.get admitted);
    check_bool "stays half-open while probing" true (Breaker.state b = Breaker.Half_open);
    b
  in
  (* Round 1: the probe succeeds; losers' rejections must not have
     perturbed the state machine. *)
  let b = trip_then_race () in
  Breaker.record b ~ok:true;
  check_bool "probe success closes" true (Breaker.state b = Breaker.Closed);
  check_bool "closed admits freely" true (Breaker.admit b = `Admit && Breaker.admit b = `Admit);
  (* Round 2 (fresh breaker): the probe fails; the race for the next probe
     slot after the restarted cooldown is again single-winner. *)
  let b = trip_then_race () in
  Breaker.record b ~ok:false;
  check_bool "probe failure reopens" true (Breaker.state b = Breaker.Open);
  check_bool "reopened rejects" true (Breaker.admit b = `Reject);
  clock := !clock +. 2.0;
  check_bool "next probe admitted" true (Breaker.admit b = `Admit);
  check_bool "and is again exclusive" true (Breaker.admit b = `Reject)

(* --- ladder ----------------------------------------------------------- *)

let ladder_cfg =
  {
    Ladder.domains = 1;
    budget = Governor.unlimited;
    degraded_budget = Governor.budget ~max_output:10 ();
    backoff_base_s = 0.01;
    backoff_cap_s = 1.0;
  }

let test_ladder_retry_recovers () =
  let db = db () in
  let expected_rows, total = reference_rows db triangle in
  check_bool "graph has triangles" true (total > 50);
  (* Degraded budget roomy enough not to bind: the retry must reproduce the
     full answer even though it lands on the last rung (domains = 1 has
     only sequential -> degraded). *)
  let cfg =
    { ladder_cfg with Ladder.degraded_budget = Governor.budget ~max_output:1_000_000 () }
  in
  let sleeps = ref [] in
  let rows = ref [] in
  let r =
    Ladder.run
      ~sleep:(fun d -> sleeps := d :: !sleeps)
      ~fault:{ Governor.at_tuple = 5; operator = "test" }
      ~sink:(fun t -> rows := Array.copy t :: !rows)
      ~rng:(Gf.Rng.create 123) cfg db triangle
  in
  check_bool "completed" true (r.Ladder.outcome = Governor.Completed);
  check_int "attempts" 2 r.Ladder.attempts;
  check_int "retries" 1 r.Ladder.retries;
  check_string "rung" "degraded" r.Ladder.rung;
  (* Retried-then-completed is indistinguishable from first-try completion:
     the failed attempt leaked nothing, the accepted attempt delivered
     everything. *)
  check_bool "rows match naive exactly" true (sorted_rows !rows = expected_rows);
  (* Backoffs are deterministic: recompute from the same seeded stream. *)
  let rng' = Gf.Rng.create 123 in
  let expected_backoff = 0.01 *. (0.5 +. Gf.Rng.float rng' 0.5) in
  (match r.Ladder.backoffs with
  | [ d ] ->
      check_bool "jittered backoff" true (d = expected_backoff);
      check_bool "sleep taken" true (!sleeps = [ d ])
  | _ -> Alcotest.fail "expected exactly one backoff");
  (* Same seed, same schedule. *)
  let r2 =
    Ladder.run ~sleep:ignore
      ~fault:{ Governor.at_tuple = 5; operator = "test" }
      ~rng:(Gf.Rng.create 123) cfg db triangle
  in
  check_bool "deterministic backoffs" true (r.Ladder.backoffs = r2.Ladder.backoffs)

let test_ladder_retry_exact_match () =
  (* With a full-budget retry rung available (parallel first), a fault on
     the first attempt retried on the sequential rung completes and matches
     the naive answer exactly. *)
  let db = db () in
  let expected_rows, _ = reference_rows db triangle in
  let cfg = { ladder_cfg with Ladder.domains = 2 } in
  let rows = ref [] in
  let r =
    Ladder.run ~sleep:ignore
      ~fault:{ Governor.at_tuple = 5; operator = "test" }
      ~sink:(fun t -> rows := Array.copy t :: !rows)
      ~rng:(Gf.Rng.create 7) cfg db triangle
  in
  check_bool "completed" true (r.Ladder.outcome = Governor.Completed);
  check_int "attempts" 2 r.Ladder.attempts;
  check_string "rung" "sequential" r.Ladder.rung;
  check_bool "not degraded" true (not r.Ladder.degraded);
  check_bool "rows match naive exactly" true (sorted_rows !rows = expected_rows)

let test_ladder_degraded_rung () =
  (* A fault that fires on every attempt: the degraded rung's reduced
     budget pre-empts the fault point, turning a hard failure into a
     structured truncated answer. *)
  let db = db () in
  let r =
    Ladder.run ~sleep:ignore
      ~fault:{ Governor.at_tuple = 500; operator = "test" }
      ~fault_attempts:max_int ~rng:(Gf.Rng.create 9) ladder_cfg db triangle
  in
  check_bool "truncated" true (r.Ladder.outcome = Governor.Truncated Governor.Output_limit);
  check_string "rung" "degraded" r.Ladder.rung;
  check_bool "degraded" true r.Ladder.degraded;
  check_int "rows capped" 10 r.Ladder.counters.Gf.Counters.output

let test_ladder_exhausted_fails () =
  (* A fault early enough to beat even the degraded budget on every rung:
     the ladder reports the structured failure. *)
  let db = db () in
  (* No budget on the degraded rung either, so nothing pre-empts the fault. *)
  let cfg = { ladder_cfg with Ladder.degraded_budget = Governor.unlimited } in
  let rows = ref [] in
  let r =
    Ladder.run ~sleep:ignore
      ~fault:{ Governor.at_tuple = 1; operator = "flaky-op" }
      ~fault_attempts:max_int
      ~sink:(fun t -> rows := t :: !rows)
      ~rng:(Gf.Rng.create 3) cfg db triangle
  in
  (match r.Ladder.outcome with
  | Governor.Failed e -> check_string "operator" "flaky-op" e.Governor.operator
  | _ -> Alcotest.fail "expected Failed");
  check_int "attempts = rung count" (List.length (Ladder.rungs cfg)) r.Ladder.attempts;
  check_bool "failed answers leak no rows" true (!rows = [])

(* --- service ---------------------------------------------------------- *)

let sync_config ?(queue = 2) ?(ladder = ladder_cfg) ?(breaker = Breaker.default_config)
    ?(clock = ref 0.0) () =
  {
    Service.default_config with
    Service.queue_capacity = queue;
    workers = 1;
    ladder;
    breaker;
    now = (fun () -> !clock);
    sleep = ignore;
  }

(* A degraded rung roomy enough never to bind on the test graph. *)
let roomy_ladder =
  { ladder_cfg with Ladder.degraded_budget = Governor.budget ~max_output:1_000_000 () }

(* A degraded rung with no budget at all: a fault that fires on every
   attempt yields a hard Failed instead of being pre-empted into a
   truncation. *)
let no_net_ladder = { ladder_cfg with Ladder.degraded_budget = Governor.unlimited }

let test_service_queue_full () =
  Metrics.reset ();
  let svc = Service.create ~config:(sync_config ~queue:2 ()) (db ()) in
  let req = Service.request triangle in
  (* The first ticket takes the one slot; two more fill the queue. *)
  let t1 = Result.get_ok (Service.submit_async svc req) in
  let t2 = Result.get_ok (Service.submit_async svc req) in
  let t3 = Result.get_ok (Service.submit_async svc req) in
  (match Service.submit_async svc req with
  | Error Service.Queue_full -> ()
  | _ -> Alcotest.fail "fourth submit must be shed: queue full");
  check_int "depth" 2 (Service.queue_depth svc);
  let r1 = Service.await svc t1 in
  check_int "slot handed to the next ticket" 1 (Service.queue_depth svc);
  let r2 = Service.await svc t2 in
  let r3 = Service.await svc t3 in
  check_int "queue dry" 0 (Service.queue_depth svc);
  check_bool "all completed" true
    (List.for_all
       (fun (r : Service.reply) -> r.Service.result.Ladder.outcome = Governor.Completed)
       [ r1; r2; r3 ]);
  check_int "ids in admission order" 1 r1.Service.id;
  check_int "second id" 2 r2.Service.id;
  check_int "third id" 3 r3.Service.id;
  check_bool "answer kept for a repeated await" true (Service.await svc t1 == r1);
  let exposition = Metrics.exposition () in
  let has needle =
    let nh = String.length exposition and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub exposition i nn = needle || at (i + 1)) in
    at 0
  in
  check_bool "shed counted" true (has "gf_server_shed_queue_full_total 1");
  check_bool "admissions counted" true (has "gf_server_admitted_total 3")

let test_service_breaker_recovery () =
  let clock = ref 0.0 in
  let breaker =
    { Breaker.window = 4; min_samples = 4; failure_threshold = 0.5; cooldown_s = 10.0 }
  in
  let svc =
    Service.create ~config:(sync_config ~queue:8 ~ladder:no_net_ladder ~breaker ~clock ()) (db ())
  in
  let failing =
    { (Service.request triangle) with Service.fault_at = Some 1; fault_all = true }
  in
  (* Four hard failures open the breaker. *)
  for i = 1 to 4 do
    match Service.submit svc failing with
    | Ok r ->
        check_bool
          (Printf.sprintf "request %d failed" i)
          true
          (match r.Service.result.Ladder.outcome with Governor.Failed _ -> true | _ -> false)
    | Error _ -> Alcotest.fail "must be admitted while breaker is closed"
  done;
  check_bool "breaker open" true (Service.breaker_state svc = Breaker.Open);
  (match Service.submit_async svc (Service.request triangle) with
  | Error Service.Breaker_open -> ()
  | _ -> Alcotest.fail "open breaker must shed");
  (* After the cooldown one probe is admitted; its success closes the
     breaker and normal service resumes. *)
  clock := 11.0;
  (match Service.submit svc (Service.request triangle) with
  | Ok r -> check_bool "probe ok" true (r.Service.result.Ladder.outcome = Governor.Completed)
  | Error _ -> Alcotest.fail "probe must be admitted after cooldown");
  check_bool "breaker closed" true (Service.breaker_state svc = Breaker.Closed);
  (match Service.submit svc (Service.request triangle) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "closed breaker must admit")

let test_service_retry_metrics () =
  Metrics.reset ();
  let svc = Service.create ~config:(sync_config ~queue:4 ~ladder:roomy_ladder ()) (db ()) in
  let req = { (Service.request triangle) with Service.fault_at = Some 5 } in
  (match Service.submit svc req with
  | Ok r ->
      check_int "one retry" 1 r.Service.result.Ladder.retries;
      check_bool "not failed" true
        (match r.Service.result.Ladder.outcome with Governor.Failed _ -> false | _ -> true)
  | Error _ -> Alcotest.fail "must be admitted");
  let exposition = Metrics.exposition () in
  let has needle =
    let nh = String.length exposition and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub exposition i nn = needle || at (i + 1)) in
    at 0
  in
  check_bool "retry counted in exposition" true (has "gf_server_retries_total 1");
  check_bool "outcome counted" true (has "gf_server_requests_completed_total 1")

let test_service_drain () =
  Metrics.reset ();
  let svc = Service.create ~config:(sync_config ~queue:8 ()) (db ()) in
  let req = Service.request triangle in
  (* One ticket holds the slot without having started, one waits. *)
  let t1 = Result.get_ok (Service.submit_async svc req) in
  let t2 = Result.get_ok (Service.submit_async svc req) in
  Service.drain svc;
  (* Neither has run, and neither runs now. *)
  let r1 = Service.await svc t1 and r2 = Service.await svc t2 in
  check_bool "queued answered cancelled" true
    (r1.Service.result.Ladder.outcome = Governor.Truncated Governor.Cancelled
    && r2.Service.result.Ladder.outcome = Governor.Truncated Governor.Cancelled);
  check_int "no attempts made" 0 r1.Service.result.Ladder.attempts;
  (* Admission is closed. *)
  (match Service.submit_async svc req with
  | Error Service.Draining -> ()
  | _ -> Alcotest.fail "draining service must shed");
  (* Idempotent. *)
  Service.drain svc;
  check_bool "drain flag" true (Service.draining svc)

let test_service_drain_cancels_inflight () =
  (* Drain cancels a request already executing on another thread.
     Deterministic: the first attempt fails (injected fault) and the
     backoff sleep parks the executing thread until the main thread starts
     the drain — the retry's governor is then cancelled at attach, so the
     request is answered [Truncated Cancelled] without a timing race. *)
  let svc = ref None in
  let bm = Mutex.create () and bc = Condition.create () in
  let in_backoff = ref false in
  let sleep _ =
    Mutex.lock bm;
    in_backoff := true;
    Condition.broadcast bc;
    Mutex.unlock bm;
    let rec until_draining () =
      match !svc with
      | Some s when Service.draining s -> ()
      | _ ->
          Unix.sleepf 0.001;
          until_draining ()
    in
    until_draining ()
  in
  let config = { (sync_config ~queue:4 ~ladder:roomy_ladder ()) with Service.sleep } in
  let s = Service.create ~config (db ()) in
  svc := Some s;
  let req = { (Service.request triangle) with Service.fault_at = Some 1 } in
  let tkt = Result.get_ok (Service.submit_async s req) in
  let reply = ref None in
  let runner = Thread.create (fun () -> reply := Some (Service.await s tkt)) () in
  Mutex.lock bm;
  while not !in_backoff do
    Condition.wait bc bm
  done;
  Mutex.unlock bm;
  let t0 = Unix.gettimeofday () in
  Service.drain s;
  let elapsed = Unix.gettimeofday () -. t0 in
  Thread.join runner;
  let reply = Option.get !reply in
  check_bool "in-flight query cancelled" true
    (reply.Service.result.Ladder.outcome = Governor.Truncated Governor.Cancelled);
  check_bool "the failed attempt was made" true (reply.Service.result.Ladder.attempts >= 1);
  check_bool "no rows leak from a cancelled request" true (reply.Service.rows = []);
  check_bool "drain prompt" true (elapsed < 30.0)

let test_service_flight_recorder () =
  Metrics.reset ();
  let has hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  let svc = Service.create ~config:(sync_config ~queue:4 ~ladder:roomy_ladder ()) (db ()) in
  let plain = { (Service.request triangle) with Service.text = "tri-plain" } in
  (match Service.submit svc plain with
  | Ok r ->
      check_bool "every request is recorded" true (r.Service.record_id > 0);
      check_bool "plain request untraced" true (not r.Service.traced);
      (match r.Service.result.Ladder.plan with
      | Some p ->
          let top = List.hd (Gf.Recorder.recent (Service.recorder svc) 1) in
          check_string "recorded digest is the plan that ran" (Gf.Plan.signature p)
            top.Gf.Recorder.plan
      | None -> Alcotest.fail "an executed request reports its plan")
  | Error _ -> Alcotest.fail "plain request must run");
  let traced =
    { (Service.request triangle) with Service.text = "tri-traced"; trace = true }
  in
  (match Service.submit svc traced with
  | Ok r -> (
      check_bool "traced reply flagged" true r.Service.traced;
      let rc = Service.recorder svc in
      (match Gf.Recorder.find_trace rc r.Service.record_id with
      | Some json -> check_bool "retained trace is chrome json" true (has json "\"traceEvents\":[")
      | None -> Alcotest.fail "traced request must retain its trace");
      let recs = Gf.Recorder.recent rc 10 in
      check_int "both requests recorded" 2 (List.length recs);
      let top = List.hd recs in
      check_string "query text kept" "tri-traced" top.Gf.Recorder.query;
      check_bool "plan digest kept" true (top.Gf.Recorder.plan <> "" && top.Gf.Recorder.plan <> "?");
      check_bool "top operators from the trace" true
        (top.Gf.Recorder.top_ops <> [] && List.length top.Gf.Recorder.top_ops <= 3))
  | Error _ -> Alcotest.fail "traced request must run");
  let s = Service.stats svc in
  check_int "stats admitted" 2 s.Service.s_admitted;
  check_int "stats completed" 2 s.Service.s_completed;
  check_int "stats slowlog depth" 2 s.Service.s_slowlog;
  check_bool "stats breaker" true (s.Service.s_breaker = Breaker.Closed);
  check_bool "stats quantiles ordered" true
    (s.Service.s_p50_ms >= 0.0 && s.Service.s_p95_ms >= s.Service.s_p50_ms
   && s.Service.s_p99_ms >= s.Service.s_p95_ms)

(* --- socket server end-to-end ----------------------------------------- *)

(* [Server.serve] on a fresh Unix socket, on its own thread; returns once
   it listens. *)
let start_server svc =
  let dir = Filename.temp_file "gfsrv" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "gfq.sock" in
  let ready_m = Mutex.create () and ready_cv = Condition.create () in
  let ready = ref false in
  let server_thread =
    Thread.create
      (fun () ->
        Server.serve
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
  (dir, path, server_thread)

(* A connection to [path]; the function sends one line and reads one. *)
let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  ( fd,
    fun line ->
      output_string oc line;
      output_char oc '\n';
      flush oc;
      input_line ic )

let test_server_end_to_end () =
  let config =
    { Service.default_config with Service.workers = 2; ladder = ladder_cfg }
  in
  let svc = Service.create ~config (db ()) in
  let dir, path, server_thread = start_server svc in
  let fd, roundtrip = connect path in
  let has hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  check_string "ping" {|{"ok":true,"type":"pong"}|} (roundtrip "ping");
  let run = roundtrip "run rows=1 max_rows=2 q=a1->a2, a2->a3, a1->a3" in
  check_bool "run ok" true (has run "\"ok\":true");
  check_bool "run truncated" true (has run "truncated");
  check_bool "run rows" true (has run "\"rows\":[[");
  let bad = roundtrip "run q=@@@" in
  check_bool "parse error is structured" true (has bad "\"error\":\"parse\"");
  let m = roundtrip "metrics" in
  check_bool "metrics exposed" true (has m "gf_server_admitted_total");
  (* The flight-recorder surface: a traced run hands back a trace_id that
     the trace command resolves to retained Chrome JSON. *)
  let tr_run = roundtrip "run trace q=a1->a2, a2->a3, a1->a3" in
  check_bool "traced run flagged" true (has tr_run "\"traced\":true");
  let trace_id =
    let marker = "\"trace_id\":" in
    let mlen = String.length marker and len = String.length tr_run in
    let rec find i =
      if i + mlen > len then Alcotest.fail "traced reply carries no trace_id"
      else if String.sub tr_run i mlen = marker then i + mlen
      else find (i + 1)
    in
    let st = find 0 in
    let rec fin j = if j < len && tr_run.[j] >= '0' && tr_run.[j] <= '9' then fin (j + 1) else j in
    int_of_string (String.sub tr_run st (fin st - st))
  in
  let sl = roundtrip "slowlog 5" in
  check_bool "slowlog well-formed" true (has sl "\"ok\":true" && has sl "\"records\":[");
  check_bool "slowlog carries query text" true (has sl "a1-\\u003ea2" || has sl "a1->a2");
  let st_resp = roundtrip "stats" in
  check_bool "stats well-formed" true
    (has st_resp "\"ok\":true" && has st_resp "\"queue_depth\":" && has st_resp "\"breaker\":\""
   && has st_resp "\"p95_ms\":");
  let tresp = roundtrip (Printf.sprintf "trace id=%d" trace_id) in
  check_bool "trace fetched by id" true (has tresp "\"ok\":true" && has tresp "\"traceEvents\":[");
  check_bool "missing trace is structured" true (has (roundtrip "trace id=99999") "not_found");
  let bye = roundtrip "shutdown" in
  check_bool "shutdown acked" true (has bye "shutting_down");
  Thread.join server_thread;
  check_bool "socket removed" true (not (Sys.file_exists path));
  check_bool "service drained" true (Service.draining svc);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Unix.rmdir dir

(* A query that parses but that the planner rejects is answered with a
   structured failure naming the planner's reason, is not retried, hands
   its slot on to the next request and does not open the breaker. *)
let test_service_planner_rejection () =
  Metrics.reset ();
  let svc = Service.create ~config:(sync_config ~queue:16 ()) (db ()) in
  let run line =
    match Wire.parse_request line with
    | Ok (Wire.Run r) -> r
    | _ -> Alcotest.failf "%S does not parse" line
  in
  let rejected =
    List.init 10 (fun i -> run (if i mod 2 = 0 then "run q=MATCH (a)" else "run q=a1->a2, a2->a1"))
  in
  let tickets =
    List.map (fun r -> Result.get_ok (Service.submit_async svc r)) (rejected @ [ Service.request triangle ])
  in
  (* An exception escaping a request leaves the rest unanswered. *)
  let answered = Atomic.make None in
  let waiter =
    Thread.create (fun () -> Atomic.set answered (Some (List.map (Service.await svc) tickets))) ()
  in
  let rec wait n =
    match Atomic.get answered with
    | Some replies -> replies
    | None when n = 0 -> Alcotest.fail "requests left unanswered"
    | None ->
        Thread.delay 0.01;
        wait (n - 1)
  in
  let replies = wait 3000 in
  Thread.join waiter;
  List.iteri
    (fun i (reply : Service.reply) ->
      let r = reply.Service.result in
      if i < 10 then begin
        check_bool "rejected" true (Ladder.rejected r);
        (match r.Ladder.outcome with
        | Governor.Failed { operator; detail } ->
            check_string "operator" "planner" operator;
            check_bool "names the reason" true (detail <> "")
        | _ -> Alcotest.fail "expected Failed");
        check_int "one attempt" 1 r.Ladder.attempts;
        check_bool "no plan" true (r.Ladder.plan = None);
        let json = Result.get_ok (Gf_util.Json.parse (Wire.ok_run ~reply)) in
        check_bool "wire rung" true (Gf_util.Json.str "rung" json = Some "planner")
      end
      else begin
        check_bool "valid one completes" true (r.Ladder.outcome = Governor.Completed);
        check_int "valid one's matches" (snd (reference_rows (db ()) triangle))
          r.Ladder.counters.Gf.Counters.output
      end)
    replies;
  check_bool "breaker closed" true (Service.breaker_state svc = Breaker.Closed);
  Service.drain svc

(* Slots bound concurrency at the socket: six clients against two slots
   and a queue of two. Every request faults once, so each executing
   request takes exactly one ladder backoff, and the injected sleep counts
   how many run at once. Then the sleep parks both slot holders until a
   drain, two more tickets wait, and a shutdown answers all four. *)
let test_server_slots_bound () =
  let g = graph () in
  let expected = Gf.Naive.count g triangle in
  let lock = Mutex.create () in
  let inside = ref 0 and peak = ref 0 and park = ref false in
  let svc = ref None in
  let sleep _ =
    Mutex.lock lock;
    incr inside;
    peak := max !peak !inside;
    let parked = !park in
    Mutex.unlock lock;
    if parked then
      while not (Service.draining (Option.get !svc)) do
        Thread.delay 0.001
      done
    else Thread.delay 0.002;
    Mutex.lock lock;
    decr inside;
    Mutex.unlock lock
  in
  let config =
    {
      Service.default_config with
      Service.workers = 2;
      queue_capacity = 2;
      ladder = roomy_ladder;
      sleep;
    }
  in
  let s = Service.create ~config (Gf.Db.create g) in
  svc := Some s;
  let dir, path, server_thread = start_server s in
  let line = "run fault_at=5 q=a1->a2, a2->a3, a1->a3" in
  let parse reply = Result.get_ok (Gf_util.Json.parse reply) in
  let ok = Atomic.make 0 and shed = Atomic.make 0 in
  let client () =
    let fd, roundtrip = connect path in
    for _ = 1 to 5 do
      let j = parse (roundtrip line) in
      match Gf_util.Json.bool "ok" j with
      | Some true ->
          check_bool "completed" true (Gf_util.Json.str "outcome" j = Some "completed");
          check_bool "matches = Naive" true (Gf_util.Json.int "matches" j = Some expected);
          Atomic.incr ok
      | _ ->
          check_bool "refusal is a structured queue_full" true
            (Gf_util.Json.str "error" j = Some "rejected"
            && Gf_util.Json.str "reason" j = Some "queue_full");
          Atomic.incr shed
    done;
    Unix.close fd
  in
  List.iter Thread.join (List.init 6 (fun _ -> Thread.create client ()));
  check_int "every request answered" 30 (Atomic.get ok + Atomic.get shed);
  check_bool "requests ran" true (Atomic.get ok > 0);
  check_bool "never more than two at once" true (!peak >= 1 && !peak <= 2);
  (* Two slot holders parked in their backoff, two tickets queued. *)
  Mutex.lock lock;
  park := true;
  peak := 0;
  Mutex.unlock lock;
  let answers = Array.make 4 "" in
  let waiters =
    List.init 4 (fun i ->
        Thread.create
          (fun () ->
            let fd, roundtrip = connect path in
            answers.(i) <- roundtrip line;
            Unix.close fd)
          ())
  in
  let rec settle n =
    Mutex.lock lock;
    let held = !inside in
    Mutex.unlock lock;
    if held = 2 && Service.queue_depth s = 2 then ()
    else if n = 0 then Alcotest.fail "two running and two queued never seen"
    else begin
      Thread.delay 0.005;
      settle (n - 1)
    end
  in
  settle 2000;
  let fd, roundtrip = connect path in
  check_bool "shutdown acked" true
    (Gf_util.Json.str "type" (parse (roundtrip "shutdown")) = Some "shutting_down");
  List.iter Thread.join waiters;
  Thread.join server_thread;
  let replies = Array.to_list (Array.map parse answers) in
  check_bool "all four answered Truncated Cancelled" true
    (List.for_all (fun j -> Gf_util.Json.str "outcome" j = Some "truncated (cancelled)") replies);
  check_int "the queued two never ran" 2
    (List.length (List.filter (fun j -> Gf_util.Json.int "attempts" j = Some 0) replies));
  check_bool "service drained" true (Service.draining s);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Unix.rmdir dir

let suite =
  [
    ( "server.wire",
      [
        Alcotest.test_case "request parsing" `Quick test_wire_parse;
        Alcotest.test_case "slowlog framing" `Quick test_wire_slowlog_escaping;
      ] );
    ( "server.breaker",
      [
        Alcotest.test_case "state machine" `Quick test_breaker_state_machine;
        Alcotest.test_case "sliding window" `Quick test_breaker_sliding_window;
        Alcotest.test_case "half-open single probe under contention" `Quick
          test_breaker_half_open_single_probe;
      ] );
    ( "server.ladder",
      [
        Alcotest.test_case "retry recovers" `Quick test_ladder_retry_recovers;
        Alcotest.test_case "retry matches naive exactly" `Quick test_ladder_retry_exact_match;
        Alcotest.test_case "degraded rung truncates" `Quick test_ladder_degraded_rung;
        Alcotest.test_case "ladder exhausted" `Quick test_ladder_exhausted_fails;
      ] );
    ( "server.service",
      [
        Alcotest.test_case "queue full sheds" `Quick test_service_queue_full;
        Alcotest.test_case "breaker opens and recovers" `Quick test_service_breaker_recovery;
        Alcotest.test_case "retry metrics" `Quick test_service_retry_metrics;
        Alcotest.test_case "drain" `Quick test_service_drain;
        Alcotest.test_case "drain cancels in-flight" `Quick test_service_drain_cancels_inflight;
        Alcotest.test_case "flight recorder" `Quick test_service_flight_recorder;
        Alcotest.test_case "planner rejection answered" `Quick test_service_planner_rejection;
      ] );
    ( "server.socket",
      [
        Alcotest.test_case "end to end" `Quick test_server_end_to_end;
        Alcotest.test_case "slots bound concurrency" `Quick test_server_slots_bound;
      ] );
  ]
