(* The observability layer: span traces (nesting, ring overwrite, balanced
   Chrome export, renderer), the flight recorder (ring, retention, slow
   promotion), metric quantiles and nanosecond sum precision, and the
   acceptance gates for traced runs: every begin has a matching end per
   tid, and the operator summary track sums to the profile's totals. *)

module Trace = Gf_obs.Trace
module Recorder = Gf_obs.Recorder
module Metrics = Gf_exec.Metrics
module Exec = Gf_exec.Exec
module Parallel = Gf_exec.Parallel
module Profile = Gf_exec.Profile
module Governor = Gf_exec.Governor
module Plan = Gf_plan.Plan
module Generators = Gf_graph.Generators
module Rng = Gf_util.Rng
module Json = Gf_util.Json
open Gf_query

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let has hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  nn = 0 || at 0

(* The acceptance gate for every exported trace: per tid, the B/E stream
   is a well-formed bracket sequence with matching names. *)
let check_balanced msg tr =
  let stacks = Hashtbl.create 8 in
  List.iter
    (fun (ph, tid, _ts, name) ->
      let st = Option.value (Hashtbl.find_opt stacks tid) ~default:[] in
      match ph with
      | 'B' -> Hashtbl.replace stacks tid (name :: st)
      | 'E' -> (
          match st with
          | top :: rest when top = name -> Hashtbl.replace stacks tid rest
          | _ -> Alcotest.fail (Printf.sprintf "%s: unmatched E %S on tid %d" msg name tid))
      | ph -> Alcotest.fail (Printf.sprintf "%s: unknown phase %c" msg ph))
    (Trace.chrome_events tr);
  Hashtbl.iter
    (fun tid st ->
      if st <> [] then
        Alcotest.fail (Printf.sprintf "%s: %d unclosed spans on tid %d" msg (List.length st) tid))
    stacks

(* --- trace core -------------------------------------------------------- *)

let test_trace_nesting () =
  let tr = Trace.create () in
  let b = Trace.buffer ~name:"worker" tr ~tid:7 in
  Trace.begin_span ~cat:"outer" b "a";
  Trace.begin_span b "b";
  Trace.instant b "tick";
  Trace.end_span ~args:[ ("rows", Trace.Int 3) ] b;
  Trace.end_span b;
  let spans = Trace.spans tr in
  check_int "three spans" 3 (List.length spans);
  let find n = List.find (fun s -> s.Trace.name = n) spans in
  check_int "outer depth" 0 (find "a").Trace.depth;
  check_int "inner depth" 1 (find "b").Trace.depth;
  check_int "instant depth" 2 (find "tick").Trace.depth;
  check_bool "end args recorded" true
    (List.mem_assoc "rows" (find "b").Trace.args);
  check_bool "inner within outer" true
    ((find "b").Trace.ts_us >= (find "a").Trace.ts_us
    && (find "b").Trace.ts_us + (find "b").Trace.dur_us
       <= (find "a").Trace.ts_us + (find "a").Trace.dur_us);
  check_balanced "nesting" tr;
  (* Stray end is ignored, not corrupting. *)
  Trace.end_span b;
  check_int "stray end ignored" 3 (List.length (Trace.spans tr))

let test_trace_ring_overwrite () =
  let tr = Trace.create ~capacity:16 () in
  let b = Trace.buffer tr ~tid:1 in
  for i = 1 to 50 do
    Trace.span b (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  check_int "ring keeps newest" 16 (List.length (Trace.spans tr));
  check_int "drops counted" 34 (Trace.dropped tr);
  check_bool "oldest survivor is s35" true
    (List.exists (fun s -> s.Trace.name = "s35") (Trace.spans tr));
  check_bool "s34 overwritten" true
    (not (List.exists (fun s -> s.Trace.name = "s34") (Trace.spans tr)));
  check_balanced "after overwrite" tr;
  check_bool "renderer reports drops" true (has (Trace.render tr) "34 spans dropped")

let test_trace_unwind () =
  (* A governor trip unwinds without orderly end_span calls; close_all must
     leave a balanced trace, and [span] must close on raise. *)
  let tr = Trace.create () in
  let b = Trace.buffer tr ~tid:1 in
  (try Trace.span b "raising" (fun () -> failwith "boom") with Failure _ -> ());
  Trace.begin_span b "p";
  Trace.begin_span b "q";
  Trace.begin_span b "r";
  Trace.close_all b;
  check_int "all recorded" 4 (List.length (Trace.spans tr));
  check_balanced "unwind" tr

let test_trace_chrome_json () =
  let tr = Trace.create () in
  let b = Trace.buffer ~name:"exec" tr ~tid:1 in
  Trace.span b "we\"ird\nname" (fun () -> Trace.instant b "i");
  let json = Trace.to_chrome_json tr in
  check_bool "envelope" true (has json "\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  check_bool "thread name metadata" true
    (has json "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1");
  check_bool "names escaped" true (has json "we\\\"ird\\nname");
  check_bool "timestamps normalized to zero" true (has json "\"ts\":0");
  check_bool "single line" true (not (String.contains json '\n'));
  (* Synthesized (add_complete) spans merge into the same stream. *)
  let t0 = Trace.now_us () in
  Trace.add_complete b ~name:"queue-wait" ~ts_us:(t0 - 500) ~dur_us:200;
  check_balanced "with synthesized span" tr

let test_trace_concurrent_domains () =
  (* Domains hammering their own buffers and the shared metrics registry
     concurrently: no events lost, per-tid streams balanced. *)
  Metrics.reset ();
  let tr = Trace.create ~capacity:4096 () in
  let h = Metrics.histogram "gf_test_obs_concurrent_seconds" in
  let c = Metrics.counter "gf_test_obs_concurrent_total" in
  let per_domain = 500 and domains = 4 in
  let work i () =
    let b = Trace.buffer ~name:(Printf.sprintf "domain %d" i) tr ~tid:(20 + i) in
    for j = 1 to per_domain do
      Trace.span b "work"
        ~args:[ ("j", Trace.Int j) ]
        (fun () ->
          Metrics.observe h 0.4e-6;
          Metrics.inc c)
    done
  in
  let ds = List.init domains (fun i -> Domain.spawn (work i)) in
  List.iter Domain.join ds;
  check_int "no spans lost" (domains * per_domain) (List.length (Trace.spans tr));
  check_int "no drops" 0 (Trace.dropped tr);
  check_balanced "concurrent" tr;
  check_int "no observations lost" (domains * per_domain) (Metrics.histogram_count h);
  check_int "no increments lost" (domains * per_domain) (Metrics.counter_value c);
  (* The satellite regression: 2000 sub-microsecond observations must not
     truncate to a zero _sum (they did when the sum was kept in µs). *)
  check_bool "sub-microsecond observations accumulate" true (Metrics.histogram_sum h > 0.0);
  Alcotest.(check (float 0.01)) "ns-accumulated sum" (float_of_int (domains * per_domain) *. 0.4e-6)
    (Metrics.histogram_sum h)

(* --- metrics: quantiles ------------------------------------------------ *)

let test_quantile () =
  Metrics.reset ();
  let buckets = [| 1.0; 2.0; 4.0; 8.0 |] in
  let h = Metrics.histogram ~buckets "gf_test_obs_quantile_seconds" in
  check_bool "empty is nan" true (Float.is_nan (Metrics.quantile h 0.5));
  for _ = 1 to 100 do
    Metrics.observe h 1.5
  done;
  (* All mass in (1,2]: linear interpolation inside that bucket. *)
  check_float "p50 of uniform bucket" 1.5 (Metrics.quantile h 0.5);
  check_float "p0 is bucket floor" 1.0 (Metrics.quantile h 0.0);
  check_float "p100 is bucket ceiling" 2.0 (Metrics.quantile h 1.0);
  let h2 = Metrics.histogram ~buckets "gf_test_obs_quantile2_seconds" in
  for _ = 1 to 50 do
    Metrics.observe h2 0.5
  done;
  for _ = 1 to 50 do
    Metrics.observe h2 3.0
  done;
  check_float "p25 in first bucket" 0.5 (Metrics.quantile h2 0.25);
  check_float "p50 at first bucket ceiling" 1.0 (Metrics.quantile h2 0.5);
  check_float "p75 in third bucket" 3.0 (Metrics.quantile h2 0.75);
  let h3 = Metrics.histogram ~buckets "gf_test_obs_quantile3_seconds" in
  for _ = 1 to 10 do
    Metrics.observe h3 100.0
  done;
  check_float "overflow reports last finite boundary" 8.0 (Metrics.quantile h3 0.5);
  check_float "clamped p" 8.0 (Metrics.quantile h3 2.0)

let test_sum_precision () =
  Metrics.reset ();
  let h = Metrics.histogram "gf_test_obs_precision_seconds" in
  for _ = 1 to 1000 do
    Metrics.observe h 0.4e-6
  done;
  check_bool "nonzero sum" true (Metrics.histogram_sum h > 0.0);
  Alcotest.(check (float 1e-6)) "sum close to 0.4ms" 4e-4 (Metrics.histogram_sum h);
  check_bool "exposition carries the nonzero sum" true
    (not (has (Metrics.exposition ()) "gf_test_obs_precision_seconds_sum 0.000000"))

(* --- flight recorder --------------------------------------------------- *)

let rec_one ?(traced = false) ?trace_json ?(latency = 0.01) r q =
  Recorder.record r ~query:q ~plan:"sig" ~outcome:"completed" ~latency_s:latency
    ~queue_s:0.0 ~rung:"sequential" ~attempts:1 ~retries:0 ~top_ops:[] ~traced ?trace_json ()

let test_recorder_ring () =
  let r = Recorder.create ~capacity:4 ~retain:2 ~slow_s:0.1 () in
  let ids = List.init 6 (fun i -> rec_one r (Printf.sprintf "q%d" (i + 1))) in
  check_bool "ids monotonic from 1" true (ids = [ 1; 2; 3; 4; 5; 6 ]);
  check_int "ring bounded" 4 (Recorder.length r);
  let recent = Recorder.recent r 10 in
  check_bool "newest first, oldest evicted" true
    (List.map (fun x -> x.Recorder.id) recent = [ 6; 5; 4; 3 ]);
  check_bool "recent k limits" true (List.length (Recorder.recent r 2) = 2);
  let j = Json.to_string (Recorder.record_to_json (List.hd recent)) in
  check_bool "record json has query" true (has j "\"query\":\"q6\"");
  check_bool "record json has outcome" true (has j "\"outcome\":\"completed\"")

let test_recorder_retention () =
  let r = Recorder.create ~capacity:32 ~retain:2 ~slow_s:0.1 () in
  let t1 = rec_one ~traced:true ~trace_json:"{\"n\":1}" r "t1" in
  let t2 = rec_one ~traced:true ~trace_json:"{\"n\":2}" r "t2" in
  let t3 = rec_one ~traced:true ~trace_json:"{\"n\":3}" r "t3" in
  check_bool "oldest recent trace evicted" true (Recorder.find_trace r t1 = None);
  check_bool "recent traces kept" true
    (Recorder.find_trace r t2 = Some "{\"n\":2}" && Recorder.find_trace r t3 = Some "{\"n\":3}");
  (* A slow trace is pinned: later traffic evicts recent traces around it. *)
  let s = rec_one ~traced:true ~trace_json:"{\"slow\":1}" ~latency:0.5 r "slow" in
  check_bool "slow flagged" true (List.exists (fun x -> x.Recorder.slow) (Recorder.recent r 1));
  let _ = rec_one ~traced:true ~trace_json:"{\"n\":4}" r "t4" in
  let _ = rec_one ~traced:true ~trace_json:"{\"n\":5}" r "t5" in
  let _ = rec_one ~traced:true ~trace_json:"{\"n\":6}" r "t6" in
  check_bool "slow trace outlives recent eviction" true
    (Recorder.find_trace r s = Some "{\"slow\":1}");
  check_bool "fast trace evicted meanwhile" true (Recorder.find_trace r t3 = None);
  check_bool "retained ids ascending include slow" true
    (let ids = Recorder.retained_ids r in
     List.mem s ids && List.sort compare ids = ids);
  check_float "threshold exposed" 0.1 (Recorder.slow_threshold r)

let test_recorder_json_escaping () =
  let r = Recorder.create () in
  let _ = rec_one r "a\nb\"c\\d" in
  let j = Json.to_string (Recorder.record_to_json (List.hd (Recorder.recent r 1))) in
  check_bool "one line" true (not (String.contains j '\n'));
  check_bool "newline escaped" true (has j "a\\nb\\\"c\\\\d")

(* --- traced runs: the acceptance gates --------------------------------- *)

let graph () = Generators.holme_kim (Rng.create 11) ~n:300 ~m_per:4 ~p_triad:0.5 ~recip:0.4

let hybrid_plan () =
  let q = Patterns.diamond_x in
  Plan.hash_join q (Plan.wco q [| 1; 2; 0 |]) (Plan.wco q [| 1; 2; 3 |])

(* Operator summary track vs the profile it was synthesized from: the span
   durations must sum to the profile's total self time within 5% (they are
   packed from per-op µs roundings, so in practice they are equal). *)
let check_operator_track msg tr prof =
  let ops_total =
    Array.fold_left (fun acc o -> acc +. o.Profile.time_s) 0.0 (Profile.ops prof)
  in
  let track =
    List.filter (fun s -> s.Trace.cat = "operator") (Trace.spans tr)
    |> List.fold_left (fun acc s -> acc +. (float_of_int s.Trace.dur_us /. 1e6)) 0.0
  in
  check_int (msg ^ ": one span per operator")
    (Array.length (Profile.ops prof))
    (List.length (List.filter (fun s -> s.Trace.cat = "operator") (Trace.spans tr)));
  check_bool
    (Printf.sprintf "%s: operator track %.6fs within 5%% of profile %.6fs" msg track ops_total)
    true
    (Float.abs (track -. ops_total) <= (0.05 *. ops_total) +. 3e-6)

let test_traced_sequential () =
  let g = graph () in
  let plan = hybrid_plan () in
  let tr = Trace.create () in
  let prof = Profile.create plan in
  let c, outcome = Exec.run_gov ~prof ~trace:tr g plan in
  check_bool "completed" true (outcome = Governor.Completed);
  check_bool "produced matches" true (c.Gf_exec.Counters.output > 0);
  check_balanced "sequential traced" tr;
  check_bool "execute span present" true
    (List.exists (fun s -> s.Trace.name = "execute") (Trace.spans tr));
  check_bool "hash-join build span present" true
    (List.exists (fun s -> s.Trace.name = "hj-build") (Trace.spans tr));
  check_operator_track "sequential" tr prof

let test_traced_sequential_trip () =
  (* A budget trip unwinds mid-pipeline; the exported trace must still be
     balanced (the executor's close_all covers the abandoned stack). *)
  let g = graph () in
  let plan = hybrid_plan () in
  let tr = Trace.create () in
  let _, outcome =
    Exec.run_gov ~budget:(Governor.budget ~max_output:5 ()) ~trace:tr g plan
  in
  check_bool "truncated" true
    (match outcome with Governor.Truncated _ -> true | _ -> false);
  check_balanced "truncated traced" tr

let test_traced_parallel () =
  let g = graph () in
  let plan = hybrid_plan () in
  let tr = Trace.create () in
  let prof = Profile.create plan in
  let report = Parallel.run ~domains:4 ~prof ~trace:tr g plan in
  check_bool "parallel completed" true (report.Parallel.outcome = Governor.Completed);
  check_balanced "parallel traced" tr;
  let spans = Trace.spans tr in
  let tids = List.sort_uniq compare (List.map (fun s -> s.Trace.tid) spans) in
  check_bool "coordinator + 4 domains + operator track" true
    (List.for_all (fun t -> List.mem t tids) [ 9; 10; 11; 12; 13; 100 ]);
  check_bool "worker root spans" true
    (List.length (List.filter (fun s -> s.Trace.name = "worker") spans) = 4);
  check_bool "morsel spans recorded" true
    (List.exists (fun s -> s.Trace.name = "morsel") spans);
  check_operator_track "parallel" tr prof;
  (* Sequential and parallel agree on the answer even when traced. *)
  let c_seq = fst (Exec.run_gov g plan) in
  check_int "traced parallel count matches sequential"
    c_seq.Gf_exec.Counters.output report.counters.Gf_exec.Counters.output

(* --- cross-process spans: export, graft, skew -------------------------- *)

let test_export_graft_roundtrip () =
  (* A "worker" trace with hostile names/args is serialized, shipped, and
     grafted into a "coordinator" trace: everything must survive the wire
     encoding, land on its own process track, and stay balanced. *)
  let worker = Trace.create () in
  let wb = Trace.buffer ~name:"exec|thread;1" worker ~tid:3 in
  Trace.begin_span ~cat:"we|ird;cat" wb "sp|an;on\nwire";
  Trace.begin_span wb "inner";
  Trace.end_span ~args:[ ("rows", Trace.Int 42); ("sel", Trace.Float 0.125); ("q", Trace.Str "a,b|c;d") ] wb;
  Trace.end_span wb;
  let line = Json.to_string (Trace.export_spans worker) in
  check_bool "wire data is one line" true (not (String.contains line '\n'));
  let data = match Json.parse line with Ok v -> v | Error e -> Alcotest.fail e in
  let coord = Trace.create () in
  let cb = Trace.buffer ~name:"coordinator" coord ~tid:1 in
  Trace.span cb "request" (fun () -> ());
  Trace.graft coord ~pid:4242 ~pname:"w0 (unix:/w0.sock)" ~skew_us:1_000_000 data;
  let spans = Trace.spans coord in
  check_int "local + grafted spans" 3 (List.length spans);
  let find n = List.find (fun s -> s.Trace.name = n) spans in
  let outer = find "sp|an;on\nwire" in
  check_int "grafted pid" 4242 outer.Trace.pid;
  check_int "grafted tid preserved" 3 outer.Trace.tid;
  check_bool "category survives" true (outer.Trace.cat = "we|ird;cat");
  let inner = find "inner" in
  check_int "depth survives" 1 inner.Trace.depth;
  check_bool "int arg survives" true (List.assoc "rows" inner.Trace.args = Trace.Int 42);
  check_bool "float arg survives exactly" true (List.assoc "sel" inner.Trace.args = Trace.Float 0.125);
  check_bool "string arg survives" true (List.assoc "q" inner.Trace.args = Trace.Str "a,b|c;d");
  (* Skew adjustment: the worker clock ran 1s ahead, so grafted timestamps
     come back shifted down by exactly that much. *)
  let worker_outer =
    List.find (fun s -> s.Trace.name = "sp|an;on\nwire") (Trace.spans worker)
  in
  check_int "skew subtracted" (worker_outer.Trace.ts_us - 1_000_000) outer.Trace.ts_us;
  check_balanced "grafted trace" coord;
  let json = Trace.to_chrome_json coord in
  check_bool "worker process track named" true
    (has json "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":4242");
  check_bool "coordinator process track named" true
    (has json "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1");
  check_bool "grafted thread name carries pid" true
    (has json "\"ph\":\"M\",\"pid\":4242,\"tid\":3");
  check_bool "events carry their pid" true (has json "\"pid\":4242,\"tid\":3,\"args\"");
  check_bool "single line" true (not (String.contains json '\n'));
  check_bool "renderer shows the process" true (has (Trace.render coord) "w0 (unix:/w0.sock)")

let test_graft_malformed () =
  (* Garbage from the wire must never corrupt the local trace: bad entries
     are skipped, good ones in the same array still land. *)
  let parse text = match Json.parse text with Ok v -> v | Error e -> Alcotest.fail e in
  let good = {|{"tid":1,"ts":10,"dur":5,"depth":0,"name":"ok","cat":"cat","args":{}}|} in
  let tr = Trace.create () in
  Trace.graft tr ~pid:7 ~pname:"w" ~skew_us:0
    (parse
       ({|["garbage",{"tid":"x","ts":1,"dur":2,"depth":0,"name":"n","cat":""},|}
      ^ {|{"tid":"n","tname":"n"},{"tid":1,"ts":10,"dur":5,"name":"no depth","cat":""},|}
      ^ {|[1,2],null,{},|} ^ good ^ {|,{"tid":2,"tname":"fine"}]|}));
  let spans = Trace.spans tr in
  check_int "only the well-formed span landed" 1 (List.length spans);
  check_bool "its name decoded" true ((List.hd spans).Trace.name = "ok");
  check_balanced "after malformed graft" tr;
  (* A payload that is not an array at all grafts nothing. *)
  Trace.graft tr ~pid:9 ~pname:"w''" ~skew_us:0 (parse {|{"spans":"S|1|10|5|0|ok|cat|"}|});
  check_int "non-array payload ignored" 1 (List.length (Trace.spans tr));
  (* Graft into a live trace twice (two replicas of the same shard answer):
     tracks are distinct per pid so nothing collides. *)
  Trace.graft tr ~pid:8 ~pname:"w'" ~skew_us:0 (parse ("[" ^ good ^ "]"));
  check_int "second process grafted" 2 (List.length (Trace.spans tr));
  check_int "two pids" 2 (List.length (Trace.pids tr));
  check_balanced "two grafts" tr

(* --- metrics: labels and exposition ------------------------------------ *)

let test_metrics_labels () =
  Metrics.reset ();
  let c0 = Metrics.counter ~help:"a counter" "gf_test_labels_total" in
  let ca = Metrics.counter ~labels:[ ("shard", "0") ] "gf_test_labeled_total" in
  let cb = Metrics.counter ~labels:[ ("shard", "1") ] "gf_test_labeled_total" in
  Metrics.inc c0;
  Metrics.inc ~by:2 ca;
  Metrics.inc ~by:5 cb;
  (* Same (name, labels) must resolve to the same series; label order must
     not mint a new one. *)
  check_bool "same series" true
    (Metrics.counter ~labels:[ ("shard", "0") ] "gf_test_labeled_total" == ca);
  let h = Metrics.histogram ~labels:[ ("shard", "0"); ("role", "w") ] "gf_test_labeled_seconds" in
  Metrics.observe h 0.5;
  let esc = Metrics.counter ~labels:[ ("q", "he said \"hi\"\\\n") ] "gf_test_escaped_total" in
  Metrics.inc esc;
  let e = Metrics.exposition () in
  check_bool "bare sample unchanged" true (has e "gf_test_labels_total 1\n");
  check_bool "labeled samples" true
    (has e "gf_test_labeled_total{shard=\"0\"} 2\n" && has e "gf_test_labeled_total{shard=\"1\"} 5\n");
  (* One HELP/TYPE header per family, not per labeled series. *)
  let count_sub needle =
    let nh = String.length e and nn = String.length needle in
    let rec go i acc =
      if i + nn > nh then acc
      else go (i + 1) (if String.sub e i nn = needle then acc + 1 else acc)
    in
    go 0 0
  in
  check_int "one TYPE line per family" 1 (count_sub "# TYPE gf_test_labeled_total counter");
  check_bool "histogram labels sorted, le last" true
    (has e "gf_test_labeled_seconds_bucket{role=\"w\",shard=\"0\",le=\"+Inf\"} 1\n");
  check_bool "histogram sum/count labeled" true
    (has e "gf_test_labeled_seconds_count{role=\"w\",shard=\"0\"} 1\n");
  check_bool "label values escaped" true
    (has e "gf_test_escaped_total{q=\"he said \\\"hi\\\"\\\\\\n\"} 1\n");
  Metrics.reset ()

(* --- the /metrics HTTP listener ----------------------------------------- *)

let test_expose_http () =
  let hits = ref 0 in
  let ex =
    match
      Gf_obs.Expose.start ~port:0
        [
          ("/metrics", fun () -> incr hits; ("text/plain; version=0.0.4", "gf_up 1\n"));
          ("/healthz", fun () -> ("text/plain", "ok\n"));
          ("/boom", fun () -> failwith "handler bug");
        ]
    with
    | Ok ex -> ex
    | Error m -> Alcotest.fail ("expose start: " ^ m)
  in
  let port = Gf_obs.Expose.port ex in
  check_bool "picked a real port" true (port > 0);
  let get path =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    let req = Printf.sprintf "GET %s HTTP/1.0\r\nHost: x\r\n\r\n" path in
    ignore (Unix.write_substring fd req 0 (String.length req));
    let buf = Buffer.create 256 and chunk = Bytes.create 1024 in
    let rec drain () =
      match Unix.read fd chunk 0 1024 with
      | 0 -> ()
      | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
      | exception Unix.Unix_error _ -> ()
    in
    drain ();
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Buffer.contents buf
  in
  let metrics = get "/metrics" in
  check_bool "200" true (has metrics "HTTP/1.0 200 OK");
  check_bool "content type" true (has metrics "Content-Type: text/plain; version=0.0.4");
  check_bool "content length" true (has metrics "Content-Length: 8");
  check_bool "body" true (has metrics "gf_up 1\n");
  check_int "handler ran once" 1 !hits;
  check_bool "query string routes too" true (has (get "/metrics?x=1") "gf_up 1");
  check_bool "healthz" true (has (get "/healthz") "ok");
  check_bool "404 structured" true (has (get "/nope") "HTTP/1.0 404 Not Found");
  check_bool "handler exception is a 500, not a crash" true
    (has (get "/boom") "HTTP/1.0 500 Internal Server Error");
  check_bool "still serving after the 500" true (has (get "/metrics") "gf_up 1");
  Gf_obs.Expose.stop ex;
  Gf_obs.Expose.stop ex (* idempotent *)

let suite =
  [
    ( "obs.trace",
      [
        Alcotest.test_case "nesting and balance" `Quick test_trace_nesting;
        Alcotest.test_case "ring overwrite" `Quick test_trace_ring_overwrite;
        Alcotest.test_case "unwind paths" `Quick test_trace_unwind;
        Alcotest.test_case "chrome json export" `Quick test_trace_chrome_json;
        Alcotest.test_case "concurrent domains" `Quick test_trace_concurrent_domains;
        Alcotest.test_case "export/graft roundtrip" `Quick test_export_graft_roundtrip;
        Alcotest.test_case "graft skips malformed records" `Quick test_graft_malformed;
      ] );
    ( "obs.metrics",
      [
        Alcotest.test_case "quantiles" `Quick test_quantile;
        Alcotest.test_case "nanosecond sum precision" `Quick test_sum_precision;
        Alcotest.test_case "labels and exposition" `Quick test_metrics_labels;
      ] );
    ( "obs.expose",
      [ Alcotest.test_case "http listener" `Quick test_expose_http ] );
    ( "obs.recorder",
      [
        Alcotest.test_case "bounded ring" `Quick test_recorder_ring;
        Alcotest.test_case "trace retention and slow pinning" `Quick test_recorder_retention;
        Alcotest.test_case "json escaping" `Quick test_recorder_json_escaping;
      ] );
    ( "obs.traced-runs",
      [
        Alcotest.test_case "sequential" `Quick test_traced_sequential;
        Alcotest.test_case "budget trip stays balanced" `Quick test_traced_sequential_trip;
        Alcotest.test_case "parallel acceptance" `Quick test_traced_parallel;
      ] );
  ]
