(* Per-operator accounting: every operator counts into its own row, and
   the rows must fold *exactly* to the run's counter totals on every
   executor and however the run ended; the order-independent columns must
   agree between sequential and parallel runs operator by operator; and
   the opt-in profile only adds self time. Also covers the EXPLAIN ANALYZE
   join and the metrics registry. *)

open Gf_query
module Generators = Gf_graph.Generators
module Rng = Gf_util.Rng
module Plan = Gf_plan.Plan
module Exec = Gf_exec.Exec
module Counters = Gf_exec.Counters
module Governor = Gf_exec.Governor
module Profile = Gf_exec.Profile
module Metrics = Gf_exec.Metrics
module Parallel = Gf_exec.Parallel
module Catalog = Gf_catalog.Catalog
module Explain = Gf_opt.Explain
module Cost_model = Gf_opt.Cost_model
module Adaptive = Gf_adaptive.Adaptive
module Db = Graphflow.Db

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let graph () = Generators.holme_kim (Rng.create 11) ~n:300 ~m_per:4 ~p_triad:0.5 ~recip:0.4

(* Hybrid diamond-X: exercises SCAN, E/I and HASH-JOIN rows at once. *)
let hybrid_plan () =
  let q = Patterns.diamond_x in
  Plan.hash_join q (Plan.wco q [| 1; 2; 0 |]) (Plan.wco q [| 1; 2; 3 |])

let wco_plan () =
  let q = Patterns.q 5 in
  Plan.wco q (Array.init (Query.num_vertices q) Fun.id)

let plans () =
  [ ("hybrid", Patterns.diamond_x, hybrid_plan ()); ("wco", Patterns.q 5, wco_plan ()) ]

let sum f rows = Array.fold_left (fun acc r -> acc + f r) 0 rows

(* The per-operator rows must fold to the run's counter totals: each
   counted event increments exactly one row, and the run-level fields add
   nothing to the per-operator columns. *)
let check_sums msg (rows : Counters.t array) (c : Counters.t) =
  check_int (msg ^ ": produced") c.Counters.produced (sum (fun r -> r.Counters.produced) rows);
  check_int (msg ^ ": icost") c.Counters.icost (sum (fun r -> r.Counters.icost) rows);
  check_int (msg ^ ": cache hits") c.Counters.cache_hits
    (sum (fun r -> r.Counters.cache_hits) rows);
  check_int (msg ^ ": intersections") c.Counters.intersections
    (sum (fun r -> r.Counters.intersections) rows);
  check_int (msg ^ ": hj build") c.Counters.hj_build_tuples
    (sum (fun r -> r.Counters.hj_build_tuples) rows);
  check_int (msg ^ ": hj probe") c.Counters.hj_probe_tuples
    (sum (fun r -> r.Counters.hj_probe_tuples) rows);
  check_int (msg ^ ": no output on a row") 0 (sum (fun r -> r.Counters.output) rows)

(* Equal on every per-operator column. *)
let check_rows_equal msg (a : Counters.t array) (b : Counters.t array) =
  check_int (msg ^ ": row count") (Array.length a) (Array.length b);
  Array.iteri
    (fun i (x : Counters.t) ->
      let y = b.(i) in
      List.iter
        (fun (what, f) -> check_int (Printf.sprintf "%s: op %d %s" msg i what) (f x) (f y))
        [ ("produced", fun r -> r.Counters.produced); ("icost", fun r -> r.Counters.icost);
          ("cache hits", fun r -> r.Counters.cache_hits);
          ("intersections", fun r -> r.Counters.intersections);
          ("hj build", fun r -> r.Counters.hj_build_tuples);
          ("hj probe", fun r -> r.Counters.hj_probe_tuples) ])
    a

(* A cluster shard's run: the driving scan restricted to the [i]-th of [k]
   slices of its source space, as [Db.execute] compiles it. *)
let shard ?cache g plan i k =
  let n = Exec.num_scan_sources g plan in
  let lo = i * n / k and hi = (i + 1) * n / k in
  let target = Exec.driving_scan plan in
  let rewrite _ env node =
    if node == target then Some (Exec.scan env node (fun emit -> emit (Exec.Sources (lo, hi))))
    else None
  in
  Exec.run_rows ?cache ~rewrite g plan

let test_sum_consistency_sequential () =
  let g = graph () in
  List.iter
    (fun (name, _, plan) ->
      let prof = Profile.create plan in
      let c, rows, _ = Exec.run_rows ~prof g plan in
      check_int (name ^ ": one row per operator") (Array.length (Plan.operators plan))
        (Array.length rows);
      check_int (name ^ ": one profile op per operator") (Array.length rows)
        (Array.length (Profile.ops prof));
      Array.iteri (fun i o -> check_int (name ^ ": preorder ids") i o.Profile.id) (Profile.ops prof);
      check_sums (name ^ " timed") rows c;
      Array.iter
        (fun o -> check_bool (name ^ ": self time non-negative") true (o.Profile.time_s >= 0.))
        (Profile.ops prof);
      (* Untimed, enumerating and count-only runs count exactly what the
         timed run counted. *)
      let ce, erows, _ = Exec.run_rows ~sink:ignore g plan in
      check_sums (name ^ " enumerating") erows ce;
      check_rows_equal (name ^ ": enumerating = timed") rows erows;
      let cc, crows, _ = Exec.run_rows g plan in
      check_sums (name ^ " count-only root") crows cc;
      check_rows_equal (name ^ ": count-only = enumerating") erows crows;
      check_int (name ^ ": same output") ce.Counters.output cc.Counters.output)
    (plans ())

(* Every other executor: the parallel runner at 1, 2 and 4 domains
   (enumerating and count-only), the adaptive evaluator, and the union of
   four cluster shards. Every shard builds a HASH-JOIN's whole table, so
   only the WCO plan's shard rows union, with the cache off, to the full
   run's. *)
let test_sum_consistency_executors () =
  let g = graph () in
  let cat = Catalog.create ~z:150 g in
  List.iter
    (fun (name, q, plan) ->
      List.iter
        (fun d ->
          List.iter
            (fun (how, sink) ->
              let r = Parallel.run ~domains:d ~chunk:8 ?sink g plan in
              check_sums (Printf.sprintf "%s parallel(%d) %s" name d how) r.Parallel.rows
                r.Parallel.counters)
            [ ("enumerating", Some ignore); ("count-only", None) ])
        [ 1; 2; 4 ];
      let c, rows, _ = Adaptive.run cat g q plan in
      check_sums (name ^ " adaptive") rows c;
      let _, full, _ = Exec.run_rows ~cache:false g plan in
      let k = 4 in
      let runs = List.init k (fun i -> shard ~cache:false g plan i k) in
      List.iteri (fun i (c, rows, _) -> check_sums (Printf.sprintf "%s shard %d" name i) rows c) runs;
      let union =
        Array.mapi (fun i _ -> Counters.merge (List.map (fun (_, rows, _) -> rows.(i)) runs)) full
      in
      check_sums (name ^ " shard union") union
        (Counters.merge (List.map (fun (c, _, _) -> c) runs));
      if name = "wco" then check_rows_equal (name ^ ": shard union = full run") full union)
    (plans ())

(* A plan-cache feedback run is an untimed run with no sink: it counts at
   the root and carries no profile. Its explain rows must be an EXPLAIN
   ANALYZE run's on every column except the time. *)
let test_feedback_rows_equal_analyze () =
  let g = graph () in
  let cat = Catalog.create ~z:150 g in
  List.iter
    (fun (name, q, plan) ->
      let ests = Explain.estimates (Cost_model.create cat q) plan in
      let _, counts, _ = Exec.run_rows g plan in
      let prof = Profile.create plan in
      let _, tcounts, _ = Exec.run_rows ~prof g plan in
      List.iter2
        (fun (f : Explain.row) (a : Explain.row) ->
          check_bool
            (Printf.sprintf "%s: op %d feedback = analyze but time" name f.Explain.id)
            true
            ({ f with Explain.time_s = 0.0 } = { a with Explain.time_s = 0.0 });
          check_bool (name ^ ": feedback untimed") true (f.Explain.time_s = 0.0))
        (Explain.rows ests counts None)
        (Explain.rows ests tcounts (Some prof)))
    (plans ())

(* Parallel per-domain rows merged after the join must equal the
   sequential rows operator by operator for the order-independent
   columns. [cache:false] because cache-hit streaks (and hence per-operator
   icost) depend on tuple arrival order, which morsel scheduling permutes;
   with the cache off, icost is a pure function of the tuple set. *)
let test_parallel_merge_equals_sequential () =
  let g = graph () in
  List.iter
    (fun (name, _, plan) ->
      let sprof = Profile.create plan in
      let sc, srows, _ = Exec.run_rows ~cache:false ~prof:sprof g plan in
      let pprof = Profile.create plan in
      let r = Parallel.run ~domains:4 ~cache:false ~chunk:8 ~prof:pprof g plan in
      check_int (name ^ ": output") sc.Counters.output r.counters.Counters.output;
      Array.iter2
        (fun (s : Profile.op) (p : Profile.op) ->
          check_string (name ^ ": labels align") s.Profile.label p.Profile.label)
        (Profile.ops sprof) (Profile.ops pprof);
      check_rows_equal name srows r.Parallel.rows)
    (plans ())

(* Under a governor truncation the runs are cut off mid-pipeline at
   unpredictable points, so sequential equality is off the table — but the
   rows must still fold to the counters exactly, sequential and merged
   across domains. *)
let test_truncation_sum_consistency () =
  let g = graph () in
  List.iter
    (fun (name, _, plan) ->
      let total = Exec.count g plan in
      let cap = (total / 3) + 1 in
      let budget = Governor.budget ~max_output:cap () in
      let prof = Profile.create plan in
      let r = Parallel.run ~domains:4 ~chunk:4 ~budget ~prof g plan in
      check_bool (name ^ ": truncated") true
        (r.Parallel.outcome = Governor.Truncated Governor.Output_limit);
      check_sums (name ^ " truncated parallel") r.Parallel.rows r.counters;
      List.iter
        (fun (how, sink) ->
          let c, rows, o = Exec.run_rows ~budget ?sink g plan in
          check_bool (name ^ ": truncated " ^ how) true
            (o = Governor.Truncated Governor.Output_limit);
          check_int (name ^ ": capped " ^ how) cap c.Counters.output;
          check_sums (name ^ " truncated " ^ how) rows c)
        [ ("enumerating", Some ignore); ("count-only", None) ])
    (plans ())

(* Profiles refuse to merge across shapes and to explain foreign plans. *)
let test_shape_guards () =
  let hybrid = hybrid_plan () and wco = wco_plan () in
  check_bool "merge rejects different plans" true
    (try
       Profile.merge_into ~into:(Profile.create hybrid) (Profile.create wco);
       false
     with Invalid_argument _ -> true);
  let g = graph () in
  let db = Db.create ~z:150 g in
  let q = Patterns.diamond_x in
  let plan = fst (Db.plan db q) in
  let ests = Explain.estimates (Cost_model.create (Db.catalog db) q) plan in
  let _, counts, _ = Exec.run_rows g plan in
  check_bool "explain rejects foreign profile" true
    (try
       ignore (Explain.rows ests counts (Some (Profile.create (wco_plan ()))));
       false
     with Invalid_argument _ -> true);
  check_bool "explain rejects foreign counts" true
    (try
       ignore (Explain.rows ests (Array.append counts counts) None);
       false
     with Invalid_argument _ -> true)

(* EXPLAIN ANALYZE must be identically shaped whichever engine ran: same
   operators, same ids/labels, same estimates; actual cardinalities equal
   between sequential and parallel (tuple production is order-independent).
   Adaptive rows share the shape but charge whole-segment work to the chain
   root, so only its totals are compared. *)
let test_explain_analyze_shapes_agree () =
  let g = graph () in
  let db = Db.create ~z:150 g in
  let q = Patterns.diamond_x in
  let a_seq = Db.explain_analyze db q in
  let a_par = Db.explain_analyze ~domains:3 db q in
  let a_ad = Db.explain_analyze ~adaptive:true db q in
  let matches = Db.count db q in
  List.iter
    (fun (name, (a : Db.analysis)) ->
      check_int (name ^ ": matches") matches a.Db.counters.Counters.output;
      check_bool (name ^ ": completed") true (a.Db.outcome = Governor.Completed);
      check_int (name ^ ": one row per operator")
        (Array.length (Plan.operators a.Db.plan))
        (List.length a.Db.rows))
    [ ("sequential", a_seq); ("parallel", a_par); ("adaptive", a_ad) ];
  List.iter
    (fun (name, (a : Db.analysis)) ->
      List.iter2
        (fun (s : Explain.row) (o : Explain.row) ->
          check_int (name ^ ": ids") s.Explain.id o.Explain.id;
          check_string (name ^ ": labels") s.Explain.label o.Explain.label;
          check_bool (name ^ ": est_card") true (s.Explain.est_card = o.Explain.est_card);
          check_bool (name ^ ": est_cost") true (s.Explain.est_cost = o.Explain.est_cost))
        a_seq.Db.rows a.Db.rows)
    [ ("parallel", a_par); ("adaptive", a_ad) ];
  List.iter2
    (fun (s : Explain.row) (p : Explain.row) ->
      check_int "seq vs par act_card" s.Explain.act_card p.Explain.act_card)
    a_seq.Db.rows a_par.Db.rows;
  (* Whatever the engine (adaptive legitimately produces a different
     intermediate count — it reorders segments), each analysis's rows must
     sum to its own run's produced total. *)
  List.iter
    (fun (name, (a : Db.analysis)) ->
      check_int (name ^ ": act_card sums to produced") a.Db.counters.Counters.produced
        (List.fold_left (fun acc (r : Explain.row) -> acc + r.Explain.act_card) 0 a.Db.rows))
    [ ("sequential", a_seq); ("parallel", a_par); ("adaptive", a_ad) ];
  (* Both renderers accept every shape. *)
  List.iter
    (fun (a : Db.analysis) ->
      check_bool "text render" true (String.length (Db.analysis_to_string a) > 0);
      let j = Db.analysis_to_json a in
      check_bool "json render" true
        (String.length j > 0 && j.[0] = '{' && j.[String.length j - 1] = '}'))
    [ a_seq; a_par; a_ad ]

let contains hay needle =
  let re = Str.regexp_string needle in
  try
    ignore (Str.search_forward re hay 0);
    true
  with Not_found -> false

let test_metrics_registry () =
  Metrics.reset ();
  let c = Metrics.counter ~help:"a test counter" "test_ops_total" in
  Metrics.inc c;
  Metrics.inc ~by:4 c;
  check_int "counter accumulates" 5 (Metrics.counter_value c);
  check_int "creation is idempotent" 5 (Metrics.counter_value (Metrics.counter "test_ops_total"));
  let h = Metrics.histogram ~help:"a test histogram" "test_seconds" in
  Metrics.observe h 0.002;
  Metrics.observe h 1.5;
  check_int "histogram counts" 2 (Metrics.histogram_count h);
  check_bool "kind mismatch rejected" true
    (try
       ignore (Metrics.histogram "test_ops_total");
       false
     with Invalid_argument _ -> true);
  let e = Metrics.exposition () in
  List.iter
    (fun needle -> check_bool (needle ^ " exposed") true (contains e needle))
    [
      "# TYPE test_ops_total counter";
      "test_ops_total 5";
      "# TYPE test_seconds histogram";
      "test_seconds_bucket{le=\"+Inf\"} 2";
      "test_seconds_count 2";
    ];
  Metrics.reset ()

let test_db_metrics_instrumented () =
  Metrics.reset ();
  let g = graph () in
  let db = Db.create ~z:150 g in
  let q = Patterns.asymmetric_triangle in
  let n = Db.count db q in
  let (_ : Counters.t * Governor.outcome) = Db.run_gov ~budget:(Governor.budget ~max_output:1 ()) db q in
  check_int "queries counted" 2 (Metrics.counter_value (Metrics.counter "gf_queries_total"));
  check_bool "matches counted" true
    (Metrics.counter_value (Metrics.counter "gf_query_matches_total") >= n);
  check_int "truncations counted" 1
    (Metrics.counter_value (Metrics.counter "gf_queries_truncated_total"));
  check_int "latencies observed" 2 (Metrics.histogram_count (Metrics.histogram "gf_query_seconds"));
  check_bool "exposition carries query metrics" true
    (contains (Db.metrics_exposition ()) "gf_query_seconds_bucket");
  Metrics.reset ()

let suite =
  [
    ( "profile",
      [
        Alcotest.test_case "sequential sums to counters" `Quick test_sum_consistency_sequential;
        Alcotest.test_case "parallel merge = sequential" `Quick
          test_parallel_merge_equals_sequential;
        Alcotest.test_case "truncation stays consistent" `Quick test_truncation_sum_consistency;
        Alcotest.test_case "shape guards" `Quick test_shape_guards;
        Alcotest.test_case "explain analyze shapes agree" `Quick
          test_explain_analyze_shapes_agree;
        Alcotest.test_case "every executor sums to counters" `Quick
          test_sum_consistency_executors;
        Alcotest.test_case "feedback rows = explain analyze rows" `Quick
          test_feedback_rows_equal_analyze;
      ] );
    ( "metrics",
      [
        Alcotest.test_case "registry" `Quick test_metrics_registry;
        Alcotest.test_case "db instrumentation" `Quick test_db_metrics_instrumented;
      ] );
  ]
