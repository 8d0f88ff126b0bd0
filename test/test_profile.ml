(* Per-operator profiling: the boundary-switching attribution must be
   *conservative* (per-operator columns sum to the run's counter totals,
   whatever path ran and however it ended) and *order-independent* for the
   order-independent counters (parallel merge equals sequential per op).
   Also covers the EXPLAIN ANALYZE join and the metrics registry. *)

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
module Explain = Gf_opt.Explain
module Cost_model = Gf_opt.Cost_model
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

let sum f prof = Array.fold_left (fun acc o -> acc + f o) 0 (Profile.ops prof)

(* Per-operator columns must sum to the run's counter totals: the profiler
   only ever *attributes* counter deltas, it never creates or drops any. *)
let check_sums msg prof (c : Counters.t) =
  check_int (msg ^ ": produced") c.Counters.produced (sum (fun o -> o.Profile.produced) prof);
  check_int (msg ^ ": icost") c.Counters.icost (sum (fun o -> o.Profile.icost) prof);
  check_int (msg ^ ": cache hits") c.Counters.cache_hits
    (sum (fun o -> o.Profile.cache_hits) prof);
  check_int (msg ^ ": intersections") c.Counters.intersections
    (sum (fun o -> o.Profile.intersections) prof);
  check_int (msg ^ ": hj build") c.Counters.hj_build_tuples
    (sum (fun o -> o.Profile.hj_build) prof);
  check_int (msg ^ ": hj probe") c.Counters.hj_probe_tuples
    (sum (fun o -> o.Profile.hj_probe) prof)

let test_sum_consistency_sequential () =
  let g = graph () in
  List.iter
    (fun (name, plan) ->
      let prof = Profile.create plan in
      let c = fst (Exec.run_gov ~prof g plan) in
      check_int (name ^ ": one row per operator")
        (Array.length (Plan.operators plan))
        (Array.length (Profile.ops prof));
      Array.iteri
        (fun i o -> check_int (name ^ ": preorder ids") i o.Profile.id)
        (Profile.ops prof);
      check_sums name prof c;
      Array.iter
        (fun o -> check_bool (name ^ ": self time non-negative") true (o.Profile.time_s >= 0.))
        (Profile.ops prof);
      (* An unprofiled run is unchanged by profiling. *)
      check_int (name ^ ": same output") c.Counters.output
        (fst (Exec.run_gov g plan)).Counters.output)
    [ ("hybrid", hybrid_plan ()); ("wco", wco_plan ()) ]

(* Parallel per-domain profiles merged after the join must equal the
   sequential profile operator by operator for the order-independent
   columns. [cache:false] because cache-hit streaks (and hence per-operator
   icost) depend on tuple arrival order, which morsel scheduling permutes;
   with the cache off, icost is a pure function of the tuple set. *)
let test_parallel_merge_equals_sequential () =
  let g = graph () in
  List.iter
    (fun (name, plan) ->
      let sprof = Profile.create plan in
      let sc = fst (Exec.run_gov ~cache:false ~prof:sprof g plan) in
      let pprof = Profile.create plan in
      let r = Parallel.run ~domains:4 ~cache:false ~chunk:8 ~batch:16 ~prof:pprof g plan in
      check_int (name ^ ": output") sc.Counters.output r.counters.Counters.output;
      Array.iter2
        (fun (s : Profile.op) (p : Profile.op) ->
          check_string (name ^ ": labels align") s.Profile.label p.Profile.label;
          check_int
            (Printf.sprintf "%s: op %d produced" name s.Profile.id)
            s.Profile.produced p.Profile.produced;
          check_int
            (Printf.sprintf "%s: op %d icost" name s.Profile.id)
            s.Profile.icost p.Profile.icost;
          check_int
            (Printf.sprintf "%s: op %d intersections" name s.Profile.id)
            s.Profile.intersections p.Profile.intersections;
          check_int
            (Printf.sprintf "%s: op %d hj build" name s.Profile.id)
            s.Profile.hj_build p.Profile.hj_build;
          check_int
            (Printf.sprintf "%s: op %d hj probe" name s.Profile.id)
            s.Profile.hj_probe p.Profile.hj_probe)
        (Profile.ops sprof) (Profile.ops pprof))
    [ ("hybrid", hybrid_plan ()); ("wco", wco_plan ()) ]

(* Under a governor truncation the per-domain attribution is cut off
   mid-pipeline at unpredictable points, so sequential equality is off the
   table — but the merged profile must still sum to the merged counters
   exactly ([Profile.finish] charges the deltas outstanding on the [Trip]
   unwind path). *)
let test_truncation_sum_consistency () =
  let g = graph () in
  let plan = wco_plan () in
  let total = Exec.count g plan in
  let cap = (total / 3) + 1 in
  let prof = Profile.create plan in
  let r =
    Parallel.run ~domains:4 ~chunk:4 ~batch:8
      ~budget:(Governor.budget ~max_output:cap ())
      ~prof g plan
  in
  check_bool "truncated" true (r.Parallel.outcome = Governor.Truncated Governor.Output_limit);
  check_sums "truncated parallel" prof r.counters

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
  check_bool "explain rejects foreign profile" true
    (try
       ignore
         (Explain.rows
            (Explain.estimates (Cost_model.create (Db.catalog db) q) (fst (Db.plan db q)))
            (Profile.create (wco_plan ())));
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
      ] );
    ( "metrics",
      [
        Alcotest.test_case "registry" `Quick test_metrics_registry;
        Alcotest.test_case "db instrumentation" `Quick test_db_metrics_instrumented;
      ] );
  ]
