(* The plan cache: hit/miss/replan accounting, canonical-space skeleton
   instantiation across renumbered isomorphs, graph-version invalidation,
   one-shot feedback with at most one corrected replan, cost-aware eviction, stored estimates,
   and thread safety. *)

module Gf = Graphflow
module Plan_cache = Gf.Plan_cache

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let graph () =
  Gf.Generators.holme_kim (Gf.Rng.create 81) ~n:200 ~m_per:4 ~p_triad:0.5 ~recip:0.3

let db_with_cache ?(capacity = 16) () =
  let cache = Plan_cache.create ~capacity () in
  (Gf.Db.create ~z:200 ~plan_cache:cache (graph ()), cache)

let triangle = Gf.Db.parse_query "a1->a2, a2->a3, a1->a3"

(* The same labeled shape as [triangle], submitted under a different vertex
   numbering (the scanned edge differs, every edge is renamed). *)
let triangle_renumbered = Gf.Db.parse_query "a3->a1, a1->a2, a3->a2"

(* A 2-path, whose estimates on [graph ()] are within 4x of its actuals. *)
let within_threshold = Gf.Db.parse_query "a1->a2, a2->a3"

let test_hit_on_resubmission () =
  let db, cache = db_with_cache () in
  let expected = Gf.Naive.count (Gf.Db.graph db) triangle in
  check_int "first run" expected (Gf.Db.count db triangle);
  check_int "second run" expected (Gf.Db.count db triangle);
  let s = Plan_cache.stats cache in
  check_int "one miss" 1 s.Plan_cache.misses;
  check_bool "hits recorded" true (s.Plan_cache.hits >= 1);
  check_int "one entry" 1 s.Plan_cache.entries;
  let p1, _ = Gf.Db.plan db triangle in
  let p2, _ = Gf.Db.plan db triangle in
  check_string "same signature" (Gf.Plan.signature p1) (Gf.Plan.signature p2)

let test_isomorph_shares_entry () =
  let db, cache = db_with_cache () in
  let expected = Gf.Naive.count (Gf.Db.graph db) triangle in
  check_int "original numbering" expected (Gf.Db.count db triangle);
  (* The renumbered isomorph must be served from the same entry — and the
     instantiated plan must be correct for ITS numbering, not the cached
     query's. *)
  check_int "renumbered isomorph" expected (Gf.Db.count db triangle_renumbered);
  let s = Plan_cache.stats cache in
  check_int "single template" 1 s.Plan_cache.entries;
  check_int "no second miss" 1 s.Plan_cache.misses;
  check_bool "served from cache" true (s.Plan_cache.hits >= 1)

let test_version_bump_misses () =
  let db, cache = db_with_cache () in
  ignore (Gf.Db.plan db triangle);
  let s0 = Plan_cache.stats cache in
  check_int "miss then" 1 s0.Plan_cache.misses;
  (* Re-seating on a graph (the merge-publication path) advances the version:
     the old entry must not be served. *)
  let db2 = Gf.Db.with_graph db (graph ()) in
  check_bool "version advanced" true (Gf.Db.graph_version db2 > Gf.Db.graph_version db);
  ignore (Gf.Db.plan db2 triangle);
  let s1 = Plan_cache.stats cache in
  check_int "stale version misses" 2 s1.Plan_cache.misses;
  check_int "replaced, not duplicated" 1 s1.Plan_cache.entries

let test_invalidate () =
  let db, cache = db_with_cache () in
  ignore (Gf.Db.plan db triangle);
  ignore (Gf.Db.plan db Gf.Patterns.diamond_x);
  check_int "two entries" 2 (Plan_cache.stats cache).Plan_cache.entries;
  Plan_cache.invalidate cache;
  let s = Plan_cache.stats cache in
  check_int "empty" 0 s.Plan_cache.entries;
  check_int "one invalidation" 1 s.Plan_cache.invalidations

let synthetic_rows ?(act = fun _ -> 1_000_000) plan =
  Gf.Plan.operators plan |> Array.to_list
  |> List.map (fun (node, id) ->
         {
           Gf.Explain.id;
           label = "synthetic";
           kind = Gf.Profile.Scan;
           depth = 0;
           est_card = 10.0;
           act_card = act node;
           card_q = 1.0;
           est_cost = 0.0;
           act_cost = 0.0;
           cost_q = None;
           time_s = 0.0;
           cache_hits = 0;
           intersections = 0;
           hj_build = 0;
           hj_probe = 0;
         })

(* Synthetic q-errors: one observation whose actuals dwarf the estimates
   marks the entry, the next lookup replans under the observed ratios, and
   the entry is final from then on: later observations fold nothing and
   every later lookup hits. *)
let test_drift_triggers_replan () =
  let db, cache = db_with_cache () in
  let cat = Gf.Db.catalog db in
  let opts = Gf.Planner.default_opts in
  let r0 = Plan_cache.lookup cache ~opts ~graph_version:0 cat triangle in
  check_bool "cold lookup misses" true (r0.Plan_cache.outcome = Plan_cache.Miss);
  check_bool "first run is observed" true r0.Plan_cache.feedback_due;
  check_bool "fresh entry not stale" false (Plan_cache.is_stale cache triangle);
  Plan_cache.observe cache ~graph_version:0 triangle r0.Plan_cache.plan
    (synthetic_rows r0.Plan_cache.plan);
  check_bool "drift marked" true (Plan_cache.is_stale cache triangle);
  let r1 = Plan_cache.lookup cache ~opts ~graph_version:0 cat triangle in
  check_bool "stale entry replans" true (r1.Plan_cache.outcome = Plan_cache.Replan);
  check_bool "replan is not observed" false r1.Plan_cache.feedback_due;
  for _ = 1 to 5 do
    Plan_cache.observe cache ~graph_version:0 triangle r1.Plan_cache.plan
      (synthetic_rows r1.Plan_cache.plan);
    check_bool "final entry not stale" false (Plan_cache.is_stale cache triangle);
    let r = Plan_cache.lookup cache ~opts ~graph_version:0 cat triangle in
    check_bool "final entry hits" true (r.Plan_cache.outcome = Plan_cache.Hit);
    check_bool "hit is not observed" false r.Plan_cache.feedback_due
  done;
  let s = Plan_cache.stats cache in
  check_int "one replan" 1 s.Plan_cache.replans;
  check_int "one fold" 1 s.Plan_cache.feedbacks

(* The replan's plan-cache span names the subset that drove it and its
   q-error: here only the root, the whole canonical vertex set, is off. *)
let test_replan_span_says_why () =
  let db, cache = db_with_cache () in
  let cat = Gf.Db.catalog db in
  let opts = Gf.Planner.default_opts in
  let r0 = Plan_cache.lookup cache ~opts ~graph_version:0 cat triangle in
  let all = Gf.Plan.var_set r0.Plan_cache.plan in
  Plan_cache.observe cache ~graph_version:0 triangle r0.Plan_cache.plan
    (synthetic_rows r0.Plan_cache.plan ~act:(fun node ->
         if Gf.Plan.var_set node = all then 5_000 else 10));
  let tr = Gf.Trace.create () in
  let r1 =
    Plan_cache.lookup ~trace:(Gf.Trace.buffer tr ~tid:1) cache ~opts ~graph_version:0 cat
      triangle
  in
  check_bool "replans" true (r1.Plan_cache.outcome = Plan_cache.Replan);
  match List.filter (fun sp -> sp.Gf.Trace.name = "plan-cache") (Gf.Trace.spans tr) with
  | [ sp ] ->
      let arg k = List.assoc_opt k sp.Gf.Trace.args in
      check_bool "outcome" true (arg "outcome" = Some (Gf.Trace.Str "replan"));
      check_bool "subset" true (arg "subset" = Some (Gf.Trace.Str "0,1,2"));
      check_bool "qerror" true (arg "qerror" = Some (Gf.Trace.Float 500.0))
  | l -> Alcotest.failf "%d plan-cache spans" (List.length l)

(* The five 3-vertex templates without anti-parallel pairs. *)
let three_vertex =
  List.map Gf.Db.parse_query
    [ "a1->a2, a2->a3, a1->a3"; "a1->a2, a2->a3, a3->a1"; "a1->a2, a2->a3"; "a1->a2, a3->a2";
      "a2->a1, a2->a3" ]

let test_bounded_eviction () =
  let db, cache = db_with_cache ~capacity:4 () in
  for i = 1 to 8 do
    ignore (Gf.Db.plan db (Gf.Patterns.q i))
  done;
  let s = Plan_cache.stats cache in
  check_bool "bounded" true (s.Plan_cache.entries <= 4);
  check_int "evictions" 4 s.Plan_cache.evictions;
  check_int "all cold" 8 s.Plan_cache.misses;
  (* Cost: at capacity, a 7-vertex template outlives the cheaper 3-vertex
     templates inserted after it (recency alone would evict it first). *)
  let db, cache = db_with_cache ~capacity:4 () in
  let seven = Gf.Patterns.path 7 in
  ignore (Gf.Db.plan db seven);
  List.iter (fun q -> ignore (Gf.Db.plan db q)) three_vertex;
  check_int "two evictions" 2 (Plan_cache.stats cache).Plan_cache.evictions;
  check_bool "7-vertex survives" true (Plan_cache.mem cache seven);
  check_bool "oldest 3-vertex evicted" false (Plan_cache.mem cache (List.hd three_vertex));
  (* Aging: a 3-vertex template hit on every round outlives a cold 7-vertex
     one while cold 3-vertex templates churn through the other slots. Each
     eviction raises the inflation, which the cold entry's priority never
     catches up with. *)
  let db, cache = db_with_cache ~capacity:4 () in
  let hot = List.hd three_vertex and cold = Array.of_list (List.tl three_vertex) in
  ignore (Gf.Db.plan db seven);
  let rec churn round =
    if round > 2000 || not (Plan_cache.mem cache seven) then round
    else begin
      ignore (Gf.Db.plan db hot);
      ignore (Gf.Db.plan db cold.(round mod Array.length cold));
      check_bool "hot template kept" true (Plan_cache.mem cache hot);
      churn (round + 1)
    end
  in
  check_bool "cold 7-vertex ages out" true (churn 0 <= 2000);
  (* Determinism: eviction reads no clock, so two replays of one seeded
     sequence over fresh caches evict the same entries at the same steps. *)
  let pool = Array.of_list (three_vertex @ List.init 8 (fun i -> Gf.Patterns.q (i + 1))) in
  let replay () =
    let db, cache = db_with_cache ~capacity:4 () in
    let rng = Gf.Rng.create 11 in
    List.init 120 (fun _ ->
        let q = pool.(Gf.Rng.int rng (Array.length pool)) in
        ignore (Gf.Db.plan db q);
        let s = Plan_cache.stats cache in
        (s.Plan_cache.misses, s.Plan_cache.evictions, Array.map (Plan_cache.mem cache) pool))
  in
  let a = replay () and b = replay () in
  check_bool "replay evicts" true
    (match List.rev a with (_, ev, _) :: _ -> ev > 0 | [] -> false);
  check_bool "replays evict identically" true (a = b)

(* Feedback and EXPLAIN ANALYZE rows join the estimates the cache stored
   at plan time. They must be the rows a fresh uncorrected model gives for
   the plan that ran: bit for bit on a miss, and on a replan chosen under
   corrections (the stored estimates stay uncorrected); within float
   rounding on a re-numbered hit, whose sums run in another edge order. *)
let test_stored_estimates () =
  let db, cache = db_with_cache () in
  let g = Gf.Db.graph db and cat = Gf.Db.catalog db in
  let opts = Gf.Planner.default_opts in
  let counted (r : Plan_cache.lookup_result) =
    let _, counts, _ = Gf.Exec.run_rows g r.Plan_cache.plan in
    counts
  in
  let compare name ~same q (r : Plan_cache.lookup_result) =
    let counts = counted r in
    let stored = Gf.Explain.rows r.Plan_cache.estimates counts None in
    let fresh =
      Gf.Explain.rows
        (Gf.Explain.estimates
           (Gf.Cost_model.create ~cache_conscious:opts.Gf.Planner.cache_conscious
              ~weights:opts.Gf.Planner.weights cat q)
           r.Plan_cache.plan)
        counts None
    in
    check_int (name ^ ": rows") (List.length fresh) (List.length stored);
    List.iter2
      (fun (a : Gf.Explain.row) (b : Gf.Explain.row) ->
        List.iter
          (fun (what, x, y) ->
            let ok =
              if same then Int64.bits_of_float x = Int64.bits_of_float y
              else Float.abs (x -. y) <= 1e-9 *. Float.max (Float.abs x) (Float.abs y)
            in
            if not ok then
              Alcotest.failf "%s: op %d %s: stored %.17g, fresh %.17g" name a.Gf.Explain.id
                what x y)
          [ ("est_card", a.Gf.Explain.est_card, b.Gf.Explain.est_card);
            ("est_cost", a.Gf.Explain.est_cost, b.Gf.Explain.est_cost) ])
      stored fresh
  in
  let rng = Gf.Rng.create 5 in
  List.iter
    (fun i ->
      let q = Gf.Patterns.q i in
      let name = Printf.sprintf "Q%d" i in
      let r = Plan_cache.lookup cache ~opts ~graph_version:0 cat q in
      check_bool (name ^ " misses") true (r.Plan_cache.outcome = Plan_cache.Miss);
      compare (name ^ " miss") ~same:true q r;
      let perm = Array.init (Gf.Query.num_vertices q) Fun.id in
      Gf.Rng.shuffle rng perm;
      let q' = Gf.Query.relabel_vertices q perm in
      let r = Plan_cache.lookup cache ~opts ~graph_version:0 cat q' in
      check_bool (name ^ " re-numbered hits") true (r.Plan_cache.outcome = Plan_cache.Hit);
      compare (name ^ " re-numbered hit") ~same:false q' r;
      (* Actuals a thousand times the estimates drift the template; the
         replan runs under corrections, its stored estimates must not. *)
      let counts = counted r in
      Plan_cache.observe cache ~graph_version:0 q' r.Plan_cache.plan
        (List.map
           (fun (row : Gf.Explain.row) ->
             { row with Gf.Explain.act_card = 1000 * (1 + int_of_float row.Gf.Explain.est_card) })
           (Gf.Explain.rows r.Plan_cache.estimates counts None));
      let r = Plan_cache.lookup cache ~opts ~graph_version:0 cat q in
      check_bool (name ^ " replans") true (r.Plan_cache.outcome = Plan_cache.Replan);
      compare (name ^ " replan") ~same:true q r)
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]

let test_large_pattern_fallback () =
  (* 9 vertices exceeds Canon's exact canonicalization: the structural
     fallback key must cache (and hit) instead of raising. *)
  let db, cache = db_with_cache () in
  let nine_path = Gf.Patterns.path 9 in
  let p1, _ = Gf.Db.plan db nine_path in
  let p2, _ = Gf.Db.plan db nine_path in
  check_string "same plan" (Gf.Plan.signature p1) (Gf.Plan.signature p2);
  let s = Plan_cache.stats cache in
  check_int "one miss" 1 s.Plan_cache.misses;
  check_bool "fallback key hits" true (s.Plan_cache.hits >= 1)

let test_racing_clients () =
  let db, cache = db_with_cache () in
  let queries =
    [| triangle; triangle_renumbered; Gf.Patterns.diamond_x; Gf.Patterns.cycle 4 |]
  in
  let expected = Array.map (Gf.Naive.count (Gf.Db.graph db)) queries in
  let per_thread = 12 and threads = 6 in
  let failures = Atomic.make 0 in
  let worker k () =
    for i = 0 to per_thread - 1 do
      let j = (k + i) mod Array.length queries in
      if Gf.Db.count db queries.(j) <> expected.(j) then Atomic.incr failures
    done
  in
  let ts = List.init threads (fun k -> Thread.create (worker k) ()) in
  List.iter Thread.join ts;
  check_int "all results correct" 0 (Atomic.get failures);
  let s = Plan_cache.stats cache in
  (* triangle and its renumbering share one template. *)
  check_int "templates" 3 s.Plan_cache.entries;
  check_int "every lookup accounted" (threads * per_thread)
    (s.Plan_cache.hits + s.Plan_cache.misses + s.Plan_cache.replans)

(* run_gov's feedback path: the first run is observed without failing the
   request, later runs are not. *)
let test_run_gov_feedback () =
  let db, cache = db_with_cache () in
  for _ = 1 to 5 do
    ignore (Gf.Db.run_gov db triangle)
  done;
  let s = Plan_cache.stats cache in
  check_int "first run fed back" 1 s.Plan_cache.feedbacks;
  check_bool "hits recorded" true (s.Plan_cache.hits >= 3)

let test_explain_analyze_feeds_cache () =
  let db, cache = db_with_cache () in
  let a = Gf.Db.explain_analyze db triangle in
  check_bool "completed" true (a.Gf.Db.outcome = Gf.Governor.Completed);
  ignore (Gf.Db.explain_analyze db triangle);
  let s = Plan_cache.stats cache in
  check_int "profiled run observed once" 1 s.Plan_cache.feedbacks

(* A first observation within 4x of every estimate makes the entry final
   at once: no replan, and no run after the first is observed. *)
let test_accurate_observation_is_final () =
  let db, cache = db_with_cache () in
  for _ = 1 to 50 do
    ignore (Gf.Db.run_gov db within_threshold)
  done;
  let s = Plan_cache.stats cache in
  check_int "one fold" 1 s.Plan_cache.feedbacks;
  check_int "no replan" 0 s.Plan_cache.replans;
  check_int "hits" 49 s.Plan_cache.hits

(* Racing first runs: every one was prepared while the entry was still
   learning, so every one is due feedback, but only one folds. *)
let test_concurrent_first_runs_fold_once () =
  let db, cache = db_with_cache () in
  let expected = Gf.Naive.count (Gf.Db.graph db) triangle in
  let prepared = List.init 6 (fun _ -> Gf.Db.prepare db triangle) in
  let failures = Atomic.make 0 in
  let ts =
    List.map
      (fun p ->
        Thread.create
          (fun () ->
            let c, _ = Gf.Db.run_gov ~prepared:p db triangle in
            if c.Gf.Counters.output <> expected then Atomic.incr failures)
          ())
      prepared
  in
  List.iter Thread.join ts;
  check_int "all results correct" 0 (Atomic.get failures);
  let s = Plan_cache.stats cache in
  check_int "one fold" 1 s.Plan_cache.feedbacks;
  for _ = 1 to 3 do
    ignore (Gf.Db.run_gov db triangle)
  done;
  let s = Plan_cache.stats cache in
  check_int "still one fold" 1 s.Plan_cache.feedbacks;
  check_bool "at most one replan" true (s.Plan_cache.replans <= 1)

let suite =
  [
    ( "plan_cache",
      [
        Alcotest.test_case "hit on resubmission" `Quick test_hit_on_resubmission;
        Alcotest.test_case "renumbered isomorph shares entry" `Quick
          test_isomorph_shares_entry;
        Alcotest.test_case "graph version bump misses" `Quick test_version_bump_misses;
        Alcotest.test_case "invalidate drops all" `Quick test_invalidate;
        Alcotest.test_case "drift triggers replan" `Quick test_drift_triggers_replan;
        Alcotest.test_case "bounded cost-aware eviction" `Quick test_bounded_eviction;
        Alcotest.test_case "fallback key beyond 8 vertices" `Quick
          test_large_pattern_fallback;
        Alcotest.test_case "racing clients" `Quick test_racing_clients;
        Alcotest.test_case "run_gov feedback" `Quick test_run_gov_feedback;
        Alcotest.test_case "explain_analyze feeds cache" `Quick
          test_explain_analyze_feeds_cache;
        Alcotest.test_case "stored estimates = fresh model" `Quick test_stored_estimates;
        Alcotest.test_case "replan span says why" `Quick test_replan_span_says_why;
        Alcotest.test_case "accurate first observation is final" `Quick
          test_accurate_observation_is_final;
        Alcotest.test_case "concurrent first runs fold once" `Quick
          test_concurrent_first_runs_fold_once;
      ] );
  ]
