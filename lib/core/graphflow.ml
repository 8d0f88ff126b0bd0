module Graph = Gf_graph.Graph
module Generators = Gf_graph.Generators
module Graph_stats = Gf_graph.Stats
module Graph_io = Gf_graph.Graph_io
module Delta = Gf_graph.Delta
module Query = Gf_query.Query
module Query_parser = Gf_query.Parser
module Parse_error = Gf_query.Parse_error
module Cypher = Gf_query.Cypher
module Patterns = Gf_query.Patterns
module Canon = Gf_query.Canon
module Plan = Gf_plan.Plan
module Exec = Gf_exec.Exec
module Counters = Gf_exec.Counters
module Governor = Gf_exec.Governor
module Profile = Gf_exec.Profile
module Metrics = Gf_exec.Metrics
module Naive = Gf_exec.Naive
module Parallel = Gf_exec.Parallel
module Catalog = Gf_catalog.Catalog
module Independence = Gf_catalog.Independence
module Wander = Gf_catalog.Wander
module Cost = Gf_opt.Cost
module Cost_model = Gf_opt.Cost_model
module Planner = Gf_opt.Planner
module Plan_cache = Gf_opt.Plan_cache
module Explain = Gf_opt.Explain
module Adaptive = Gf_adaptive.Adaptive
module Simplex = Gf_lp.Simplex
module Edge_cover = Gf_lp.Edge_cover
module Ghd = Gf_ghd.Ghd
module Bj_baseline = Gf_baseline.Bj
module Cfl_baseline = Gf_baseline.Cfl
module Query_gen = Gf_baseline.Query_gen
module Spectrum = Gf_spectrum.Spectrum
module Rng = Gf_util.Rng
module Crc32 = Gf_util.Crc32
module Bitset = Gf_util.Bitset
module Buf = Gf_util.Buf
module Int_vec = Gf_util.Int_vec
module Sorted = Gf_util.Sorted
module Build_info = Gf_util.Build_info
module Trace = Gf_obs.Trace
module Recorder = Gf_obs.Recorder

module Db = struct
  type t = {
    graph : Graph.t;
    catalog : Catalog.t;
    opts : Planner.opts;
    cache : Plan_cache.t option;
    version : int;  (* graph version the plan cache keys against *)
  }

  let create ?h ?z ?seed ?(opts = Planner.default_opts) ?plan_cache ?(version = 0)
      graph =
    { graph; catalog = Catalog.create ?h ?z ?seed graph; opts; cache = plan_cache; version }

  (* A db re-seated on a new graph: fresh catalogue (the old one's
     entries describe the old CSR's distributions), same planner opts.
     This is the merge-publication path of the durable store. The plan
     cache object is carried over but its entries are keyed by graph
     version, so they go stale the moment the version advances (callers
     with a durable store pass its version; otherwise we bump). *)
  let with_graph ?version db graph =
    {
      graph;
      catalog = Catalog.create graph;
      opts = db.opts;
      cache = db.cache;
      version = (match version with Some v -> v | None -> db.version + 1);
    }

  let graph db = db.graph
  let catalog db = db.catalog
  let plan_cache db = db.cache
  let graph_version db = db.version
  let parse_query = Query_parser.parse

  (* A plan chosen for one execution: its estimated cost, its per-operator
     estimates under the uncorrected model (forced only by a feedback or
     EXPLAIN ANALYZE run), and whether the plan cache is waiting to observe
     this run. *)
  type prepared = {
    chosen : Plan.t;
    cost : float;
    estimates : Explain.estimates Lazy.t;
    feedback_due : bool;
  }

  (* Planning, through the plan cache when one is attached. Without one,
     the estimates come from the search's own model when asked for. *)
  let lookup ?trace db q =
    match db.cache with
    | None ->
        let p, cost, model = Planner.search ~opts:db.opts ?trace db.catalog q in
        {
          chosen = p;
          cost;
          estimates = lazy (Explain.estimates (Cost_model.uncorrected model) p);
          feedback_due = false;
        }
    | Some c ->
        let r =
          Plan_cache.lookup ?trace c ~opts:db.opts ~graph_version:db.version db.catalog q
        in
        {
          chosen = r.Plan_cache.plan;
          cost = r.Plan_cache.cost;
          estimates = Lazy.from_val r.Plan_cache.estimates;
          feedback_due = r.Plan_cache.feedback_due;
        }

  let plan db q =
    let r = lookup db q in
    (r.chosen, r.cost)

  (* The planner runs on this thread: give it its own buffer (tid 2) so
     optimization time is visible next to the execution tracks. *)
  let prepare ?trace db q =
    let pbuf = Option.map (fun tr -> Trace.buffer ~name:"planner" tr ~tid:2) trace in
    let r = lookup ?trace:pbuf db q in
    (match pbuf with Some b -> Trace.close_all b | None -> ());
    r

  let prepared_plan r = r.chosen

  (* Query-level metrics. Looked up by name at record time (not cached in
     globals) so a [Metrics.reset] between queries cannot leave increments
     going to unregistered cells. *)
  let observe_run seconds (c : Counters.t) outcome =
    Metrics.inc (Metrics.counter ~help:"Queries executed" "gf_queries_total");
    Metrics.inc ~by:c.Counters.output
      (Metrics.counter ~help:"Output tuples emitted" "gf_query_matches_total");
    Metrics.inc ~by:c.Counters.produced
      (Metrics.counter ~help:"Tuples produced by all operators" "gf_tuples_produced_total");
    Metrics.inc ~by:c.Counters.icost
      (Metrics.counter ~help:"Adjacency-list entries touched (i-cost, Eq. 1)"
         "gf_icost_total");
    (match outcome with
    | Governor.Completed -> ()
    | Governor.Truncated _ ->
        Metrics.inc (Metrics.counter ~help:"Queries truncated by a budget" "gf_queries_truncated_total")
    | Governor.Failed _ ->
        Metrics.inc (Metrics.counter ~help:"Queries that failed" "gf_queries_failed_total"));
    Metrics.observe
      (Metrics.histogram ~help:"Query latency in seconds" "gf_query_seconds")
      seconds

  let metrics_exposition () = Metrics.exposition ()

  (* The one executor dispatch behind every entry point that runs a query:
     pick the cluster-shard, parallel, adaptive or sequential executor,
     record the query metrics, and hand a completed run's per-operator
     counts to the plan cache when its entry is waiting for its one
     observation (feedback must never fail a request, so a failure there
     is swallowed). Every run counts per operator, so a feedback run is an
     ordinary untimed run: it carries no profile and keeps the count-only
     root. Estimation rows join the plan's stored uncorrected estimates, so
     the ratios measure the catalogue's true error and a feedback run
     estimates nothing again. [profile] times the operators (EXPLAIN
     ANALYZE). A sharded run never feeds back: its actuals are a fraction
     of the full plan's estimates and would read as misestimates.
     Returns the explain rows (lazily) alongside the counters. *)
  let execute ?(adaptive = false) ?(domains = 1) ?scan_part ?budget ?fault ?gov ?trace ?sink
      ~profile db q { chosen = p; estimates; feedback_due; _ } =
    let prof = if profile then Some (Profile.create p) else None in
    let gov =
      match gov with
      | Some g -> g
      | None -> Governor.create ?fault (Option.value budget ~default:Governor.unlimited)
    in
    let t0 = Gf_util.Timing.now_s () in
    let c, counts, outcome =
      match scan_part with
      | Some (i, k) ->
          (* Cluster shard: the driving scan restricted to the i-th of k
             equal slices of its source space. Always sequential — the
             worker process is the parallelism unit, and every worker must
             derive the identical plan (same catalogue, same graph) for
             disjoint ranges to union into the exact full result. *)
          let n = Exec.num_scan_sources db.graph p in
          let lo = i * n / k and hi = (i + 1) * n / k in
          let target = Exec.driving_scan p in
          let rewrite _ env node =
            if node == target then Some (Exec.scan env node (fun emit -> emit (Exec.Sources (lo, hi))))
            else None
          in
          Exec.run_rows ~rewrite ~gov ?prof ?trace ?sink db.graph p
      | None when domains > 1 ->
          let r = Parallel.run ~domains ~gov ?prof ?trace ?sink db.graph p in
          (r.counters, r.rows, r.Parallel.outcome)
      | None when adaptive && Adaptive.adaptable p ->
          (* The adaptive evaluator has no span hooks yet: a traced adaptive
             run still records planner spans and the whole-query record,
             just no per-operator tracks. *)
          let c, counts, _ = Adaptive.run ~gov ?prof ?sink db.catalog db.graph q p in
          (c, counts, Governor.outcome gov)
      | None -> Exec.run_rows ~gov ?prof ?trace ?sink db.graph p
    in
    let seconds = Gf_util.Timing.now_s () -. t0 in
    observe_run seconds c outcome;
    let rows = lazy (Explain.rows (Lazy.force estimates) counts prof) in
    (match (db.cache, outcome) with
    | Some cache, Governor.Completed when feedback_due && scan_part = None -> (
        try Plan_cache.observe cache ~graph_version:db.version q p (Lazy.force rows)
        with _ -> ())
    | _ -> ());
    (rows, c, outcome, seconds)

  let run_gov ?prepared ?adaptive ?domains ?scan_part ?budget ?fault ?gov ?trace ?sink db q =
    let prepared = match prepared with Some r -> r | None -> prepare ?trace db q in
    let _, c, outcome, _ =
      execute ?adaptive ?domains ?scan_part ?budget ?fault ?gov ?trace ?sink ~profile:false db q
        prepared
    in
    (c, outcome)

  type analysis = {
    plan : Plan.t;
    rows : Explain.row list;
    counters : Counters.t;
    outcome : Governor.outcome;
    seconds : float;
  }

  let explain_analyze ?adaptive ?domains ?budget ?fault db q =
    let prepared = prepare db q in
    let rows, counters, outcome, seconds =
      execute ?adaptive ?domains ?budget ?fault ~profile:true db q prepared
    in
    { plan = prepared.chosen; rows = Lazy.force rows; counters; outcome; seconds }

  let analysis_to_string a =
    Format.asprintf "matches: %d@.outcome: %a@.time: %.3fs@.%a@.%s"
      a.counters.Counters.output Governor.pp_outcome a.outcome a.seconds Counters.pp
      a.counters (Explain.to_string a.rows)

  let analysis_to_json a =
    let open Gf_util.Json in
    let c = a.counters in
    let counters =
      Obj
        [ ("output", Int c.Counters.output); ("produced", Int c.Counters.produced);
          ("icost", Int c.Counters.icost); ("cache_hits", Int c.Counters.cache_hits);
          ("intersections", Int c.Counters.intersections);
          ("hj_build", Int c.Counters.hj_build_tuples);
          ("hj_probe", Int c.Counters.hj_probe_tuples); ("morsels", Int c.Counters.morsels);
          ("busy_s", decimals 6 c.Counters.busy_s);
          ("gov_checks", Int c.Counters.gov_checks) ]
    in
    to_string
      (Obj
         [ ("matches", Int c.Counters.output);
           ("outcome", Str (Governor.outcome_to_string a.outcome));
           ("time_s", decimals 6 a.seconds); ("counters", counters);
           ("operators", Explain.rows_to_json a.rows) ])

  let count ?adaptive db q = (fst (run_gov ?adaptive db q)).Counters.output

  let explain db q =
    let p, cost = plan db q in
    Format.asprintf "estimated cost: %.0f ns@.%a@." cost Plan.pp p

  let estimate_cardinality db q = Cost_model.estimate_cardinality db.catalog q

  let count_by ?adaptive db q ~key =
    let prepared = prepare db q in
    let schema = Plan.vars prepared.chosen in
    let positions =
      List.map
        (fun v ->
          let pos = ref (-1) in
          Array.iteri (fun i x -> if x = v then pos := i) schema;
          if !pos < 0 then invalid_arg "Db.count_by: key vertex not in query";
          !pos)
        key
    in
    let groups = Hashtbl.create 1024 in
    let sink t =
      let k = Array.of_list (List.map (fun p -> t.(p)) positions) in
      Hashtbl.replace groups k (1 + Option.value ~default:0 (Hashtbl.find_opt groups k))
    in
    let _ = execute ?adaptive ~sink ~profile:false db q prepared in
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) groups []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
end
