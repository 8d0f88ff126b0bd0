(** Graphflow-style subgraph query processing: the public API.

    This is an OCaml reproduction of the system described in Mhedhbi &
    Salihoglu, "Optimizing Subgraph Queries by Combining Binary and
    Worst-Case Optimal Joins" (VLDB 2019): a cost-based optimizer producing
    worst-case optimal, binary-join, and hybrid plans over a labeled
    in-memory graph, plus adaptive re-ordering at runtime.

    Quick start:
    {[
      let g = Graphflow.Generators.dataset Graphflow.Generators.Amazon in
      let db = Graphflow.Db.create g in
      let q = Graphflow.Db.parse_query "a1->a2, a2->a3, a1->a3" in
      let n = Graphflow.Db.count db q in
      Printf.printf "%d triangles\n" n
    ]}

    The [Db] module is the session facade; the re-exported modules expose
    each subsystem for advanced use (see DESIGN.md for the map). *)

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

(** Build provenance: [Build_info.profile] is the dune profile
    ("release" by default, "dev" for [dune build --profile dev]) the
    libraries were compiled under. *)
module Build_info = Gf_util.Build_info

module Trace = Gf_obs.Trace
module Recorder = Gf_obs.Recorder

(** Session facade: a graph plus its subgraph catalogue and planner
    configuration. *)
module Db : sig
  type t

  (** [create g] attaches a lazily-populated catalogue ([h], [z] as in the
      paper; defaults 3 and 1000) and default planner options. [plan_cache]
      attaches a {!Plan_cache.t}: every subsequent plan/run routes planning
      through it (isomorphic resubmissions are served from cache; each
      template's first completed, unsharded run is observed, and a
      misestimate of more than 4x triggers one corrected replan). [version] is the starting graph version
      the cache keys against (a durable store passes its merge version;
      default 0). *)
  val create :
    ?h:int ->
    ?z:int ->
    ?seed:int ->
    ?opts:Gf_opt.Planner.opts ->
    ?plan_cache:Plan_cache.t ->
    ?version:int ->
    Graph.t ->
    t

  val graph : t -> Graph.t
  val catalog : t -> Catalog.t

  (** The attached plan cache, if any. *)
  val plan_cache : t -> Plan_cache.t option

  (** The graph version plan-cache entries are keyed against. *)
  val graph_version : t -> int

  (** [with_graph db g] is [db] re-seated on [g]: a fresh (empty, lazily
      repopulated) catalogue and the same planner options — how a durable
      store publishes a merged CSR without rebuilding the service. The plan
      cache object is carried over; [version] (default: previous + 1) moves
      the cache's keying forward so stale plans cannot be served. *)
  val with_graph : ?version:int -> t -> Graph.t -> t

  (** [parse_query s] parses the pattern DSL (see {!Query_parser}). *)
  val parse_query : string -> Query.t

  (** [plan db q] is the optimizer's plan and its estimated cost; served
      from the plan cache when one is attached. *)
  val plan : t -> Query.t -> Plan.t * float

  (** A plan chosen for one run of a query, through the plan cache when
      one is attached. *)
  type prepared

  (** [prepare db q] plans [q] for a {!run_gov}, recording planner spans
      into [trace] (tid 2) — one plan-cache lookup, counted as a hit or a
      miss like any other. *)
  val prepare : ?trace:Trace.t -> t -> Query.t -> prepared

  (** The plan a {!prepared} run executes — what a caller records as the
      plan that ran. *)
  val prepared_plan : prepared -> Plan.t

  (** [count db q] optimizes and executes, returning the number of matches:
      the output count of {!run_gov} with no budget. [adaptive] enables
      runtime re-ordering of E/I chains (default off). *)
  val count : ?adaptive:bool -> t -> Query.t -> int

  (** [run_gov db q] optimizes and executes under a {!Governor.budget}
      (deadline, output/intermediate caps, byte cap; default unlimited) and
      reports the structured {!Governor.outcome} — [Completed],
      [Truncated reason] on a budget trip, [Failed error] on an (injected)
      operator fault or an exception raised by an operator or by [sink].
      Counters and tuples already delivered to [sink] (every match, a
      reused buffer in [Plan.vars] column order) are preserved whatever the
      outcome. [budget]'s [max_output] caps the matches delivered. [gov] supplies an externally created
      governor — the hook a server uses to cancel in-flight queries from
      another thread ({!Governor.cancel}); when present, [budget] and
      [fault] are ignored (they were fixed at the governor's creation).

      [trace] opts the whole query into span tracing: planner spans
      (tid 2), executor spans (tid 1, or tids 9/10+ for parallel runs), and
      a per-operator summary track (tid 100) are recorded into it; export
      with {!Trace.to_chrome_json} or {!Trace.render}. The untraced path is
      unchanged — tracing costs one [option] branch per phase boundary.

      [scan_part = (i, k)] executes only the i-th of [k] equal slices of the
      plan's driving-scan source space (a cluster shard request): the union
      of matches over disjoint parts is exactly the full result, provided
      every part is planned against the same catalogue and graph version.
      A sharded run is always sequential ([adaptive]/[domains] are ignored)
      and never feeds the plan cache — partial actuals would read as
      misestimates.

      [prepared] runs a plan {!prepare} chose, so the caller knows which
      plan ran; by default [run_gov] prepares one itself. Without a [sink]
      (and with no profile due) a sequential, parallel or sharded run
      counts at its E/I root instead of enumerating the matches
      ({!Exec.run_gov}). *)
  val run_gov :
    ?prepared:prepared ->
    ?adaptive:bool ->
    ?domains:int ->
    ?scan_part:int * int ->
    ?budget:Governor.budget ->
    ?fault:Governor.fault ->
    ?gov:Governor.t ->
    ?trace:Trace.t ->
    ?sink:(int array -> unit) ->
    t ->
    Query.t ->
    Counters.t * Governor.outcome

  (** [explain db q] is a human-readable description of the chosen plan. *)
  val explain : t -> Query.t -> string

  (** The result of {!explain_analyze}: the chosen plan, one {!Explain.row}
      per operator joining estimates against profiled actuals, and the
      whole-run counters/outcome/latency. *)
  type analysis = {
    plan : Plan.t;
    rows : Explain.row list;
    counters : Counters.t;
    outcome : Governor.outcome;
    seconds : float;
  }

  (** [explain_analyze db q] optimizes, executes with per-operator
      profiling on, and joins each operator's estimated cardinality and
      cost (from the catalogue-backed cost model, under the db's planner
      options) against the actuals, with q-errors. [domains > 1] runs the
      morsel-driven parallel executor and merges the per-domain profiles —
      the rows are identically shaped whichever path ran. [adaptive] routes
      E/I chains adaptively (segment work is charged to the chain root;
      ignored when [domains > 1]). *)
  val explain_analyze :
    ?adaptive:bool ->
    ?domains:int ->
    ?budget:Governor.budget ->
    ?fault:Governor.fault ->
    t ->
    Query.t ->
    analysis

  (** Render an {!analysis} as the [gfq run --explain-analyze] text block
      (matches / outcome / time / counters, then the per-operator table). *)
  val analysis_to_string : analysis -> string

  (** Render an {!analysis} as one JSON object
      ([{"matches":..,"outcome":..,"time_s":..,"counters":{..},"operators":[..]}]). *)
  val analysis_to_json : analysis -> string

  (** Prometheus text exposition of the process-wide query metrics
      ([gf_queries_total], [gf_query_matches_total], [gf_icost_total],
      [gf_query_seconds] latency histogram, ...). Every [run_gov]/[count]/
      [count_by]/[explain_analyze] call records into them. *)
  val metrics_exposition : unit -> string

  (** [estimate_cardinality db q] is the catalogue-based estimate of the
      number of matches that the planner plans [q] with
      ({!Cost_model.estimate_cardinality}, no plan-cache corrections). *)
  val estimate_cardinality : t -> Query.t -> float

  (** [count_by db q ~key] groups matches by the data vertices bound to the
      given query vertices and counts each group; returns groups sorted by
      descending count. Example: diamonds grouped by (a1, a4) rank
      recommendation candidates. *)
  val count_by : ?adaptive:bool -> t -> Query.t -> key:int list -> (int array * int) list
end
