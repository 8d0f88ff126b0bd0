(** A bounded, cost-aware plan cache that re-optimizes a mis-costed
    template once, from one observed run.

    Recurring queries under service traffic pay the optimizer's exponential
    search on every submission even though the plan never changes. This
    cache keys compiled plans by the query's canonical code ({!Gf_query.Canon.code},
    with its structural fallback for patterns beyond 8 vertices) plus the
    graph version, so:

    - isomorphic resubmissions — even with different vertex numberings —
      are served by re-instantiating a cached canonical-space plan skeleton
      (linear in plan size) instead of replanning;
    - each entry learns once: the first completed, unsharded run of its
      plan (plain or EXPLAIN ANALYZE) is observed, giving each operator's
      actual/estimate cardinality ratio (the q-error actuals of EXPLAIN
      ANALYZE) keyed by canonical vertex subset. If some ratio is off by
      more than 4x either way, the next lookup replans once with those
      ratios applied to the cost model ({!Cost_model.create}'s
      [corrections]); either way the entry is then final until it is
      evicted or the graph version moves. Counts are exact, so observing
      the same plan again would only repeat the first observation;
    - when the graph version advances (mutation merges), entries are
      dropped — lazily on lookup, or wholesale via {!invalidate} from the
      service's merge hook;
    - at capacity, eviction is GreedyDual-Size-Frequency: an entry's
      priority is the inflation at its last use plus its runs times its
      charge, the number of distinct estimates its search computed
      ({!Cost_model.work}). The lowest priority goes (the least recently
      used among equals) and raises the inflation to its priority, so a
      plan that is expensive to rebuild outlives cheap ones while it is
      used, and ages out once it is not. No clock is read: a replayed
      request sequence evicts identically;
    - each entry keeps its plan's per-operator estimates under the
      uncorrected model, computed once at plan time, so the observed run
      joins them against its counts instead of estimating again.

    All operations are thread-safe; planning itself runs outside the lock,
    so racing clients may both plan the same new template (last insert
    wins — benign). The cache bumps the [gf_server_plan_cache_*] metrics
    counters as a side effect of its operations. *)

type t

type outcome =
  | Hit  (** served by instantiating the cached skeleton *)
  | Miss  (** no usable entry: planned from scratch and inserted *)
  | Replan  (** the entry's one corrected replan, after a misestimate was observed *)

type lookup_result = {
  plan : Gf_plan.Plan.t;  (** a plan for the submitted query's own numbering *)
  cost : float;  (** model cost at plan time *)
  estimates : Explain.estimates;
      (** [plan]'s operators under the uncorrected model, for {!Explain.rows} *)
  outcome : outcome;
  feedback_due : bool;
      (** the entry has not been observed yet: the caller should
          {!observe} this execution's rows if it completes unsharded *)
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  replans : int;
  invalidations : int;
  feedbacks : int;
  entries : int;
}

val default_capacity : int

(** [create ()] makes an empty cache. [capacity] bounds the entry count
    (cost-aware eviction; default 256). *)
val create : ?capacity:int -> unit -> t

(** [lookup t ~opts ~graph_version cat q] returns a plan for [q], consulting
    and maintaining the cache. On a miss the planner runs with [opts]
    against [cat]; on the one corrected replan it additionally receives the
    observed ratios. [trace] forwards to the planner and records a
    [plan-cache] span with the outcome; a replan's span also carries the
    canonical [subset] (ids joined by commas) with the largest q-error and
    that [qerror]. May raise {!Planner.No_plan} (never
    caches failures). *)
val lookup :
  ?trace:Gf_obs.Trace.buf ->
  t ->
  opts:Planner.opts ->
  graph_version:int ->
  Gf_catalog.Catalog.t ->
  Gf_query.Query.t ->
  lookup_result

(** [observe t ~graph_version q plan rows] records the actuals of one
    execution of [plan] (the exact plan value the run executed, as returned
    by {!lookup}) as [q]'s template observation. [rows] must be
    {!Explain.rows} of the [estimates] {!lookup} returned with [plan]: they
    come from the uncorrected model, so ratios measure the catalogue's true
    error. No-op unless the template is present, planned against
    [graph_version] and not yet observed, so racing first runs fold once. *)
val observe :
  t ->
  graph_version:int ->
  Gf_query.Query.t ->
  Gf_plan.Plan.t ->
  Explain.row list ->
  unit

(** Drop every entry (the graph changed under us) and count one
    invalidation. *)
val invalidate : t -> unit

val stats : t -> stats

(** [mem t q] — is there an entry for [q]'s template (any version)? *)
val mem : t -> Gf_query.Query.t -> bool

(** [is_stale t q] — has [q]'s template observed a misestimate that its
    next lookup replans for? *)
val is_stale : t -> Gf_query.Query.t -> bool
