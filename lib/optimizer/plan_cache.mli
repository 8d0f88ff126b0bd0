(** A bounded, cost-aware plan cache with feedback-driven re-optimization.

    Recurring queries under service traffic pay the optimizer's exponential
    search on every submission even though the plan never changes. This
    cache keys compiled plans by the query's canonical code ({!Gf_query.Canon.code},
    with its structural fallback for patterns beyond 8 vertices) plus the
    graph version, so:

    - isomorphic resubmissions — even with different vertex numberings —
      are served by re-instantiating a cached canonical-space plan skeleton
      (linear in plan size) instead of replanning;
    - each template accumulates a correction record: profiled executions
      fold per-operator actual/estimate cardinality ratios (the q-error
      actuals of EXPLAIN ANALYZE) into geometric EWMAs keyed by canonical
      vertex subset;
    - when the accumulated drift between the live corrections and those in
      force when the cached plan was chosen crosses a threshold, the entry
      is marked stale and the next lookup replans with the corrections
      applied to the cost model ({!Cost_model.create}'s [corrections]) —
      recurring queries converge on true-cost plans;
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
      uncorrected model, computed once at plan time, so a feedback run
      joins them against its profile instead of estimating again.

    All operations are thread-safe; planning itself runs outside the lock,
    so racing clients may both plan the same new template (last insert
    wins — benign). The cache bumps the [gf_server_plan_cache_*] metrics
    counters as a side effect of its operations. *)

type t

type outcome =
  | Hit  (** served by instantiating the cached skeleton *)
  | Miss  (** no usable entry: planned from scratch and inserted *)
  | Replan  (** drift-stale entry: replanned with learned corrections *)

type lookup_result = {
  plan : Gf_plan.Plan.t;  (** a plan for the submitted query's own numbering *)
  cost : float;  (** model cost at plan time *)
  estimates : Explain.estimates;
      (** [plan]'s operators under the uncorrected model, for {!Explain.rows} *)
  outcome : outcome;
  feedback_due : bool;
      (** the caller should run this execution profiled and {!observe} the
          resulting rows: set during warmup and periodically thereafter *)
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
    (cost-aware eviction; default 256). [drift_threshold] (>= 1.0, default 4.0) is
    the max ratio between a template's live correction factor and the one
    in force at plan time before the entry is marked stale.
    [feedback_warmup] (default 3) and [feedback_period] (default 32)
    control when [feedback_due] is set: each of the first [feedback_warmup]
    executions of a template, then every [feedback_period]-th. *)
val create :
  ?capacity:int ->
  ?drift_threshold:float ->
  ?feedback_warmup:int ->
  ?feedback_period:int ->
  unit ->
  t

(** [lookup t ~opts ~graph_version cat q] returns a plan for [q], consulting
    and maintaining the cache. On a miss the planner runs with [opts]
    against [cat]; on a drift-triggered replan it additionally receives the
    learned corrections. [trace] forwards to the planner and records a
    [plan-cache] span with the outcome. May raise {!Planner.No_plan} (never
    caches failures). *)
val lookup :
  ?trace:Gf_obs.Trace.buf ->
  t ->
  opts:Planner.opts ->
  graph_version:int ->
  Gf_catalog.Catalog.t ->
  Gf_query.Query.t ->
  lookup_result

(** [observe t ~graph_version q plan rows] folds the profiled actuals of one
    execution of [plan] (the exact plan value the profile ran, as returned
    by {!lookup}) into [q]'s template corrections. [rows] must be
    {!Explain.rows} of the [estimates] {!lookup} returned with [plan]: they
    come from the uncorrected model, so ratios measure the catalogue's true
    error. No-op
    when the template is absent or was planned against another graph
    version. *)
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

(** [is_stale t q] — is [q]'s template marked for drift replan? *)
val is_stale : t -> Gf_query.Query.t -> bool
