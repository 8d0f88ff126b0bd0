(** The dynamic-programming optimizer (Section 4.3, Algorithm 1).

    For every connected vertex subset [S] of the query, the best plan is the
    cheapest of: (i) the best fully-enumerated WCO plan for [S]; (ii) the
    best plan for [S minus v] extended by an E/I operator; (iii) a HASH-JOIN
    of two smaller connected subsets whose union is [S], whose overlap is
    nonempty, and whose edges cover the sub-query induced on [S] (the
    projection constraint). HASH-JOINs convertible to an E/I — one side
    contributing a single new vertex — are pruned in [Hybrid] mode
    (Section 4.3's last rule) but kept in [Bj_only] mode, where they are the
    only way to grow plans.

    WCO plans are enumerated over whole prefix-connected orderings, so that
    cache-conscious costs see the full ordering, by branch and bound: a
    greedy ordering seeds an upper bound, and a prefix costing strictly more than the cheapest complete ordering found
    so far is not extended. Cost terms ({!Cost_model.extension_cost}) are
    non-negative, so the chosen plan, its cost and the estimates
    the search computes ({!Cost_model.work}) are those of the exhaustive
    enumeration, ties included. For queries larger than [beam_threshold]
    vertices this enumeration is skipped and only the [beam_width] cheapest
    sub-queries per level are kept (Section 4.4). *)

type mode = Hybrid | Wco_only | Bj_only

type opts = {
  mode : mode;
  cache_conscious : bool;  (** the cache-oblivious ablation sets this false *)
  weights : Cost.weights;
  beam_threshold : int;  (** default 8; above this, no exhaustive WCO enumeration *)
  beam_width : int;  (** default 5 *)
}

val default_opts : opts

(** Raised when the requested plan space contains no plan for the query
    (e.g. [Bj_only] on a query containing a triangle: under the projection
    constraint a triangle is only computable by an intersection). *)
exception No_plan of string

(** [plan cat q] is the chosen plan and its estimated cost, in the
    nanoseconds of {!Cost}.
    [trace] records an [optimize] span with [wco-enumeration] and
    [dp-enumeration] phase spans into the given buffer — the planner runs on
    the caller's thread, so it records into the caller's buffer rather than
    registering its own. [corrections] is forwarded to {!Cost_model.create}:
    the plan cache passes observed per-subset cardinality ratios here for a
    template's one corrected replan. *)
val plan :
  ?opts:opts ->
  ?trace:Gf_obs.Trace.buf ->
  ?corrections:(Gf_util.Bitset.t -> float) ->
  Gf_catalog.Catalog.t ->
  Gf_query.Query.t ->
  Gf_plan.Plan.t * float

(** [search] is {!plan} that also returns the cost model the search ran
    on, with its memo tables filled: {!Cost_model.work} prices the search,
    and {!Cost_model.uncorrected} estimates the chosen plan without
    recomputing what the search already did. *)
val search :
  ?opts:opts ->
  ?trace:Gf_obs.Trace.buf ->
  ?corrections:(Gf_util.Bitset.t -> float) ->
  Gf_catalog.Catalog.t ->
  Gf_query.Query.t ->
  Gf_plan.Plan.t * float * Cost_model.t

(** [plan_cost model p] is the planner's cost of [p] under [model]: the
    sum {!search} minimizes, in the order it adds it, so a plan [search]
    returns costs what it reported. *)
val plan_cost : Cost_model.t -> Gf_plan.Plan.t -> float

(** [best_wco_order cat q] is the minimum-estimated-cost query vertex
    ordering over all prefix-connected orderings (the first one in
    {!all_wco_orders}'s order on ties), with its cost, found by the
    bounded enumeration. Hands "good" orderings to the EmptyHeaded
    emulation (EH-g). *)
val best_wco_order :
  ?cache_conscious:bool -> Gf_catalog.Catalog.t -> Gf_query.Query.t -> int array * float

(** [wco_order_cost cat q order] is the estimated cost of one ordering. *)
val wco_order_cost :
  ?cache_conscious:bool -> Gf_catalog.Catalog.t -> Gf_query.Query.t -> int array -> float

(** [wco_order_features cat q order] is what the executor does for one
    ordering's E/I operators, summed: {!wco_order_cost} is its
    {!Cost.price}, up to rounding. *)
val wco_order_features :
  ?cache_conscious:bool -> Gf_catalog.Catalog.t -> Gf_query.Query.t -> int array -> Cost.features

(** [all_wco_orders cat q] lists every prefix-connected ordering with its
    estimated cost, deduplicated so the two orderings that differ only in
    the orientation of the scanned first edge appear once. Exhaustive:
    spectra need every ordering. *)
val all_wco_orders :
  ?cache_conscious:bool ->
  Gf_catalog.Catalog.t ->
  Gf_query.Query.t ->
  (int array * float) list

(** [wco_prefixes ()] is the number of ordering prefixes the WCO
    enumeration has visited in this process, for benchmarks. *)
val wco_prefixes : unit -> int
