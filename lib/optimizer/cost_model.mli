(** The optimizer's estimation layer: per-query memoized cardinalities and
    the cost of candidate operators, backed by the subgraph catalogue: the
    kernel work the planner minimizes ({!extension_cost}) and the Eq. 1
    i-cost EXPLAIN estimates ({!extension_icost}).

    The "chain" of a plan is the sequence of sub-query vertex sets from the
    anchor of its root E/I chain (a SCAN pair or a HASH-JOIN output) to the
    plan's own vertex set. Cache-conscious i-cost estimation (Section 5.2)
    multiplies intersected list sizes by the cardinality of the smallest
    chain prefix containing every descriptor source instead of the full
    child cardinality: tuples stream in nested-loop order along the chain,
    so an intersection whose inputs avoid the most recently extended
    vertices repeats consecutively and is served by the E/I cache. *)

type t

(** [corrections], when given, maps a vertex subset to a multiplicative
    adjustment applied on top of the catalogue-derived cardinality estimate
    for that subset (1.0 = no adjustment). The plan cache supplies one run's
    observed actual/estimate ratios here so that its corrected replan sees
    observed cardinalities — and, since every operator cost
    derives from [card], corrected costs — without touching the catalogue. *)
val create :
  ?cache_conscious:bool ->
  ?weights:Cost.weights ->
  ?corrections:(Gf_util.Bitset.t -> float) ->
  Gf_catalog.Catalog.t ->
  Gf_query.Query.t ->
  t

val query : t -> Gf_query.Query.t
val cache_conscious : t -> bool
val weights : t -> Cost.weights

(** [uncorrected t] is [t] without its corrections. It shares [t]'s memo
    tables, which hold only catalogue-derived values, so estimates [t] has
    already computed are not computed again. *)
val uncorrected : t -> t

(** [work t] is the number of distinct estimates (cardinalities,
    selectivities and descriptor sizes) [t] has computed so far: a
    deterministic count of the planner work behind a plan, read right after
    the search. *)
val work : t -> int

(** [card t s] is the estimated number of matches of the sub-query induced
    on vertex set [s] (|s| >= 2). Memoized. *)
val card : t -> Gf_util.Bitset.t -> float

(** [estimate_cardinality cat q] is {!card} of an uncorrected model of [q]
    on all of [q]'s vertices: the root estimate the planner plans [q] with.
    0.0 for a query with fewer than two vertices or a disconnected one. *)
val estimate_cardinality : Gf_catalog.Catalog.t -> Gf_query.Query.t -> float

(** [mu t ~child ~v] is the estimated selectivity of extending the sub-query
    on [child] by vertex [v]: the catalogue entry of the induced pattern
    when it has at most [h + 1] vertices. A larger extension takes
    Section 5.2's minimum over removals on the query's own vertex subsets,
    each [(h + 1)]-vertex base looked up in the catalogue once per query;
    when no removal keeps [v] attached to a connected old part, the least
    of its {!descriptor_sizes}. Memoized. *)
val mu : t -> child:Gf_util.Bitset.t -> v:int -> float

(** [descriptor_sizes t ~child ~v] is the estimated size of each adjacency
    list intersected when extending [child] by [v], one per
    {!Gf_plan.Plan.descriptors} entry (in [q]'s edge order): the
    catalogue's sampled sizes, or global label averages for an extension
    to more than [h + 1] vertices. Memoized; the array is shared, do not
    mutate it. *)
val descriptor_sizes : t -> child:Gf_util.Bitset.t -> v:int -> float array

(** [extension_icost t ~chain ~child ~v] is the estimated i-cost (Eq. 1,
    what [exec.icost] counts) of the E/I operator extending [child] (whose
    root chain prefixes are [chain], anchor first, [child] last) by [v]:
    EXPLAIN's estimate, not the planner's objective. Entries after [child] are never
    read, so a search may pass a longer array it reuses across prefixes. *)
val extension_icost :
  t -> chain:Gf_util.Bitset.t array -> child:Gf_util.Bitset.t -> v:int -> float

(** [extension_features t ~chain ~last ~child ~v] is what the executor
    does for that E/I ({!Cost.features}). [last] is the child's last column, the vertex its
    runs' candidates bind: the descriptor sourced from it varies from
    tuple to tuple, the others are stable. A kernel E/I (one varying and
    some stable lists) counts each tuple of [child] as a candidate and
    the sampled work of its step of [S] (the stable lists'
    intersection) against the varying list; one without a kernel call
    (no varying list, or no stable one) counts its tuples as [tuples].
    [S] is intersected once per distinct binding of its sources (the
    cardinality of the smallest chain prefix holding them), and costs
    nothing when it is one list read in place or the runs' own candidate
    slice (the previous E/I extended by [last] with the same descriptors).
    An extension past [h + 1] vertices prices the fallback sizes alike
    ({!Gf_catalog.Catalog.analytic}). *)
val extension_features :
  t -> chain:Gf_util.Bitset.t array -> last:int -> child:Gf_util.Bitset.t -> v:int -> Cost.features

(** [extension_cost] is {!extension_features} at {!Cost.price} (up to
    rounding), summed without building the features: the planner's cost
    of the E/I, never negative. *)
val extension_cost :
  t -> chain:Gf_util.Bitset.t array -> last:int -> child:Gf_util.Bitset.t -> v:int -> float

(** [hash_join_cost t s1 s2] is [w1 * card s1 + w2 * card s2] ([s1] is the
    build side). *)
val hash_join_cost : t -> Gf_util.Bitset.t -> Gf_util.Bitset.t -> float
