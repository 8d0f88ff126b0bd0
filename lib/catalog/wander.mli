(** Sampling-based estimation by random walks (wander-join style) — the
    "more advanced cardinality estimator based on sampling" that Section 10
    lists as future work for the optimizer — and the one walk the
    catalogue's sampler ({!Catalog}) measures with.

    A walk follows a WCO extension order. It starts from a data edge for
    the scanned query edge and checks every other query edge between the
    first two vertices. At each E/I step before the last it draws a
    uniform member of the extension set; its weight is the product of the
    fan-outs it drew from. At the last step it stops after the
    intersection. Pool size times weight times the last fan-out is an
    unbiased estimate of the match count; walks that die (a failed check
    or an empty extension set) contribute zero. *)

(** [walks ?edges g q ~order ~starts rng f] walks [q] along [order], a
    prefix-connected ordering of all its vertices, once from each pool
    index in [starts npool], and returns [npool]. The pool is
    [edges ~elabel ~slabel ~dlabel] (default [edge_pool g]) for the first
    query edge between [order.(0)] and [order.(1)]. Each walk that reaches
    the last step calls [f weight fan_out lists]: [lists] are that
    step's intersected lists, in {!Gf_plan.Plan.descriptors} order, valid
    until [f] returns. A two-vertex query's scan binds its last vertex:
    [f 1.0 1] with no lists. Raises [Invalid_argument] if [order.(0)] and
    [order.(1)] are not adjacent. *)
val walks :
  ?edges:(elabel:int -> slabel:int -> dlabel:int -> (int * int) array) ->
  Gf_graph.Graph.t ->
  Gf_query.Query.t ->
  order:int array ->
  starts:(int -> int array) ->
  Gf_util.Rng.t ->
  (float -> int -> Gf_util.Sorted.lists -> unit) ->
  int

(** [edge_pool g ~elabel ~slabel ~dlabel] is every data edge with those
    labels, as (source, destination) pairs. *)
val edge_pool : Gf_graph.Graph.t -> elabel:int -> slabel:int -> dlabel:int -> (int * int) array

(** [estimate g q ~walks rng] is the mean of [npool * weight * fan_out]
    over [walks] walks from uniformly drawn pool edges (with replacement).
    Returns 0 when the scanned edge has no matches. *)
val estimate : Gf_graph.Graph.t -> Gf_query.Query.t -> walks:int -> Gf_util.Rng.t -> float

(** [estimate_with_order] uses the given prefix-connected query vertex
    ordering instead of the default (the first connected ordering). *)
val estimate_with_order :
  Gf_graph.Graph.t -> Gf_query.Query.t -> order:int array -> walks:int -> Gf_util.Rng.t -> float
