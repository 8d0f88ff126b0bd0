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

(** What the walks of one {!walks} call measured at their last step,
    summed over the walks that reached it in start order (the sums of
    Section 5.1's sampler, {!Catalog}): [weight] is the sum of the walks'
    weights [w], [ext] of [w] times the last fan-out, [sizes.(i)] of [w]
    times the length of the last step's list [i] ([last.(i)], its
    {!Gf_plan.Plan.descriptors} in that order). The work sums are
    {!Gf_util.Sorted.step_work}'s, weighted by [w]: [step.(i)] is the run
    kernel's step of [S] (the other list, with its row, or the other
    lists' intersection) against list [i], [stable.(i)] the intersection
    of the other lists when there are three or more, and [all] the
    intersection of every list, as {!Gf_util.Sorted.intersect} cascades
    them. A two-vertex query has no last lists: each walk adds [1] to
    [weight] and [ext]. *)
type sample = {
  npool : int;
  walked : int;
  last : Gf_plan.Plan.descriptor array;
  weight : float;
  ext : float;
  sizes : float array;
  step : Gf_util.Sorted.work array;
  stable : Gf_util.Sorted.work array;
  all : Gf_util.Sorted.work;
}

(** [walks ?edges g q ~order ~starts rng] walks [q] along [order], a
    prefix-connected ordering of all its vertices, once from each pool
    index in [starts npool], and returns what they measured. The pool is
    [edges ~elabel ~slabel ~dlabel] (default [edge_pool g]) for the first
    query edge between [order.(0)] and [order.(1)]. One C call runs every
    walk, drawing from [rng] as {!Gf_util.Rng.int} does, so the same seed
    walks the same paths; its float sums round exactly as OCaml's. Raises
    [Invalid_argument] if [order.(0)] and [order.(1)] are not adjacent. *)
val walks :
  ?edges:(elabel:int -> slabel:int -> dlabel:int -> int array) ->
  Gf_graph.Graph.t ->
  Gf_query.Query.t ->
  order:int array ->
  starts:(int -> int array) ->
  Gf_util.Rng.t ->
  sample

(** [walk_count ()] is the number of walks started in this process, by
    every caller of {!walks}. *)
val walk_count : unit -> int

(** [edge_pool g ~elabel ~slabel ~dlabel] is every data edge with those
    labels, flat: pool index [i] is the edge
    [(pool.(2i), pool.(2i + 1))], (source, destination), the edges in the
    reverse of {!Gf_graph.Graph.iter_edges}' order. *)
val edge_pool : Gf_graph.Graph.t -> elabel:int -> slabel:int -> dlabel:int -> int array

(** [estimate g q ~walks rng] is the mean of [npool * weight * fan_out]
    over [walks] walks from uniformly drawn pool edges (with replacement).
    Returns 0 when the scanned edge has no matches. *)
val estimate : Gf_graph.Graph.t -> Gf_query.Query.t -> walks:int -> Gf_util.Rng.t -> float

(** [estimate_with_order] uses the given prefix-connected query vertex
    ordering instead of the default (the first connected ordering). *)
val estimate_with_order :
  Gf_graph.Graph.t -> Gf_query.Query.t -> order:int array -> walks:int -> Gf_util.Rng.t -> float
