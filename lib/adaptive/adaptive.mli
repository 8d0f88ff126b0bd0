(** Adaptive evaluation of WCO plan parts (Section 6).

    Every maximal chain of two or more E/I operators in a fixed plan is
    replaced by an adaptive segment. The segment fixes the sub-plan below
    the chain (its anchor: a SCAN or a HASH-JOIN) and, for each anchor
    tuple, re-estimates the cost of every connected ordering of the chain's
    remaining query vertices using the tuple's *actual* adjacency list sizes
    (the estimated sizes, {!Gf_opt.Cost_model.descriptor_sizes} of the
    model the segment plans with, are replaced by observed sizes, and
    selectivities are scaled by the observed/estimated ratios — Example
    6.2). The tuple is
    routed to the cheapest ordering's pipeline; each ordering keeps its own
    intersection-cache state.

    Results are identical to the fixed plan's; only the work differs. *)

type stats = {
  segments : int;  (** adaptive segments installed *)
  candidate_orderings : int;  (** total candidate orderings across segments *)
  tuples_routed : int;  (** anchor tuples that went through a cost re-evaluation *)
  orderings_used : int;  (** distinct orderings that received at least one tuple *)
}

(** [run cat g q plan] executes [plan] with adaptive segments. The plan must
    be a plan for [q]. Output tuple schema is [Plan.vars plan] (adaptive
    segments permute their output back to the fixed schema). [distinct]
    requests injective (subgraph-isomorphism) matches: adaptive pipelines
    apply the same repeated-vertex filter as the structural E/I operator, so
    results match [Exec.run_gov ~distinct:true] of the fixed plan. Every
    step is the structural E/I operator ({!Gf_exec.Exec.extend_group}):
    each anchor tuple enters its ordering as a group of one run of length
    one and the steps pass groups to each other, so giant intersections
    are segmented and
    charged to the governor as work. [gov] runs the query under an
    externally created governor (its {!Gf_exec.Governor.outcome} tells how
    the run ended); adaptive pipelines tick it per produced tuple like the
    structural operators, so budgets, including an output cap and a
    deadline, trip inside segments too.

    Returns the counters, the per-operator counts rows (operator-id order)
    and the segment statistics. All work of an adaptive segment (whatever
    ordering each tuple was routed to) is counted on the segment's
    chain-root row, and the interior chain operators it replaces report
    zero; [prof] times operators the same way. *)
val run :
  ?cache:bool ->
  ?distinct:bool ->
  ?gov:Gf_exec.Governor.t ->
  ?prof:Gf_exec.Profile.t ->
  ?sink:(int array -> unit) ->
  Gf_catalog.Catalog.t ->
  Gf_graph.Graph.t ->
  Gf_query.Query.t ->
  Gf_plan.Plan.t ->
  Gf_exec.Counters.t * Gf_exec.Counters.t array * stats

(** [adaptable plan] is true when [plan] contains a chain of >= 2 E/I
    operators (the paper adapts exactly those plans). *)
val adaptable : Gf_plan.Plan.t -> bool
