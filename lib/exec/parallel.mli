(** Morsel-driven parallel execution (Section 7).

    A morsel is a piece of the driving SCAN's CSR edges: whole source
    vertices whose edges fit the edge budget, or a [chunk]-edge piece of
    one source with more edges than that, so a skewed high-degree source
    spreads over several morsels. The morsels are cut once per phase
    ({!morsels}) and every OCaml domain ("worker" in the paper) pulls the
    next one off one shared atomic counter until none is left; there is
    nothing to steal.

    HASH-JOIN build sides are executed exactly once, before the workers
    start: each build runs in parallel (domains pull morsels of the build
    side's driving scan and append rows to per-domain partial tables, which
    are concatenated and indexed once into one shared table), and every
    domain then probes that table read-only, visiting matching rows in
    place. Build tuples are therefore counted once, not once per domain.

    Each domain runs the sequential executor's compiled pipeline through
    its one governed loop ({!Exec.governed}), as a cluster shard does; only
    the rewrite hook differs (the driving scan fed by the morsel counter,
    probe-only joins against the shared tables). The full sequential
    feature set is therefore supported: [distinct], an output cap (an
    atomic output claim through the governor — exactly
    [min max_output total] tuples are emitted), and [sink] (invoked under a
    mutex, so any closure is safe; tuples are reused buffers, copy to
    retain). Without a sink, profile or trace a homomorphic run counts at
    its E/I root like {!Exec.run_gov}, each domain claiming its counts
    through {!Governor.claim_outputs}. The graph and tables are immutable
    and shared; counts rows and counters are per-domain and merged, with
    [morsels] and [busy_s] recording how the load actually spread.

    Every run executes under one shared {!Governor}: any domain tripping a
    budget (deadline, output/intermediate cap, byte cap), failing, or being
    {!Governor.cancel}led stops every other domain within one governor
    check cadence — once per morsel at the outside, usually within a few
    hundred tuples. Workers never let an exception escape the domain
    (no leaked siblings on [Domain.join]); sink exceptions and operator
    faults surface as [Failed] in the report's [outcome], and the sink
    mutex is released on every unwind path. *)

type report = {
  counters : Counters.t;  (** merged across domains, plus the build phase once *)
  rows : Counters.t array;
      (** per-operator counts in operator-id order, merged across build and
          execution domains; [counters] is their fold with the run-level
          fields *)
  per_domain : Counters.t array;
      (** per-domain execution counters — [morsels] how the work divided,
          [busy_s] max/min the imbalance signal *)
  per_domain_output : int array;  (** work division across domains *)
  outcome : Governor.outcome;  (** how the run ended; partial counters kept *)
}

(** [morsels ~chunk g plan] is the driving scan of [plan] cut into
    morsels of at most [chunk] edges, in scan order: the ranges partition
    its edges, and a source with more than [chunk] edges is cut into
    [Edges] pieces. A scan with no edges has no morsels. *)
val morsels : chunk:int -> Gf_graph.Graph.t -> Gf_plan.Plan.t -> Exec.range array

(** [run ~domains g plan] executes with that many domains. [chunk] (1024
    by default) is the edge budget of a morsel (see {!morsels}).
    [budget]/[fault] create the query's governor; [gov] supplies one built
    externally (for cross-thread {!Governor.cancel}) and overrides both.

    [prof] times each operator: each domain records into a
    {!Profile.fresh} copy (same operator-id space) and the copies are
    merged into [prof] after the domains join, so per-operator time sums
    CPU time across domains. In the build phase, concatenating and
    indexing the partial tables run outside any timed operator; their
    counts are on the join's row like the sequential run's.

    [trace] opts the run into span tracing: a coordinator buffer (tid 9)
    records the table-build and run phases, each domain records its own
    buffer (tid 10+wid) with a [worker] root span and one span per
    morsel, and a merged per-operator summary track (tid 100) is
    synthesized from the profile after the domains join. Domains never
    share a recording buffer, so tracing adds no cross-domain contention;
    a traced run is implicitly profiled. *)
val run :
  ?domains:int ->
  ?cache:bool ->
  ?distinct:bool ->
  ?budget:Governor.budget ->
  ?fault:Governor.fault ->
  ?gov:Governor.t ->
  ?prof:Profile.t ->
  ?trace:Gf_obs.Trace.t ->
  ?sink:(int array -> unit) ->
  ?chunk:int ->
  Gf_graph.Graph.t ->
  Gf_plan.Plan.t ->
  report
