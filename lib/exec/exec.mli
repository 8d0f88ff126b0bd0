(** Push-based plan execution.

    A plan compiles to nested closures: SCAN drives the pipeline, each E/I
    extends tuples in place, HASH-JOIN materializes its build side eagerly
    on first demand. Tuples handed to [sink] are reused buffers — copy them
    if you need to retain them. Column order is [Plan.vars plan].

    [cache] toggles the E/I intersection cache (Table 3 studies exactly this
    switch). [distinct] requests injective (subgraph-isomorphism) matches
    instead of the default homomorphic join semantics; the CFL comparison
    uses it.

    Every run executes under a {!Governor}: budgets (deadline, output cap,
    intermediate cap, byte cap) trip a shared flag checked cooperatively
    from the operator inner loops, and {!run_gov} reports the structured
    {!Governor.outcome} alongside the counters. There is one compiler
    ({!compile_rw}) and one governed loop ({!governed}); the sequential,
    parallel and adaptive executors and cluster shards differ only in the
    rewrite hook they compile with and the number of domains that run the
    loop. *)

(** The E/I operator, run at a time: the structural operator's, also every
    step of an adaptive segment (see {!extend}). *)
type extend

(** The executor's environment: exposed so cooperating executors (the
    adaptive evaluator, the parallel runner) can build custom drivers that
    share counters and semantics. *)
type env = {
  g : Gf_graph.Graph.t;
  cache : bool;
  distinct : bool;
  c : Counters.t;
      (** the run-level fields only: [output], [morsels], [steals],
          [busy_s] and [gov_checks] *)
  ops : Gf_plan.Plan.t array;  (** the run's plan in preorder; index = operator id *)
  rows : Counters.t array;
      (** one counts row per operator: each operator increments only its
          own row's [produced], [icost], [cache_hits], [intersections],
          [hj_build_tuples] and [hj_probe_tuples]. A run's {!Counters.t} is
          their fold with [c]. *)
  gov : Governor.handle;
      (** this executor's cursor on the query's governor, over [rows];
          operators {!Governor.tick} it per produced tuple *)
  prof : Profile.t option;
      (** when set, {!compile_rw} wraps every operator's driver with
          {!Profile.wrap} to time it; when [None] the compiled pipeline
          reads no clock (the branch is at compile time) *)
  trace : Gf_obs.Trace.buf option;
      (** when set, the executor records phase spans (hash-join build/probe,
          giant segmented intersections) into this buffer; per-tuple code is
          never instrumented, so [None] vs [Some] differs only at operator
          phase boundaries *)
  mutable held : Gf_util.Int_vec.t list;
      (** the pooled scratch vectors this environment's operators hold,
          returned to the domain's pool by {!governed} *)
  mutable extends : (Gf_plan.Plan.t * extend) list;
      (** the structurally compiled E/I operators, by plan node *)
}

(** [make_env ~cache ~distinct g gov plan] is a fresh
    environment for one domain running [plan] under [gov]: zeroed counts
    rows, one per operator of [plan], and a governor handle over them. *)
val make_env :
  cache:bool ->
  distinct:bool ->
  ?prof:Profile.t ->
  ?trace:Gf_obs.Trace.buf ->
  Gf_graph.Graph.t ->
  Governor.t ->
  Gf_plan.Plan.t ->
  env

(** [row env node] is [node]'s counts row, matched by physical equality.
    Raises [Invalid_argument] for a node outside the run's plan. *)
val row : env -> Gf_plan.Plan.t -> Counters.t

(** A group of sibling runs ({!Gf_util.Sorted.group}): runs [j] in
    [\[first, last)] sharing the prefix [tuple.(0 .. w - 3)],
    [w = Array.length tuple], each with its key [keys.(j)] for column
    [w - 2] and its candidates for column [w - 1] in
    [cands.(Sorted.run_lo g j .. Sorted.run_hi g j - 1)] — a plain run is
    a group of one run. SCAN hands on one group per chunk of source
    vertices (their adjacency slices) and E/I one per input run and
    kernel chunk (the extension sets of its candidates); HASH-JOIN probes
    and rewrites that produce single tuples hand on groups of one run of
    length one. A consumer may write [tuple.(w - 2)] and [tuple.(w - 1)]
    and must not keep the group past its call. *)
type group = Gf_util.Sorted.group = {
  mutable tuple : int array;
  mutable cands : Gf_util.Buf.t;
  mutable keys : int array;
  mutable starts : int array;
  mutable ends : int array;
  mutable first : int;
  mutable last : int;
  mutable lo : int;
  mutable hi : int;
}

(** A compiled pipeline over groups: [groups sink] pushes every produced
    group into [sink]. *)
type groups = (group -> unit) -> unit

(** A compiled pipeline over tuples: [driver sink] runs it, pushing every
    produced tuple into [sink]. *)
type driver = (int array -> unit) -> unit

(** [of_tuples env d] hands on each tuple of [d] as a group of one run of
    length one — how a rewrite that produces tuples feeds the operators
    above it. *)
val of_tuples : env -> driver -> groups

(** [extend env row ~target_label ~width descriptors] extends groups of
    [width]-wide tuples by a [target_label] vertex under [descriptors],
    whose positions index those tuples. A descriptor sourced from a run's
    prefix or key is {e stable}: its lists are intersected once per run,
    or once per group when none is sourced from the key. One sourced from
    the last column is {e varying}: the run kernel
    ({!Gf_util.Sorted.run_kernel}) intersects its lists with the stable
    result for a chunk of candidates per call, across the group's runs,
    taking each run's stable result from the run's own candidates (see
    [from]) or, when it is the key's one list, from that list. With two or
    more stable lists, one sourced from the key, the runs go to the kernel
    one at a time. Every count goes to [row], exactly as if the tuples
    were extended one by one: one intersection and all list lengths per
    tuple, or a cache hit for a tuple whose sources equal the previous
    tuple's. List lengths are charged to the governor as work, and an
    intersection whose smallest list is longer than 8192 entries is
    computed in segments with a charge between them. [from] is the E/I
    whose groups this one extends: when it has this one's stable
    descriptors and target label, its extension set is the stable
    intersection, which is then read instead of recomputed. *)
val extend :
  ?from:extend ->
  env ->
  Counters.t ->
  target_label:int ->
  width:int ->
  Gf_plan.Plan.descriptor array ->
  extend

(** [reset_extend x] forgets the previous tuple; call at every drive. *)
val reset_extend : extend -> unit

(** [extend_group x ~count sink g] extends every tuple of [g] and hands
    the extension sets of each run's tuples on to [sink] as groups (prefix
    [tuple ++ [key]], key the extended candidate), with [distinct]'s
    bound vertices left out; the tuples are counted as [x]'s row's
    output. With [count] the sets are counted at the root instead (see
    {!compile_rw}) and [sink] is never called. *)
val extend_group : extend -> count:bool -> (group -> unit) -> group -> unit

(** A rewrite hook: [rewrite recurse env plan] may return a replacement
    driver for [plan]; [recurse env child] compiles children with the same
    hook applied. Returning [None] compiles [plan] structurally. *)
type rewrite = (env -> Gf_plan.Plan.t -> groups) -> env -> Gf_plan.Plan.t -> groups option

(** [compile_rw rewrite env plan] is the compiler itself: returns the driver
    that pushes each produced tuple into a sink. Operators pass groups of
    runs to each other; the root's groups are taken apart into tuples. Every
    operator counts into its own row of [env.rows]; with [env.prof] set
    each operator is also timed. With [count] (default [false]) a
    structurally compiled E/I root is count-only: it adds each extension
    set's size to its row's [produced] and to [env.c.output] through
    {!Governor.claim_outputs} and never calls the sink — the rows are
    those of the enumerating run. A SCAN or HASH-JOIN root, or one a
    rewrite takes over, still enumerates. Only for runs {!count_only}
    accepts. Operators take their off-heap scratch vectors from a
    per-domain pool, which {!governed} refills when the run ends. *)
val compile_rw : ?count:bool -> rewrite -> env -> Gf_plan.Plan.t -> driver

(** [count_only env sink] is whether a run with this environment and sink
    may compile a count-only root: no sink reads the rows, semantics are
    homomorphic ([distinct] checks every candidate against the bound
    prefix), and no profile or trace needs to see every tuple. Counts
    alone do not: a run that only wants per-operator counts — a plan-cache
    feedback run — stays count-only. *)
val count_only : env -> (int array -> unit) option -> bool

(** [scan env node ranges] is the SCAN operator for the scan node [node],
    one run per source vertex with neighbours (its adjacency slice), in
    groups of up to 64 sources: at each drive it calls [ranges emit], which must call [emit lo hi] for
    every range [\[lo, hi)] of source indices (into the scan's source
    label, see {!num_scan_sources}) to stream. Rewrites use it to restrict
    a driving scan to a shard, a morsel or work-shared chunks. *)
val scan : env -> Gf_plan.Plan.t -> ((int -> int -> unit) -> unit) -> groups

(** [build_into env join table] is the sink of a HASH-JOIN's build side:
    it appends each build tuple to [table], counting it in the join's row
    and charging {!Join_table.bytes_per_row} to the governor. {!Join_table.index}
    the table once the build side is done. *)
val build_into : env -> Gf_plan.Plan.t -> Join_table.t -> int array -> unit

(** [probe recurse env join table] is the HASH-JOIN probe: it compiles the
    probe side with [recurse] and joins every probe tuple against [table],
    handing each joined tuple on as a group of one run of length one.
    [table] must be indexed; matching rows are read in place and the table
    is never written, so several domains may probe one table at once. *)
val probe :
  (env -> Gf_plan.Plan.t -> groups) -> env -> Gf_plan.Plan.t -> Join_table.t -> groups

(** [emit env sink] is the root sink: it claims one output slot from the
    governor (exactly [max_output] tuples are emitted under an output cap),
    counts it in [env.c.output] and passes the tuple to [sink]. *)
val emit : env -> (int array -> unit) -> int array -> unit

(** [governed gov env ~span driver sink] is the governed loop every
    executor domain runs: start the profile's clock, run [driver sink], end
    a budget {!Governor.Trip} quietly and turn any other exception into
    [Governor.fail gov ~operator:span], then finish the profile and
    {!Governor.finish} the handle. With [env.trace] set the run is one
    [span] span. Never raises. *)
val governed : Governor.t -> env -> span:string -> driver -> (int array -> unit) -> unit

(** [traced_profile prof trace plan] is [prof], or a fresh profile when the
    run is traced without one — a traced run is always profiled, so its
    operator summary track can be drawn. *)
val traced_profile :
  Profile.t option -> Gf_obs.Trace.t option -> Gf_plan.Plan.t -> Profile.t option

(** [driving_scan p] is the SCAN that streams tuples into [p]'s root
    pipeline: the leftmost scan through E/I children and HASH-JOIN probe
    sides. Its source-vertex range is the unit of work division shared by
    the parallel executor's morsels and the cluster's shard requests. *)
val driving_scan : Gf_plan.Plan.t -> Gf_plan.Plan.t

(** [num_scan_sources g p] is the size of the driving scan's source space —
    [Graph.num_with_label] of its source label. Ranges over
    [\[0, num_scan_sources)] partition the plan's output. *)
val num_scan_sources : Gf_graph.Graph.t -> Gf_plan.Plan.t -> int

(** [emit_operator_track tr prof rows ~t0_us] synthesizes the per-operator
    summary track: one span per operator, durations = profile self-times,
    counts from [rows], packed sequentially from [t0_us] on thread 100 so
    their lengths sum exactly to the profile's totals. Used by the
    sequential and parallel executors. *)
val emit_operator_track :
  Gf_obs.Trace.t -> Profile.t -> Counters.t array -> t0_us:int -> unit

(** [run_gov ?budget ?fault g p] executes under the given budget (default
    {!Governor.unlimited}) and reports how the query ended: [Completed],
    [Truncated reason] on any budget trip, or [Failed error] on an injected
    fault or an exception raised by an operator or by [sink] (operator
    ["execute"]). Counters and any tuples already delivered to [sink] are
    preserved in all cases. [gov] supplies an externally created governor
    (cross-thread cancellation, e.g. a server draining its in-flight
    queries); when present, [budget] and [fault] are ignored — they were
    fixed at the governor's creation. [rewrite] takes over compilation of
    chosen sub-plans (see {!rewrite}).

    [trace] opts the run into span tracing: the executor registers its own
    recording buffer (tid 1) on the trace, records an [execute] root span
    plus hash-join / giant-intersection phase spans, and synthesizes a
    per-operator summary track (tid 100) from the profile after the run. A
    traced run is implicitly profiled.

    A run that {!count_only} accepts — no [sink], homomorphic, no [prof]
    or [trace] — compiles its E/I root count-only (see {!compile_rw}):
    the counters and the outcome are those of the enumerating run, an
    output cap still truncates at exactly [max_output], and only
    [gov_checks] may be lower. *)
val run_gov :
  ?rewrite:rewrite ->
  ?cache:bool ->
  ?distinct:bool ->
  ?budget:Governor.budget ->
  ?fault:Governor.fault ->
  ?gov:Governor.t ->
  ?prof:Profile.t ->
  ?trace:Gf_obs.Trace.t ->
  ?sink:(int array -> unit) ->
  Gf_graph.Graph.t ->
  Gf_plan.Plan.t ->
  Counters.t * Governor.outcome

(** [run_rows] is {!run_gov} that also returns the per-operator counts
    rows, in operator-id ({!Gf_plan.Plan.operators} preorder) order; the
    counters are their fold. *)
val run_rows :
  ?rewrite:rewrite ->
  ?cache:bool ->
  ?distinct:bool ->
  ?budget:Governor.budget ->
  ?fault:Governor.fault ->
  ?gov:Governor.t ->
  ?prof:Profile.t ->
  ?trace:Gf_obs.Trace.t ->
  ?sink:(int array -> unit) ->
  Gf_graph.Graph.t ->
  Gf_plan.Plan.t ->
  Counters.t * Counters.t array * Governor.outcome

(** [count g p] is the number of matches: [run_gov] without a sink, so an
    E/I root runs count-only — each extension set contributes its size
    instead of being enumerated, the simplest form of the factorized
    processing the paper discusses in Sections 3.2.3 and 10. Combined with
    the intersection cache this skips the whole output loop for
    cache-hitting tuples. With [distinct] or a SCAN / HASH-JOIN root it
    enumerates. Raises [Failure] if an operator raised. *)
val count : ?cache:bool -> ?distinct:bool -> Gf_graph.Graph.t -> Gf_plan.Plan.t -> int
