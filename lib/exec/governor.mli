(** The query governor: per-query budgets, cooperative cancellation and
    structured outcomes, shared by the sequential and the parallel executor.

    A query runs under a {!budget} — wall-clock deadline, output-row cap,
    intermediate-tuple cap, approximate byte cap for materialized state
    (hash-join build tables, morsel batches). One {!t} is created per query
    and shared by every domain working on it; each domain derives a private
    {!handle} and calls {!tick} from its inner loops. A tick decrements a
    local fuel counter and only every [cadence] ticks performs the full
    check: flush the domain's produced-tuple delta to the shared total, test
    the caps and the deadline, and raise {!Trip} if any budget (or an
    injected fault, or an explicit {!cancel}) has tripped — so the common
    case costs one decrement and one branch, and every domain stops within
    [cadence] tuples of any other domain tripping a budget.

    The first trip wins: the shared flag is set once, by compare-and-set,
    and {!outcome} reports it as [Truncated reason] or [Failed error].
    Budgets left unset are not checked at all (an unlimited governor never
    reads the clock). *)

(** Why a query was cut short. *)
type reason =
  | Deadline  (** wall-clock deadline exceeded *)
  | Output_limit  (** output-row cap reached *)
  | Intermediate_limit  (** intermediate-tuple cap exceeded *)
  | Memory_limit  (** approximate materialized bytes exceeded *)
  | Cancelled  (** explicit {!cancel} *)

(** A structured operator failure (also produced by fault injection). *)
type error = { operator : string; detail : string }

(** The structured result of governed execution. Partial results and
    counters are preserved in every case. *)
type outcome = Completed | Truncated of reason | Failed of error

val pp_outcome : Format.formatter -> outcome -> unit
val outcome_to_string : outcome -> string

(** Per-query resource budget; [None] fields are unchecked. [max_bytes]
    bounds the approximate bytes of materialized state (join-table rows,
    morsel batch buffers) accounted via {!add_bytes}. *)
type budget = {
  deadline_s : float option;  (** relative to query start, in seconds *)
  max_output : int option;
  max_intermediate : int option;
  max_bytes : int option;
}

(** No limits: never trips unless {!cancel}led or {!fail}ed. *)
val unlimited : budget

val budget :
  ?deadline_s:float ->
  ?max_output:int ->
  ?max_intermediate:int ->
  ?max_bytes:int ->
  unit ->
  budget

(** A deterministic injected fault: the query fails (outcome
    [Failed { operator; detail }]) at the first governor check after the
    global produced-tuple total reaches [at_tuple]. The test harness derives
    [at_tuple] from a seeded {!Gf_util.Rng} so unwinding is exercised at
    reproducible points mid-pipeline. *)
type fault = { at_tuple : int; operator : string }

(** The shared per-query governor state. Thread-safe: one [t] is shared by
    all domains of a parallel run. *)
type t

(** Raised by {!check}, {!tick} and {!claim_output} once the governor has
    tripped; executors unwind to the query entry point, which converts it
    into the {!outcome}. Never escapes [run_gov]-style entry points. *)
exception Trip

(** [create budget] starts the clock: a relative [deadline_s] is stamped
    into an absolute deadline now. *)
val create : ?fault:fault -> budget -> t

(** Trip the governor with [Cancelled] (e.g. from a signal handler or
    another thread). Idempotent; loses against an earlier trip. *)
val cancel : t -> unit

(** Record a structured failure and trip the governor. The first failure
    wins; later calls are ignored. *)
val fail : t -> operator:string -> detail:string -> unit

(** Has any budget tripped / cancel / fail occurred? One atomic read —
    cheap enough for per-morsel loop conditions. *)
val tripped : t -> bool

val outcome : t -> outcome

(** A domain-private cursor over the shared governor: owns the fuel
    counter and the last-flushed produced count, so ticking never touches
    shared state in the common case. *)
type handle

(** [handle t rows] is a cursor whose produced count is the sum of
    [rows]' [produced] fields — the domain's per-operator counts, folded
    at each full check. A handle that only accounts bytes passes [[||]]. *)
val handle : t -> Counters.t array -> handle

(** Number of full checks between deadline/cap evaluations; {!tick} costs a
    decrement and branch in between. *)
val cadence : int

(** [tick h] is the cheap per-tuple call: decrements fuel and runs
    {!check} every {!cadence} calls. *)
val tick : handle -> unit

(** [tick_work h n] charges [n] tuple-equivalents of work at once —
    used by the E/I operator to account the scanned adjacency-list length
    of an intersection that produces few (or no) tuples, so a long run of
    expensive-but-unproductive intersections still reaches a deadline
    check within one cadence of work rather than one cadence of produced
    tuples. A no-op when [n <= 0]. *)
val tick_work : handle -> int -> unit

(** [fuel h] is how many tuples [h] may still {!tick} before its next
    full check, at least 1. The E/I operator hands runs on in pieces no
    longer than this, each charged with one {!tick_work}, so checks fall
    where per-tuple ticks would put them. *)
val fuel : handle -> int

(** [check h] flushes the rows' summed [produced] to the shared total,
    evaluates the fault trigger, the intermediate cap and the deadline, and
    raises {!Trip} if the governor has tripped (here or elsewhere). *)
val check : handle -> unit

(** [claim_output h] atomically claims one output slot. Raises {!Trip} if
    the output cap is already exhausted (the tuple must not be emitted);
    trips the governor — without raising — when this claim is the last one
    below the cap, so exactly [max_output] tuples are emitted globally.
    A no-op when no output cap is set. *)
val claim_output : handle -> unit

(** [claim_outputs h n] claims [n] output slots at once and returns how
    many were granted: [n], or what is left of the output cap — the
    count-only root's {!claim_output}. Trips the governor, without
    raising, once the claims reach the cap; a caller granted fewer than
    [n] must emit only those and raise {!Trip}. Across domains the grants
    sum to exactly [max_output] when the cap is reached. Returns [n] when
    no output cap is set. *)
val claim_outputs : handle -> int -> int

(** [add_bytes h n] accounts [n] approximate bytes of materialized state
    and trips the governor (without raising — a subsequent {!tick} unwinds)
    once the byte cap is exceeded. A no-op when no byte cap is set. *)
val add_bytes : handle -> int -> unit

(** [release_bytes h n] returns [n] bytes of materialized state that is no
    longer live (a consumed morsel batch), so [max_bytes] bounds *live*
    bytes rather than cumulative allocation. The shared total is clamped at
    zero. A no-op when no byte cap is set or [n <= 0]. *)
val release_bytes : handle -> int -> unit

(** [finish h c] flushes the remaining produced delta and records the
    number of full checks into the run-level [c.gov_checks]. Call once per
    domain after its pipeline ends (normally or by {!Trip}) so counter
    totals survive truncation. *)
val finish : handle -> Counters.t -> unit
