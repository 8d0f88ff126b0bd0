(** Retry with degradation: the per-request resilience ladder.

    A request is attempted on a sequence of rungs, each cheaper and more
    conservative than the last:

    + {b parallel} — the morsel-driven executor on [domains] domains under
      the full budget (skipped when [domains <= 1]);
    + {b sequential} — the single-threaded executor, full budget;
    + {b degraded} — sequential under [degraded_budget], a reduced budget
      whose caps pre-empt the failure point and turn the answer into a
      structured [Truncated] (partial rows) instead of an error.

    Only [Failed] outcomes climb the ladder — a [Truncated] answer is
    already a valid degraded response and is accepted as-is, and
    [Truncated Cancelled] (the service is draining) returns immediately.
    Between attempts the ladder sleeps a capped exponential backoff with
    deterministic jitter drawn from the caller's {!Gf_util.Rng}, so a
    seeded test replays the exact same schedule.

    Rows are buffered per attempt and flushed to the caller's [sink] only
    from the accepted attempt — a failed first attempt cannot leak partial
    rows into the answer stream, so a retried-then-completed request is
    indistinguishable from one that completed first try. *)

module Gf = Graphflow

type config = {
  domains : int;  (** first-rung parallelism; <= 1 skips the parallel rung *)
  budget : Gf.Governor.budget;  (** rungs 1-2 *)
  degraded_budget : Gf.Governor.budget;  (** final rung *)
  backoff_base_s : float;  (** first backoff, before jitter *)
  backoff_cap_s : float;  (** backoff ceiling *)
}

val default_config : config
(** domains 1, unlimited budget, degraded = 10k output / 1M intermediate /
    2 s deadline, backoff 50 ms base / 1 s cap. *)

type rung = { name : string; domains : int; budget : Gf.Governor.budget }

val rungs : config -> rung list
(** The attempt sequence [run] walks, in order. *)

type result = {
  outcome : Gf.Governor.outcome;  (** of the accepted (last) attempt *)
  counters : Gf.Counters.t;  (** of the accepted (last) attempt *)
  plan : Gf.Plan.t option;
      (** the plan the accepted attempt executed; [None] for a request
          answered without running *)
  attempts : int;
  retries : int;  (** [attempts - 1] *)
  degraded : bool;
      (** the answer came from the degraded rung or was truncated *)
  rung : string;  (** name of the rung that produced the answer *)
  backoffs : float list;  (** jittered sleeps taken, in order *)
}

(** [rejected r] is true when the planner rejected the request's query
    ({!Gf.Planner.No_plan}): [r] then has rung ["planner"], one attempt,
    no plan, and the outcome [Failed { operator = "planner"; detail }]
    with the planner's reason. No rung can run such a query, so it is not
    retried; the fault is the client's, not the backend's. *)
val rejected : result -> bool

val run :
  ?sleep:(float -> unit) ->
  ?now:(unit -> float) ->
  ?attach:(Gf.Governor.t -> unit -> unit) ->
  ?fault:Gf.Governor.fault ->
  ?fault_attempts:int ->
  ?part:int * int ->
  ?sink:(int array -> unit) ->
  ?trace:Gf.Trace.t ->
  ?tbuf:Gf.Trace.buf ->
  rng:Gf.Rng.t ->
  config ->
  Gf.Db.t ->
  Gf.Query.t ->
  result
(** [run ~rng cfg db q] walks the ladder until an attempt is accepted.

    [attach gov] is called at the start of every attempt with that
    attempt's governor and returns a detach thunk — the hook a service
    uses to expose in-flight governors for cross-thread cancellation
    ({!Gf.Governor.cancel} during drain). [fault] injects a deterministic
    fault into the first [fault_attempts] attempts (default 1: the fault
    fires once and the retry recovers — set it higher to keep a request
    failing on every rung). [sleep] replaces [Unix.sleepf] in tests, and
    [now] replaces [Unix.gettimeofday] — the clock against which each
    backoff is clamped to the budget's remaining [deadline_s], so a retry
    never sleeps past the point where the attempt is guaranteed to trip
    the governor on arrival.

    [part = (i, k)] marks a cluster shard request: every attempt executes
    only that slice of the driving scan ({!Gf.Db.run_gov}'s [scan_part]),
    and the parallel rung is skipped — the worker process is the
    parallelism unit, and identical sequential plans across workers are
    what make disjoint parts union into the exact full result.

    [trace] is forwarded to {!Gf.Db.run_gov} for each attempt; [tbuf] (the
    caller's recording buffer — the ladder runs on the caller's thread)
    records an [attempt] span per rung, with outcome, and a [backoff] span
    per sleep. *)
