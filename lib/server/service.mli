(** The concurrent query service: a bounded admission queue in front of
    [workers] execution slots, each request executed through the {!Ladder}
    under the {!Breaker}'s verdict.

    A request runs on the thread that submitted it. When a slot is free it
    runs at once; otherwise its ticket waits in the queue until a finishing
    request hands it a slot, so at most [workers] requests execute at once.
    The service starts no thread of its own: a query's parallelism comes
    from the ladder's domains.

    Admission ({!submit_async}) never blocks: when the service is draining,
    the queue is full, or the breaker is open, it returns a structured
    rejection immediately (load shedding). Checks run in that order, so a
    full queue cannot consume the breaker's half-open probe.

    Shutdown ({!drain}) is graceful: admission stops, requests still queued
    are answered [Truncated Cancelled] without running, in-flight requests
    are cancelled through their registered governors
    ({!Gf.Governor.cancel}), and [drain] returns once no request is
    executing. Idempotent.

    Everything observable is counted in the {!Gf_exec.Metrics} registry:
    [gf_server_admitted_total], the three [gf_server_shed_*_total]
    rejection counters, [gf_server_requests_{completed,truncated,failed}_total],
    [gf_server_retries_total], [gf_server_degraded_total],
    [gf_server_drains_total], and the [gf_server_queue_seconds] /
    [gf_server_request_seconds] histograms. *)

module Gf = Graphflow

type config = {
  queue_capacity : int;  (** tickets that may wait for a slot *)
  workers : int;  (** requests executed at once (slots), at least 1 *)
  ladder : Ladder.config;
  breaker : Breaker.config;
  fault_seed : int option;
      (** chaos source: when set, roughly one request in four gets a
          deterministic first-attempt fault derived from this seed and the
          request id (the [GFQ_FAULT_SEED] convention) *)
  seed : int;  (** seeds per-request backoff-jitter streams *)
  now : unit -> float;  (** injectable clock (breaker cooldown, latency) *)
  sleep : float -> unit;  (** injectable backoff sleep *)
  slowlog_capacity : int;  (** flight-recorder ring size *)
  trace_retain : int;  (** retained full traces per retention ring *)
  slow_s : float;  (** latency promoting a trace to the pinned slow ring *)
  trace_capacity : int;  (** per-buffer span ring size for traced requests *)
}

val default_config : config
(** capacity 64, workers 4, default ladder/breaker, no chaos, seed 42,
    real clock and sleep; flight recorder of 256 records, 8 retained
    traces, 250 ms slow threshold. *)

(** One query request. [None] budget fields inherit the ladder's budget. *)
type request = {
  query : Gf.Query.t;
  text : string;  (** raw query text, for the flight recorder ("" if unknown) *)
  timeout_ms : int option;
  max_rows : int option;
  max_intermediate : int option;
  fault_at : int option;  (** explicit injected fault (testing) *)
  fault_all : bool;  (** fault every attempt, not just the first *)
  part : (int * int) option;
      (** cluster shard: run only the i-th of k slices of the driving scan *)
  collect_rows : bool;  (** buffer result rows into the reply *)
  trace : bool;  (** record a full span trace for this request *)
}

val request : Gf.Query.t -> request
(** A plain request: no overrides, rows not collected. *)

type reject_reason = Queue_full | Breaker_open | Draining

val reject_reason_to_string : reject_reason -> string

type reply = {
  id : int;  (** admission ticket number, 1-based *)
  result : Ladder.result;
  rows : int array list;  (** in emission order; [] unless [collect_rows] *)
  queue_s : float;  (** time spent queued *)
  exec_s : float;  (** time spent executing (all attempts + backoffs) *)
  record_id : int;  (** flight-recorder record id (0 when not recorded) *)
  traced : bool;  (** a full trace was recorded and retained *)
  trace_obj : Gf.Trace.t option;
      (** the recorded trace itself, for callers that re-export it (a
          cluster worker ships its span tree back inside the shard reply) *)
  graph_version : int;  (** merged-CSR version the query ran against (0 = no store) *)
}

type ticket
type t

val create : ?config:config -> Gf.Db.t -> t

(** {1 Durable mutations}

    When a {!Gf_wal.Store} is attached, the service accepts graph
    mutations: each one is validated and applied to the store's delta
    overlay, logged to the write-ahead log, and acknowledged only after a
    covering fsync (group commit batches concurrent acks behind one
    fsync). The store's writer lock is the single-writer admission:
    mutations from any number of connections serialize there, while the
    read path keeps executing against the current merged CSR untouched.

    Whenever the store publishes a new merged CSR, the service re-seats
    its [Db] on it ({!Gf.Db.with_graph}) — invalidating every catalogue
    entry, since the old statistics described the old graph — and bumps
    [gf_server_catalog_invalidations_total]. Without an attached store
    the service is read-only and every mutation is refused. *)

(** [attach_store t store] wires [store] in and immediately re-seats the
    db on the store's (possibly recovered) graph. Call before serving. *)
val attach_store : t -> Gf_wal.Store.t -> unit

val store : t -> Gf_wal.Store.t option

(** Current merged-CSR version; 0 when no store is attached. Carried in
    every run reply so clients can correlate results with graph state. *)
val graph_version : t -> int

type mutation =
  | M_add_edge of { u : int; v : int; elabel : int }
  | M_del_edge of { u : int; v : int; elabel : int }
  | M_add_vertex of { label : int }
  | M_del_vertex of { v : int }
  | M_checkpoint

type mutation_reply = {
  m_lsn : int;  (** the WAL record (or checkpoint version) *)
  m_applied : bool;  (** [false] when the operation was a no-op *)
  m_vertex : int option;  (** the id minted by [M_add_vertex] *)
  m_version : int;  (** store version after the mutation *)
  m_graph_version : int;
  m_durable : int;  (** durable LSN at ack time — always >= [m_lsn] *)
  m_record : int;  (** flight-recorder id (trace handle when traced) *)
}

type mutation_error =
  | M_read_only  (** no store attached (serve without [--data-dir]) *)
  | M_draining
  | M_invalid of string  (** structured delta validation refusal *)
  | M_failed of string  (** the WAL failed; the store went read-only *)

val mutation_error_to_string : mutation_error -> string

(** [mutate t mut] applies one durable mutation (see above for the ack
    discipline). [trace] records wal-apply / wal-sync / checkpoint spans
    into a retained trace, fetchable via the [trace] wire command with
    [m_record]. [text] is the raw command line for the flight recorder. *)
val mutate :
  t -> ?trace:bool -> ?text:string -> mutation -> (mutation_reply, mutation_error) result

val submit_async : t -> request -> (ticket, reject_reason) result
(** Non-blocking admission. [Error] is the structured shed decision;
    rejected requests do no work at all. An admitted ticket takes a free
    slot at once or waits in the queue for one; a slot it holds is given
    up only by {!await}, so every admitted ticket must be awaited. *)

val await : t -> ticket -> reply
(** Wait for the ticket's slot, then run its request on the calling thread
    and return the reply. A ticket answered by {!drain} returns its
    [Truncated Cancelled] reply without running, and so does one granted a
    slot but not yet started when a drain began. Call it once per ticket,
    from one thread; a later call returns the same reply. *)

val submit : t -> request -> (reply, reject_reason) result
(** [submit_async] + [await]. *)

val drain : t -> unit
val draining : t -> bool
val queue_depth : t -> int
val breaker_state : t -> Breaker.state

(** The always-on flight recorder: one {!Gf.Recorder.record} per executed
    request (query text, plan digest, outcome, latency, ladder state, top
    operators by self-time for traced requests), with full traces retained
    for recent traced requests and pinned for those slower than
    [config.slow_s]. The [slowlog]/[trace] wire commands read it. *)
val recorder : t -> Gf.Recorder.t

(** A point-in-time health snapshot for the [stats] wire command. *)
type stats = {
  s_queue_depth : int;
  s_breaker : Breaker.state;
  s_draining : bool;
  s_admitted : int;
  s_completed : int;
  s_truncated : int;
  s_failed : int;
  s_retries : int;
  s_slowlog : int;  (** records currently held by the flight recorder *)
  s_p50_ms : float;  (** request-latency quantiles ({!Gf.Metrics.quantile});
                         0 before the first request *)
  s_p95_ms : float;
  s_p99_ms : float;
  s_kernel : string;  (** resolved intersection kernel, e.g. ["simd-avx2"] *)
  s_graph_offheap_bytes : int;  (** graph payload living outside the OCaml heap *)
  s_graph_heap_bytes : int;  (** derived heap-resident index structures *)
  s_graph_mapped : bool;  (** whether the payload is an mmap'd snapshot *)
  s_graph_nbr_width : int;  (** adjacency element width in bytes: 4 or 8 *)
  s_graph_version : int;  (** merged-CSR version (0 = no store attached) *)
  s_wal_version : int;  (** last applied LSN *)
  s_wal_durable : int;  (** last fsync-covered LSN *)
  s_wal_pending : int;  (** overlay operations not yet merged *)
  s_checkpoints : int;  (** checkpoints taken since open *)
  s_mutations : int;  (** mutations acknowledged *)
  s_plan_cache_hits : int;  (** plan-cache counters; all 0 when the db has no
                                cache attached ({!Gf.Db.create}'s [plan_cache]) *)
  s_plan_cache_misses : int;
  s_plan_cache_evictions : int;
  s_plan_cache_replans : int;  (** corrected replans, at most one per entry *)
  s_plan_cache_invalidations : int;  (** wholesale drops on merge publication *)
  s_plan_cache_feedbacks : int;  (** runs observed, at most one per entry *)
  s_plan_cache_entries : int;  (** live entries *)
}

val stats : t -> stats
