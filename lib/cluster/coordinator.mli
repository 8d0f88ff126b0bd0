(** The coordinator role: fans a client [run] out as [k] shard requests
    (one per shard of the driving-scan source space), gathers the partial
    matches under a byte-capped governor, and aggregates them into one
    honestly-classified reply.

    The failure ladder, per shard:

    + admission through that shard's own {!Gf_server.Breaker} — one bad
      shard opens alone, healthy shards keep serving;
    + endpoints tried primary-first with {!Health}-aware ordering (Down
      endpoints demoted to the tail, still tried last — health is
      advisory, not a gate);
    + the opening attempt is hedged: after [hedge_after_s] without an
      answer a duplicate fires at the next endpoint and the first good
      reply wins (stragglers lose to replicas instead of stalling p99);
    + a timeout / connection reset / worker refusal re-routes to the next
      endpoint, up to [retries] extra attempts;
    + when no endpoint survives, the shard is declared incomplete — and
      the client reply says so in [incomplete_shards], with the aggregate
      outcome degraded to [partial] (or [failed] when nothing answered).

    A reply is [completed] only when every shard completed; any shard
    truncation or a coordinator byte-cap trip yields [truncated]. Matches
    are never silently undercounted: missing shards are always named.

    Observability: [gf_cluster_*] metrics (requests, shard requests,
    failovers, hedges and hedge wins, retries, incomplete shards,
    partials, request/per-shard latency histograms), per-shard spans in
    traced requests (tids 10+) with per-attempt sub-spans, and a flight
    recorder behind the standard [slowlog] / [trace id=N] wire commands.

    A traced request propagates its trace context to the workers
    ([trace_id=N parent=shard-i] on the shard line); each worker ships its
    span tree back in the reply as a JSON array and the coordinator grafts the
    trees into one trace — per-process Chrome tracks, timestamps realigned
    with the handshake-measured clock skew — before the flight recorder
    snapshots it, so a slow distributed query pins the full cross-process
    picture. A background thread pulls worker [stats] every
    [stats_interval_s] and {!stats_json} merges them into the
    [cluster_stats] reply `gfq top` renders. *)

type config = {
  node : string;
  connect_timeout_s : float;
  rpc_timeout_s : float;
  retries : int;
  hedge_after_s : float option;
  max_result_bytes : int option;
  breaker : Gf_server.Breaker.config;
  probe_interval_s : float;
  probe_timeout_s : float;
  slowlog_capacity : int;
  slow_s : float;  (** slow-pin threshold for distributed queries *)
  stats_interval_s : float;
      (** worker stats pull period; [<= 0] disables the background puller
          (stats are then pulled synchronously on demand) *)
}

val default_config : config

type t

val create : ?config:config -> Topology.t -> t
(** Starts the health prober. Connections are dialed lazily, handshaken
    ({!Proto.version} + graph fingerprint) and pooled. *)

val stop : t -> unit

type shard_result = {
  sr_shard : int;
  sr_ok : bool;
  sr_outcome : string;
  sr_matches : int;
  sr_rows : int array list;
  sr_endpoint : string;
  sr_attempts : int;
  sr_failover : bool;
  sr_hedged : bool;
  sr_hedge_win : bool;
  sr_detail : string;
}

type result = {
  r_id : int;
  r_outcome : string;  (** completed | truncated | partial | failed *)
  r_matches : int;
  r_incomplete : int list;
  r_failovers : int;
  r_hedges : int;
  r_retries : int;
  r_rows : int array list;
  r_exec_s : float;
  r_trace_id : int option;
      (** flight-recorder handle for the stitched trace ([trace id=N]) *)
  r_shards : shard_result array;
}

val run : t -> text:string -> Gf_server.Service.request -> result
(** [text] is the query text forwarded verbatim inside each shard line. *)

val to_reply : result -> string

val stats_json : t -> string
(** The merged [cluster_stats] line: coordinator counters, request-level
    and per-shard latency quantiles ([gf_cluster_request_seconds] /
    [gf_cluster_shard_seconds{shard="i"}]), breaker and health state, and
    a [fleet] array embedding each worker's own [stats] reply as a nested
    object (or an [error] naming an unreachable worker or a reply that
    does not parse). *)

val recorder : t -> Graphflow.Recorder.t
(** The coordinator-side flight recorder (stitched traces live here). *)

val hook : t -> Gf_server.Server.hook
(** Intercepts [run]/[stats]/[slowlog]/[trace id=N] (answered from the
    cluster) and mutations (structured [read_only] refusal — the cluster
    data path is read-only; mutate the owning worker's store); passes
    ping/metrics/shutdown through to the hosting server. *)
