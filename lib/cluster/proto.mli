(** The cluster dialect of the newline-delimited wire protocol.

    Two line shapes ride on top of the standard {!Gf_server.Wire} surface
    (both are intercepted by server hooks before normal dispatch):

    {v
    hello proto=2 node=<id> role=<coordinator|worker|probe>
    shard part=<i>/<k> [timeout_ms=N] [max_rows=N] [trace_id=N parent=<span>] [rows] q=<query>
    v}

    [hello] is the version + identity handshake: a worker answers with its
    protocol version, node id, and graph fingerprint (vertex count [n],
    edge count [m], graph version), or a structured [version_mismatch]
    refusal when the peer speaks a different protocol — skewed deploys
    fail loudly at connect, never mid-query.

    [shard] asks the worker to run the i-th of k equal slices of the
    query's driving-scan source space. The worker plans locally (same
    graph + same code = same plan on every worker), so disjoint parts
    union into exactly the full result. [q=] must come last — it consumes
    the rest of the line, the same rule as [run].

    Replies are single JSON lines built and read with {!Gf_util.Json}.
    A traced shard reply carries the worker's span tree as a JSON array
    ([spans]); version 1 shipped it in a different encoding, so a mixed
    v1/v2 pair refuses at [hello] instead of losing spans. *)

(** Protocol version spoken by this build. *)
val version : int

val hello_req : node:string -> role:string -> string

type hello = { p_proto : int; p_node : string; p_role : string }

val parse_hello : string -> (hello, string) result

(** [clock_us] is the responder's wall clock at reply time
    ({!Gf_obs.Trace.now_us}); the caller brackets the exchange with its own
    clock and derives the peer-minus-local skew used to align grafted
    trace timestamps. *)
val hello_resp : node:string -> n:int -> m:int -> graph_version:int -> clock_us:int -> string

val version_mismatch : node:string -> theirs:int -> string

(** [trace_ctx] is [(trace_id, parent_span_name)] — present when the
    coordinator wants the worker to trace its part and ship the span tree
    back. [parent_span_name] must be a single token (no spaces). *)
val shard_req :
  part:int * int ->
  ?timeout_ms:int ->
  ?max_rows:int ->
  ?trace_ctx:int * string ->
  rows:bool ->
  string ->
  string

val parse_part : string -> (int * int, string) result

val parse_shard : string -> (Gf_server.Service.request * (int * string) option, string) result
(** The parsed request carries [part = Some (i, k)], the query text, and
    [trace = true] when the line carried a [trace_id=]; alongside it, the
    [(trace_id, parent)] context to echo in the reply ([parent] defaults to
    ["shard"]), [None] when the request is untraced. Options follow
    {!Gf_server.Wire.parse_options}: text after [q=] is query text, never an
    option. *)

(** Worker-side observability payload of a traced shard reply: the span
    array built by {!Gf_obs.Trace.export_spans}, the worker's OS pid, and
    its clock at reply time. *)
type obs = {
  o_trace_id : int;
  o_parent : string;
  o_pid : int;
  o_clock_us : int;
  o_spans : Gf_util.Json.t;
}

val shard_resp : node:string -> part:int * int -> ?obs:obs -> Gf_server.Service.reply -> string
val not_owner : node:string -> part:int * int -> string

val run_resp :
  id:int ->
  outcome:string ->
  matches:int ->
  shards:int ->
  incomplete:int list ->
  failovers:int ->
  hedges:int ->
  retries:int ->
  exec_s:float ->
  ?trace_id:int ->
  rows:int array list ->
  unit ->
  string
(** The coordinator's client-facing reply: [outcome] is
    [completed|truncated|partial|failed] and [incomplete_shards] lists the
    shard ids whose matches are missing — a partial answer is always
    honestly marked, never a silent undercount. [trace_id], when present,
    is the coordinator-side flight-recorder handle for the stitched
    cluster trace ([trace id=N] fetches it). *)
