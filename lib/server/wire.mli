(** The newline-delimited request/response protocol spoken by [gfq serve].

    Requests are single lines:
    {v
    ping
    metrics
    stats
    slowlog [n]
    trace id=N
    shutdown
    addedge <u> <v> [<elabel>] [trace]
    deledge <u> <v> [<elabel>] [trace]
    addvertex [<label>] [trace]
    delvertex <v> [trace]
    checkpoint [trace]
    run [timeout_ms=N] [max_rows=N] [max_intermediate=N]
        [fault_at=N] [fault_all] [rows] [trace] q=<query>
    <query>                        (a bare line is a plain run)
    v}
    Mutation commands need the server started with [--data-dir]; they are
    acknowledged only after the write-ahead-log record is fsynced.
    where [<query>] is anything [gfq] accepts: the edge-list DSL
    ([a1->a2, a2->a3, a1->a3]), a [MATCH ...] pattern, or [Q1..Q14].
    The [q=] option must come last — it consumes the rest of the line.

    Responses are single JSON lines, always with a boolean ["ok"]:
    {v
    {"ok":true,"type":"pong"}
    {"ok":true,"id":3,"outcome":"completed","matches":980,...}
    {"ok":false,"error":"rejected","reason":"queue_full"}
    {"ok":false,"error":"parse","detail":"..."}
    v} *)

module Gf = Graphflow

type request =
  | Ping
  | Metrics_req
  | Shutdown
  | Stats  (** service health snapshot *)
  | Slowlog of int  (** the [n] most recent flight-recorder records *)
  | Trace_of of int  (** retained Chrome trace JSON for a record id *)
  | Run of Service.request
  | Mutate of Service.mutation * bool  (** mutation, [trace] flag *)

val parse_request : string -> (request, string) result
(** [Error detail] on an unknown keyword, malformed option, or query parse
    error ([detail] includes the caret-annotated position for the DSL). *)

val parse_query : string -> (Gf.Query.t, string) result
(** Q1..Q14 / [MATCH ...] / edge-list DSL — the [gfq] query surface. *)

(** {2 The request-option tokenizer}

    Shared by every line shape that takes options before a query
    ([run], and the cluster's [shard]). *)

exception Bad of string

val parse_options : string -> (string -> string option -> unit) -> (string, string) result
(** [parse_options body opt] walks the space-separated options of [body]
    in order, calling [opt key (Some value)] for [key=value] and
    [opt flag None] for a bare flag, and returns the query text after
    [q=], which consumes the rest of the line. [Error] when [q=] is
    missing or [opt] raises {!Bad}. *)

val non_negative : string -> string -> int
(** [non_negative key value] reads an option's integer value or raises
    {!Bad}. *)

val bad_option : string -> string option -> 'a
(** Raises {!Bad} naming an option the caller does not accept. *)

(** Response builders: {!Gf_util.Json} values printed as single lines,
    no trailing newline. *)

val pong : string
val shutting_down : string

val ok_run : reply:Service.reply -> string
(** Includes outcome, matches, attempts/retries/degraded/rung, queue and
    exec seconds; traced requests additionally carry
    [,"traced":true,"trace_id":N] (fetch with [trace id=N]); and — when the
    request collected rows — the rows. *)

val rows_json : int array list -> Gf_util.Json.t
(** Result rows as an array of integer arrays (the [rows] member). *)

val rejected : Service.reject_reason -> string
val error_resp : kind:string -> detail:string -> string

val ok_mutation : Service.mutation_reply -> traced:bool -> string
(** [{"ok":true,"type":"applied","lsn":N,"applied":B,"version":N,
    "graph_version":N,"durable":N}] plus ["vertex"] for [addvertex] and
    ["trace_id"] when traced. *)

val mutation_rejected : Service.mutation_error -> string
(** Structured refusal: [read_only] (no [--data-dir]), [invalid]
    (validation), [wal_failed] (store went read-only), or the standard
    draining rejection. *)

val metrics_resp : string -> string
(** Wraps the Prometheus exposition as [{"ok":true,"metrics":"..."}]. *)

val stats_resp : Service.stats -> string
(** [{"ok":true,"queue_depth":..,"breaker":"..","p50_ms":..,...}]. *)

val slowlog_resp : Gf.Recorder.record list -> string
(** [{"ok":true,"count":N,"records":[...]}]. *)

val trace_resp : id:int -> string -> string
(** Nests the retained Chrome trace JSON as the [trace] member:
    [{"ok":true,"id":N,"trace":{...}}]. *)

val trace_not_found : int -> string
