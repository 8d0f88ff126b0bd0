(** Always-on query flight recorder: a bounded ring of recent query
    records, plus retained full traces for the last few traced requests
    and for any request slower than the promotion threshold. Thread-safe;
    recording happens once per query so a mutex costs nothing. *)

type record = {
  id : int;  (** monotonically increasing, the handle for [trace id=N] *)
  query : string;
  plan : string;  (** plan signature *)
  outcome : string;
  latency_s : float;
  queue_s : float;
  rung : string;  (** retry-ladder rung that produced the outcome *)
  attempts : int;
  retries : int;
  top_ops : (string * float) list;  (** top operators by self time, traced runs only *)
  traced : bool;
  slow : bool;  (** latency crossed the promotion threshold *)
  at_s : float;
}

type t

(** [create ?capacity ?retain ?slow_s ()] — [capacity] (default 256) bounds
    the record ring, [retain] (default 8) bounds each retained-trace list,
    [slow_s] (default 0.25) is the slow-query promotion threshold. *)
val create : ?capacity:int -> ?retain:int -> ?slow_s:float -> unit -> t

val slow_threshold : t -> float

(** Record one finished query; returns its id. When [traced] and
    [trace_json] is given, the trace is retained: in the recent-traces ring
    always, and pinned in the slow ring when [latency_s] crossed the
    threshold. *)
val record :
  t ->
  query:string ->
  plan:string ->
  outcome:string ->
  latency_s:float ->
  queue_s:float ->
  rung:string ->
  attempts:int ->
  retries:int ->
  top_ops:(string * float) list ->
  traced:bool ->
  ?trace_json:string ->
  unit ->
  int

(** [recent t k] — up to [k] most recent records, newest first. *)
val recent : t -> int -> record list

(** Records currently held in the ring. *)
val length : t -> int

(** [find_trace t id] — the retained Chrome JSON for [id], slow ring
    checked first (slow traces outlive recent-traffic eviction). *)
val find_trace : t -> int -> string option

(** Ids with a retained trace, ascending. *)
val retained_ids : t -> int list

(** One record as a JSON object (the slowlog reply's element). *)
val record_to_json : record -> Gf_util.Json.t
