(** Span tracing with per-thread ring buffers and Chrome trace-event export.

    Each recording thread of control (an OCaml domain, a service worker)
    owns a {!buf}; recording into it is plain mutation of thread-local
    state, so concurrent domains never contend. Buffers are merged only at
    export time, under the trace's registration mutex.

    Spans are stored {e completed} — a begin/end pair becomes one ring
    entry when the span ends — and the exporter re-derives balanced,
    properly nested [B]/[E] event pairs per tid, so a trace loads cleanly
    in Perfetto / [chrome://tracing] even when ring overwrite dropped
    ancestors. *)

(** A span argument value, rendered into the Chrome [args] object. *)
type arg = Int of int | Str of string | Float of float

type span = {
  name : string;
  cat : string;
  pid : int;  (** process track; 1 for locally recorded spans *)
  tid : int;
  ts_us : int;  (** wall-clock start, µs ({!Gf_util.Timing.now_us}) *)
  dur_us : int;
  depth : int;  (** nesting depth at recording time *)
  args : (string * arg) list;
}

(** Per-thread recording buffer. Not thread-safe: each buffer must be used
    by exactly one thread of control. *)
type buf

(** A trace: a set of registered buffers sharing one capacity. *)
type t

(** [create ?capacity ()] makes an empty trace. [capacity] (default 8192)
    is the per-buffer ring size; when a buffer fills, its oldest spans are
    overwritten and counted in {!dropped}. *)
val create : ?capacity:int -> unit -> t

(** [buffer ?name ?pid t ~tid] registers a new recording buffer. [tid]
    becomes the Chrome thread id; [name], if nonempty, is exported as the
    thread name; [pid] (default 1) selects the process track. Safe to call
    from any domain. *)
val buffer : ?name:string -> ?pid:int -> t -> tid:int -> buf

(** Current wall clock in integer microseconds — the span timestamp unit,
    re-exported for callers synthesizing spans via {!add_complete}. *)
val now_us : unit -> int

(** [begin_span b name] opens a span now. Nesting is tracked per buffer. *)
val begin_span : ?cat:string -> ?args:(string * arg) list -> buf -> string -> unit

(** [end_span b] closes the innermost open span, recording it into the
    ring. [args] are appended to the span's begin-time args. A call with no
    open span is ignored. *)
val end_span : ?args:(string * arg) list -> buf -> unit

(** [span b name f] runs [f ()] inside a span, closing it even on raise. *)
val span : ?cat:string -> ?args:(string * arg) list -> buf -> string -> (unit -> 'a) -> 'a

(** [instant b name] records a zero-duration marker. *)
val instant : ?cat:string -> ?args:(string * arg) list -> buf -> string -> unit

(** [add_complete b ~name ~ts_us ~dur_us] records an already-measured span
    (queue waits, operator summaries synthesized from a {e Profile}). *)
val add_complete :
  ?cat:string -> ?args:(string * arg) list -> buf -> name:string -> ts_us:int -> dur_us:int -> unit

(** Close every still-open span in [b] — the unwind path for governor
    trips and injected faults, so exports never see a dangling stack. *)
val close_all : buf -> unit

(** All recorded spans across buffers, sorted by start time. Call only
    after recording threads have quiesced (joined / returned). *)
val spans : t -> span list

(** Total spans lost to ring overwrite across all buffers. *)
val dropped : t -> int

(** Distinct process-track ids with at least one registered buffer,
    ascending. A purely local trace reports [[1]]. *)
val pids : t -> int list

(** Every recorded span plus buffer (thread-name) metadata as a JSON array,
    for shipping a worker's span tree inside a shard reply: per buffer, a
    [{tid, tname}] entry followed by one [{tid, ts, dur, depth, name, cat,
    args}] entry per span ([args] left out when empty). Call after
    recording threads have quiesced. *)
val export_spans : t -> Gf_util.Json.t

(** [graft t ~pid ~pname ~skew_us data] splices a span array built by
    {!export_spans} in another process into [t], under process track
    [pid] named [pname]. [skew_us] (producer clock minus local clock, from
    the handshake) is subtracted from every timestamp so foreign tracks
    line up with local ones. Malformed entries are skipped silently. *)
val graft : t -> pid:int -> pname:string -> skew_us:int -> Gf_util.Json.t -> unit

(** The exported event stream as [(phase, tid, ts_us, name)] tuples,
    phase ['B'] or ['E'] — for tests asserting per-tid balance without
    parsing JSON. Tracks are emitted contiguously, so the stream stays
    balanced per tid even when grafted processes reuse a tid. *)
val chrome_events : t -> (char * int * int * string) list

(** Chrome trace-event JSON ([{"traceEvents":[...]}]) with process-name
    and thread-name metadata per (pid, tid) track; timestamps normalized
    so the earliest event is at 0. *)
val to_chrome_json : t -> string

(** Terminal span tree: one block per (process, tid) track, indentation
    showing nesting, durations in milliseconds. *)
val render : t -> string
