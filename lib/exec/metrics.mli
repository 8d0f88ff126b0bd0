(** A process-global metrics registry with Prometheus-style text
    exposition — the scrape surface for a future server/daemon front end,
    already wired through [Db] and [gfq].

    Metrics are created idempotently by name ([counter "x"] twice returns
    the same counter). Counters and histogram cells are atomic, so domains
    may bump them concurrently; only registry creation and exposition take
    the registry mutex. *)

type counter
type histogram

(** [counter name] registers (or finds) a monotonically increasing
    counter. [labels] selects one series of a family: the same name with
    different labels yields independent cells, rendered as
    [name{k="v"}] in the exposition. Raises [Invalid_argument] when the
    (name, labels) series is already a histogram. *)
val counter : ?help:string -> ?labels:(string * string) list -> string -> counter

val inc : ?by:int -> counter -> unit
val counter_value : counter -> int

(** [histogram name] registers (or finds) a histogram with log-bucketed
    upper bounds [buckets] (default: log-2 spaced from 1 µs to ~134 s; an
    implicit +Inf bucket is added). [labels]
    works as for {!counter}; bucket rows merge the series labels with
    [le] inside one brace group. *)
val histogram :
  ?help:string -> ?buckets:float array -> ?labels:(string * string) list -> string -> histogram

(** [observe h v] records one observation (e.g. a query latency in
    seconds). *)
val observe : histogram -> float -> unit

val histogram_count : histogram -> int

(** Sum of all observations in seconds. Accumulated internally in integer
    nanoseconds so sub-microsecond observations do not truncate away. *)
val histogram_sum : histogram -> float

(** [quantile h p] estimates the [p]-quantile ([0. <= p <= 1.]) by linear
    interpolation inside the log bucket where the cumulative count crosses
    [p * count]. Returns [nan] on an empty histogram; a target in the +Inf
    bucket reports the last finite boundary. *)
val quantile : histogram -> float -> float

(** Prometheus text exposition of every registered metric, sorted by
    family name then labels: [# HELP]/[# TYPE] once per family, cumulative
    [_bucket{le="..."}] rows, [_sum] and [_count]. *)
val exposition : unit -> string

(** Clear the registry (tests). *)
val reset : unit -> unit
