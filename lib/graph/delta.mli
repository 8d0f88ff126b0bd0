(** A mutable delta store overlaid on the immutable CSR ({!Graph}).

    The CSR is built once and never touched in place — every reader
    (executor, kernels, mmap snapshots) keeps its zero-copy sorted-slice
    view. Mutations accumulate here instead: sorted per-partition insertion
    lists, a deletion set, and appended vertices. {!merge} folds the delta
    into a fresh CSR via the prefix-sum build ({!Graph.build}) and clears
    the overlay, so steady-state reads always run against a plain
    [Graph.t] and pay nothing for the write path.

    Versioning: every applied operation bumps a monotonic version — the
    log sequence number of the write-ahead log record that made it
    durable. [merged_version] is the version the current CSR reflects;
    [version] additionally counts the pending overlay. A query engine or
    catalogue keyed by [merged_version] is invalidated exactly when a
    merge publishes a new CSR.

    Not thread-safe: callers serialize writers (the service layer's
    single-writer admission) and must not call {!merge} while a reader
    holds the previous {!graph} — readers keep old CSRs alive simply by
    retaining them; merge never mutates a published graph. *)

type t

(** What applying an operation did. [Applied] changed live state; [Noop]
    was redundant (duplicate insert, delete of an absent edge) — replay of
    a WAL containing redundant records stays deterministic either way. *)
type applied = Applied | Noop

(** Why an operation was refused: structurally invalid against the current
    bounds (labels and vertex ids), never a transient condition. *)
type error =
  | Vertex_out_of_range of int
  | Vlabel_out_of_range of int
  | Elabel_out_of_range of int
  | Self_loop of int
  | Tombstoned of int  (** the vertex was deleted; its id is never reused *)

val error_to_string : error -> string

(** [create ?version graph] starts an empty overlay on [graph], with both
    versions at [version] (default 0). *)
val create : ?version:int -> Graph.t -> t

(** The CSR reflecting everything up to [merged_version]. Constant time;
    this is what queries execute against. *)
val graph : t -> Graph.t

val version : t -> int
val merged_version : t -> int

(** Pending overlay operations not yet folded into the CSR (edge inserts +
    edge deletes + appended vertices + vertex tombstones). *)
val pending : t -> int

(** Live totals including the overlay. *)
val live_edges : t -> int

val live_vertices : t -> int

(** {1 Mutations}

    Each mutator validates, applies to the overlay, and bumps [version] by
    one — including for [Noop]s, so the version stays equal to the LSN of
    the last WAL record applied. *)

(** [tick t] advances [version] by one without touching the overlay — for
    WAL records that carry no graph mutation (checkpoint markers), so
    [version] stays equal to the last log sequence number applied. *)
val tick : t -> unit

(** [add_edge t u v ~elabel] inserts a directed edge. Duplicates (already
    live) are [Noop]. Self-loops are refused, matching {!Graph.build}. *)
val add_edge : t -> int -> int -> elabel:int -> (applied, error) result

(** [del_edge t u v ~elabel] deletes an edge; absent edges are [Noop]. *)
val del_edge : t -> int -> int -> elabel:int -> (applied, error) result

(** [add_vertex t ~label] appends a vertex and returns its id (always
    [Applied]: ids are dense, the new vertex is [live_vertices - 1]). *)
val add_vertex : t -> label:int -> (int, error) result

(** [del_vertex t v] tombstones a vertex: all its incident edges (base and
    overlay) are deleted and future edges touching it are refused. The id
    itself stays allocated — ids are stable, never reused — and the vertex
    remains in the CSR as an isolated vertex after merge. Deleting a
    tombstone is [Noop]. *)
val del_vertex : t -> int -> (applied, error) result

(** {1 Overlay reads}

    Reads that must see unmerged mutations (mutation validation, tests,
    future delta-feed subscribers). Queries do not come through here. *)

(** [mem_edge t u v ~elabel] is edge liveness under the overlay. *)
val mem_edge : t -> int -> int -> elabel:int -> bool

val vlabel : t -> int -> int
val tombstoned : t -> int -> bool

(** [neighbours t u ~elabel ~nlabel] materializes the overlay view of one
    forward partition: base slice minus deletions plus sorted insertions.
    Allocates; not a hot path. *)
val neighbours : t -> int -> elabel:int -> nlabel:int -> int array

(** [edge_array t] is every live edge [(src, dst, elabel)] under the
    overlay — the full-graph comparison surface of the crash-torture
    harness. Sorted by [(src, dst, elabel)]. *)
val edge_array : t -> (int * int * int) array

(** {1 Merge} *)

(** [merge t] rebuilds the CSR with the overlay folded in (prefix-sum
    build over live edges), publishes it as {!graph}, advances
    [merged_version] to [version], clears the overlay, and returns the new
    CSR. A no-op returning the current graph when nothing is pending and
    the versions already agree. *)
val merge : t -> Graph.t

