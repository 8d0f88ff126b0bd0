(** The subgraph catalogue (Section 5).

    Each entry describes extending a sub-query [Q_{k-1}] by one query vertex
    into [Q_k] through a set of adjacency list descriptors [A], and stores:

    - [mu]: the average number of [Q_k] matches produced per [Q_{k-1}]
      match (selectivity), and
    - [|A|]: the average size of each intersected adjacency list.

    Entries are keyed by the canonical code of [Q_k] with the new vertex
    distinguished, so isomorphic extensions share one entry. Statistics come
    from sampling (Section 5.1): [min z npool] distinct edges for the scanned
    query edge each start one random walk ({!Wander.walks}) along a WCO
    ordering of [Q_k] that ends at the new vertex. A walk of weight [w] (the
    product of the fan-outs it chose from) adds [w] times its last
    extension count to [mu]'s sum and [w] times each last list's size to
    that list's sum; the sums are divided by the total weight. Every
    sampled edge thus gets the same budget, whatever the size of its
    subtree. The sample runs on [Q_k]'s canonical form (renumbered by
    {!Gf_query.Canon.code}'s permutation, edges sorted) with a generator
    seeded by the catalogue's seed and the code, so an entry depends only
    on the pattern and the seed: not on how the query that first asks for
    it numbers its vertices, nor on which entries were sampled before it.
    A plan's cost is thus the same whatever the catalogue's history.

    Entries exist only for extensions of at-most-[h]-vertex sub-queries.
    The catalogue only samples, stores and looks entries up: the
    minimum-over-removals fallback of Section 5.2 for larger patterns, and
    every cardinality built from entries, are
    {!Gf_opt.Cost_model}'s.

    The default construction is lazy — entries materialize on first lookup —
    so a catalogue is cheap to create and pay-as-you-go for a workload.
    Threads may share one: its lazy tables sit behind one mutex, held for
    lookups and inserts only, and an entry is sampled outside it (two
    threads racing for one sample the same entry; the first insert wins).
    [build_exhaustive] eagerly enumerates every pattern (the paper's
    construction, measured in Tables 10-11). *)

type t

(** [create ?h ?z ?seed g] is an empty catalogue over [g]. Defaults match
    the paper: [h = 3], [z = 1000]. [seed] (default 7) seeds every entry's
    sample together with the entry's code. *)
val create : ?h:int -> ?z:int -> ?seed:int -> Gf_graph.Graph.t -> t

val h : t -> int
val z : t -> int
val graph : t -> Gf_graph.Graph.t

(** Average kernel work of one intersection, by path
    ({!Gf_util.Sorted.step_work}): merged elements, gallop steps, probed
    elements. *)
type work = { merged : float; galloped : float; probed : float }

(** Statistics of one materialized entry. [sizes] maps each descriptor —
    identified by (canonical source-vertex id, direction, edge label) — to
    its average list size. [samples] is the number of walks that reached
    the last step (0 when none did, in which case [mu] is 0 and sizes fall
    back to global per-label averages). [kernel.(i)] belongs to
    [sizes]'s [i]-th list as an E/I's varying list, the other lists being
    the stable ones: the work of the run kernel's step of their
    intersection [S] (or the one other list, with its bitmap row) against
    it, and of intersecting them into [S]. [all_work] is the work of
    intersecting every list, an E/I's [S] when no list varies. Work is
    measured at each walk's last step, where the lists and their rows are
    the data's, and weighted like the sizes. *)
type entry = {
  mu : float;
  sizes : ((int * Gf_graph.Graph.direction * int) * float) list;
  total_size : float;
  samples : int;
  kernel : (work * work) array;
  all_work : work;
}

(** One descriptor's statistics for an extension: its list's average
    size, the run kernel's [step] work when it is the varying list, and
    the [stable] work of intersecting the other lists. *)
type stat = { size : float; step : work; stable : work }

(** [entry cat qk ~new_vertex] is the entry for extending
    [qk minus new_vertex] to [qk]. [None] when [qk] has more than [h + 1]
    vertices (the catalogue does not store such patterns). Requires [qk]
    connected and [qk minus new_vertex] connected with at least two
    vertices. *)
val entry : t -> Gf_query.Query.t -> new_vertex:int -> entry option

(** [descriptor_size cat qk ~new_vertex ~src ~dir ~elabel] estimates the
    average size of the descriptor's adjacency list in the context of the
    extension, falling back to global label averages for oversize
    patterns. *)
val descriptor_size :
  t ->
  Gf_query.Query.t ->
  new_vertex:int ->
  src:int ->
  dir:Gf_graph.Graph.direction ->
  elabel:int ->
  float

(** What the catalogue knows of one extension: the entry's [mu] ([None]
    when the pattern has more than [h + 1] vertices), each descriptor's
    {!stat} and the work of intersecting all of them. *)
type extension = { mu : float option; stats : stat array; all : work }

(** [descriptor_stats cat qk ~new_vertex ds] is the {!extension} of
    [qk minus new_vertex] to [qk] for the descriptors [(src, dir, elabel)]
    of [ds] (sources are [qk]'s vertex ids), from one lookup of its entry.
    An oversize or unmeasured extension gets global label averages for
    sizes and {!analytic} work. *)
val descriptor_stats :
  t -> Gf_query.Query.t -> new_vertex:int -> (int * Gf_graph.Graph.direction * int) array -> extension

(** [analytic sizes] prices lists of [sizes] without a walk: no list has a
    bitmap row and an intersection is as long as its shortest input. It
    returns each list's {!stat} and the work of intersecting all of them,
    as {!descriptor_stats} does. *)
val analytic : float array -> stat array * work

(** [avg_partition_size cat ~dir ~slabel ~elabel ~nlabel] is the global
    average adjacency-partition size: the mean, over vertices labeled
    [slabel], of the partition for ([elabel], [nlabel]) in direction
    [dir]. *)
val avg_partition_size :
  t -> dir:Gf_graph.Graph.direction -> slabel:int -> elabel:int -> nlabel:int -> float

(** [edge_count cat ~elabel ~slabel ~dlabel] is the exact number of matching
    data edges (memoized) — the paper's initialization of 2-vertex
    sub-query cardinalities. *)
val edge_count : t -> elabel:int -> slabel:int -> dlabel:int -> int

(** [build_exhaustive cat] eagerly materializes every entry extending a
    connected pattern of 2..h vertices to h+1 vertices, enumerating all
    shapes and label assignments (at most one edge per ordered vertex pair,
    no anti-parallel pairs — matching the paper's entry counts). Returns the
    number of entries. *)
val build_exhaustive : t -> int

val num_entries : t -> int

(** [entries cat] is every stored entry with its canonical code, by
    code. *)
val entries : t -> (string * entry) list

(** [q_error ~estimate ~truth] is
    [max (estimate / truth) (truth / estimate)] with both clamped to at
    least 1, the metric of Tables 10-11. *)
val q_error : estimate:float -> truth:float -> float

val pp_entry : Format.formatter -> entry -> unit

(** [save cat path] persists the materialized entries (lazy entries computed
    so far, or everything after [build_exhaustive]) so a later session can
    skip sampling. The write is crash-safe: bytes go to a [path.tmp.<pid>]
    sibling renamed over [path] only once fully written
    ({!Gf_util.Atomic_file}), so a crash mid-save leaves the previous file
    intact. The file carries the entry count and a trailing [end] marker so
    {!load_result} can detect torn files. *)
val save : t -> string -> unit

(** What went wrong loading a catalogue file, and where. [line] is 1-based;
    0 when the error is not tied to a specific line. Mirrors
    {!Gf_graph.Graph_io.load_error}. *)
type load_error = { path : string; line : int; kind : error_kind }

and error_kind =
  | Unreadable of string  (** missing or unreadable file (OS message) *)
  | Bad_header of string
  | Bad_params of string  (** malformed [h z [entries]] parameter line *)
  | Bad_token of string  (** non-numeric token or malformed line *)
  | Orphan_size  (** a [size] line with no preceding [entry] *)
  | Size_count_mismatch of { expected : int; got : int }
      (** an entry declared more size lines than it carried — the signature
          of a file cut mid-entry *)
  | Truncated of { expected_entries : int; got : int }
      (** a v2 or v3 file missing entries or its trailing [end] marker *)

val load_error_to_string : load_error -> string
val pp_load_error : Format.formatter -> load_error -> unit

(** [load_result g path] restores a catalogue saved by [save], reporting
    missing, truncated, and malformed files as a structured {!load_error}.
    Accepts the current v3 format and the older v2 and v1 ones (v1 carries
    no entry count, so a torn v1 file is detected only when cut
    mid-entry). A v2 or v1 entry has no work statistics: it is kept, and
    sampled again on first use. The
    graph must be the one the statistics were sampled from (the file records
    only parameters and entries). *)
val load_result : Gf_graph.Graph.t -> string -> (t, load_error) result

(** [load g path] is {!load_result} raising [Failure] with the formatted
    message on error (the original API, kept for convenience). *)
val load : Gf_graph.Graph.t -> string -> t
