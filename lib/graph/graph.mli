(** Directed labeled graph with label-partitioned sorted adjacency lists —
    the storage layer of Section 2 of the paper.

    Both forward and backward adjacency lists are indexed. Each vertex's list
    is partitioned first by edge label and then by the label of the neighbour
    vertex; within a partition, neighbours are sorted by vertex id so that
    multiway intersections run over sorted slices. Partition bounds are O(1)
    lookups.

    Offsets and adjacency live off-heap in {!Gf_util.Buf} bigarrays:
    adjacency narrows to int32 when vertex ids fit, the GC never scans the
    payload, C intersection kernels address it directly, and a binary
    snapshot maps straight into place ({!Graph_io}). Only the per-label
    vertex grouping stays on the OCaml heap; it is derived state, rebuilt
    from the label array in O(n) on load.

    Hub bitmaps are derived state too, rebuilt by both {!build} and
    {!of_raw} and never persisted: the longest whole (vertex, direction,
    edge label) lists, all neighbour labels, longest first, each get a
    dense n-bit row in one off-heap word array, until the rows reach a
    quarter of the adjacency bytes. No list shorter than 16 gets a row.
    An off-heap int32 index per direction, allocated only when there are
    rows, maps each list to its row.
    {!neighbours_into} hands a partition's row to the intersection
    kernels, which then test one bit per element of a shorter list
    instead of merging or galloping through the hub's list
    ({!Gf_util.Sorted.intersect}). *)

type t

type direction = Fwd | Bwd

(** Where the off-heap storage came from: built in this process, or
    memory-mapped from the named snapshot file (zero-copy — pages fault in
    from disk on first touch). *)
type origin = Built | Mapped of string

val origin : t -> origin

(** [build ~num_vlabels ~num_elabels ~vlabel ~edges] constructs the indexes
    from an edge list [(src, dst, elabel)]. Self-loops and duplicate
    [(src, dst, elabel)] triples are dropped. [vlabel.(v)] is the label of
    vertex [v]; its length defines the number of vertices. *)
val build :
  num_vlabels:int ->
  num_elabels:int ->
  vlabel:int array ->
  edges:(int * int * int) array ->
  t

val num_vertices : t -> int
val num_edges : t -> int
val num_vlabels : t -> int
val num_elabels : t -> int
val vlabel : t -> int -> int

(** [neighbours g dir v ~elabel ~nlabel] is the sorted slice of [v]'s
    neighbours along [dir] restricted to edge label [elabel] and neighbour
    vertex label [nlabel]. *)
val neighbours :
  t -> direction -> int -> elabel:int -> nlabel:int -> Gf_util.Sorted.slice

(** [neighbours_into g dir v ~elabel ~nlabel l i] stores the same
    partition as list [i] of [l], with the bitmap row of [v]'s whole
    [elabel] list when it has one and [l] was made over
    [bitmap_words g] — the E/I operator's bounds lookup, which builds
    no slice tuple. *)
val neighbours_into :
  t -> direction -> int -> elabel:int -> nlabel:int -> Gf_util.Sorted.lists -> int -> unit

(** [csr g dir ~elabel ~nlabel] hands the run kernel
    ({!Gf_util.Sorted.run_kernel}) one side's arrays: candidate [v]'s list
    is [neighbours g dir v ~elabel ~nlabel], with the bitmap row of [v]'s
    whole [elabel] list, read from {!bitmap_words}. *)
val csr : t -> direction -> elabel:int -> nlabel:int -> Gf_util.Sorted.csr

(** [neighbours_any_nlabel g dir v ~elabel] is the slice covering every
    neighbour label for [elabel] (partitions for a given edge label are
    contiguous; note ids are only sorted within one neighbour-label
    partition). *)
val neighbours_any_nlabel : t -> direction -> int -> elabel:int -> Gf_util.Sorted.slice

(** [degree g dir v] is the total size of [v]'s adjacency list along [dir],
    all partitions included. *)
val degree : t -> direction -> int -> int

(** [partition_size g dir v ~elabel ~nlabel] is the size of one partition. *)
val partition_size : t -> direction -> int -> elabel:int -> nlabel:int -> int

(** [has_edge g u v ~elabel] tests the presence of edge [u -> v] with the
    given label (binary search). *)
val has_edge : t -> int -> int -> elabel:int -> bool

(** [vertices_with_label g l] is the ascending array of vertices labeled
    [l]. *)
val vertices_with_label : t -> int -> int array

(** [num_with_label g l] is [Array.length (vertices_with_label g l)] without
    exposing the array — the source-range space the parallel executor carves
    into morsels. *)
val num_with_label : t -> int -> int

(** [iter_edges g ~elabel ~slabel ~dlabel f] calls [f u v] for every edge
    [u -> v] with edge label [elabel], source label [slabel], destination
    label [dlabel]. (The SCAN operator reads each source's slice through
    {!csr} instead.) *)
val iter_edges : t -> elabel:int -> slabel:int -> dlabel:int -> (int -> int -> unit) -> unit

(** [iter_edges_range] is [iter_edges] restricted to sources drawn from a
    sub-range of the label's vertex array. [lo] inclusive, [hi] exclusive, indices into
    [vertices_with_label g slabel]. *)
val iter_edges_range :
  t -> elabel:int -> slabel:int -> dlabel:int -> lo:int -> hi:int -> (int -> int -> unit) -> unit

(** [count_edges g ~elabel ~slabel ~dlabel] is the number of edges the
    corresponding SCAN would produce. *)
val count_edges : t -> elabel:int -> slabel:int -> dlabel:int -> int

(** [sample_edge g rng ~elabel ~slabel ~dlabel] draws a uniform random edge
    matching the predicates, or [None] when none exists. *)
val sample_edge :
  t -> Gf_util.Rng.t -> elabel:int -> slabel:int -> dlabel:int -> (int * int) option

(** [relabel g rng ~num_vlabels ~num_elabels] assigns uniform random vertex
    and edge labels, as the paper does for its labeled-query experiments
    (the Q^J_i notation). *)
val relabel : t -> Gf_util.Rng.t -> num_vlabels:int -> num_elabels:int -> t

(** [edge_array g] lists all edges as [(src, dst, elabel)] in index order. *)
val edge_array : t -> (int * int * int) array

(** {1 Storage accounting} *)

type residency = {
  offheap_bytes : int;
      (** bigarray payload: offsets, adjacency, labels, bitmap rows and their index *)
  row_bytes : int;  (** the hub bitmap rows' share of [offheap_bytes] *)
  heap_bytes : int;  (** derived per-label grouping on the OCaml heap *)
  mapped : bool;  (** true when the off-heap payload is a file mapping *)
  nbr_width : int;  (** adjacency element width in bytes: 4 or 8 *)
}

val residency : t -> residency

(** [bitmap_row g dir v ~elabel] is the word offset in {!bitmap_words} of
    the row of [v]'s whole [elabel] list along [dir], or [-1]. *)
val bitmap_row : t -> direction -> int -> elabel:int -> int

(** Every bitmap row, [num_vertices] bits (rounded up to whole words)
    each: the [bits] to make an E/I operator's {!Gf_util.Sorted.lists}
    over. *)
val bitmap_words : t -> Gf_util.Sorted.bits

(** {1 Raw parts — the snapshot IO boundary} *)

module Raw : sig
  (** The exact off-heap arrays of a graph, exposed so {!Graph_io} can
      write them to disk verbatim and rebuild a graph around mapped
      sections without copying. *)
  type parts = {
    n : int;
    m : int;
    nv : int;
    ne : int;
    vlabel : Gf_util.Buf.i64a;
    fwd_off : Gf_util.Buf.i64a;
    fwd_nbr : Gf_util.Buf.t;
    bwd_off : Gf_util.Buf.i64a;
    bwd_nbr : Gf_util.Buf.t;
  }
end

val to_raw : t -> Raw.parts

(** [of_raw ?mapped_from parts] reassembles a graph around the given
    arrays, validating structural invariants (dimensions, offset-table
    endpoints, label ranges) and rebuilding the per-label grouping.
    [mapped_from] tags the result as {!Mapped}. Errors are descriptive
    strings for {!Graph_io} to wrap. *)
val of_raw : ?mapped_from:string -> Raw.parts -> (t, string) result
