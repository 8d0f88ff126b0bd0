(** Subgraph queries Q(V_Q, E_Q): directed, connected, with labels on query
    vertices and query edges (Section 2). Query vertices are integers
    [0 .. num_vertices - 1]; in printed form vertex [i] is [a(i+1)], matching
    the paper's [a1 ... am] notation. *)

type edge = { src : int; dst : int; label : int }

type t = private {
  num_vertices : int;
  vlabels : int array;
  edges : edge array;
}

(** [create ~num_vertices ~vlabels ~edges] validates ranges and duplicate
    edges. Raises [Invalid_argument] on malformed input ([vlabels] may be
    [None] for all-zero labels). *)
val create : num_vertices:int -> ?vlabels:int array -> edges:edge array -> unit -> t

(** [unlabeled_edges n pairs] is [create] from plain [(src, dst)] pairs with
    all labels 0. *)
val unlabeled_edges : int -> (int * int) list -> t

val num_vertices : t -> int
val num_edges : t -> int
val vlabel : t -> int -> int

(** [has_edge q i j] is true when the directed edge [i -> j] (any label)
    exists. *)
val has_edge : t -> int -> int -> bool

(** [adjacent q i j] ignores direction. *)
val adjacent : t -> int -> int -> bool

(** [neighbours q i] is the set of vertices adjacent to [i] (any
    direction). *)
val neighbours : t -> int -> Gf_util.Bitset.t

(** [edges_within q s] lists the edges with both endpoints in [s]. *)
val edges_within : t -> Gf_util.Bitset.t -> edge list

(** [is_connected_subset q s] checks connectivity of the subgraph induced by
    vertex set [s] (treating edges as undirected). Empty sets are not
    connected; singletons are. *)
val is_connected_subset : t -> Gf_util.Bitset.t -> bool

val is_connected : t -> bool

(** [induced q s] is the projection of [q] onto vertex set [s] — the
    sub-query written Q_k = Pi_{V_k} Q in the paper — together with the map
    from new vertex index to original vertex. Vertices keep their relative
    order. *)
val induced : t -> Gf_util.Bitset.t -> t * int array

(** [connected_orders q] enumerates the query vertex orderings whose every
    prefix of size >= 1 induces a connected sub-query — the valid QVOs of
    Generic Join (Section 2). *)
val connected_orders : t -> int array list

(** [connected_orders_extending q ~bound] enumerates orderings of the
    vertices outside [bound] such that each prefix extends connectivity from
    [bound]; used by the adaptive executor to enumerate candidate orderings
    given already-matched vertices. *)
val connected_orders_extending : t -> bound:Gf_util.Bitset.t -> int array list

(** [first_connected_order q] is [List.hd (connected_orders q)] without
    enumerating the rest; [first_connected_order ~last q] is the first of
    [connected_orders q] whose final vertex is [last]. Raises
    [Invalid_argument] when there is no such order. *)
val first_connected_order : ?last:int -> t -> int array

(** [automorphisms q] is every permutation [p] (as an array, [p.(i)] = image
    of vertex [i]) preserving vertex labels and labeled directed edges. *)
val automorphisms : t -> int array list

(** [relabel_vertices q perm] renames vertex [i] to [perm.(i)]. *)
val relabel_vertices : t -> int array -> t

(** [equal q1 q2] is structural equality up to edge order. *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
