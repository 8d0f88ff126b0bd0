(** Query plans (Section 4.1): rooted operator trees over three operators.

    - [Scan] matches a single query edge (leaf);
    - [Extend] is the EXTEND/INTERSECT (E/I) operator: it adds one query
      vertex to each partial match by intersecting the adjacency lists named
      by its descriptors;
    - [Hash_join] joins two sub-plans on their common query vertices.

    Every node carries its output schema [vars]: the query vertices of each
    tuple column, in order. A chain of [Scan]+[Extend] nodes is a WCO plan;
    a tree of [Hash_join]s over [Scan]s is a BJ plan; anything else is a
    hybrid plan. *)

(** An adjacency list descriptor [(pos, dir, elabel)] (Section 3.1): during
    extension of tuple [t], the list
    [Graph.neighbours g dir t.(pos) ~elabel ~nlabel:target_label] joins the
    intersection. *)
type descriptor = {
  pos : int;  (** column index into the child's schema *)
  dir : Gf_graph.Graph.direction;
  elabel : int;
}

type t = private
  | Scan of { edge : Gf_query.Query.edge; slabel : int; dlabel : int; vars : int array }
  | Extend of {
      child : t;
      target : int;
      target_label : int;
      descriptors : descriptor array;
      vars : int array;
    }
  | Hash_join of {
      build : t;
      probe : t;
      key : int array;  (** shared query vertices *)
      build_key_pos : int array;
      probe_key_pos : int array;
      build_extra_pos : int array;  (** build columns not part of the key *)
      vars : int array;  (** probe schema followed by build-only vertices *)
    }

(** [vars p] is the output schema. *)
val vars : t -> int array

(** [var_set p] is the set of query vertices covered. *)
val var_set : t -> Gf_util.Bitset.t

(** [scan q e] matches query edge [e] of [q]. Raises [Invalid_argument] when
    [q] has another edge between the same pair of vertices (such queries
    need their first E/I to re-check the extra edge; our benchmark queries
    have at most one edge per ordered pair). *)
val scan : Gf_query.Query.t -> Gf_query.Query.edge -> t

(** [descriptors q bound target] are the descriptors extending tuples whose
    columns bind the query vertices [bound] by [target]: one per edge of [q]
    between [target] and a vertex of [bound], in edge order, [pos] being
    that vertex's column. Empty when [target] touches no vertex of
    [bound]. Every E/I step (planned, adaptive or sampled) takes its
    descriptors from here; a walk ({!Gf_catalog.Wander.walks}) computes all
    its steps' by this rule in one pass. *)
val descriptors : Gf_query.Query.t -> int array -> int -> descriptor array

(** [extend q child target] adds query vertex [target] with the
    {!descriptors} of the child's schema. Raises [Invalid_argument] if there is no such edge or [target]
    is already covered. *)
val extend : Gf_query.Query.t -> t -> int -> t

(** [hash_join q build probe] joins on the common vertices. Raises
    [Invalid_argument] when the overlap is empty or when the union of the
    children's edge sets does not cover every edge of [q] induced on the
    union of their vertices (such a plan would silently drop a predicate). *)
val hash_join : Gf_query.Query.t -> t -> t -> t

(** [scan_edge q a b] is the query edge between [a] and [b], either way:
    the edge {!wco} scans for an ordering that starts with [a], [b]. Its
    destination is the scan's last column. Raises [Invalid_argument] when
    they are not adjacent. *)
val scan_edge : Gf_query.Query.t -> int -> int -> Gf_query.Query.edge

(** [wco q order] is the WCO plan for the query vertex ordering [order]:
    a [Scan] of the edge between [order.(0)] and [order.(1)] followed by
    E/I extensions. [order] may cover a subset of [q]'s vertices, producing
    a sub-plan for the induced sub-query (every edge between a new vertex
    and the bound prefix becomes a descriptor, so induced semantics hold).
    Raises [Invalid_argument] when a prefix is disconnected. *)
val wco : Gf_query.Query.t -> int array -> t

(** [num_ei_operators p] counts E/I nodes; [max_ei_chain p] is the longest
    chain of consecutive E/I operators ending at the root of any sub-plan
    (the unit the adaptive evaluator rewrites). *)
val num_ei_operators : t -> int

val max_ei_chain : t -> int

(** [operators p] enumerates the plan's operator tree in preorder (node
    before children; a join's build side before its probe side) with each
    node's depth. The index into the returned array is the node's stable
    operator id — the profiling layer ({!Gf_exec.Profile}) and
    [explain_analyze] both key on it, so an operator keeps the same id
    across sequential, adaptive and parallel runs of the same plan value.
    Nodes are compared physically ([==]); plan values are immutable and
    shared, never rebuilt between planning and execution. *)
val operators : t -> (t * int) array

(** [op_label p] is a short one-line label for the root operator of [p]
    (e.g. ["SCAN a1->a2"], ["E/I a3 <- a1,a2"], ["HASH-JOIN {a2,a3}"]). *)
val op_label : t -> string

(** [signature p] is a canonical string of the operator tree, used to
    deduplicate plans that perform identical operations (e.g. the two
    orderings sharing a SCAN of the same edge). *)
val signature : t -> string

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** [to_dot p] renders the operator tree as a Graphviz digraph (drawn with
    the query on top as in the paper's plan figures):
    [dune exec bin/gfq.exe -- plan ... --dot | dot -Tpng > plan.png]. *)
val to_dot : t -> string
