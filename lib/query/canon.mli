(** Canonical codes for query patterns.

    The subgraph catalogue (Section 5) keys its entries by pattern shape:
    two extensions with isomorphic labeled sub-queries (and the same new
    vertex) must share an entry, and the plan cache keys whole queries the
    same way. [code] computes a canonical string for a query, optionally
    distinguishing one vertex (the "new" vertex of an extension): the
    smallest encoding over vertex orders. Only orders that list the vertex
    labels in string order, the marked vertex first among its label, can
    be smallest, so the search permutes vertices within label classes
    only: a query with distinct labels has one candidate order, an
    unlabeled one all n!. Patterns up to [max_exact] = 8 vertices get the
    exact code; the catalogue's have <= h + 1 <= 5, the plan cache's up to
    7 in the benchmark mixes.

    Codes are memoized per (query value, mark) in a bounded process-global
    table, so repeated canonicalization of the same query value (the plan
    cache's lookup path, the catalogue's estimate path) costs a hash lookup.
    The table is thread-safe. *)

(** Largest vertex count canonicalized exactly (by the order search). *)
val max_exact : int

(** [code ?mark q] is [(canonical_string, perm)] where [perm.(i)] is the
    canonical position of original vertex [i]. When [mark] is given, that
    vertex is distinguished so it always occupies a fixed role in the code.

    For patterns with more than [max_exact] vertices the order search is
    too slow for unlabeled patterns; [code] degrades to a structural
    fallback: the exact encoding under the identity numbering, prefixed
    with ["#"] so it can never collide with a true canonical code. Equal codes always imply
    isomorphic queries; beyond [max_exact] vertices, isomorphic queries
    submitted with different vertex numberings get different codes (a
    cache using the code as key merely misses — it never aliases). *)
val code : ?mark:int -> Query.t -> string * int array

(** [iso ?mark1 ?mark2 q1 q2] tests labeled isomorphism (respecting marks).
    Beyond [max_exact] vertices this degrades to structural equality under
    the given numbering: it may report [false] for renumbered isomorphs,
    never [true] for non-isomorphs. *)
val iso : ?mark1:int -> ?mark2:int -> Query.t -> Query.t -> bool

(** [calls ()] is the number of {!code} calls in this process, memo hits
    included, for benchmarks. *)
val calls : unit -> int
