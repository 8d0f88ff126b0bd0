(** Growable off-heap vectors of unboxed integers.

    Used pervasively as output buffers for intersections and as flat tuple
    storage. The backing store is a native-int [Bigarray] ([Buf.i64a]):
    contents are never scanned by the GC, OCaml reads and writes are
    allocation-free, and the C intersection kernels write results directly
    into the same buffer — the hot path never bounces between heap and
    off-heap representations. All operations are amortized O(1). *)

type t

(** [create ?capacity ()] is an empty vector. *)
val create : ?capacity:int -> unit -> t

val length : t -> int

(** [get v i] is the [i]th element. Raises [Invalid_argument] when out of
    bounds. *)
val get : t -> int -> int

val set : t -> int -> int -> unit

(** [unsafe_get v i] skips the bounds check; only for hot inner loops whose
    indices are proved in range by construction. *)
val unsafe_get : t -> int -> int

val push : t -> int -> unit

(** [clear v] resets the length to 0 without releasing storage. *)
val clear : t -> unit

val is_empty : t -> bool

(** [ensure v n] grows the backing store (geometrically) to hold at least
    [n] elements without changing the length. Kernels call this before
    handing the raw buffer to C. *)
val ensure : t -> int -> unit

(** [big v] is the raw backing bigarray; only indices
    [0 .. length v - 1] are meaningful, and the value is invalidated by
    the next growth. Passed to the C kernels. *)
val big : t -> Buf.i64a

(** [buf v] is the backing store as a width-tagged [Buf.t] — what
    intermediate intersection results are sliced from. Allocation-free;
    like {!big}, invalidated by the next growth. *)
val buf : t -> Buf.t

(** [unsafe_set_len v n] declares [n] elements valid — used after a C
    kernel has written results in place. [n] must not exceed the ensured
    capacity. *)
val unsafe_set_len : t -> int -> unit


val to_array : t -> int array

val of_array : int array -> t

val iter : (int -> unit) -> t -> unit

val fold_left : ('a -> int -> 'a) -> 'a -> t -> 'a

(** [append dst src] pushes all elements of [src] onto [dst]. *)
val append : t -> t -> unit

(** [push_array dst a lo hi] pushes [a.(lo) .. a.(hi-1)] onto [dst]. *)
val push_array : t -> int array -> int -> int -> unit

(** [push_buf dst b lo hi] pushes a buffer range onto [dst], widening
    int32 elements as needed. *)
val push_buf : t -> Buf.t -> int -> int -> unit

val pp : Format.formatter -> t -> unit
