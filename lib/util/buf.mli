(** Off-heap integer buffers backing the CSR graph and all intersection
    kernels.

    A buffer is a [Bigarray.Array1] living outside the OCaml heap: the GC
    never scans its contents, C kernels address it directly, and a
    snapshot file can be [Unix.map_file]'d straight into one with zero
    deserialization. Adjacency stores vertex ids, so the narrow [I32]
    representation is chosen whenever every value fits in an [int32]
    (n < 2^31); offsets and intersection outputs use the native-width
    [I64] form, whose elements are untagged OCaml [int]s — reads and
    writes from OCaml are allocation-free for both widths. *)

type i32a = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
type i64a = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(** A width-tagged off-heap buffer. The tag is matched once per kernel
    call, not per element: hot loops are monomorphic per width. *)
type t = I32 of i32a | I64 of i64a

val empty : t

val alloc_i32 : int -> i32a
val alloc_i64 : int -> i64a

(** [alloc ~max_value n] picks the narrowest width that can hold
    [max_value] (the caller's value bound, e.g. [num_vertices - 1]). *)
val alloc : max_value:int -> int -> t

val length : t -> int

(** [width_bytes t] is 4 or 8. *)
val width_bytes : t -> int

(** [bytes t] is the off-heap footprint of the payload. *)
val bytes : t -> int

val get : t -> int -> int
val unsafe_get : t -> int -> int

(** [set t i x] stores [x]; raises when [x] does not fit an [I32]. *)
val set : t -> int -> int -> unit

val unsafe_set : t -> int -> int -> unit

(** [of_int_array ?width a] copies a heap array into a fresh buffer.
    [`Auto] (default) narrows to int32 when every value fits. *)
val of_int_array : ?width:[ `Auto | `I32 | `I64 ] -> int array -> t

(** [sub_array t lo hi] materializes [t.(lo) .. t.(hi-1)] as a heap
    array — boundary helper for non-hot callers. *)
val sub_array : t -> int -> int -> int array

(** [iter_range f t lo hi] applies [f] over [t.(lo) .. t.(hi-1)] with a
    per-width monomorphic loop. *)
val iter_range : (int -> unit) -> t -> int -> int -> unit
