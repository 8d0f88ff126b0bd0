(** The build side of HASH-JOIN: fixed-stride integer rows in one flat
    off-heap vector, indexed once by grouping the rows by a hash of their
    own key columns.

    A table is filled with {!add} (or by concatenating partial tables with
    {!append}), then {!index}ed in one pass; from then on it is only read,
    so any number of domains may probe it at once. Rows are addressed by
    their offset into the row vector, and a probe scans its key's bucket,
    one contiguous run of rows, in place: no row or key is copied or
    boxed. *)

type t

(** [create ~key_pos ~row_len] is an empty table of rows of [row_len]
    columns, keyed by the columns at [key_pos]. *)
val create : key_pos:int array -> row_len:int -> t

(** [bytes_per_row t] is [(row_len + 2) * 8], an upper bound on the bytes
    one stored row costs: its row words, one permutation word while
    {!index} runs and at most one bucket start. The governor's byte budget
    charges it per {!add}. *)
val bytes_per_row : t -> int

(** [add t row] appends [row.(0 .. row_len - 1)]. *)
val add : t -> int array -> unit

(** [append dst src] appends every row of [src] after [dst]'s, in order —
    how a parallel build concatenates its per-domain partial tables. *)
val append : t -> t -> unit

(** [index t] groups every row added so far by bucket, moving rows in
    place. Call it once the table is complete and before probing; rows of
    one key keep the order they were added in. *)
val index : t -> unit

(** [iter_matches t tuple pos f] calls [f off] for every row whose key
    columns equal [tuple.(pos.(0)), tuple.(pos.(1)), ...], with [off] the
    row's offset (read its columns with {!get}). Raises [Invalid_argument]
    on a table that was never {!index}ed. *)
val iter_matches : t -> int array -> int array -> (int -> unit) -> unit

(** [get t off col] is column [col] of the row at offset [off]. *)
val get : t -> int -> int -> int
