(** Hash table of fixed-stride integer rows keyed by integer tuples — the
    build side of HASH-JOIN. *)

type t

val create : key_len:int -> row_len:int -> t

(** [add t key row] stores a copy of [row] under a copy of [key]. *)
val add : t -> int array -> int array -> unit

val size : t -> int
val row_len : t -> int
val key_len : t -> int

(** [bytes_per_row t] is the approximate heap bytes one stored row costs
    (row words + index overhead) — what the governor's byte budget charges
    per {!add}. *)
val bytes_per_row : t -> int

(** [iter_matches_view t ~view key f] applies [f view] to every stored
    row whose key equals [key], writing each row through the
    caller-supplied [view] buffer (length [row_len t]). This is what makes
    a frozen table safe to probe from many domains at once: each prober
    brings its own view and the table itself is only read. *)
val iter_matches_view : t -> view:int array -> int array -> (int array -> unit) -> unit

(** [absorb dst src] adds every row of [src] into [dst] — merging the
    per-domain partial tables of a parallel build. Raises [Invalid_argument]
    on key/row shape mismatch. *)
val absorb : t -> t -> unit
