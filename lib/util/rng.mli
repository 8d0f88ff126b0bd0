(** Deterministic splitmix64 pseudo-random generator.

    Every sampler and graph generator in the repository takes an explicit
    [Rng.t] so that experiments are reproducible bit-for-bit across runs. *)

type t

(** [create seed] is a fresh generator; equal seeds give equal streams. *)
val create : int -> t

(** [split t] derives an independent generator from [t]'s stream. *)
val split : t -> t

(** [int t n] is uniform over [0, n). Requires [n > 0]. *)
val int : t -> int -> int

(** [float t x] is uniform over [0, x). *)
val float : t -> float -> float

val bool : t -> bool

(** [geometric t p] samples the number of failures before the first success of
    a Bernoulli(p) trial; used by skip-sampling generators. Requires
    [0 < p <= 1]. *)
val geometric : t -> float -> int

(** [shuffle t a] permutes [a] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit

(** [sample_without_replacement t ~n ~k] draws [k] distinct ints from [0, n),
    in ascending order. Requires [k <= n]. *)
val sample_without_replacement : t -> n:int -> k:int -> int array
