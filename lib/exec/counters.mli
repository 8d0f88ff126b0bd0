(** Execution counters matching the paper's reported metrics.

    The same record serves two roles. Each operator of a running plan
    counts into its own row ([produced], [icost], [cache_hits],
    [intersections], [hj_build_tuples], [hj_probe_tuples]); the run keeps
    the remaining fields ([output], [morsels], [busy_s], [gov_checks]) in
    one more record; and a run's counters are the {!merge} of all of
    them.

    [icost] is the *actual* i-cost of a run (Eq. 1): the summed sizes of the
    adjacency lists accessed by E/I operators, not counting lists whose
    intersection was served from the cache. [intermediate] is the number of
    partial matches produced by non-root operators ("part. m." in Tables
    4-6). *)

type t = {
  mutable icost : int;
  mutable produced : int;  (** tuples emitted by every operator, root included *)
  mutable output : int;
  mutable cache_hits : int;
  mutable intersections : int;  (** E/I extension-set computations performed *)
  mutable hj_build_tuples : int;
  mutable hj_probe_tuples : int;
  mutable morsels : int;  (** morsels executed by this domain (parallel runs) *)
  mutable busy_s : float;
      (** wall-clock seconds a domain spent running its morsels — the
          per-domain load-imbalance signal of Figure 11 *)
  mutable gov_checks : int;
      (** full governor checks performed (deadline/cap evaluations; ticks in
          between cost a decrement) — the overhead signal for the governor *)
}

val create : unit -> t
val intermediate : t -> int
val add : t -> t -> unit

(** [merge cs] sums a list of counters (parallel execution). *)
val merge : t list -> t

val pp : Format.formatter -> t -> unit
