(** The planner's cost unit and its weights (Section 4.2).

    A plan costs the work its operators do, in nanoseconds of this
    implementation: an E/I pays {!kernel}'s prices for the tuples it
    extends and for the paths its intersections take
    ({!Gf_catalog.Catalog.work}), and a HASH-JOIN hashing [n1] tuples and
    probing [n2] costs [w1 * n1 + w2 * n2]. The weights are picked
    empirically: profiled [(cost, seconds)] pairs from E/I operators
    convert seconds into cost units, then [(n1, n2, seconds)] triples
    from HASH-JOIN operators are least-squares fitted. *)

type weights = { w1 : float; w2 : float }

(** What an E/I does, summed over the tuples it extends: tuples extended
    through the run kernel ([candidates]) or without a kernel call
    ([tuples]: one list read in place, or the shared [S]), stable-list
    intersections into [S] ([intersections]), and the elements the
    intersections merge, the gallop steps they take and the elements they
    probe ({!Gf_catalog.Catalog.work}). *)
type features = {
  candidates : float;
  tuples : float;
  intersections : float;
  merged : float;
  galloped : float;
  probed : float;
}

val zero : features
val add : features -> features -> features

(** [work n w] is [n] intersections of work [w] each. *)
val work : float -> Gf_catalog.Catalog.work -> features

(** The price of one unit of each feature, in nanoseconds: fitted with
    {!fit} on the wco-heavy queries' WCO orderings (EXPERIMENTS.md,
    "Kernel-aware costing"). *)
val kernel : features

(** [price_at k f] is [f] at the prices [k]; [price f] at {!kernel}'s. *)
val price_at : features -> features -> float

val price : features -> float

(** [price_work w] is one intersection of work [w] at {!kernel}'s
    per-element prices. *)
val price_work : Gf_catalog.Catalog.work -> float

(** [fit samples] is the price of each feature, non-negative, that
    least-squares fits [(features, seconds)] samples by relative error:
    whole plans' summed features against their run times. {!kernel} when
    there are no samples. *)
val fit : (features * float) list -> features

(** Defaults used when no calibration has been run, in the same unit as
    {!kernel}. *)
val default_weights : weights

(** [calibrate ~ei ~hj] fits weights from profile logs: [ei] holds
    [(icost, seconds)] samples, [hj] holds [(n1, n2, seconds)] samples.
    Returns [default_weights] when either log is empty or degenerate. *)
val calibrate : ei:(float * float) list -> hj:(float * float * float) list -> weights
