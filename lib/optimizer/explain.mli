(** EXPLAIN ANALYZE: join the optimizer's estimates against a run's
    per-operator actuals.

    For every operator of a profiled plan this reports the estimated
    cardinality ({!Cost_model.card} of the operator's vertex set) against
    the tuples it actually produced, and the estimated cost against the
    actual cost, each with its q-error ([max(est/truth, truth/est)] —
    the paper's catalogue-accuracy metric, Tables 10/11):

    - E/I operators: estimated i-cost ({!Cost_model.extension_icost} with
      the operator's chain reconstructed from the plan) vs the
      adjacency-list sizes it actually touched (Eq. 1);
    - HASH-JOIN operators: [w1*card(build) + w2*card(probe)] vs the same
      formula over actual build/probe tuple counts;
    - SCAN operators: cardinality only (their cost is not modeled).

    This lives in the optimizer layer (not [Gf_exec]) because it needs the
    catalogue-backed cost model; the execution layer only ever records
    actuals: per-operator counts rows on every run, self time when a
    {!Gf_exec.Profile} is attached. *)

type row = {
  id : int;  (** stable operator id ({!Gf_plan.Plan.operators} preorder) *)
  label : string;
  kind : Gf_exec.Profile.kind;
  depth : int;
  est_card : float;
  act_card : int;  (** tuples the operator produced *)
  card_q : float;  (** q-error of [est_card] vs [act_card] *)
  est_cost : float;  (** estimated i-cost (E/I) or weighted join cost; 0 for scans *)
  act_cost : float;
  cost_q : float option;  (** [None] for scans (no modeled cost) *)
  time_s : float;
      (** self wall time (summed across domains when parallel); 0 for an
          untimed run *)
  cache_hits : int;
  intersections : int;
  hj_build : int;
  hj_probe : int;
}

(** The optimizer's estimates for every operator of one plan, computed
    once and joined against any number of runs of that plan. *)
type estimates = {
  plan : Gf_plan.Plan.t;  (** the plan value joined runs must have executed *)
  weights : Cost.weights;  (** the HASH-JOIN weights actual costs are priced with *)
  ops : (float * float) array;
      (** [(est_card, est_cost)] per operator id; [est_cost] is 0 for scans *)
}

(** [estimates model plan] estimates every operator of [plan] under
    [model]. To compare against the catalogue's own error, pass an
    uncorrected model ({!Cost_model.uncorrected}) built with the planner
    options that produced the plan. *)
val estimates : Cost_model.t -> Gf_plan.Plan.t -> estimates

(** [rows ests counts prof] is one row per operator, in operator-id order,
    joining [ests] against a run's per-operator [counts] (as returned by
    {!Gf_exec.Exec.run_rows} and friends) and, when [prof] is given, its
    self times; without one [time_s] is 0. Raises [Invalid_argument] when
    [counts] has the wrong length or [prof] was created for a plan value
    other than [ests.plan]. *)
val rows : estimates -> Gf_exec.Counters.t array -> Gf_exec.Profile.t option -> row list

(** Fixed-width text table. *)
val to_string : row list -> string

(** JSON array of operator objects (est/actual/q-error per row). *)
val rows_to_json : row list -> Gf_util.Json.t

(** {!Gf_util.Json.escape}, kept under this name for external callers. *)
val json_escape : string -> string
