(** Opt-in per-operator self time.

    Every run counts per operator: each operator increments its own
    {!Counters} row (see {!Gf_exec.Exec.env}), so counts are always on and
    cost no clock read. A profile adds what only it can give — the
    operators' metadata and their *self* wall time — keyed by the stable
    operator ids of {!Gf_plan.Plan.operators}. EXPLAIN ANALYZE and traced
    runs ask for one; plan-cache feedback runs do not.

    {2 How attribution works}

    The executor is push-based: a plan compiles to nested closures, so at
    any instant exactly one operator is doing work. The profiler tracks
    which one by *boundary switching*: {!wrap} decorates each compiled
    driver so that entering an operator's driver (and every callback into
    its sink) switches a current-operator register, and each switch
    charges the wall time since the previous switch to the operator that
    was current. Time charged to an operator is therefore its self time,
    excluding children and parents.

    The cost is two clock reads per run (a tuple, or a run of sibling
    tuples, see [Exec]) per wrapped pipeline boundary.
    Without a profile {!Gf_exec.Exec.compile_rw} skips {!wrap} at
    plan-compile time, so the compiled pipeline carries no timing code.

    {2 Threading}

    A profile is single-domain mutable state. Parallel runs give each
    domain a {!fresh} copy (same plan, same id space) and {!merge_into}
    the copies after the domains join; per-operator [time_s] then sums CPU
    time across domains (like [Counters.busy_s], it can exceed wall
    time). *)

type kind = Scan | Extend | Hash_join

val kind_to_string : kind -> string

(** [kind_of node] is the operator kind of a plan node. *)
val kind_of : Gf_plan.Plan.t -> kind

(** One operator's metadata and accumulated self wall time. *)
type op = {
  id : int;  (** preorder index from {!Gf_plan.Plan.operators} *)
  label : string;  (** {!Gf_plan.Plan.op_label} *)
  kind : kind;
  depth : int;  (** tree depth, for display *)
  mutable time_s : float;
}

type t

(** [create plan] is an empty profile keyed by [plan]'s operator ids. The
    same plan value must be executed (operators are matched physically). *)
val create : Gf_plan.Plan.t -> t

(** [fresh t] is an empty profile over the same plan — one per domain in
    parallel runs. *)
val fresh : t -> t

val plan : t -> Gf_plan.Plan.t

(** The per-operator rows, in operator-id (preorder) order. *)
val ops : t -> op array

(** [wrap t id driver] decorates operator [id]'s compiled driver with the
    boundary switches described above. Applied by [Exec.compile_rw] when
    the environment carries a profile. *)
val wrap : t -> int -> (('a -> unit) -> unit) -> ('a -> unit) -> unit

(** [start t] begins a run: resets the clock without charging anything
    and sets the current operator to outside. Call once before invoking
    the root driver. *)
val start : t -> unit

(** [finish t] charges the time since the last switch (also on the unwind
    path of a {!Governor.Trip}, where the trailing switches were skipped)
    and resets the current operator. Call once after the root driver
    returns or raises. *)
val finish : t -> unit

(** [merge_into ~into src] adds [src]'s per-operator times into [into].
    Raises [Invalid_argument] when the profiles have different shapes. *)
val merge_into : into:t -> t -> unit
