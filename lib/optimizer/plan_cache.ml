module Bitset = Gf_util.Bitset
module Query = Gf_query.Query
module Canon = Gf_query.Canon
module Plan = Gf_plan.Plan
module Catalog = Gf_catalog.Catalog
module Metrics = Gf_exec.Metrics
module Trace = Gf_obs.Trace

(* Plans are cached in *canonical* vertex space: a skeleton records the
   operator tree with every query vertex renamed through the canonical
   permutation, so two isomorphic queries submitted with different vertex
   numberings share one entry, and each lookup re-instantiates the skeleton
   against the caller's own numbering (linear in plan size — against the
   exponential cost of planning). *)
type skel =
  | S_scan of int * int * int  (* canonical src, canonical dst, edge label *)
  | S_extend of skel * int  (* canonical target *)
  | S_join of skel * skel  (* build, probe *)

let rec skel_of_plan perm = function
  | Plan.Scan { edge; _ } ->
      S_scan (perm.(edge.Query.src), perm.(edge.Query.dst), edge.Query.label)
  | Plan.Extend { child; target; _ } -> S_extend (skel_of_plan perm child, perm.(target))
  | Plan.Hash_join { build; probe; _ } ->
      S_join (skel_of_plan perm build, skel_of_plan perm probe)

let instantiate q perm skel =
  (* inv.(c) = this query's vertex at canonical position c. *)
  let n = Array.length perm in
  let inv = Array.make n 0 in
  Array.iteri (fun orig c -> inv.(c) <- orig) perm;
  let find_edge cs cd l =
    let s = inv.(cs) and d = inv.(cd) in
    let found = ref None in
    Array.iter
      (fun (e : Query.edge) ->
        if e.Query.src = s && e.Query.dst = d && e.Query.label = l then found := Some e)
      q.Query.edges;
    match !found with Some e -> e | None -> raise Not_found
  in
  let rec inst = function
    | S_scan (cs, cd, l) -> Plan.scan q (find_edge cs cd l)
    | S_extend (sk, ct) -> Plan.extend q (inst sk) inv.(ct)
    | S_join (b, p) -> Plan.hash_join q (inst b) (inst p)
  in
  inst skel

(* Translate a query-space vertex set into canonical space. *)
let to_canon perm s =
  List.fold_left (fun acc v -> Bitset.add perm.(v) acc) Bitset.empty (Bitset.elements s)

(* Feedback learns once per entry. A [Learning] entry's next completed,
   unsharded run is observed; if some operator's actual/estimate ratio is
   off by more than [threshold] either way, the entry turns [Pending] with
   that observation's ratios and the next lookup replans under them, which
   makes it [Final]. Otherwise it turns [Final] at once. Observed counts
   are exact, so a second run of the same plan would only repeat the
   first observation. *)
type learning =
  | Learning
  | Pending of {
      ratios : (string * float) list;  (* induced sub-pattern's code -> clamped actual/estimate *)
      worst : Bitset.t;  (* the canonical subset with the largest q-error *)
      qerror : float;
    }
  | Final

type entry = {
  mutable version : int;  (* graph_version the skeleton was planned against *)
  mutable skel : skel;
  mutable cost : float;  (* model cost at plan time *)
  mutable estimates : Explain.estimates;
      (* per-operator estimates of [skel] under the uncorrected model; by
         operator id, so they hold for every instantiation *)
  mutable charge : int;  (* planner work to rebuild [skel]: Cost_model.work *)
  mutable learning : learning;
  mutable runs : int;
  mutable priority : int;  (* inflation at last use + runs * charge *)
  mutable tick : int;  (* recency, breaks priority ties *)
}

type outcome = Hit | Miss | Replan

type lookup_result = {
  plan : Plan.t;
  cost : float;
  estimates : Explain.estimates;
  outcome : outcome;
  feedback_due : bool;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  replans : int;
  invalidations : int;
  feedbacks : int;
  entries : int;
}

type t = {
  capacity : int;
  table : (string, entry) Hashtbl.t;
  lock : Mutex.t;
  mutable clock : int;
  mutable inflation : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable replans : int;
  mutable invalidations : int;
  mutable feedbacks : int;
}

let default_capacity = 256
let threshold = 4.0

(* Service-facing counters (the names the soak CI asserts on); the registry
   is process-global and lookups by name are idempotent, so bumping them
   here keeps Service/Db wiring trivial. *)
let m_inc name help = Metrics.inc (Metrics.counter ~help name)
let m_hit () = m_inc "gf_server_plan_cache_hits_total" "Plan cache lookups served from cache"
let m_miss () = m_inc "gf_server_plan_cache_misses_total" "Plan cache lookups that planned from scratch"
let m_evict () = m_inc "gf_server_plan_cache_evictions_total" "Plan cache entries evicted (cost-aware)"
let m_replan () = m_inc "gf_server_plan_cache_replans_total" "Plan cache replans corrected by an observed run"
let m_inval () = m_inc "gf_server_plan_cache_invalidations_total" "Plan cache wholesale invalidations (graph version advanced)"
let m_feedback () = m_inc "gf_server_plan_cache_feedback_total" "Runs observed by the plan cache (at most one per entry)"

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Plan_cache.create: capacity must be >= 1";
  {
    capacity;
    table = Hashtbl.create 64;
    lock = Mutex.create ();
    clock = 0;
    inflation = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    replans = 0;
    invalidations = 0;
    feedbacks = 0;
  }

let stats t =
  Mutex.lock t.lock;
  let s =
    {
      hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
      replans = t.replans;
      invalidations = t.invalidations;
      feedbacks = t.feedbacks;
      entries = Hashtbl.length t.table;
    }
  in
  Mutex.unlock t.lock;
  s

let invalidate t =
  Mutex.lock t.lock;
  Hashtbl.reset t.table;
  t.invalidations <- t.invalidations + 1;
  Mutex.unlock t.lock;
  m_inval ()

(* GreedyDual-Size-Frequency: an entry's priority is the inflation at its
   last use plus its runs times the planner work a miss would redo. The
   victim is the lowest priority, the least recently used among equals,
   and its priority becomes the new inflation, so an entry nobody uses
   ages out behind entries used since. Only counts enter, never a clock,
   so a replayed request sequence evicts identically. Callers hold the
   lock; [touch] follows every change to [runs]. *)
let touch t e =
  t.clock <- t.clock + 1;
  e.tick <- t.clock;
  e.priority <- t.inflation + (e.runs * e.charge)

let evict t =
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
      match !victim with
      | Some (_, v)
        when v.priority < e.priority || (v.priority = e.priority && v.tick < e.tick) ->
          ()
      | _ -> victim := Some (k, e))
    t.table;
  match !victim with
  | Some (k, e) ->
      Hashtbl.remove t.table k;
      t.inflation <- e.priority;
      t.evictions <- t.evictions + 1;
      m_evict ()
  | None -> ()

let clamp_lo = 1e-3
let clamp_hi = 1e3
let clamp r = Float.max clamp_lo (Float.min clamp_hi r)

(* The canonical code of the sub-query [q] induces on [s]. Sub-queries
   that are isomorphic have the same matches and the same catalogue
   estimate, so a ratio observed on one vertex set corrects every set that
   induces the same pattern, whichever plan observed it. *)
let pattern_code q s = fst (Canon.code (fst (Query.induced q s)))

(* The observed ratios as a query-space closure for the planner, memoized
   per vertex set. [ratios] is immutable and the memo is the closure's
   own, so planning can run outside the lock. *)
let corrections_fn q ratios =
  let memo = Hashtbl.create 16 in
  fun s ->
    match Hashtbl.find_opt memo s with
    | Some f -> f
    | None ->
        let f = match List.assoc_opt (pattern_code q s) ratios with Some f -> f | None -> 1.0 in
        Hashtbl.replace memo s f;
        f

(* "0,2,3": a canonical subset as the replan's trace span names it. *)
let subset_to_string s = String.concat "," (List.map string_of_int (Bitset.elements s))

let lookup ?trace t ~opts ~graph_version cat q =
  (match trace with
  | Some tb -> Trace.begin_span ~cat:"planner" tb "plan-cache"
  | None -> ());
  let code, perm = Canon.code q in
  Mutex.lock t.lock;
  let cached =
    match Hashtbl.find_opt t.table code with
    | Some ({ learning = Pending p; _ } as e) when e.version = graph_version ->
        (* Final from here on, so a racing lookup hits the old skeleton
           instead of replanning a second time. *)
        e.learning <- Final;
        touch t e;
        Some (`Replan (p.ratios, p.worst, p.qerror))
    | Some e when e.version = graph_version ->
        e.runs <- e.runs + 1;
        touch t e;
        (* Snapshot what instantiation needs, then drop the lock. *)
        Some (`Hit (e.skel, e.cost, e.estimates, e.learning = Learning))
    | Some _ ->
        (* Planned against an older graph: its observation describes a
           graph that no longer exists, so drop the whole entry. *)
        Hashtbl.remove t.table code;
        None
    | None -> None
  in
  Mutex.unlock t.lock;
  let plan_fresh ?corrections outcome =
    let p, cost, model = Planner.search ~opts ?trace ?corrections cat q in
    let charge = Cost_model.work model in
    (* Estimated on the uncorrected view of the search's own model: what the
       search already estimated is reused, and a replan's estimates stay
       the catalogue's, so EXPLAIN ANALYZE keeps measuring its true error. *)
    let estimates = Explain.estimates (Cost_model.uncorrected model) p in
    let skel = skel_of_plan perm p in
    Mutex.lock t.lock;
    let e =
      match Hashtbl.find_opt t.table code with
      | Some e -> e
      | None ->
          if Hashtbl.length t.table >= t.capacity then evict t;
          let e =
            {
              version = graph_version;
              skel;
              cost;
              estimates;
              charge;
              learning = Learning;
              runs = 0;
              priority = 0;
              tick = 0;
            }
          in
          Hashtbl.replace t.table code e;
          e
    in
    e.version <- graph_version;
    e.skel <- skel;
    e.cost <- cost;
    e.estimates <- estimates;
    e.charge <- charge;
    e.runs <- e.runs + 1;
    touch t e;
    (match outcome with
    | Miss ->
        t.misses <- t.misses + 1;
        m_miss ()
    | Replan ->
        t.replans <- t.replans + 1;
        m_replan ()
    | Hit -> ());
    let due = e.learning = Learning in
    Mutex.unlock t.lock;
    { plan = p; cost; estimates; outcome; feedback_due = due }
  in
  let result, why =
    match cached with
    | Some (`Hit (skel, cost, estimates, due)) -> (
        match instantiate q perm skel with
        | p ->
            Mutex.lock t.lock;
            t.hits <- t.hits + 1;
            Mutex.unlock t.lock;
            m_hit ();
            let estimates = { estimates with Explain.plan = p } in
            ({ plan = p; cost; estimates; outcome = Hit; feedback_due = due }, [])
        | exception _ ->
            (* A skeleton that does not fit the query means the canonical
               code aliased (cannot happen by construction) — recover by
               planning from scratch rather than failing the request. *)
            (plan_fresh Miss, []))
    | Some (`Replan (ratios, worst, qerror)) ->
        ( plan_fresh ~corrections:(corrections_fn q ratios) Replan,
          [ ("subset", Trace.Str (subset_to_string worst)); ("qerror", Trace.Float qerror) ] )
    | None -> (plan_fresh Miss, [])
  in
  (match trace with
  | Some tb ->
      let o =
        match result.outcome with Hit -> "hit" | Miss -> "miss" | Replan -> "replan"
      in
      Trace.end_span ~args:(("outcome", Trace.Str o) :: why) tb
  | None -> ());
  result

(* The one observation of a [Learning] entry. [rows] must join the
   *uncorrected* estimates (as [lookup] returns them), so each ratio
   compares the catalogue's base estimate to ground truth. Any later or
   racing observation of the entry is a no-op. *)
let observe t ~graph_version q plan rows =
  let code, perm = Canon.code q in
  let ops = Plan.operators plan in
  Mutex.lock t.lock;
  (match Hashtbl.find_opt t.table code with
  | Some ({ learning = Learning; _ } as e) when e.version = graph_version ->
      let ratios, worst, qerror =
        List.fold_left
          (fun ((ratios, worst, qmax) as acc) (r : Explain.row) ->
            if r.Explain.id < 0 || r.Explain.id >= Array.length ops then acc
            else begin
              let vs = Plan.var_set (fst ops.(r.Explain.id)) in
              let s = to_canon perm vs in
              let est = Float.max 1.0 r.Explain.est_card in
              let act = Float.max 1.0 (float_of_int r.Explain.act_card) in
              let ratio = clamp (act /. est) in
              let ratios = (vs, ratio) :: ratios in
              let qe = Float.max ratio (1.0 /. ratio) in
              if qe > qmax then (ratios, s, qe) else (ratios, worst, qmax)
            end)
          ([], Bitset.empty, 1.0) rows
      in
      t.feedbacks <- t.feedbacks + 1;
      m_feedback ();
      (* Codes only for a replan: most observations end Final. *)
      e.learning <-
        (if qerror > threshold then
           Pending
             { ratios = List.map (fun (vs, r) -> (pattern_code q vs, r)) ratios; worst; qerror }
         else Final)
  | _ -> ());
  Mutex.unlock t.lock

(* Test/introspection helpers. *)
let mem t q =
  let code, _ = Canon.code q in
  Mutex.lock t.lock;
  let r = Hashtbl.mem t.table code in
  Mutex.unlock t.lock;
  r

let is_stale t q =
  let code, _ = Canon.code q in
  Mutex.lock t.lock;
  let r =
    match Hashtbl.find_opt t.table code with
    | Some { learning = Pending _; _ } -> true
    | _ -> false
  in
  Mutex.unlock t.lock;
  r
