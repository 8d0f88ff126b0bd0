module Gf = Graphflow
module Governor = Gf.Governor
module Counters = Gf.Counters
module Metrics = Gf_exec.Metrics
module Trace = Gf.Trace
module Recorder = Gf.Recorder

type config = {
  queue_capacity : int;
  workers : int;
  ladder : Ladder.config;
  breaker : Breaker.config;
  fault_seed : int option;
  seed : int;
  now : unit -> float;
  sleep : float -> unit;
  slowlog_capacity : int;
  trace_retain : int;
  slow_s : float;
  trace_capacity : int;
}

let default_config =
  {
    queue_capacity = 64;
    workers = 4;
    ladder = Ladder.default_config;
    breaker = Breaker.default_config;
    fault_seed = None;
    seed = 42;
    now = Unix.gettimeofday;
    sleep = Unix.sleepf;
    slowlog_capacity = 256;
    trace_retain = 8;
    slow_s = 0.25;
    trace_capacity = 8192;
  }

type request = {
  query : Gf.Query.t;
  text : string;
  timeout_ms : int option;
  max_rows : int option;
  max_intermediate : int option;
  fault_at : int option;
  fault_all : bool;
  part : (int * int) option;
  collect_rows : bool;
  trace : bool;
}

let request query =
  {
    query;
    text = "";
    timeout_ms = None;
    max_rows = None;
    max_intermediate = None;
    fault_at = None;
    fault_all = false;
    part = None;
    collect_rows = false;
    trace = false;
  }

type reject_reason = Queue_full | Breaker_open | Draining

let reject_reason_to_string = function
  | Queue_full -> "queue_full"
  | Breaker_open -> "breaker_open"
  | Draining -> "draining"

type reply = {
  id : int;
  result : Ladder.result;
  rows : int array list;
  queue_s : float;
  exec_s : float;
  record_id : int;
  traced : bool;
  trace_obj : Trace.t option;
  graph_version : int;
}

(* A ticket waits in the queue until a slot is handed to it, runs on the
   thread that awaits it, and keeps its reply for a repeated [await]. *)
type state = Waiting | Granted | Answered of reply

type ticket = { tid : int; req : request; enqueued_at : float; mutable state : state }

type t = {
  mutable db : Gf.Db.t;
  cfg : config;
  breaker : Breaker.t;
  recorder : Recorder.t;
  m : Mutex.t;
  changed : Condition.t;
      (** a slot was handed on, a ticket answered, or a run ended while
          draining *)
  queue : ticket Queue.t;  (** admitted tickets waiting for a slot *)
  mutable free : int;  (** slots neither granted nor running *)
  mutable running : int;  (** tickets executing now *)
  active : (int, Governor.t) Hashtbl.t;  (** in-flight attempt governors, by id *)
  mutable next_id : int;
  mutable is_draining : bool;
  mutable store : Gf_wal.Store.t option;
}

let recorder t = t.recorder
let store t = t.store

let graph_version t =
  match t.store with Some st -> Gf_wal.Store.graph_version st | None -> 0

(* Metrics looked up by name at record time (the [Db.observe_run] pattern)
   so a [Metrics.reset] between tests is harmless. *)
let c_inc ?by name help = Metrics.inc ?by (Metrics.counter ~help name)

let run_job t tkt =
  let queue_s = t.cfg.now () -. tkt.enqueued_at in
  Metrics.observe
    (Metrics.histogram ~help:"Seconds spent in the admission queue"
       "gf_server_queue_seconds")
    queue_s;
  let req = tkt.req in
  (* Per-request deterministic streams: backoff jitter from the service
     seed, chaos faults from the fault seed (GFQ_FAULT_SEED convention). *)
  let rng = Gf.Rng.create (t.cfg.seed lxor (tkt.tid * 0x9e3779b9)) in
  let fault =
    match req.fault_at with
    | Some at -> Some { Governor.at_tuple = at; operator = "injected" }
    | None -> (
        match t.cfg.fault_seed with
        | None -> None
        | Some fs ->
            let frng = Gf.Rng.create (fs lxor (tkt.tid * 0x1f123bb5)) in
            if Gf.Rng.int frng 4 = 0 then
              Some { Governor.at_tuple = 1 + Gf.Rng.int frng 2048; operator = "chaos" }
            else None)
  in
  let fault_attempts = if req.fault_all then max_int else 1 in
  (* Request overrides replace the ladder budget's fields; the degraded
     budget keeps whichever cap is tighter. *)
  let override v o = match o with Some _ -> o | None -> v in
  let tighter a b =
    match (a, b) with
    | Some x, Some y -> Some (min x y)
    | (Some _ as s), None | None, (Some _ as s) -> s
    | None, None -> None
  in
  let deadline = Option.map (fun ms -> float_of_int ms /. 1000.0) req.timeout_ms in
  let base = t.cfg.ladder.Ladder.budget in
  let degraded = t.cfg.ladder.Ladder.degraded_budget in
  let lcfg =
    {
      t.cfg.ladder with
      Ladder.budget =
        {
          Governor.deadline_s = override base.Governor.deadline_s deadline;
          max_output = override base.Governor.max_output req.max_rows;
          max_intermediate = override base.Governor.max_intermediate req.max_intermediate;
          max_bytes = base.Governor.max_bytes;
        };
      degraded_budget =
        {
          Governor.deadline_s = tighter degraded.Governor.deadline_s deadline;
          max_output = tighter degraded.Governor.max_output req.max_rows;
          max_intermediate = tighter degraded.Governor.max_intermediate req.max_intermediate;
          max_bytes = degraded.Governor.max_bytes;
        };
    }
  in
  let attach gov =
    Mutex.lock t.m;
    (* A drain may have started since this ticket was granted its slot: make sure the
       attempt sees the cancellation rather than running to completion. *)
    if t.is_draining then Governor.cancel gov;
    Hashtbl.replace t.active tkt.tid gov;
    Mutex.unlock t.m;
    fun () ->
      Mutex.lock t.m;
      Hashtbl.remove t.active tkt.tid;
      Mutex.unlock t.m
  in
  let rows = ref [] in
  let sink = if req.collect_rows then Some (fun r -> rows := r :: !rows) else None in
  (* Tracing is opt-in per request: the untraced path allocates nothing and
     branches once per phase boundary. A traced request gets its own trace
     object; the service's lifecycle buffer is tid 0. *)
  let trace, tbuf =
    if req.trace then begin
      let tr = Trace.create ~capacity:t.cfg.trace_capacity () in
      let b = Trace.buffer ~name:"request" tr ~tid:0 in
      (* The queue wait already happened; synthesize it so the timeline
         starts at admission, not at dequeue. *)
      let now = Trace.now_us () in
      Trace.add_complete ~cat:"service" b ~name:"queue-wait"
        ~ts_us:(now - int_of_float (queue_s *. 1e6))
        ~dur_us:(int_of_float (queue_s *. 1e6));
      Trace.begin_span ~cat:"service" ~args:[ ("id", Trace.Int tkt.tid) ] b "request";
      (Some tr, Some b)
    end
    else (None, None)
  in
  (* One load of the (mutable) db for the whole request, so every attempt runs
     on one graph even if a merge publishes mid-request. *)
  let db = t.db in
  let t0 = t.cfg.now () in
  let result =
    Ladder.run ~sleep:t.cfg.sleep ~now:t.cfg.now ~attach ?fault ~fault_attempts
      ?part:req.part ?sink ?trace ?tbuf ~rng lcfg db req.query
  in
  let exec_s = t.cfg.now () -. t0 in
  (match tbuf with
  | Some b ->
      Trace.end_span
        ~args:[ ("rung", Trace.Str result.Ladder.rung); ("attempts", Int result.Ladder.attempts) ]
        b;
      Trace.close_all b
  | None -> ());
  (* A query the planner rejects, like one that does not parse, is the
     client's fault: it says nothing about the backend's health. *)
  let ok =
    match result.Ladder.outcome with
    | Governor.Failed _ -> Ladder.rejected result
    | _ -> true
  in
  Breaker.record t.breaker ~ok;
  (match result.Ladder.outcome with
  | Governor.Completed ->
      c_inc "gf_server_requests_completed_total" "Requests answered Completed"
  | Governor.Truncated _ ->
      c_inc "gf_server_requests_truncated_total" "Requests answered Truncated"
  | Governor.Failed _ ->
      c_inc "gf_server_requests_failed_total" "Requests answered Failed");
  if result.Ladder.retries > 0 then
    c_inc ~by:result.Ladder.retries "gf_server_retries_total"
      "Ladder retries across all requests";
  if result.Ladder.degraded then
    c_inc "gf_server_degraded_total" "Requests answered from a degraded rung";
  Metrics.observe
    (Metrics.histogram ~help:"Request execution seconds (attempts + backoffs)"
       "gf_server_request_seconds")
    exec_s;
  (* Flight recorder: one record per executed request, always on. The top
     operators come from the trace's operator-summary spans (traced
     requests only — the untraced path stays profile-free). *)
  let top_ops =
    match trace with
    | None -> []
    | Some tr ->
        Trace.spans tr
        |> List.filter_map (fun (s : Trace.span) ->
               if s.Trace.cat = "operator" then
                 Some (s.Trace.name, float_of_int s.Trace.dur_us /. 1e6)
               else None)
        |> List.sort (fun (_, a) (_, b) -> compare b a)
        |> List.filteri (fun i _ -> i < 3)
  in
  let digest =
    match result.Ladder.plan with Some p -> Gf.Plan.signature p | None -> "?"
  in
  let record_id =
    Recorder.record t.recorder ~query:req.text ~plan:digest
      ~outcome:(Governor.outcome_to_string result.Ladder.outcome)
      ~latency_s:exec_s ~queue_s ~rung:result.Ladder.rung ~attempts:result.Ladder.attempts
      ~retries:result.Ladder.retries ~top_ops ~traced:req.trace
      ?trace_json:(Option.map Trace.to_chrome_json trace)
      ()
  in
  {
    id = tkt.tid;
    result;
    rows = List.rev !rows;
    queue_s;
    exec_s;
    record_id;
    traced = req.trace;
    trace_obj = trace;
    graph_version = graph_version t;
  }

(* The answer to a ticket drain stopped before it ran. *)
let cancelled t tkt =
  c_inc "gf_server_requests_truncated_total" "Requests answered Truncated";
  {
    id = tkt.tid;
    result =
      {
        Ladder.outcome = Governor.Truncated Governor.Cancelled;
        counters = Counters.create ();
        plan = None;
        attempts = 0;
        retries = 0;
        degraded = false;
        rung = "none";
        backoffs = [];
      };
    rows = [];
    queue_s = t.cfg.now () -. tkt.enqueued_at;
    exec_s = 0.0;
    record_id = 0;
    traced = false;
    trace_obj = None;
    graph_version = graph_version t;
  }

let create ?(config = default_config) db =
  if config.workers < 1 then invalid_arg "Service.create: workers must be at least 1";
  {
    db;
    cfg = config;
    breaker = Breaker.create ~now:config.now config.breaker;
    recorder =
      Recorder.create ~capacity:config.slowlog_capacity ~retain:config.trace_retain
        ~slow_s:config.slow_s ();
    m = Mutex.create ();
    changed = Condition.create ();
    queue = Queue.create ();
    free = config.workers;
    running = 0;
    active = Hashtbl.create 16;
    next_id = 0;
    is_draining = false;
    store = None;
  }

let submit_async t req =
  Mutex.lock t.m;
  let decision =
    if t.is_draining then begin
      c_inc "gf_server_shed_draining_total" "Requests shed while draining";
      Error Draining
    end
    else if Queue.length t.queue >= t.cfg.queue_capacity then begin
      c_inc "gf_server_shed_queue_full_total" "Requests shed by the bounded queue";
      Error Queue_full
    end
    else
      (* Breaker last, so a full queue cannot eat the half-open probe. *)
      match Breaker.admit t.breaker with
      | `Reject ->
          c_inc "gf_server_shed_breaker_open_total"
            "Requests shed by the open circuit breaker";
          Error Breaker_open
      | `Admit ->
          t.next_id <- t.next_id + 1;
          (* A free slot is taken at once; the queue is empty then. *)
          let granted = t.free > 0 in
          let tkt =
            {
              tid = t.next_id;
              req;
              enqueued_at = t.cfg.now ();
              state = (if granted then Granted else Waiting);
            }
          in
          if granted then t.free <- t.free - 1 else Queue.push tkt t.queue;
          c_inc "gf_server_admitted_total" "Requests admitted to the queue";
          Ok tkt
  in
  Mutex.unlock t.m;
  decision

(* Give up a slot, under [t.m]: to the oldest waiting ticket, if any. *)
let hand_on t =
  match Queue.take_opt t.queue with
  | Some next ->
      next.state <- Granted;
      Condition.broadcast t.changed
  | None ->
      t.free <- t.free + 1;
      if t.is_draining then Condition.broadcast t.changed

let finish t =
  Mutex.lock t.m;
  t.running <- t.running - 1;
  hand_on t;
  Mutex.unlock t.m

let await t tkt =
  Mutex.lock t.m;
  while match tkt.state with Waiting -> true | Granted | Answered _ -> false do
    Condition.wait t.changed t.m
  done;
  match tkt.state with
  | Answered r ->
      Mutex.unlock t.m;
      r
  | _ when t.is_draining ->
      (* Drain came between the grant and this call: do not start. *)
      let r = cancelled t tkt in
      tkt.state <- Answered r;
      hand_on t;
      Mutex.unlock t.m;
      r
  | _ ->
      t.running <- t.running + 1;
      Mutex.unlock t.m;
      let r = Fun.protect ~finally:(fun () -> finish t) (fun () -> run_job t tkt) in
      tkt.state <- Answered r;
      r

let submit t req = Result.map (await t) (submit_async t req)

let drain t =
  Mutex.lock t.m;
  let first = not t.is_draining in
  t.is_draining <- true;
  (* Cancel in-flight attempts: their governors trip at the next check and
     the ladder reports [Truncated Cancelled]. *)
  Hashtbl.iter (fun _ gov -> Governor.cancel gov) t.active;
  (* Answer everything still waiting for a slot without running it. *)
  Queue.iter (fun tkt -> tkt.state <- Answered (cancelled t tkt)) t.queue;
  Queue.clear t.queue;
  Condition.broadcast t.changed;
  while t.running > 0 do
    Condition.wait t.changed t.m
  done;
  Mutex.unlock t.m;
  if first then c_inc "gf_server_drains_total" "Service drains completed"

let draining t =
  Mutex.lock t.m;
  let d = t.is_draining in
  Mutex.unlock t.m;
  d

let queue_depth t =
  Mutex.lock t.m;
  let n = Queue.length t.queue in
  Mutex.unlock t.m;
  n

let breaker_state t = Breaker.state t.breaker

(* ------------------------------------------------------------------ *)
(* Durable mutations                                                   *)
(* ------------------------------------------------------------------ *)

module Store = Gf_wal.Store

type mutation =
  | M_add_edge of { u : int; v : int; elabel : int }
  | M_del_edge of { u : int; v : int; elabel : int }
  | M_add_vertex of { label : int }
  | M_del_vertex of { v : int }
  | M_checkpoint

type mutation_reply = {
  m_lsn : int;
  m_applied : bool;
  m_vertex : int option;
  m_version : int;
  m_graph_version : int;
  m_durable : int;
  m_record : int;
}

type mutation_error =
  | M_read_only
  | M_draining
  | M_invalid of string
  | M_failed of string

let mutation_error_to_string = function
  | M_read_only -> "read_only: no durable store attached (serve without --data-dir)"
  | M_draining -> "draining"
  | M_invalid d -> "invalid: " ^ d
  | M_failed d -> "wal_failed: " ^ d

let attach_store t st =
  t.store <- Some st;
  (* The store's graph is the recovered truth (snapshot + replay); the db
     the service was created with only supplied the genesis state. *)
  t.db <- Gf.Db.with_graph ~version:(Store.graph_version st) t.db (Store.graph st);
  Store.set_on_merge st (fun version ->
      (* Called under the store's writer lock: re-seat the db on the new
         CSR. The old catalogue's statistics described the old graph, so
         every entry is invalidated wholesale — and so is the plan cache:
         its plans were costed against those statistics, and re-keying the
         db on the new graph version makes any surviving entry unreachable
         anyway. *)
      let entries = Gf.Catalog.num_entries (Gf.Db.catalog t.db) in
      t.db <- Gf.Db.with_graph ~version t.db (Store.graph st);
      (match Gf.Db.plan_cache t.db with
      | Some cache -> Gf.Plan_cache.invalidate cache
      | None -> ());
      c_inc "gf_server_catalog_invalidations_total"
        "Catalogue invalidations forced by merged mutations";
      if entries > 0 then
        c_inc ~by:entries "gf_server_catalog_entries_invalidated_total"
          "Catalogue entries dropped by merge invalidations")

let mutation_text = function
  | M_add_edge { u; v; elabel } -> Printf.sprintf "addedge %d %d %d" u v elabel
  | M_del_edge { u; v; elabel } -> Printf.sprintf "deledge %d %d %d" u v elabel
  | M_add_vertex { label } -> Printf.sprintf "addvertex %d" label
  | M_del_vertex { v } -> Printf.sprintf "delvertex %d" v
  | M_checkpoint -> "checkpoint"

let mutate t ?(trace = false) ?text mut =
  if draining t then Error M_draining
  else
    match t.store with
    | None ->
        c_inc "gf_server_mutations_rejected_total" "Mutations refused";
        Error M_read_only
    | Some st -> (
        let text = match text with Some s -> s | None -> mutation_text mut in
        let tr, tbuf =
          if trace then begin
            let tr = Trace.create ~capacity:t.cfg.trace_capacity () in
            (Some tr, Some (Trace.buffer ~name:"mutation" tr ~tid:0))
          end
          else (None, None)
        in
        let sp name f =
          match tbuf with None -> f () | Some b -> Trace.span ~cat:"wal" b name f
        in
        let t0 = t.cfg.now () in
        let applied =
          match mut with
          | M_add_edge { u; v; elabel } ->
              Result.map
                (fun (lsn, a) -> (lsn, a = Gf.Delta.Applied, None))
                (sp "wal-apply" (fun () -> Store.add_edge st u v ~elabel))
          | M_del_edge { u; v; elabel } ->
              Result.map
                (fun (lsn, a) -> (lsn, a = Gf.Delta.Applied, None))
                (sp "wal-apply" (fun () -> Store.del_edge st u v ~elabel))
          | M_add_vertex { label } ->
              Result.map
                (fun (lsn, id) -> (lsn, true, Some id))
                (sp "wal-apply" (fun () -> Store.add_vertex st ~label))
          | M_del_vertex { v } ->
              Result.map
                (fun (lsn, a) -> (lsn, a = Gf.Delta.Applied, None))
                (sp "wal-apply" (fun () -> Store.del_vertex st v))
          | M_checkpoint ->
              Result.map (fun v -> (v, true, None)) (sp "checkpoint" (fun () -> Store.checkpoint st))
        in
        (* Acknowledge only after a covering fsync: [Store.sync] group-
           commits, so concurrent connections share one fsync. Checkpoint
           already syncs internally. *)
        let acked =
          match applied with
          | Error _ -> applied
          | Ok _ when mut = M_checkpoint -> applied
          | Ok _ -> (
              match sp "wal-sync" (fun () -> Store.sync st) with
              | Ok _ -> applied
              | Error e -> Error e)
        in
        let latency = t.cfg.now () -. t0 in
        let outcome, err =
          match acked with
          | Ok _ -> ("applied", None)
          | Error (Store.Invalid e) -> ("invalid", Some (M_invalid (Gf.Delta.error_to_string e)))
          | Error (Store.Failed msg) -> ("failed", Some (M_failed msg))
        in
        let record_id =
          Recorder.record t.recorder ~query:text ~plan:"wal" ~outcome ~latency_s:latency
            ~queue_s:0.0 ~rung:"wal" ~attempts:1 ~retries:0 ~top_ops:[] ~traced:trace
            ?trace_json:(Option.map Trace.to_chrome_json tr)
            ()
        in
        match (acked, err) with
        | Ok (lsn, was_applied, vertex), _ ->
            c_inc "gf_server_mutations_total" "Mutations acknowledged durable";
            Metrics.observe
              (Metrics.histogram ~help:"Mutation ack latency in seconds"
                 "gf_server_mutation_seconds")
              latency;
            Ok
              {
                m_lsn = lsn;
                m_applied = was_applied;
                m_vertex = vertex;
                m_version = Store.version st;
                m_graph_version = Store.graph_version st;
                m_durable = Store.durable_lsn st;
                m_record = record_id;
              }
        | Error _, Some e ->
            c_inc "gf_server_mutations_rejected_total" "Mutations refused";
            Error e
        | Error _, None -> assert false)

type stats = {
  s_queue_depth : int;
  s_breaker : Breaker.state;
  s_draining : bool;
  s_admitted : int;
  s_completed : int;
  s_truncated : int;
  s_failed : int;
  s_retries : int;
  s_slowlog : int;
  s_p50_ms : float;
  s_p95_ms : float;
  s_p99_ms : float;
  s_kernel : string;
  s_graph_offheap_bytes : int;
  s_graph_heap_bytes : int;
  s_graph_mapped : bool;
  s_graph_nbr_width : int;
  s_graph_version : int;
  s_wal_version : int;
  s_wal_durable : int;
  s_wal_pending : int;
  s_checkpoints : int;
  s_mutations : int;
  s_plan_cache_hits : int;
  s_plan_cache_misses : int;
  s_plan_cache_evictions : int;
  s_plan_cache_replans : int;
  s_plan_cache_invalidations : int;
  s_plan_cache_feedbacks : int;
  s_plan_cache_entries : int;
}

(* Counters read by name (0 if never bumped); the latency quantiles come
   from the request-seconds histogram via [Metrics.quantile]. *)
let stats t =
  let cv name = Metrics.counter_value (Metrics.counter name) in
  let h = Metrics.histogram "gf_server_request_seconds" in
  let q p = match Metrics.quantile h p with x when Float.is_nan x -> 0.0 | x -> x *. 1e3 in
  let r = Gf.Graph.residency (Gf.Db.graph t.db) in
  let pc =
    match Gf.Db.plan_cache t.db with
    | Some c -> Gf.Plan_cache.stats c
    | None ->
        {
          Gf.Plan_cache.hits = 0;
          misses = 0;
          evictions = 0;
          replans = 0;
          invalidations = 0;
          feedbacks = 0;
          entries = 0;
        }
  in
  {
    s_queue_depth = queue_depth t;
    s_breaker = breaker_state t;
    s_draining = draining t;
    s_admitted = cv "gf_server_admitted_total";
    s_completed = cv "gf_server_requests_completed_total";
    s_truncated = cv "gf_server_requests_truncated_total";
    s_failed = cv "gf_server_requests_failed_total";
    s_retries = cv "gf_server_retries_total";
    s_slowlog = Recorder.length t.recorder;
    s_p50_ms = q 0.50;
    s_p95_ms = q 0.95;
    s_p99_ms = q 0.99;
    s_kernel = Gf_util.Sorted.kernel_name ();
    s_graph_offheap_bytes = r.Gf.Graph.offheap_bytes;
    s_graph_heap_bytes = r.Gf.Graph.heap_bytes;
    s_graph_mapped = r.Gf.Graph.mapped;
    s_graph_nbr_width = r.Gf.Graph.nbr_width;
    s_graph_version = graph_version t;
    s_wal_version = (match t.store with Some st -> Store.version st | None -> 0);
    s_wal_durable = (match t.store with Some st -> Store.durable_lsn st | None -> 0);
    s_wal_pending = (match t.store with Some st -> Store.pending st | None -> 0);
    s_checkpoints = (match t.store with Some st -> Store.checkpoints st | None -> 0);
    s_mutations = cv "gf_server_mutations_total";
    s_plan_cache_hits = pc.Gf.Plan_cache.hits;
    s_plan_cache_misses = pc.Gf.Plan_cache.misses;
    s_plan_cache_evictions = pc.Gf.Plan_cache.evictions;
    s_plan_cache_replans = pc.Gf.Plan_cache.replans;
    s_plan_cache_invalidations = pc.Gf.Plan_cache.invalidations;
    s_plan_cache_feedbacks = pc.Gf.Plan_cache.feedbacks;
    s_plan_cache_entries = pc.Gf.Plan_cache.entries;
  }
