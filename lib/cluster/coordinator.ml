module Gf = Graphflow
module Metrics = Gf_exec.Metrics
module Breaker = Gf_server.Breaker
module Service = Gf_server.Service
module Wire = Gf_server.Wire
module Trace = Gf.Trace
module Governor = Gf.Governor
module Json = Gf_util.Json

type config = {
  node : string;
  connect_timeout_s : float;
  rpc_timeout_s : float;
  retries : int;  (** extra attempts per shard beyond the first *)
  hedge_after_s : float option;  (** straggler hedging; [None] = off *)
  max_result_bytes : int option;  (** byte cap across streamed partials *)
  breaker : Breaker.config;
  probe_interval_s : float;
  probe_timeout_s : float;
  slowlog_capacity : int;
  slow_s : float;  (** slow-pin threshold for distributed queries *)
  stats_interval_s : float;  (** worker stats pull period; <= 0 = on demand only *)
}

let default_config =
  {
    node = "coordinator";
    connect_timeout_s = 1.0;
    rpc_timeout_s = 10.0;
    retries = 2;
    hedge_after_s = Some 0.25;
    max_result_bytes = Some (64 * 1024 * 1024);
    breaker = Breaker.default_config;
    probe_interval_s = 1.0;
    probe_timeout_s = 0.5;
    slowlog_capacity = 256;
    slow_s = 0.25;
    stats_interval_s = 2.0;
  }

type t = {
  cfg : config;
  topo : Topology.t;
  pool : Remote.pool;
  breakers : Breaker.t array;  (** one per shard: a bad shard opens alone *)
  health : Health.t;
  recorder : Gf.Recorder.t;
  m : Mutex.t;
  skews : (string, int) Hashtbl.t;
      (** per-endpoint clock skew (peer − local, µs) from the last handshake *)
  mutable fingerprint : (int * int) option;  (** (n, m) agreed by the cluster *)
  mutable next_id : int;
  mutable requests : int;
  mutable failovers : int;
  mutable hedges : int;
  mutable hedge_wins : int;
  mutable fleet : (string * (Json.t, string) result) list;
      (** last pulled worker [stats] reply (or error) per endpoint *)
  mutable fleet_thread : Thread.t option;
  mutable stopped : bool;
}

let c_inc ?(by = 1) name help = Metrics.inc ~by (Metrics.counter ~help name)

let fleet_endpoints t =
  Array.to_list t.topo.Topology.shards
  |> List.concat_map (fun s -> s.Topology.endpoints)
  |> List.sort_uniq (fun a b ->
         compare (Topology.endpoint_to_string a) (Topology.endpoint_to_string b))

(* One-shot [stats] pull from every distinct endpoint. Uses fresh
   connections rather than the RPC pool: a wedged worker must cost one
   probe timeout, never poison a pooled query connection. *)
let fleet_pull t =
  fleet_endpoints t
  |> List.map (fun ep ->
         let key = Topology.endpoint_to_string ep in
         match Remote.connect ~timeout_s:t.cfg.probe_timeout_s ep with
         | Error e -> (key, Error e)
         | Ok c ->
             let r = Remote.request c ~timeout_s:t.cfg.probe_timeout_s "stats" in
             Remote.close c;
             let parse s = Result.map_error (( ^ ) "malformed stats: ") (Json.parse s) in
             (key, Result.bind r parse))

let fleet_refresh t =
  let entries = fleet_pull t in
  Mutex.lock t.m;
  t.fleet <- entries;
  Mutex.unlock t.m

let fleet_loop t =
  while not t.stopped do
    fleet_refresh t;
    (* Sleep in short slices so [stop] is honoured promptly. *)
    let slices = int_of_float (Float.max 1. (t.cfg.stats_interval_s /. 0.05)) in
    let rec nap i = if i > 0 && not t.stopped then (Thread.delay 0.05; nap (i - 1)) in
    nap slices
  done

let create ?(config = default_config) topo =
  let endpoints =
    Array.to_list topo.Topology.shards
    |> List.concat_map (fun s -> s.Topology.endpoints)
  in
  let t =
    {
      cfg = config;
      topo;
      pool = Remote.pool_create ();
      breakers =
        Array.init (Topology.num_shards topo) (fun _ -> Breaker.create config.breaker);
      health =
        Health.create ~probe_interval_s:config.probe_interval_s
          ~probe_timeout_s:config.probe_timeout_s ~node:config.node endpoints;
      recorder = Gf.Recorder.create ~capacity:config.slowlog_capacity ~slow_s:config.slow_s ();
      m = Mutex.create ();
      skews = Hashtbl.create 8;
      fingerprint = None;
      next_id = 0;
      requests = 0;
      failovers = 0;
      hedges = 0;
      hedge_wins = 0;
      fleet = [];
      fleet_thread = None;
      stopped = false;
    }
  in
  if config.stats_interval_s > 0.0 then
    t.fleet_thread <- Some (Thread.create fleet_loop t);
  t

let stop t =
  t.stopped <- true;
  Health.stop t.health;
  (match t.fleet_thread with
  | Some th ->
      t.fleet_thread <- None;
      Thread.join th
  | None -> ());
  Remote.pool_close t.pool

let skew_of t ep_str =
  Mutex.lock t.m;
  let s = Option.value (Hashtbl.find_opt t.skews ep_str) ~default:0 in
  Mutex.unlock t.m;
  s

(* ------------------------------------------------------------------ *)
(* One RPC attempt against one endpoint                                *)
(* ------------------------------------------------------------------ *)

(* Dial (or reuse) a handshaken connection. The first successful hello
   fixes the cluster's graph fingerprint; any endpoint disagreeing on
   (n, m) is refused — identical graphs are what make per-worker plans
   identical, and a mismatched worker would silently corrupt the union. *)
let obtain_conn t ep =
  match Remote.checkout t.pool ep with
  | Some c -> Ok c
  | None -> (
      match Remote.connect ~timeout_s:t.cfg.connect_timeout_s ep with
      | Error _ as e -> e
      | Ok c -> (
          match
            Remote.handshake c ~timeout_s:t.cfg.connect_timeout_s ~node:t.cfg.node
              ~role:"coordinator"
          with
          | Error m ->
              Remote.close c;
              Error m
          | Ok peer ->
              Mutex.lock t.m;
              (* Latest handshake wins: skew drifts, each reconnect
                 re-measures it. *)
              Hashtbl.replace t.skews (Topology.endpoint_to_string ep) peer.Remote.skew_us;
              let verdict =
                match t.fingerprint with
                | None ->
                    t.fingerprint <- Some (peer.Remote.n, peer.Remote.m);
                    Ok c
                | Some (n, m) when n = peer.Remote.n && m = peer.Remote.m -> Ok c
                | Some (n, m) ->
                    Error
                      (Printf.sprintf
                         "fingerprint_mismatch: %s serves n=%d m=%d, cluster agreed n=%d m=%d"
                         peer.Remote.node peer.Remote.n peer.Remote.m n m)
              in
              Mutex.unlock t.m;
              (match verdict with Error _ -> Remote.close c | Ok _ -> ());
              verdict))

let attempt t ep line =
  match obtain_conn t ep with
  | Error _ as e -> e
  | Ok c -> (
      match Remote.request c ~timeout_s:t.cfg.rpc_timeout_s line with
      | Ok reply ->
          Remote.checkin t.pool ep c;
          Result.map_error (( ^ ) "malformed shard reply: ") (Json.parse reply)
      | Error _ as e ->
          (* A timed-out or reset connection may still have the reply in
             flight: never reuse it — the next request would read a stale
             line. *)
          Remote.close c;
          e)

(* Classify a worker's reply line. [`Good] replies are terminal;
   [`Retryable] ones (worker-side failure, rejection, split-brain
   [not_owner]) re-route to the next endpoint. *)
let classify reply =
  match Json.bool "ok" reply with
  | Some true -> (
      match Json.str "outcome" reply with
      | Some o
        when String.length o >= 9 && String.sub o 0 9 = "completed" ->
          `Good ("completed", reply)
      | Some o
        when String.length o >= 9 && String.sub o 0 9 = "truncated" ->
          `Good ("truncated", reply)
      | Some o -> `Retryable ("worker outcome: " ^ o)
      | None -> `Retryable "malformed shard reply (no outcome)")
  | Some false ->
      let e = Option.value (Json.str "error" reply) ~default:"error" in
      `Retryable ("worker refused: " ^ e)
  | None -> `Retryable "malformed shard reply"

type shard_result = {
  sr_shard : int;
  sr_ok : bool;
  sr_outcome : string;
      (** completed | truncated | failed | breaker_open | unreachable *)
  sr_matches : int;
  sr_rows : int array list;
  sr_endpoint : string;
  sr_attempts : int;
  sr_failover : bool;  (** served by a non-primary endpoint *)
  sr_hedged : bool;  (** a hedge request was launched *)
  sr_hedge_win : bool;  (** ...and the hedge answered first *)
  sr_detail : string;
}

let sr_fail shard outcome detail attempts =
  {
    sr_shard = shard;
    sr_ok = false;
    sr_outcome = outcome;
    sr_matches = 0;
    sr_rows = [];
    sr_endpoint = "";
    sr_attempts = attempts;
    sr_failover = false;
    sr_hedged = false;
    sr_hedge_win = false;
    sr_detail = detail;
  }

(* Race one attempt against a hedge launched [after] seconds later on the
   next endpoint: first good reply wins, the loser's thread drains on its
   own socket timeouts. Only used for the opening attempt — retries are
   already failure handling, hedging them again just multiplies load.
   [on_reply] sees every reply line that arrived (winner or not, good or
   failed) — the trace stitcher wants the losing replica's spans too. *)
let hedge_poll_s = 0.002

let hedged_attempt t ~after ?(on_reply = fun _ _ -> ()) ep1 ep2 line =
  let m = Mutex.create () in
  let winner = ref None and pending = ref 1 and launched = ref false in
  let errors = ref [] in
  let fire ep =
    ignore
      (Thread.create
         (fun () ->
           let r = attempt t ep line in
           (match r with Ok reply -> on_reply ep reply | Error _ -> ());
           Mutex.lock m;
           (match r with
           | Ok reply -> (
               match classify reply with
               | `Good (kind, reply) ->
                   if !winner = None then winner := Some (ep, kind, reply)
               | `Retryable why -> errors := why :: !errors)
           | Error why -> errors := why :: !errors);
           decr pending;
           Mutex.unlock m)
         ())
  in
  fire ep1;
  Mutex.lock m;
  let t0 = Unix.gettimeofday () in
  let hedge_at = t0 +. after in
  let deadline = t0 +. t.cfg.rpc_timeout_s +. after +. 1.0 in
  let rec wait () =
    match !winner with
    | Some (ep, kind, reply) ->
        Mutex.unlock m;
        `Won (ep, kind, reply, !launched)
    | None ->
        let now = Unix.gettimeofday () in
        if !pending = 0 then begin
          let errs = !errors in
          Mutex.unlock m;
          `Lost (errs, !launched)
        end
        else if now > deadline then begin
          Mutex.unlock m;
          `Lost ([ "hedge wait timeout" ], !launched)
        end
        else begin
          if (not !launched) && now >= hedge_at then begin
            launched := true;
            incr pending;
            c_inc "gf_cluster_hedges_total" "Hedge requests launched for stragglers";
            fire ep2
          end;
          (* Poll in short slices rather than sleeping out the hedge delay:
             a healthy primary's reply must end the wait as soon as it
             lands, so the hedge delay is a trigger, never a latency floor. *)
          Mutex.unlock m;
          Thread.delay
            (if !launched then hedge_poll_s else Float.min hedge_poll_s (hedge_at -. now));
          Mutex.lock m;
          wait ()
        end
  in
  wait ()

(* ------------------------------------------------------------------ *)
(* One shard of one request                                            *)
(* ------------------------------------------------------------------ *)

let run_shard t ~line ~tbuf ?(on_reply = fun _ _ -> ()) idx =
  let shard = t.topo.Topology.shards.(idx) in
  let primary = List.hd shard.Topology.endpoints in
  let brk = t.breakers.(idx) in
  (match tbuf with
  | Some b ->
      Trace.begin_span ~cat:"cluster"
        ~args:[ ("shard", Trace.Int idx) ]
        b
        (Printf.sprintf "shard-%d" idx)
  | None -> ());
  let finish sr =
    Breaker.record brk ~ok:sr.sr_ok;
    (match tbuf with
    | Some b ->
        Trace.end_span
          ~args:
            [ ("outcome", Trace.Str sr.sr_outcome);
              ("endpoint", Str sr.sr_endpoint);
              ("attempts", Int sr.sr_attempts);
            ]
          b
    | None -> ());
    c_inc "gf_cluster_shard_requests_total" "Shard RPCs issued (per shard, per request)";
    if sr.sr_ok && sr.sr_failover then begin
      Mutex.lock t.m;
      t.failovers <- t.failovers + 1;
      Mutex.unlock t.m;
      c_inc "gf_cluster_failovers_total" "Shard requests served by a non-primary endpoint"
    end;
    if not sr.sr_ok then
      c_inc "gf_cluster_incomplete_shards_total" "Shard requests that returned no result";
    sr
  in
  match Breaker.admit brk with
  | `Reject -> finish (sr_fail idx "breaker_open" "per-shard circuit breaker open" 0)
  | `Admit -> (
      (* Routing order: healthy endpoints first (primary-first within each
         class), but Down endpoints stay in the tail — health is advisory,
         and when everything looks dead we still try before giving up. *)
      let up, down =
        List.partition (fun ep -> Health.status t.health ep = Health.Up) shard.Topology.endpoints
      in
      let order = up @ down in
      let good ~ep ~kind ~reply ~attempts ~hedged ~hedge_win =
        {
          sr_shard = idx;
          sr_ok = true;
          sr_outcome = kind;
          sr_matches = Option.value (Json.int "matches" reply) ~default:0;
          sr_rows =
            List.map
              (function
                | Json.Arr r -> Array.of_list (List.map (function Json.Int v -> v | _ -> -1) r)
                | _ -> [||])
              (Json.list "rows" reply);
          sr_endpoint = Topology.endpoint_to_string ep;
          sr_attempts = attempts;
          sr_failover = ep <> primary;
          sr_hedged = hedged;
          sr_hedge_win = hedge_win;
          sr_detail = "";
        }
      in
      let max_attempts = t.cfg.retries + 1 in
      (* Each synchronous attempt gets its own span on the shard track —
         failed attempts stay visible in the stitched trace next to the
         replica that eventually answered. *)
      let traced_attempt ep =
        (match tbuf with
        | Some b ->
            Trace.begin_span ~cat:"cluster"
              ~args:[ ("endpoint", Trace.Str (Topology.endpoint_to_string ep)) ]
              b "attempt"
        | None -> ());
        let r = attempt t ep line in
        (match r with Ok reply -> on_reply ep reply | Error _ -> ());
        (match tbuf with
        | Some b ->
            let verdict =
              match r with
              | Ok reply -> (
                  match classify reply with
                  | `Good (kind, _) -> kind
                  | `Retryable why -> "retryable: " ^ why)
              | Error why -> "error: " ^ why
            in
            Trace.end_span ~args:[ ("result", Trace.Str verdict) ] b
        | None -> ());
        r
      in
      let rec go attempts last_err = function
        | [] ->
            finish
              (sr_fail idx
                 (if attempts = 0 then "unreachable" else "failed")
                 last_err attempts)
        | _ when attempts >= max_attempts ->
            finish (sr_fail idx "failed" last_err attempts)
        | ep :: rest -> (
            if attempts > 0 then
              c_inc "gf_cluster_shard_retries_total"
                "Shard attempts re-routed after a failure";
            match traced_attempt ep with
            | Ok reply -> (
                match classify reply with
                | `Good (kind, reply) ->
                    finish
                      (good ~ep ~kind ~reply ~attempts:(attempts + 1) ~hedged:false
                         ~hedge_win:false)
                | `Retryable why -> go (attempts + 1) why rest)
            | Error why -> go (attempts + 1) why rest)
      in
      match (t.cfg.hedge_after_s, order) with
      | Some after, ep1 :: ep2 :: rest when not t.stopped -> (
          (match tbuf with
          | Some b ->
              Trace.begin_span ~cat:"cluster"
                ~args:
                  [ ("primary", Trace.Str (Topology.endpoint_to_string ep1));
                    ("hedge", Str (Topology.endpoint_to_string ep2));
                  ]
                b "hedged-attempt"
          | None -> ());
          match hedged_attempt t ~after ~on_reply ep1 ep2 line with
          | `Won (ep, kind, reply, hedged) ->
              let hedge_win = hedged && ep == ep2 in
              if hedge_win then
                c_inc "gf_cluster_hedge_wins_total" "Hedge requests that answered first";
              (match tbuf with
              | Some b ->
                  Trace.end_span
                    ~args:
                      [ ("winner", Trace.Str (Topology.endpoint_to_string ep));
                        ("hedged", Str (string_of_bool hedged));
                        ("result", Str kind);
                      ]
                    b
              | None -> ());
              finish
                (good ~ep ~kind ~reply ~attempts:(if hedged then 2 else 1) ~hedged
                   ~hedge_win)
          | `Lost (errs, hedged) ->
              (* If the primary failed before the hedge timer fired, ep2 was
                 never contacted — it must stay in the retry order or a
                 fast-failing primary would skip its own replica. *)
              (match tbuf with
              | Some b ->
                  Trace.end_span
                    ~args:
                      [ ("result", Trace.Str ("lost: " ^ String.concat "; " errs));
                        ("hedged", Str (string_of_bool hedged));
                      ]
                    b
              | None -> ());
              let attempts = if hedged then 2 else 1 in
              let last_err = match errs with e :: _ -> e | [] -> "unreachable" in
              go attempts last_err (if hedged then rest else ep2 :: rest))
      | _ -> go 0 "unreachable" order)

(* ------------------------------------------------------------------ *)
(* A whole client request: fan out, gather, aggregate honestly         *)
(* ------------------------------------------------------------------ *)

type result = {
  r_id : int;
  r_outcome : string;  (** completed | truncated | partial | failed *)
  r_matches : int;
  r_incomplete : int list;
  r_failovers : int;
  r_hedges : int;
  r_retries : int;
  r_rows : int array list;
  r_exec_s : float;
  r_trace_id : int option;
      (** flight-recorder handle for the stitched trace (traced requests) *)
  r_shards : shard_result array;
}

let run t ~text (req : Service.request) =
  let k = Topology.num_shards t.topo in
  let id =
    Mutex.lock t.m;
    t.next_id <- t.next_id + 1;
    t.requests <- t.requests + 1;
    let id = t.next_id in
    Mutex.unlock t.m;
    id
  in
  c_inc "gf_cluster_requests_total" "Client requests fanned out by the coordinator";
  let trace =
    if req.Service.trace then Some (Trace.create ~capacity:8192 ()) else None
  in
  (* Trace context: the request id doubles as the propagated trace id; the
     per-shard parent span name tells the worker (and a human reading the
     wire) where its tree lands. *)
  let line i =
    let trace_ctx =
      Option.map (fun _ -> (id, Printf.sprintf "shard-%d" i)) trace
    in
    Proto.shard_req ~part:(i, k) ?timeout_ms:req.Service.timeout_ms
      ?max_rows:req.Service.max_rows ?trace_ctx ~rows:req.Service.collect_rows text
  in
  (* Every ok reply line that carried a span payload, from any attempt —
     winners, losers of hedges, and failed tries alike all end up in the
     stitched trace. *)
  let grafts_m = Mutex.create () in
  let grafts = ref [] in
  let on_reply ep reply =
    if trace <> None && Json.int "pid" reply <> None then begin
      Mutex.lock grafts_m;
      grafts := (Topology.endpoint_to_string ep, reply) :: !grafts;
      Mutex.unlock grafts_m
    end
  in
  (* The byte cap rides the same governor machinery queries use: every
     shard reply's bytes are charged as materialized state, and a trip
     turns the aggregate into an honest [truncated]. *)
  let gov =
    Governor.create
      (Gf.Governor.budget ?max_bytes:t.cfg.max_result_bytes ())
  in
  let gov_h = Governor.handle gov [||] in
  let t0 = Unix.gettimeofday () in
  let results = Array.make k None in
  let times = Array.make k 0.0 in
  let threads =
    List.init k (fun i ->
        Thread.create
          (fun () ->
            let tbuf =
              Option.map (fun tr -> Trace.buffer ~name:(Printf.sprintf "shard-%d" i) tr ~tid:(10 + i)) trace
            in
            let s0 = Unix.gettimeofday () in
            let sr = run_shard t ~line:(line i) ~tbuf ~on_reply i in
            times.(i) <- Unix.gettimeofday () -. s0;
            Metrics.observe
              (Metrics.histogram ~help:"Per-shard RPC seconds (all attempts)"
                 ~labels:[ ("shard", string_of_int i) ]
                 "gf_cluster_shard_seconds")
              times.(i);
            Governor.add_bytes gov_h
              (List.fold_left (fun a r -> a + (8 * Array.length r)) 0 sr.sr_rows
              + 64 + String.length sr.sr_detail);
            (match tbuf with Some b -> Trace.close_all b | None -> ());
            results.(i) <- Some sr)
          ())
  in
  List.iter Thread.join threads;
  let exec_s = Unix.gettimeofday () -. t0 in
  let srs =
    Array.mapi
      (fun i r ->
        match r with
        | Some sr -> sr
        | None -> sr_fail i "failed" "shard thread died" 0)
      results
  in
  let incomplete =
    Array.to_list srs |> List.filter (fun s -> not s.sr_ok) |> List.map (fun s -> s.sr_shard)
  in
  let bytes_tripped = Governor.tripped gov in
  let matches = Array.fold_left (fun a s -> a + s.sr_matches) 0 srs in
  let any_truncated =
    bytes_tripped || Array.exists (fun s -> s.sr_ok && s.sr_outcome = "truncated") srs
  in
  let outcome =
    if List.length incomplete = k then "failed"
    else if incomplete <> [] then "partial"
    else if any_truncated then "truncated"
    else "completed"
  in
  let rows =
    (* Stream order is shard order; under a tripped byte cap rows are
       dropped wholesale rather than silently truncated mid-shard. *)
    if bytes_tripped then []
    else Array.to_list srs |> List.concat_map (fun s -> s.sr_rows)
  in
  let failovers = Array.fold_left (fun a s -> a + Bool.to_int (s.sr_ok && s.sr_failover)) 0 srs in
  let hedges = Array.fold_left (fun a s -> a + Bool.to_int s.sr_hedged) 0 srs in
  let hedge_wins = Array.fold_left (fun a s -> a + Bool.to_int s.sr_hedge_win) 0 srs in
  let retries = Array.fold_left (fun a s -> a + (max 0 (s.sr_attempts - 1))) 0 srs in
  Mutex.lock t.m;
  t.hedges <- t.hedges + hedges;
  t.hedge_wins <- t.hedge_wins + hedge_wins;
  Mutex.unlock t.m;
  Metrics.observe
    (Metrics.histogram ~help:"End-to-end coordinator request seconds"
       "gf_cluster_request_seconds")
    exec_s;
  if outcome = "partial" then
    c_inc "gf_cluster_partial_results_total"
      "Client replies degraded to partial (incomplete_shards marked)";
  (* Stitch the worker span trees in BEFORE the flight recorder snapshots
     the trace: a slow distributed query pins the full cross-process
     picture, not just the coordinator's side. *)
  (match trace with
  | None -> ()
  | Some tr ->
      Mutex.lock grafts_m;
      let collected = !grafts in
      Mutex.unlock grafts_m;
      List.iter
        (fun (ep_str, reply) ->
          match (Json.int "pid" reply, Json.member "spans" reply) with
          | Some pid, Some spans ->
              let node = Option.value (Json.str "node" reply) ~default:"worker" in
              Trace.graft tr ~pid
                ~pname:(Printf.sprintf "%s (%s)" node ep_str)
                ~skew_us:(skew_of t ep_str) spans
          | _ -> ())
        (List.rev collected));
  let top_ops =
    Array.to_list srs
    |> List.map (fun s ->
           (Printf.sprintf "shard-%d[%s]" s.sr_shard s.sr_outcome, times.(s.sr_shard)))
  in
  let record_id =
    Gf.Recorder.record t.recorder ~query:text ~plan:"cluster" ~outcome ~latency_s:exec_s
      ~queue_s:0.0 ~rung:"cluster" ~attempts:(retries + k) ~retries ~top_ops
      ~traced:(trace <> None)
      ?trace_json:(Option.map Trace.to_chrome_json trace)
      ()
  in
  {
    r_id = id;
    r_outcome = outcome;
    r_matches = matches;
    r_incomplete = incomplete;
    r_failovers = failovers;
    r_hedges = hedges;
    r_retries = retries;
    r_rows = rows;
    r_exec_s = exec_s;
    r_trace_id = (match trace with Some _ -> Some record_id | None -> None);
    r_shards = srs;
  }

let recorder t = t.recorder

let to_reply r =
  Proto.run_resp ~id:r.r_id ~outcome:r.r_outcome ~matches:r.r_matches
    ~shards:(Array.length r.r_shards) ~incomplete:r.r_incomplete ~failovers:r.r_failovers
    ~hedges:r.r_hedges ~retries:r.r_retries ~exec_s:r.r_exec_s ?trace_id:r.r_trace_id
    ~rows:r.r_rows ()

(* ------------------------------------------------------------------ *)
(* Stats + server hook                                                 *)
(* ------------------------------------------------------------------ *)

let stats_json t =
  Mutex.lock t.m;
  let requests = t.requests
  and failovers = t.failovers
  and hedges = t.hedges
  and hedge_wins = t.hedge_wins
  and fleet = t.fleet in
  Mutex.unlock t.m;
  (* Cold cache (first scrape before the puller's first pass): pull
     synchronously so `gfq top` never renders an empty fleet. *)
  let fleet =
    if fleet = [] && not t.stopped then begin
      fleet_refresh t;
      Mutex.lock t.m;
      let f = t.fleet in
      Mutex.unlock t.m;
      f
    end
    else fleet
  in
  (* An empty histogram's quantile is NaN, which prints as null; report 0. *)
  let q_ms h p =
    let v = Metrics.quantile h p *. 1e3 in
    Json.decimals 3 (if Float.is_nan v then 0.0 else v)
  in
  let shard_latency i =
    let h = Metrics.histogram ~labels:[ ("shard", string_of_int i) ] "gf_cluster_shard_seconds" in
    Json.Obj
      [ ("shard", Int i); ("count", Int (Metrics.histogram_count h)); ("p50_ms", q_ms h 0.50);
        ("p95_ms", q_ms h 0.95); ("p99_ms", q_ms h 0.99) ]
  in
  let fleet_entry (ep, r) =
    Json.Obj
      [ ("endpoint", Str ep);
        (match r with Ok stats -> ("stats", stats) | Error e -> ("error", Str e)) ]
  in
  let req_h = Metrics.histogram "gf_cluster_request_seconds" in
  Json.to_string
    (Obj
       [ ("ok", Bool true); ("type", Str "cluster_stats"); ("node", Str t.cfg.node);
         ("shards", Int (Topology.num_shards t.topo)); ("requests", Int requests);
         ("failovers", Int failovers); ("hedges", Int hedges); ("hedge_wins", Int hedge_wins);
         ("p50_ms", q_ms req_h 0.50); ("p95_ms", q_ms req_h 0.95); ("p99_ms", q_ms req_h 0.99);
         ( "breakers",
           Arr
             (Array.to_list t.breakers
             |> List.map (fun b -> Json.Str (Breaker.state_to_string (Breaker.state b)))) );
         ( "health",
           Arr
             (Health.snapshot t.health
             |> List.map (fun (ep, st) ->
                    Json.Obj
                      [ ("endpoint", Str ep); ("status", Str (Health.status_to_string st)) ])) );
         ("shard_latency", Arr (List.init (Topology.num_shards t.topo) shard_latency));
         ("fleet", Arr (List.map fleet_entry fleet)) ])

let hook t line : [ `Reply of string | `Close | `Pass ] =
  let trimmed = String.trim line in
  match Wire.parse_request trimmed with
  | Ok (Wire.Run req) ->
      let text = if req.Service.text = "" then trimmed else req.Service.text in
      `Reply (to_reply (run t ~text req))
  | Ok Wire.Stats -> `Reply (stats_json t)
  | Ok (Wire.Slowlog n) -> `Reply (Wire.slowlog_resp (Gf.Recorder.recent t.recorder n))
  | Ok (Wire.Trace_of id) -> (
      match Gf.Recorder.find_trace t.recorder id with
      | Some json -> `Reply (Wire.trace_resp ~id json)
      | None -> `Reply (Wire.trace_not_found id))
  | Ok (Wire.Mutate _) ->
      `Reply
        (Wire.error_resp ~kind:"read_only"
           ~detail:
             "cluster coordinator is read-only: apply mutations on the shard owner's store")
  | Ok _ | Error _ -> `Pass
