(* The traced run: the workload's seeded request stream replayed through
   each layer's public entry point in turn, with a bench-owned span around
   every call. A layer's self time is the outer call minus the inner calls
   it contains, measured on the same request. *)

module Gf = Graphflow
module Service = Gf_server.Service
module Wire = Gf_server.Wire
module Trace = Gf.Trace

let now = Unix.gettimeofday

(* Time [f], recording a span around it when a buffer is given. *)
let timed ?buf name f =
  match buf with
  | None ->
      let t0 = now () in
      let r = f () in
      (now () -. t0, r)
  | Some b ->
      Trace.span ~cat:"bench" b name (fun () ->
          let t0 = now () in
          let r = f () in
          (now () -. t0, r))

let request_of line =
  match Wire.parse_request line with
  | Ok (Wire.Run r) -> r
  | Ok _ | Error _ -> failwith ("not a run request: " ^ line)

(* The replayed sequence: one warm-up pass over the pool (as every server
   start does), then the first [traced_reads] requests of the seeded read
   stream. *)
let sequence (spec : Workload.spec) (inp : Workload.inputs) =
  let warm =
    Array.mapi (fun i line -> { Streams.line; query = inp.pool.(i); pool = Some i }) inp.warmup
  in
  let stream = Array.init spec.traced_reads (fun _ -> inp.read ()) in
  Array.append warm stream

(* ------------------------------------------------------------------ *)
(* Db, Planner/Plan_cache, Exec, Wire parsing: one in-process pass     *)
(* ------------------------------------------------------------------ *)

type db_pass = {
  wall : float;
  parse : float array;
  plan_first : float array;  (** the request's own plan-cache lookup *)
  missed : bool array;  (** that lookup planned from scratch (miss or replan) *)
  exec : float array;
  db_self : float array;
  counters : Gf.Counters.t;
  outputs : int array;
  lookups_hit : int;
  evictions : int;
  catalog_entries : int;
  disagreements : int;  (** [Db.run_gov] and [Exec.run_gov] counted differently *)
}

let db_pass ?buf g (seq : Streams.read array) =
  let db = Gf.Db.create ~plan_cache:(Gf.Plan_cache.create ()) g in
  let cache = Option.get (Gf.Db.plan_cache db) in
  let n = Array.length seq in
  let f () = Array.make n 0. in
  let parse = f () and plan_first = f () and exec = f () and db_self = f () in
  let missed = Array.make n false and outputs = Array.make n 0 in
  let total = Gf.Counters.create () in
  let hits = ref 0 and disagreements = ref 0 in
  let t0 = now () in
  Array.iteri
    (fun i (r : Streams.read) ->
      let one () =
        let tp, req = timed ?buf "Wire.parse_request" (fun () -> request_of r.line) in
        let q = req.Service.query in
        let before = Gf.Plan_cache.stats cache in
        let tplan, (plan, _) = timed ?buf "Db.plan" (fun () -> Gf.Db.plan db q) in
        let after = Gf.Plan_cache.stats cache in
        if after.hits > before.hits then incr hits;
        missed.(i) <- after.hits = before.hits;
        let texec, (c, _) = timed ?buf "Exec.run_gov" (fun () -> Gf.Exec.run_gov g plan) in
        let thit, _ = timed ?buf "Db.plan (hit)" (fun () -> Gf.Db.plan db q) in
        let tdb, (c', _) = timed ?buf "Db.run_gov" (fun () -> Gf.Db.run_gov db q) in
        if c'.Gf.Counters.output <> c.Gf.Counters.output then incr disagreements;
        Gf.Counters.add total c;
        parse.(i) <- tp;
        plan_first.(i) <- tplan;
        exec.(i) <- texec;
        db_self.(i) <- tdb -. thit -. texec;
        outputs.(i) <- c.Gf.Counters.output
      in
      match buf with Some b -> Trace.span ~cat:"bench" b "request" one | None -> one ())
    seq;
  let s = Gf.Plan_cache.stats cache in
  {
    wall = now () -. t0;
    parse;
    plan_first;
    missed;
    exec;
    db_self;
    counters = total;
    outputs;
    lookups_hit = !hits;
    evictions = s.evictions;
    catalog_entries = Gf.Catalog.num_entries (Gf.Db.catalog db);
    disagreements = !disagreements;
  }

(* The pass's counts: totals over the sequence, exactly repeatable for a
   seed because the pass is single-threaded. *)
let counts d =
  let c = d.counters and fn = float_of_int in
  [
    ("exec.icost", fn c.icost);
    ("exec.intermediate", fn (Gf.Counters.intermediate c));
    ("exec.intersections", fn c.intersections);
    ("exec.hj_build_tuples", fn c.hj_build_tuples);
    ("exec.hj_probe_tuples", fn c.hj_probe_tuples);
    ("plan_cache.evictions", fn d.evictions);
    ("catalog.entries", fn d.catalog_entries);
  ]

(* ------------------------------------------------------------------ *)
(* Service/Ladder and Wire encoding: the in-process service            *)
(* ------------------------------------------------------------------ *)

type service_pass = {
  self : float array;  (** submit wall time minus the reply's exec_s *)
  queue : float array;
  encode : float array;
  reply_bytes : float array;
  retries : int;
  minor_words : float;
  major : int;
}

let service_pass ~buf g (seq : Streams.read array) =
  let svc = Service.create (Gf.Db.create ~plan_cache:(Gf.Plan_cache.create ()) g) in
  let n = Array.length seq in
  let self = Array.make n 0. and queue = Array.make n 0. in
  let encode = Array.make n 0. and bytes = Array.make n 0. in
  let retries = ref 0 in
  let submit i =
    let req = request_of seq.(i).Streams.line in
    let t, reply = timed ~buf "Service.submit" (fun () -> Service.submit svc req) in
    match reply with
    | Error reason ->
        failwith ("service shed a replayed request: " ^ Service.reject_reason_to_string reason)
    | Ok reply ->
        let te, line = timed ~buf "Wire.ok_run" (fun () -> Wire.ok_run ~reply) in
        self.(i) <- t -. reply.Service.exec_s;
        queue.(i) <- reply.Service.queue_s;
        encode.(i) <- te;
        bytes.(i) <- float_of_int (String.length line);
        retries := !retries + reply.Service.result.Gf_server.Ladder.retries
  in
  let g0 = Gc.quick_stat () in
  for i = 0 to n - 1 do
    submit i
  done;
  let g1 = Gc.quick_stat () in
  Service.drain svc;
  {
    self;
    queue;
    encode;
    reply_bytes = bytes;
    retries = !retries;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major = g1.Gc.major_collections - g0.Gc.major_collections;
  }

(* ------------------------------------------------------------------ *)
(* Sorted: the intersection kernel on the workload's own graph         *)
(* ------------------------------------------------------------------ *)

(* [Sorted.intersect2] over the forward lists of both endpoints of 20k
   sampled edges, restricted to the second endpoint's label: the
   intersection a triangle-closing E/I performs. Nanoseconds per input
   element, best of five passes. *)
let sorted_ns_per_elem ?buf ~seed g =
  let rng = Gf.Rng.create (seed + 7919) in
  let edges = Gf.Graph.edge_array g in
  let pairs =
    Array.init 20_000 (fun _ ->
        let u, v, _ = edges.(Gf.Rng.int rng (Array.length edges)) in
        let nlabel = Gf.Graph.vlabel g v in
        ( Gf.Graph.neighbours g Gf.Graph.Fwd u ~elabel:0 ~nlabel,
          Gf.Graph.neighbours g Gf.Graph.Fwd v ~elabel:0 ~nlabel ))
  in
  let elems =
    Array.fold_left (fun a (x, y) -> a + Gf.Sorted.slice_len x + Gf.Sorted.slice_len y) 0 pairs
  in
  let out = Gf.Int_vec.create () in
  let pass () =
    fst
      (timed ?buf "Sorted.intersect2 x20k" (fun () ->
           Array.iter
             (fun ((a, alo, ahi), (b, blo, bhi)) ->
               Gf.Int_vec.clear out;
               Gf.Sorted.intersect2 out a alo ahi b blo bhi)
             pairs))
  in
  let best = List.fold_left Float.min infinity (List.init 5 (fun _ -> pass ())) in
  best *. 1e9 /. float_of_int (max 1 elems)

(* ------------------------------------------------------------------ *)
(* Server: the same sequence against the spawned process               *)
(* ------------------------------------------------------------------ *)

(* Client round trip minus the reply's own queue and exec time: socket,
   framing, parsing and encoding on both sides, on one connection as in
   the untraced run. *)
let server_pass ~buf socket (seq : Streams.read array) =
  Serve.with_conn socket (fun c ->
      Array.map
        (fun (r : Streams.read) ->
          let rtt, reply = timed ~buf "server round trip" (fun () -> Serve.ask c r.line) in
          match Json.parse reply with
          | Ok j -> (
              let num k = Option.bind (Json.member k j) Json.to_num in
              match (num "queue_s", num "exec_s", num "matches") with
              | Some q, Some e, Some m -> (rtt, q, e, int_of_float m)
              | _ -> failwith ("server reply without timings: " ^ reply))
          | Error _ -> failwith ("malformed server reply: " ^ reply))
        seq)

(* ------------------------------------------------------------------ *)
(* Coordinator: in-process fan-out against the spawned workers         *)
(* ------------------------------------------------------------------ *)

let cluster_pass ~buf ~workers (seq : Streams.read array) =
  let topo =
    match
      Gf_cluster.Topology.parse
        (Printf.sprintf "shard 0 unix:%s unix:%s\nshard 1 unix:%s unix:%s\n" workers.(0)
           workers.(1) workers.(1) workers.(0))
    with
    | Ok t -> t
    | Error m -> failwith m
  in
  let coord = Gf_cluster.Coordinator.create topo in
  let conns = Array.map Serve.connect workers in
  let rows =
    Array.map
      (fun (r : Streams.read) ->
        let req = request_of r.line in
        let text = req.Service.text in
        let run, res =
          timed ~buf "Coordinator.run" (fun () -> Gf_cluster.Coordinator.run coord ~text req)
        in
        if res.Gf_cluster.Coordinator.r_outcome <> "completed" then
          failwith ("coordinator: " ^ res.Gf_cluster.Coordinator.r_outcome);
        let shard i =
          fst
            (timed ~buf (Printf.sprintf "shard %d/2 direct" i) (fun () ->
                 Serve.ask conns.(i) (Gf_cluster.Proto.shard_req ~part:(i, 2) ~rows:false text)))
        in
        let s = Array.init 2 shard in
        (run, Float.max s.(0) s.(1), Float.min s.(0) s.(1), res.Gf_cluster.Coordinator.r_hedges))
      seq
  in
  Array.iter Serve.close conns;
  Gf_cluster.Coordinator.stop coord;
  rows

(* ------------------------------------------------------------------ *)
(* Store/Wal/Delta: the mutation stream on a temporary store           *)
(* ------------------------------------------------------------------ *)

type store_pass = {
  append : float array;
  sync : float array;
  merge : float array;
  wal_bytes : int;
  merges : int;
  invalidations : int;
}

let mutations_replayed = 1200
let merge_every = 300

(* Each mutation is appended, then synced before the next — what a server
   acknowledging one writer's mutations does. A serving [Service] is
   attached so merges re-seat its Db exactly as in [gfq serve]. *)
let store_pass ~buf ~dir g next =
  let st =
    match Gf_wal.Store.open_store ~init:g dir with
    | Ok st -> st
    | Error e -> failwith (Gf_wal.Store.open_error_to_string e)
  in
  let svc = Service.create (Gf.Db.create ~plan_cache:(Gf.Plan_cache.create ()) g) in
  Service.attach_store svc st;
  let ok = function Ok _ -> () | Error e -> failwith (Gf_wal.Store.mut_error_to_string e) in
  let append = Array.make mutations_replayed 0. and sync = Array.make mutations_replayed 0. in
  let merges = ref [] and auto = ref 0 in
  for i = 0 to mutations_replayed - 1 do
    let v = Gf_wal.Store.graph_version st in
    let ta, () =
      timed ~buf "Store.add_edge/del_edge" (fun () ->
          match next () with
          | Streams.Add (u, v) -> ok (Gf_wal.Store.add_edge st u v ~elabel:0)
          | Streams.Del (u, v) -> ok (Gf_wal.Store.del_edge st u v ~elabel:0))
    in
    if Gf_wal.Store.graph_version st <> v then incr auto;
    let ts, () = timed ~buf "Store.sync" (fun () -> ok (Gf_wal.Store.sync st)) in
    append.(i) <- ta;
    sync.(i) <- ts;
    if (i + 1) mod merge_every = 0 then
      let tm, () = timed ~buf "Store.merge_now" (fun () -> ignore (Gf_wal.Store.merge_now st)) in
      merges := tm :: !merges
  done;
  let wal_bytes =
    Array.fold_left
      (fun a f ->
        if Filename.check_suffix f ".log" then
          a + (Unix.stat (Filename.concat dir f)).Unix.st_size
        else a)
      0 (Sys.readdir dir)
  in
  let invalidations = (Service.stats svc).Service.s_plan_cache_invalidations in
  Service.drain svc;
  Gf_wal.Store.close st;
  {
    append;
    sync;
    merge = Array.of_list !merges;
    wal_bytes;
    merges = !auto + List.length !merges;
    invalidations;
  }

(* ------------------------------------------------------------------ *)
(* The traced run                                                      *)
(* ------------------------------------------------------------------ *)

let p50 xs = Stats.median xs
let us x = x *. 1e6
let ms x = x *. 1e3

let run ~gfq ~dir ~out ~seed (spec : Workload.spec) =
  let open Workload in
  let inp = inputs spec ~seed in
  let seq = sequence spec inp in
  let n = Array.length seq in
  let oracle = Gf.Db.create inp.graph in
  let expected = Array.map (fun (r : Streams.read) -> Gf.Db.count oracle r.query) seq in
  let procs = start ~gfq (roles spec ~dir inp.graph) in
  let sock name =
    (List.find (fun p -> p.Serve.role.Serve.name = name) procs).Serve.role.Serve.socket
  in
  (* Buffers hold every span of the run, so none is dropped. *)
  let trace = Trace.create ~capacity:((16 * n) + (4 * mutations_replayed) + 64) () in
  let main = Trace.buffer ~name:"replay" trace ~tid:1 in
  let ns_per_elem = sorted_ns_per_elem ~buf:main ~seed inp.graph in
  (* The same db pass without spans, before and after the traced one, for
     the tracing overhead: their mean cancels a steady warm-up. *)
  let plain () = (db_pass inp.graph seq).wall in
  let before = plain () in
  let dbp = Trace.span ~cat:"bench" main "db pass" (fun () -> db_pass ~buf:main inp.graph seq) in
  let untraced = (before +. plain ()) /. 2. in
  let svp =
    let buf = Trace.buffer ~name:"service client" trace ~tid:2 in
    Trace.span ~cat:"bench" main "service pass" (fun () -> service_pass ~buf inp.graph seq)
  in
  let server_sock = match spec.kind with Cluster -> sock "w0" | _ -> sock "server" in
  let srv =
    let buf = Trace.buffer ~name:"server client" trace ~tid:10 in
    Trace.span ~cat:"bench" main "server pass" (fun () -> server_pass ~buf server_sock seq)
  in
  let cluster =
    match spec.kind with
    | Cluster ->
        Some
          (Trace.span ~cat:"bench" main "cluster pass" (fun () ->
               cluster_pass ~buf:main ~workers:[| sock "w0"; sock "w1" |] seq))
    | _ -> None
  in
  let store =
    match (spec.kind, inp.writes) with
    | Read_write, Some next ->
        Some
          (Trace.span ~cat:"bench" main "store pass" (fun () ->
               store_pass ~buf:main ~dir:(Filename.concat dir "replay-store") inp.graph next))
    | _ -> None
  in
  List.iter Serve.kill9 procs;
  let file = Filename.concat out (Printf.sprintf "trace-%s.json" spec.name) in
  Serve.mkdir_p out;
  Out_channel.with_open_text file (fun oc -> output_string oc (Trace.to_chrome_json trace));
  (* Correctness: every path must have counted what the oracle counted. *)
  let wrong = ref dbp.disagreements in
  Array.iteri
    (fun i e ->
      if dbp.outputs.(i) <> e then incr wrong;
      let _, _, _, m = srv.(i) in
      if m <> e then incr wrong)
    expected;
  let c = dbp.counters in
  let texec = Stats.sum dbp.exec in
  let counts = List.map (fun (name, v) -> metric name v "count") (counts dbp) in
  let lookups missed =
    Array.of_list
      (List.filteri (fun i _ -> dbp.missed.(i) = missed) (Array.to_list dbp.plan_first))
  in
  let hits = lookups false and misses = lookups true in
  let rtt_self = Array.map (fun (rtt, q, e, _) -> rtt -. q -. e) srv in
  let fn = float_of_int in
  let metrics =
    [
      metric "sorted.ns_per_elem" ns_per_elem "ns" ~note:"Sorted.intersect2, 20k edge pairs, best of 5";
      metric "exec.ms_p50" (ms (p50 dbp.exec)) "ms"
        ~note:(Printf.sprintf "Exec.run_gov, %d requests" n);
    ]
    @ counts
    @ [
      metric "exec.cache_hit_ratio"
        (fn c.cache_hits /. fn (max 1 (c.cache_hits + c.intersections)))
        "ratio" ~note:"base: cache hits + intersections";
      metric "plan.hit_us_p50" (us (p50 hits)) "us" ~note:(Printf.sprintf "%d hits" (Array.length hits));
      metric "plan.miss_ms_p50" (ms (p50 misses)) "ms"
        ~note:(Printf.sprintf "%d misses and replans" (Array.length misses));
      metric "plan_cache.hit_ratio" (fn dbp.lookups_hit /. fn n) "ratio"
        ~note:(Printf.sprintf "base: %d lookups, warm-up included" n);
      metric "service.self_us_p50" (us (p50 svp.self)) "us" ~note:"Service.submit - reply exec_s";
      metric "service.queue_ms_p50" (ms (p50 svp.queue)) "ms" ~note:"reply queue_s, 1 client";
      metric "ladder.retries" (fn svp.retries) "count";
      metric "wire.parse_us_p50" (us (p50 dbp.parse)) "us" ~note:"Wire.parse_request";
      metric "wire.encode_us_p50" (us (p50 svp.encode)) "us" ~note:"Wire.ok_run";
      metric "wire.reply_bytes_p50" (p50 svp.reply_bytes) "bytes";
      metric "server.rtt_self_us_p50" (us (p50 rtt_self)) "us"
        ~note:
          (Printf.sprintf "client RTT - queue_s - exec_s against %s"
             (Filename.basename server_sock));
      metric "gc.minor_words_per_req" (svp.minor_words /. fn n) "words" ~note:"service pass";
      metric "gc.major_per_1k_req" (fn svp.major *. 1000. /. fn n) "count" ~note:"service pass";
    ]
  in
  (* Printed but not in the result line: db.self and the tracing overhead
     are differences of separately timed calls and can read negative, and
     est_share is a bound that can exceed 1 (see README). *)
  let extra =
    [
      metric "db.self_us_p50" (us (p50 dbp.db_self)) "us" ~note:"Db.run_gov - Db.plan - Exec.run_gov";
      metric "sorted.est_share" (fn c.icost *. ns_per_elem *. 1e-9 /. texec) "ratio"
        ~note:"icost x ns_per_elem / Exec.run_gov time";
      metric "trace.overhead_pct" ((dbp.wall -. untraced) /. untraced *. 100.) "%"
        ~note:"db pass with spans vs the mean of one before and one after without";
      metric "exec.output" (fn c.output) "count" ~note:"matches over the sequence";
      metric "trace.dropped" (fn (Trace.dropped trace)) "count";
    ]
    @
    (match store with
    | None -> []
    | Some s ->
        [
          metric "wal.append_us_p50" (us (p50 s.append)) "us"
            ~note:(Printf.sprintf "Store.add_edge/del_edge, %d mutations" mutations_replayed);
          metric "wal.sync_us_p50" (us (p50 s.sync)) "us" ~note:"Store.sync after each";
          metric "wal.bytes_per_mutation" (fn s.wal_bytes /. fn mutations_replayed) "bytes";
          metric "store.merge_ms_p50" (ms (p50 s.merge)) "ms"
            ~note:(Printf.sprintf "Store.merge_now every %d" merge_every);
          metric "store.merges" (fn s.merges) "count";
          metric "catalog.invalidations" (fn s.invalidations) "count" ~note:"Service.stats";
        ])
    @
    match cluster with
    | None -> []
    | Some rows ->
        let col f = Array.map f rows in
        let run = col (fun (r, _, _, _) -> r) and smax = col (fun (_, m, _, _) -> m) in
        let smin = col (fun (_, _, m, _) -> m) in
        [
          metric "coord.run_ms_p50" (ms (p50 run)) "ms" ~note:"Coordinator.run, default config";
          metric "cluster.shard_max_ms_p50" (ms (p50 smax)) "ms" ~note:"slowest part sent directly";
          metric "cluster.shard_min_ms_p50" (ms (p50 smin)) "ms";
          metric "coord.self_ms_p50" (ms (p50 (Array.mapi (fun i r -> r -. smax.(i)) run))) "ms"
            ~note:"Coordinator.run - slowest shard";
          metric "cluster.straggler_ratio" (p50 (Array.mapi (fun i m -> m /. smin.(i)) smax)) "ratio"
            ~note:"base: fastest shard";
          metric "coord.hedges" (fn (Array.fold_left (fun a (_, _, _, h) -> a + h) 0 rows)) "count";
        ]
  in
  (* Self time by layer for the mean request of the server pass, from the
     same requests' in-process timings; what none of them covers is
     printed as the unattributed remainder. *)
  let mean_us xs = us (Stats.mean xs) in
  let rtt = mean_us (Array.map (fun (r, _, _, _) -> r) srv) in
  let rows =
    [
      ("Server/Wire (round trip - queue - exec)", mean_us rtt_self);
      ("Service queue", mean_us (Array.map (fun (_, q, _, _) -> q) srv));
      ("Service/Ladder (submit - exec_s)", mean_us svp.self);
      ("Db (self)", mean_us dbp.db_self);
      ("Planner/Plan_cache", mean_us dbp.plan_first);
      ("Exec (Sorted included)", mean_us dbp.exec);
    ]
  in
  let attributed = List.fold_left (fun a (_, x) -> a +. x) 0. rows in
  Printf.printf "  self time per request by layer (mean of %d server round trips, %.1f us):\n" n
    rtt;
  let row (name, x) = Printf.printf "    %-42s %12.1f us %6.1f%%\n" name x (x /. rtt *. 100.) in
  List.iter row (rows @ [ ("unattributed", rtt -. attributed) ]);
  (* icost counts whole lists while galloping touches fewer elements of a
     long one, so on skewed graphs this bound can exceed Exec itself. *)
  row ("  of Exec, Sorted (icost bound)", fn c.icost *. ns_per_elem *. 1e-3 /. fn n);
  Printf.printf "  trace: %s (%d spans, %d dropped)\n" file (List.length (Trace.spans trace))
    (Trace.dropped trace);
  {
    workload = spec.name;
    seed;
    traced = true;
    correct = !wrong = 0;
    attempted = n;
    failed = !wrong;
    metrics;
    extra;
    kernel = Gf.Sorted.kernel_name ();
  }
