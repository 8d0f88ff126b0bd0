(* The four serving workloads: their inputs, the server processes they
   start, and the untraced end-to-end measurement. *)

module Gf = Graphflow

type kind = Wco_heavy | Labeled_short | Read_write | Cluster

type spec = {
  kind : kind;
  name : string;
  dataset : Gf.Generators.dataset_name;
  scale : float;
  tail : float;  (** the percentile [query_tail_ms] reports *)
  scaled : bool;
      (** whether timings are scaled to nominal speed and reads hit by steal
          are left out of them (see {!Calib}) *)
  traced_reads : int;  (** fixed request count of the traced replay *)
  rss_reads : int;  (** reads after which [server_rss_mb] is read *)
}

(* [tail] is the highest of p99/p95/p90 with at least ten samples beyond
   it in a 40-second window even on a host slow enough to halve
   throughput: about 3,000 reads on labeled-short, 300 on wco-heavy and
   80 on cluster-1x2 then. It is fixed per workload, so a change that adds
   samples does not change which percentile is compared. cluster-1x2 is
   not scaled: its latency is mostly the coordinator's hedge timer (see
   README, Findings), which no host speed changes, and its processes share
   both CPUs. *)
let specs =
  [
    {
      kind = Wco_heavy;
      scaled = true;
      name = "wco-heavy";
      dataset = Gf.Generators.Google;
      scale = 0.5;
      tail = 95.;
      traced_reads = 35;
      rss_reads = 200;
    };
    {
      kind = Labeled_short;
      scaled = true;
      name = "labeled-short";
      dataset = Gf.Generators.Human;
      scale = 1.0;
      tail = 99.;
      traced_reads = 600;
      rss_reads = 2_000;
    };
    {
      kind = Read_write;
      scaled = true;
      name = "read-write";
      dataset = Gf.Generators.Human;
      scale = 1.0;
      tail = 99.;
      traced_reads = 600;
      rss_reads = 2_000;
    };
    {
      kind = Cluster;
      scaled = false;
      name = "cluster-1x2";
      dataset = Gf.Generators.Amazon;
      scale = 1.0;
      tail = 90.;
      traced_reads = 12;
      rss_reads = 50;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) specs

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

(* Everything a run sends, derived from the seed in a fixed order: the
   template pool, the read stream, then the mutation stream. *)
type inputs = {
  graph : Gf.Graph.t;
  pool : Gf.Query.t array;
  warmup : string array;  (** one line per distinct pool query *)
  read : unit -> Streams.read;
  writes : (unit -> Streams.mutation) option;
}

let pool_size = 300

let inputs spec ~seed =
  let g = Gf.Generators.dataset ~scale:spec.scale spec.dataset in
  let master = Gf.Rng.create seed in
  let pool_rng = Gf.Rng.split master in
  let named ids =
    let names = Array.of_list (List.map Streams.q_named ids) in
    ( Array.map snd names,
      Array.map (fun (n, _) -> "run q=" ^ n) names,
      Streams.named_reads names )
  in
  let pool, warmup, reader =
    match spec.kind with
    | Wco_heavy -> named [ 1; 3; 4; 5; 6; 7; 14 ]
    | Cluster -> named [ 1; 3; 5; 8 ]
    | Labeled_short | Read_write ->
        let pool = Streams.labeled_pool g pool_rng ~size:pool_size in
        ( pool,
          Array.map (fun q -> "run q=" ^ Streams.render pool_rng q) pool,
          fun rng -> Streams.labeled_reads g ~pool rng )
  in
  let read = reader (Gf.Rng.split master) in
  let writes =
    match spec.kind with
    | Read_write -> Some (Streams.mutations g (Gf.Rng.split master))
    | _ -> None
  in
  { graph = g; pool; warmup; read; writes }

(* ------------------------------------------------------------------ *)
(* Server processes                                                    *)
(* ------------------------------------------------------------------ *)

(* The roles a workload runs, in start order, each with default flags.
   The client talks to the last role. *)
let roles spec ~dir g =
  let path f = Filename.concat dir f in
  let with_socket name args =
    let socket = path (name ^ ".sock") in
    { Serve.name; argv = Array.append args [| "--socket"; socket |]; socket; log = path (name ^ ".log") }
  in
  let snapshot () =
    let store = path "store" in
    Serve.mkdir_p store;
    Gf.Graph_io.save_snapshot g (Filename.concat store "snap.0000000000000001.gfq");
    store
  in
  let text () =
    let file = path "graph.txt" in
    Gf.Graph_io.save g file;
    file
  in
  match spec.kind with
  | Wco_heavy -> [ [ with_socket "server" [| "--attach-snapshot"; snapshot () |] ] ]
  | Labeled_short -> [ [ with_socket "server" [| "--graph"; text () |] ] ]
  | Read_write ->
      (* The genesis graph is passed on every start: a store that never
         checkpointed cannot restart without it (see README, Findings). *)
      [ [ with_socket "server" [| "--data-dir"; path "data"; "--graph"; text () |] ] ]
  | Cluster ->
      let store = snapshot () in
      let worker i =
        with_socket (Printf.sprintf "w%d" i)
          [| "--worker"; Printf.sprintf "w%d" i; "--attach-snapshot"; store |]
      in
      let conf = path "workers.conf" in
      Out_channel.with_open_text conf (fun oc ->
          Printf.fprintf oc "shard 0 unix:%s unix:%s\nshard 1 unix:%s unix:%s\n" (path "w0.sock")
            (path "w1.sock") (path "w1.sock") (path "w0.sock"));
      [ [ worker 0; worker 1 ]; [ with_socket "coordinator" [| "--coordinator"; conf |] ] ]

(* Where the processes run, given two allowed CPUs or more: this process
   (the clients) on the first, a lone server on the others, and a
   cluster's processes on all of them, since pinning those together would
   serialize shards that otherwise run in parallel. Unpinned, the scheduler
   sometimes kept a client and the server on one CPU for a whole run, and
   such runs read up to a third slower than the rest. Decided once: after
   pinning, this process is allowed only its own CPU. *)
let placement =
  lazy
    (match Serve.allowed_cpus () with
    | first :: (_ :: _ as rest) when Serve.pin_self [ first ] -> Some (first, rest)
    | _ -> None)

(* The CPUs the servers of [stages] run on; [None] when nothing is pinned. *)
let server_cpus stages =
  let lone = List.length (List.concat stages) = 1 in
  Option.map (fun (first, rest) -> if lone then rest else first :: rest) (Lazy.force placement)

(* Start each stage's processes, waiting for a stage to listen before the
   next starts (the coordinator dials its workers). *)
let start ~gfq stages =
  let cpus = server_cpus stages in
  List.concat_map
    (fun stage ->
      let ps = List.map (Serve.spawn ~gfq ?cpus) stage in
      List.iter (fun p -> Serve.wait_listening p) ps;
      ps)
    stages

(* ------------------------------------------------------------------ *)
(* Reply verdicts                                                      *)
(* ------------------------------------------------------------------ *)

(* A read fails if its reply is not ok, is shed, has an outcome other than
   completed (a partial cluster reply included), or is malformed. *)
let read_verdict reply =
  match Json.parse reply with
  | Error m -> Error ("malformed reply: " ^ m)
  | Ok j -> (
      match (Json.member "ok" j, Json.member "outcome" j, Json.member "matches" j) with
      | Some (Json.Bool true), Some (Json.Str "completed"), Some (Json.Num m) -> Ok (int_of_float m)
      | Some (Json.Bool true), Some (Json.Str o), _ -> Error ("outcome " ^ o)
      | _ -> Error reply)

let replied_true key reply =
  match Json.parse reply with Ok j -> Json.member key j = Some (Json.Bool true) | Error _ -> false

let mutation_acked reply = replied_true "ok" reply && replied_true "applied" reply

let ask_count conn line =
  let reply = Serve.ask conn line in
  match read_verdict reply with Ok m -> m | Error e -> failwith (line ^ ": " ^ e)

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit : string; note : string }

let metric ?(note = "") name value unit = { name; value; unit; note }

type result = {
  workload : string;
  seed : int;
  traced : bool;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;  (** the BENCHMARK.json metrics of this mode *)
  extra : metric list;  (** printed and recorded; specific to this workload *)
  kernel : string;
}

(* ------------------------------------------------------------------ *)
(* The untraced run                                                    *)
(* ------------------------------------------------------------------ *)

(* [seg]: the request ran between calibration samples [seg] and [seg + 1]. *)
type sample = { lat : float; reply : string; seg : int }

(* Seconds of load between calibration samples. The host changes speed
   within a second, so a sample must sit close to the requests it scales;
   one sample takes 2-4 ms of the window. *)
let calib_every = 0.05

(* A closed loop on one connection until [deadline]: the next request is
   sent only once the previous reply is in. Replies are judged after the
   window so the client spends no CPU on them while the server works. With
   [calib], a calibration sample is taken before the first request, between
   requests every [calib_every] seconds, and after the last request; the
   samples, each with the steal ticks read just after it, are returned with
   the requests. [after = (n, f)] runs [f] once [n] requests are done. *)
let closed_loop ?calib ?(after = (0, ignore)) socket ~deadline next line_of =
  let cals = ref [] and n_cals = ref 0 and due = ref 0. and n_done = ref 0 in
  let calibrate sample =
    let ms = sample () in
    cals := (ms, Calib.steal_ticks ()) :: !cals;
    incr n_cals;
    due := Unix.gettimeofday () +. calib_every
  in
  Serve.with_conn socket (fun conn ->
      Option.iter calibrate calib;
      let rec go acc =
        let now = Unix.gettimeofday () in
        if now >= deadline then List.rev acc
        else begin
          if now >= !due then Option.iter calibrate calib;
          let x = next () in
          let t0 = Unix.gettimeofday () in
          let reply = Serve.ask conn (line_of x) in
          let lat = Unix.gettimeofday () -. t0 in
          incr n_done;
          if !n_done = fst after then snd after ();
          go ((x, { lat; reply; seg = !n_cals - 1 }) :: acc)
        end
      in
      let out = go [] in
      Option.iter calibrate calib;
      (out, Array.of_list (List.rev !cals)))

(* Each client runs in its own domain, so read-write's reader and writer
   never wait for each other's turn on one runtime lock between a reply
   arriving and its timestamp being taken. *)
let in_parallel fs = List.map Domain.join (List.map Domain.spawn fs)

(* Set-up is measured over this many cold starts, crash recovery over
   [restarts] kill -9s. *)
let cold_starts = 3
let restarts = 3

type recovery = { restarts : float array; lost : int; store_wrong : int }

(* read-write after its window: kill -9 the server and time it back to
   listening [restarts] times (each restart replays the whole WAL), then
   checkpoint and read the snapshot back. It must hold exactly genesis plus
   the acknowledged mutations, and the server's answers for 20 pool
   templates must match an oracle on that graph. *)
let recover ~dir inp server acked =
  let server = ref server in
  let restarts =
    Array.init restarts (fun _ ->
        let t0 = Unix.gettimeofday () in
        Serve.kill9 !server;
        server := Serve.respawn !server;
        Serve.wait_listening !server;
        Unix.gettimeofday () -. t0)
  in
  let socket = !server.Serve.role.Serve.socket in
  Serve.with_conn socket (fun c ->
      let reply = Serve.ask c "checkpoint" in
      if not (replied_true "ok" reply) then
        failwith ("checkpoint refused: " ^ reply));
  let stored =
    match Gf_wal.Store.attach_snapshot (Filename.concat dir "data") with
    | Ok (_, _, g) -> g
    | Error m -> failwith ("reading the checkpoint back: " ^ m)
  in
  let truth = Streams.apply_mutations inp.graph acked in
  let edge_set g =
    let h = Hashtbl.create (Gf.Graph.num_edges g) in
    Array.iter (fun e -> Hashtbl.replace h e ()) (Gf.Graph.edge_array g);
    h
  in
  let on_disk = edge_set stored and want = edge_set truth in
  let lost =
    List.length
      (List.filter
         (function
           | Streams.Add (u, v) -> not (Hashtbl.mem on_disk (u, v, 0))
           | Streams.Del (u, v) -> Hashtbl.mem on_disk (u, v, 0))
         acked)
  in
  (* Any other difference (an edge nobody wrote, a genesis edge gone) is a
     wrong store as well. *)
  let missing a b = Hashtbl.fold (fun e () n -> if Hashtbl.mem b e then n else n + 1) a 0 in
  let oracle = Gf.Db.create truth in
  let mismatched =
    Serve.with_conn socket (fun c ->
        List.length
          (List.filter
             (fun i -> ask_count c inp.warmup.(i) <> Gf.Db.count oracle inp.pool.(i))
             (List.init 20 Fun.id)))
  in
  Serve.kill9 !server;
  { restarts; lost; store_wrong = missing on_disk want + missing want on_disk - lost + mismatched }

let run ~gfq ~dir ~seed ~seconds spec =
  let inp = inputs spec ~seed in
  let stages = roles spec ~dir inp.graph in
  (* The oracle: a fresh Db with no plan cache on the bench's own copy. *)
  let oracle = Gf.Db.create inp.graph in
  let expected = Array.map (Gf.Db.count oracle) inp.pool in
  let cal = if spec.scaled then Some (Calib.start ?cpus:(server_cpus stages) Sys.executable_name) else None in
  let sample () = match cal with Some c -> Calib.sample c | None -> Calib.nominal_ms in
  (* Set-up: spawn to listening plus one warm-up pass over the pool, scaled
     by calibration samples taken just before and after. The first cold
     start serves the measured window and the others follow it, so the
     median samples the host before and after the window rather than one
     stretch of it. *)
  let start_once () =
    Serve.rm_rf (Filename.concat dir "data");
    let a = sample () in
    let t0 = Unix.gettimeofday () in
    let procs = start ~gfq stages in
    let client = List.nth procs (List.length procs - 1) in
    Serve.with_conn client.Serve.role.Serve.socket (fun c ->
        Array.iteri
          (fun i line ->
            let m = ask_count c line in
            if m <> expected.(i) then
              failwith (Printf.sprintf "warm-up: %s -> %d matches, expected %d" line m expected.(i)))
          inp.warmup);
    let d = Unix.gettimeofday () -. t0 in
    ((d, Calib.scale ~a ~b:(sample ()) d), procs)
  in
  let first_setup, procs = start_once () in
  let client = List.nth procs (List.length procs - 1) in
  let socket = client.Serve.role.Serve.socket in
  (* The measured window. Only the reader calibrates, between its own
     requests. *)
  let t_start = Unix.gettimeofday () in
  let deadline = t_start +. seconds in
  (* Peak resident set after a fixed number of reads, so that a fast host
     and a slow one measure it after the same work (the catalogue grows
     with every never-seen template); at the end of the window if that
     comes first. *)
  let hwm_mb () =
    float_of_int (List.fold_left (fun a p -> a + Serve.vm_hwm_kb p) 0 procs) /. 1024.
  in
  let rss_at = ref None in
  let after = (spec.rss_reads, fun () -> rss_at := Some (hwm_mb ())) in
  let reader () =
    `Reads (closed_loop ~calib:sample ~after socket ~deadline inp.read (fun r -> r.Streams.line))
  in
  let writer next () = `Writes (fst (closed_loop socket ~deadline next Streams.mutation_line)) in
  let outs = in_parallel (reader :: Option.to_list (Option.map writer inp.writes)) in
  let t_end = Unix.gettimeofday () in
  let reads, cals =
    List.find_map (function `Reads r -> Some r | `Writes _ -> None) outs |> Option.get
  in
  let writes = List.concat_map (function `Writes w -> w | `Reads _ -> []) outs in
  (* The kernel comes from a server's own stats: a coordinator's lack it. *)
  let stats = Serve.with_conn (List.hd procs).Serve.role.Serve.socket (fun c -> Serve.ask c "stats") in
  let kernel =
    match Result.map (Json.member "kernel") (Json.parse stats) with
    | Ok (Some (Json.Str k)) -> k
    | _ -> "unknown"
  in
  let rss_mb = match !rss_at with Some m -> m | None -> hwm_mb () in
  (* Judge the reads. read-write reads run against a graph that changes
     under them, so only their status is checked; the others must match
     the oracle exactly. *)
  let expect (r : Streams.read) =
    match r.pool with Some i -> expected.(i) | None -> Gf.Db.count oracle r.query
  in
  let wrong = ref 0 and read_errors = ref 0 in
  let first_error = ref None in
  let note_error e = if !first_error = None then first_error := Some e in
  let ok =
    List.filter_map
      (fun ((r : Streams.read), s) ->
        match read_verdict s.reply with
        | Error e ->
            incr read_errors;
            note_error e;
            None
        | Ok m ->
            (if spec.kind <> Read_write then
               let e = expect r in
               if m <> e then begin
                 incr wrong;
                 note_error (Printf.sprintf "%s: %d matches, expected %d" r.line m e)
               end);
            Some s)
      reads
  in
  (* Raw latencies of the reads that succeeded, and the timed ones: scaled
     to nominal speed, without the reads between two calibration samples
     that steal fell between (unless steal fell between every pair). *)
  let raw_lats = Array.of_list (List.map (fun s -> s.lat) ok) in
  let stolen s = spec.scaled && snd cals.(s.seg + 1) > snd cals.(s.seg) in
  let timed = match List.filter (fun s -> not (stolen s)) ok with [] -> ok | clean -> clean in
  let ok_lats =
    Array.of_list
      (List.map (fun s -> Calib.scale ~a:(fst cals.(s.seg)) ~b:(fst cals.(s.seg + 1)) s.lat) timed)
  in
  let acked = List.filter (fun (_, s) -> mutation_acked s.reply) writes in
  let write_errors = List.length writes - List.length acked in
  let recovery =
    match spec.kind with
    | Read_write -> Some (recover ~dir inp (List.hd procs) (List.map fst acked))
    | _ ->
        List.iter Serve.kill9 procs;
        None
  in
  let later_setups =
    List.init (cold_starts - 1) (fun _ ->
        let s, ps = start_once () in
        List.iter Serve.kill9 ps;
        s)
  in
  Option.iter Calib.stop cal;
  let raw_setups, setups = Array.split (Array.of_list (first_setup :: later_setups)) in
  Option.iter
    (fun r ->
      if r.lost > 0 then note_error (Printf.sprintf "%d acknowledged mutations lost" r.lost);
      if r.store_wrong > 0 then
        note_error (Printf.sprintf "%d differences after recovery" r.store_wrong))
    recovery;
  let lost_writes, verify_wrong =
    match recovery with Some r -> (r.lost, r.store_wrong) | None -> (0, 0)
  in
  let n_reads = List.length reads in
  let attempted = n_reads + List.length writes in
  let failed = !read_errors + !wrong + write_errors in
  Option.iter (fun e -> Printf.printf "first failure: %s\n" e) !first_error;
  let window = t_end -. t_start in
  let ms x = x *. 1e3 in
  let n_ok = Array.length ok_lats in
  let tail_note =
    Printf.sprintf "p%g of %d reads, %d beyond; the sample supports p%g" spec.tail n_ok
      (Stats.beyond ~n:n_ok spec.tail) (Stats.tail_percentile n_ok)
  in
  let mut_lats = Array.of_list (List.map (fun (_, s) -> s.lat) acked) in
  (* One closed-loop client: reads per second of round trips, the inverse
     of the mean latency. *)
  let qps lats = float_of_int (Array.length lats) /. Stats.sum lats in
  let scaled = if spec.scaled then ", at nominal speed" else ", not scaled" in
  let metrics =
    [
      metric "setup_s" (Stats.median setups) "s"
        ~note:(Printf.sprintf "median of %d cold starts%s" cold_starts scaled);
      metric "query_p50_ms" (ms (Stats.median ok_lats)) "ms"
        ~note:(Printf.sprintf "%d reads (of %d)%s" n_ok (List.length ok) scaled);
      metric "query_tail_ms" (ms (Stats.percentile ok_lats spec.tail)) "ms" ~note:(tail_note ^ scaled);
      metric "query_qps" (qps ok_lats) "1/s"
        ~note:(Printf.sprintf "1 reader, %.1f s window%s" window scaled);
      metric "server_rss_mb" rss_mb "MB"
        ~note:
          (Printf.sprintf "VmHWM over %d processes after %d reads" (List.length procs)
             (if !rss_at = None then List.length reads else spec.rss_reads));
    ]
  in
  let extra =
    (if spec.scaled then
       [
         metric "host_slowdown" (Stats.median (Array.map fst cals) /. Calib.nominal_ms) "ratio"
           ~note:(Printf.sprintf "median of %d calibration samples over nominal" (Array.length cals));
         metric "stolen_frac" (1. -. (float_of_int n_ok /. float_of_int (max 1 (List.length ok)))) "ratio"
           ~note:"share of reads left out for steal";
         metric "raw_setup_s" (Stats.median raw_setups) "s";
         metric "raw_query_p50_ms" (ms (Stats.median raw_lats)) "ms";
         metric "raw_query_tail_ms" (ms (Stats.percentile raw_lats spec.tail)) "ms";
         metric "raw_query_qps" (qps raw_lats) "1/s";
       ]
     else [])
    @ [
        metric "error_frac" (float_of_int failed /. float_of_int (max 1 attempted)) "ratio"
          ~note:(Printf.sprintf "%d of %d" failed attempted);
      ]
    @ (let p = Stats.tail_percentile n_ok in
       if p = spec.tail then []
       else
         [
           metric (Printf.sprintf "query_p%g_ms" p) (ms (Stats.percentile ok_lats p)) "ms"
             ~note:(Printf.sprintf "%d beyond" (Stats.beyond ~n:n_ok p));
         ])
    @
    match recovery with
    | Some r ->
        [
          metric "recovery_s" (Stats.median r.restarts) "s"
            ~note:(Printf.sprintf "kill -9 to listening after WAL replay, median of %d" restarts);
          metric "mutation_p50_ms" (ms (Stats.median mut_lats)) "ms"
            ~note:(Printf.sprintf "%d acknowledged" (Array.length mut_lats));
          metric "mutation_p99_ms" (ms (Stats.percentile mut_lats 99.)) "ms"
            ~note:(Printf.sprintf "%d beyond" (Stats.beyond ~n:(Array.length mut_lats) 99.));
          metric "mutation_ps" (float_of_int (Array.length mut_lats) /. window) "1/s"
            ~note:"1 closed-loop writer";
          metric "lost_writes" (float_of_int lost_writes) "count";
        ]
    | None -> []
  in
  {
    workload = spec.name;
    seed;
    traced = false;
    correct = !wrong = 0 && lost_writes = 0 && verify_wrong = 0;
    attempted;
    failed;
    metrics;
    extra;
    kernel;
  }
