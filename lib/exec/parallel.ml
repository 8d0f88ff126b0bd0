module Plan = Gf_plan.Plan
module Deque = Gf_util.Deque
module Timing = Gf_util.Timing
module Trace = Gf_obs.Trace

type report = {
  counters : Counters.t;
  rows : Counters.t array;
  per_domain : Counters.t array;
  per_domain_output : int array;
  outcome : Governor.outcome;
}

(* The morsel boundary: the first E/I level directly above the driving scan
   (its outputs are what workers materialize into stealable batches), or the
   driving scan itself when a HASH-JOIN sits immediately above it. *)
let rec find_boundary = function
  | Plan.Scan _ as s -> s
  | Plan.Extend { child = Plan.Scan _; _ } as e -> e
  | Plan.Extend { child; _ } -> find_boundary child
  | Plan.Hash_join { probe; _ } -> find_boundary probe

(* HASH-JOIN nodes in post-order (children before parents), so that by the
   time a join's build side runs, every nested join already has its shared
   table and is compiled probe-only. *)
let collect_joins plan =
  let rec go acc = function
    | Plan.Scan _ -> acc
    | Plan.Extend { child; _ } -> go acc child
    | Plan.Hash_join { build; probe; _ } as j -> (go (go acc build) probe) @ [ j ]
  in
  go [] plan

(* Runs [f wid] on each of [domains] domains (on this one when there is
   only one) and collects the results in domain order. *)
let on_domains domains f =
  if domains <= 1 then [| f 0 |]
  else Array.map Domain.join (Array.init domains (fun wid -> Domain.spawn (fun () -> f wid)))

(* HASH-JOIN nodes the pipeline reaches through [tables] are compiled
   probe-only against their shared, already-built table. *)
let probe_shared tables recurse env node =
  match List.assq_opt node tables with
  | Some table -> Some (Exec.probe recurse env node table)
  | None -> None

(* Build every HASH-JOIN table exactly once, in post-order. Each build runs
   its build sub-plan in parallel: domains pull scan chunks and append rows
   to per-domain partial tables, which are concatenated in domain order and
   indexed once into one shared read-only table. Returns the tables (keyed
   by physical plan node) and the environments of the build domains — so
   build tuples are counted once, not once per execution domain. *)
let build_tables ~domains ~domain_env ~gov ~tbuf g plan =
  let tables = ref [] and envs = ref [] in
  List.iter
    (fun node ->
      match node with
      | Plan.Hash_join { build; build_key_pos; _ } ->
          (match tbuf with
          | Some tb -> Trace.begin_span ~cat:"hash-join" tb "build-table"
          | None -> ());
          let row_len = Array.length (Plan.vars build) in
          let bscan = Exec.driving_scan build in
          let num_sources = Exec.num_scan_sources g build in
          let next = Atomic.make 0 in
          (* The static scheme: domains pull 64-source chunks from a shared
             counter. Morsel stealing buys little here — builds are
             materialized anyway. *)
          let chunks emit =
            let rec go () =
              let lo = Atomic.fetch_and_add next 64 in
              if lo < num_sources then begin
                emit lo (min num_sources (lo + 64));
                go ()
              end
            in
            go ()
          in
          let build_worker _ =
            let env = domain_env None in
            let local = Join_table.create ~key_pos:build_key_pos ~row_len in
            let rewrite recurse env n =
              if n == bscan then Some (Exec.scan env n chunks)
              else probe_shared !tables recurse env n
            in
            let d = Exec.compile_rw rewrite env build in
            (* A tripped budget or a faulting operator still hands back the
               partial table and counters. *)
            Exec.governed gov env ~span:"hash-build" d (Exec.build_into env node local);
            (local, env)
          in
          let parts = on_domains domains build_worker in
          let table = fst parts.(0) in
          let rows = ref 0 in
          Array.iteri
            (fun i (local, (env : Exec.env)) ->
              if i > 0 then Join_table.append table local;
              rows := !rows + (Exec.row env node).Counters.hj_build_tuples;
              envs := env :: !envs)
            parts;
          Join_table.index table;
          (match tbuf with
          | Some tb -> Trace.end_span ~args:[ ("rows", Int !rows) ] tb
          | None -> ());
          tables := (node, table) :: !tables
      | _ -> assert false)
    (collect_joins plan);
  (!tables, !envs)

(* A morsel is either a range of driving-scan source indices or a batch of
   materialized boundary-width partial matches (flat, row-major). *)
type morsel = Range of int * int | Batch of int array

(* Bound on the owner's deque length above which boundary tuples are pushed
   through the pipeline inline instead of being batched — keeps memory
   proportional to [max_local * batch] tuples per domain even when the upper
   pipeline is much slower than the producer. *)
let max_local = 32

let run ?(domains = 1) ?(cache = true) ?(distinct = false) ?budget ?fault ?gov ?prof ?trace
    ?sink ?(chunk = 64) ?(batch = 256) g plan =
  let domains = max 1 domains in
  let prof = Exec.traced_profile prof trace plan in
  let cbuf = Option.map (fun tr -> Trace.buffer ~name:"coordinator" tr ~tid:9) trace in
  let t0_us = Trace.now_us () in
  let gov =
    match gov with
    | Some t -> t
    | None -> Governor.create ?fault (Option.value budget ~default:Governor.unlimited)
  in
  (* Every domain, build or probe, gets private counts rows, governor
     handle and profile copy (same operator-id space), merged after the
     join. *)
  let domain_env trace =
    Exec.make_env ~cache ~distinct ?prof:(Option.map Profile.fresh prof) ?trace g gov plan
  in
  (match cbuf with
  | Some tb -> Trace.begin_span ~cat:"parallel" ~args:[ ("domains", Int domains) ] tb "build-tables"
  | None -> ());
  let tables, build_envs = build_tables ~domains ~domain_env ~gov ~tbuf:cbuf g plan in
  (match cbuf with Some tb -> Trace.end_span tb | None -> ());
  let driver_node = Exec.driving_scan plan in
  let boundary_node = find_boundary plan in
  let bwidth = Array.length (Plan.vars boundary_node) in
  let num_sources = Exec.num_scan_sources g plan in
  let deques = Array.init domains (fun _ -> Deque.create ~dummy:(Range (0, 0)) ()) in
  (* Seed range morsels round-robin so every domain starts with local work
     and steals only once its own share is drained. *)
  let pending = Atomic.make 0 in
  let lo = ref 0 and d = ref 0 in
  while !lo < num_sources do
    let hi = min num_sources (!lo + max 1 chunk) in
    Deque.push_bottom deques.(!d) (Range (!lo, hi));
    Atomic.incr pending;
    lo := hi;
    d := (!d + 1) mod domains
  done;
  (* The user sink runs under a mutex so any closure is safe; [Fun.protect]
     releases it even when the sink raises or a budget trips. *)
  let locked_sink =
    match sink with
    | None -> ignore
    | Some f ->
        let m = Mutex.create () in
        fun t ->
          Mutex.lock m;
          Fun.protect ~finally:(fun () -> Mutex.unlock m) (fun () -> f t)
  in
  let worker wid =
    (* Each domain records into its own buffer — registration takes the
       trace mutex once per domain, recording is domain-local mutation. *)
    let wbuf =
      Option.map
        (fun tr -> Trace.buffer ~name:(Printf.sprintf "domain %d" wid) tr ~tid:(10 + wid))
        trace
    in
    let env = domain_env wbuf in
    let c = env.Exec.c and h = env.Exec.gov in
    (* With nobody reading rows the root E/I counts (see [Exec.run_gov]);
       when that root is the boundary, the morsel pipeline below it is the
       one that counts. *)
    let count = Exec.count_only env sink in
    let own = deques.(wid) in
    let rewrite recurse env node =
      if node == boundary_node then
        Some
          (Exec.of_tuples env @@ fun sink ->
            (* [sink] is the compiled pipeline above the boundary; this
               driver feeds it from the work-stealing scheduler. *)
            let cur_lo = ref 0 and cur_hi = ref 0 in
            let lower_rw _ lenv n =
              if n == driver_node then
                Some (Exec.scan lenv n (fun emit -> emit !cur_lo !cur_hi))
              else None
            in
            let lower =
              Exec.compile_rw ~count:(count && boundary_node == plan) lower_rw env boundary_node
            in
            let tuple = Array.make bwidth 0 in
            let batch_bytes = batch * bwidth * 8 in
            let replay data =
              let n = Array.length data / bwidth in
              for r = 0 to n - 1 do
                Array.blit data (r * bwidth) tuple 0 bwidth;
                Governor.tick h;
                sink tuple
              done;
              (* The batch buffer is dead once replayed: return its bytes so
                 the cap bounds live batches (max_local per domain), not the
                 cumulative allocation of the whole run. *)
              Governor.release_bytes h batch_bytes
            in
            Governor.add_bytes h batch_bytes;
            let bbuf = ref (Array.make (batch * bwidth) 0) in
            let bn = ref 0 in
            let emit_lower t =
              if Deque.length own < max_local then begin
                Array.blit t 0 !bbuf (!bn * bwidth) bwidth;
                incr bn;
                if !bn = batch then begin
                  Atomic.incr pending;
                  Deque.push_bottom own (Batch !bbuf);
                  Governor.add_bytes h batch_bytes;
                  bbuf := Array.make (batch * bwidth) 0;
                  bn := 0
                end
              end
              else sink t
            in
            let flush_inline () =
              let n = !bn in
              bn := 0;
              let data = !bbuf in
              for r = 0 to n - 1 do
                Array.blit data (r * bwidth) tuple 0 bwidth;
                sink tuple
              done
            in
            let process m =
              c.Counters.morsels <- c.Counters.morsels + 1;
              match m with
              | Range (rlo, rhi) ->
                  cur_lo := rlo;
                  cur_hi := rhi;
                  lower emit_lower;
                  flush_inline ()
              | Batch data -> replay data
            in
            let steal_one () =
              let rec go k =
                if k >= domains then None
                else
                  let v = (wid + 1 + k) mod domains in
                  if v = wid then go (k + 1)
                  else
                    match Deque.steal deques.(v) with
                    | Some m -> Some (m, v)
                    | None -> go (k + 1)
              in
              go 0
            in
            (* Busy-time and the pending count must survive a [Trip] raised
               mid-morsel: the counters stay truthful and no sibling spins
               forever on a pending count that will never reach zero. *)
            let timed m =
              let t0 = Timing.now_s () in
              Fun.protect
                ~finally:(fun () ->
                  c.Counters.busy_s <- c.Counters.busy_s +. (Timing.now_s () -. t0);
                  Atomic.decr pending)
                (fun () ->
                  (* The untraced path is this single match — no span
                     machinery runs when tracing is off. *)
                  match wbuf with
                  | None -> process m
                  | Some tb ->
                      let args =
                        match m with
                        | Range (rlo, rhi) ->
                            [ ("kind", Trace.Str "range"); ("lo", Trace.Int rlo); ("hi", Int rhi) ]
                        | Batch data ->
                            [ ("kind", Trace.Str "batch");
                              ("rows", Int (Array.length data / bwidth));
                            ]
                      in
                      Trace.span ~cat:"morsel" ~args tb "morsel" (fun () -> process m))
            in
            while (not (Governor.tripped gov)) && Atomic.get pending > 0 do
              match Deque.pop_bottom own with
              | Some m -> timed m
              | None -> (
                  match steal_one () with
                  | Some (m, v) ->
                      c.Counters.steals <- c.Counters.steals + 1;
                      (match wbuf with
                      | Some tb ->
                          Trace.instant ~cat:"steal" ~args:[ ("victim", Trace.Int v) ] tb "steal"
                      | None -> ());
                      timed m
                  | None -> Domain.cpu_relax ())
            done;
            (* The worker's private buffer dies with the loop. *)
            Governor.release_bytes h batch_bytes)
      else probe_shared tables recurse env node
    in
    Exec.governed gov env ~span:"worker" (Exec.compile_rw ~count rewrite env plan)
      (Exec.emit env locked_sink);
    env
  in
  (match cbuf with Some tb -> Trace.begin_span ~cat:"parallel" tb "run" | None -> ());
  let envs = on_domains domains worker in
  (match cbuf with
  | Some tb ->
      Trace.end_span tb;
      Trace.close_all tb
  | None -> ());
  (* Merge the per-domain rows and profiles in the coordinating thread,
     keyed by the shared preorder operator ids — same shape for every
     domain, so the merged result is identical in form to a sequential
     one. *)
  let all = build_envs @ Array.to_list envs in
  let rows =
    Array.mapi
      (fun i _ -> Counters.merge (List.map (fun (e : Exec.env) -> e.rows.(i)) all))
      envs.(0).Exec.rows
  in
  (match prof with
  | Some into -> List.iter (fun (e : Exec.env) -> Option.iter (Profile.merge_into ~into) e.prof) all
  | None -> ());
  (* One merged operator-summary track: durations are self-times summed
     across build and all domains, so the track reads as CPU time (it can
     exceed the wall clock, like [busy_s]). *)
  (match (trace, prof) with
  | Some tr, Some p -> Exec.emit_operator_track tr p rows ~t0_us
  | _ -> ());
  let per_domain = Array.map (fun (e : Exec.env) -> e.c) envs in
  {
    counters = Counters.merge (Array.to_list rows @ List.map (fun (e : Exec.env) -> e.c) all);
    rows;
    per_domain;
    per_domain_output = Array.map (fun c -> c.Counters.output) per_domain;
    outcome = Governor.outcome gov;
  }
