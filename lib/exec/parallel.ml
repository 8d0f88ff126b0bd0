(* Stdlib.min/max are polymorphic: on ints every call is a C compare. *)
let[@warning "-32"] min = Int.min and[@warning "-32"] max = Int.max

module Graph = Gf_graph.Graph
module Plan = Gf_plan.Plan
module Timing = Gf_util.Timing
module Trace = Gf_obs.Trace

type report = {
  counters : Counters.t;
  rows : Counters.t array;
  per_domain : Counters.t array;
  per_domain_output : int array;
  outcome : Governor.outcome;
}

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

(* Sources are walked in scan order and gathered while their edges fit in
   [chunk]; a source with more edges than that (a hub) is cut into
   [chunk]-edge pieces of its own. Sources without edges join whichever
   morsel spans them, and a morsel with no edges is not made. *)
let morsels ~chunk g plan =
  match Exec.driving_scan plan with
  | Plan.Scan { edge; slabel; dlabel; _ } ->
      let chunk = max 1 chunk and elabel = edge.Gf_query.Query.label in
      let acc = ref [] and lo = ref 0 and n = ref 0 in
      let close hi =
        if !n > 0 then acc := Exec.Sources (!lo, hi) :: !acc;
        lo := hi;
        n := 0
      in
      Array.iteri
        (fun i u ->
          let d = Graph.partition_size g Graph.Fwd u ~elabel ~nlabel:dlabel in
          if d > chunk then begin
            close i;
            for k = 0 to (d - 1) / chunk do
              acc := Exec.Edges (i, k * chunk, min d ((k + 1) * chunk)) :: !acc
            done;
            lo := i + 1
          end
          else begin
            if !n + d > chunk then close i;
            n := !n + d
          end)
        (Graph.vertices_with_label g slabel);
      close (Graph.num_with_label g slabel);
      Array.of_list (List.rev !acc)
  | _ -> assert false

(* The driving scan's feed for one phase of a run: every domain pulls the
   next of [plan]'s morsels off one shared counter until none is left or
   the run has tripped, counting each in [c] and its time in [c.busy_s]
   (kept when a trip unwinds mid-morsel), and, traced, recording it as a
   span. *)
let feed ~chunk gov g plan =
  let ms = morsels ~chunk g plan and next = Atomic.make 0 in
  fun (c : Counters.t) tbuf emit ->
    let run m =
      match tbuf with
      | None -> emit m
      | Some tb ->
          let args =
            match m with
            | Exec.Sources (lo, hi) -> [ ("lo", Trace.Int lo); ("hi", Int hi) ]
            | Exec.Edges (i, a, b) -> [ ("source", Trace.Int i); ("from", Int a); ("to", Int b) ]
          in
          Trace.span ~cat:"morsel" ~args tb "morsel" (fun () -> emit m)
    in
    let rec go () =
      let k = Atomic.fetch_and_add next 1 in
      if k < Array.length ms && not (Governor.tripped gov) then begin
        c.morsels <- c.morsels + 1;
        let t0 = Timing.now_s () in
        Fun.protect
          ~finally:(fun () -> c.busy_s <- c.busy_s +. (Timing.now_s () -. t0))
          (fun () -> run ms.(k));
        go ()
      end
    in
    go ()

(* Build every HASH-JOIN table exactly once, in post-order. Each build runs
   its build sub-plan in parallel: domains pull morsels of the build side's
   driving scan and append rows to per-domain partial tables, which are
   concatenated in domain order and indexed once into one shared read-only
   table. Returns the tables (keyed by physical plan node) and the
   environments of the build domains — so build tuples are counted once, not
   once per execution domain. *)
let build_tables ~domains ~chunk ~domain_env ~gov ~tbuf g plan =
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
          let feed = feed ~chunk gov g build in
          let build_worker _ =
            let env = domain_env None in
            let local = Join_table.create ~key_pos:build_key_pos ~row_len in
            let rewrite recurse env n =
              if n == bscan then Some (Exec.scan env n (feed env.Exec.c None))
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

let run ?(domains = 1) ?(cache = true) ?(distinct = false) ?budget ?fault ?gov ?prof ?trace
    ?sink ?(chunk = 1024) g plan =
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
  let tables, build_envs = build_tables ~domains ~chunk ~domain_env ~gov ~tbuf:cbuf g plan in
  (match cbuf with Some tb -> Trace.end_span tb | None -> ());
  let scan = Exec.driving_scan plan in
  let feed = feed ~chunk gov g plan in
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
    let rewrite recurse env node =
      if node == scan then Some (Exec.scan env node (feed env.Exec.c wbuf))
      else probe_shared tables recurse env node
    in
    (* With nobody reading rows the root E/I counts (see [Exec.run_gov]). *)
    let d = Exec.compile_rw ~count:(Exec.count_only env sink) rewrite env plan in
    Exec.governed gov env ~span:"worker" d (Exec.emit env locked_sink);
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
