module Graph = Gf_graph.Graph
module Plan = Gf_plan.Plan
module Int_vec = Gf_util.Int_vec
module Sorted = Gf_util.Sorted
module Trace = Gf_obs.Trace
module Buf = Gf_util.Buf

type env = {
  g : Graph.t;
  cache : bool;
  distinct : bool;
  c : Counters.t;
  ops : Plan.t array;
  rows : Counters.t array;
  gov : Governor.handle;
  prof : Profile.t option;
  trace : Trace.buf option;
}

let make_env ~cache ~distinct ?prof ?trace g gov plan =
  let ops = Array.map fst (Plan.operators plan) in
  let rows = Array.map (fun _ -> Counters.create ()) ops in
  {
    g;
    cache;
    distinct;
    c = Counters.create ();
    ops;
    rows;
    gov = Governor.handle gov rows;
    prof;
    trace;
  }

(* Operators are matched physically against the run's plan, once per
   compiled operator — never per tuple. *)
let op_id env node =
  let rec go i =
    if i >= Array.length env.ops then invalid_arg "Exec: not an operator of the run's plan"
    else if env.ops.(i) == node then i
    else go (i + 1)
  in
  go 0

let row env node = env.rows.(op_id env node)

type driver = (int array -> unit) -> unit
type rewrite = (env -> Plan.t -> driver) -> env -> Plan.t -> driver option

let tuple_contains tuple len v =
  let rec go i = i < len && (tuple.(i) = v || go (i + 1)) in
  go 0

(* Deadline granularity inside one E/I intersection. [tick] fires per
   *produced* tuple, so an intersection over huge adjacency lists that emits
   few or no tuples used to run to completion — however long — before the
   governor could see a deadline. Two complementary fixes, both free for
   small intersections:

   - the lists' total length is charged as governor work up front
     ([Governor.tick_work], [work_grain] list entries = one tick), bounding
     the gap *between* expensive intersections;
   - an intersection whose smallest list is longer than [segment] elements
     is computed in [segment]-sized sub-slices of that list (the k-way
     intersection distributes over a partition of any one input), with a
     work charge between segments — bounding the uninterruptible stretch
     *inside* a single giant intersection. *)
let work_grain_shift = 8 (* 256 list entries ~ one produced-tuple tick *)
let segment = 8192

let governed_intersect env result (l : Sorted.lists) =
  let nd = Array.length l.lo in
  let min_i = ref 0 and min_len = ref max_int and total = ref 0 in
  for i = 0 to nd - 1 do
    let n = l.hi.(i) - l.lo.(i) in
    total := !total + n;
    if n < !min_len then begin
      min_len := n;
      min_i := i
    end
  done;
  Governor.tick_work env.gov (!total asr work_grain_shift);
  if !min_len <= segment then Sorted.intersect result l
  else begin
    (* A Trip between segments leaves list [m] narrowed, which is fine:
       the raise unwinds the whole run and the operator state dies with
       it. *)
    let m = !min_i in
    let segmented () =
      let lo = l.lo.(m) and hi = l.hi.(m) in
      let seg_lo = ref lo in
      while !seg_lo < hi do
        let seg_hi = min hi (!seg_lo + segment) in
        l.lo.(m) <- !seg_lo;
        l.hi.(m) <- seg_hi;
        Sorted.intersect result l;
        seg_lo := seg_hi;
        if !seg_lo < hi then Governor.tick_work env.gov segment
      done;
      l.lo.(m) <- lo;
      l.hi.(m) <- hi
    in
    (* Only the giant (segmented) path gets a span: it is rare by
       construction, and it is exactly the case a timeline viewer needs to
       see — a single intersection long enough to stall a domain. *)
    match env.trace with
    | None -> segmented ()
    | Some tb ->
        Trace.span ~cat:"intersect"
          ~args:[ ("lists", Int nd); ("min_len", Int !min_len); ("icost", Int !total) ]
          tb "giant-intersect" segmented
  end

(* The SCAN operator, the only emit loop over the edge list. [ranges] is
   called once per drive with the scan's emitter, and feeds it every
   [\[lo, hi)] range of source indices to stream this time: the whole
   space for a structural scan, one shard for a cluster part, one morsel,
   or the chunks a parallel hash build pulls from a shared counter. *)
let scan env node ranges =
  match node with
  | Plan.Scan { edge; slabel; dlabel; _ } ->
      let elabel = edge.Gf_query.Query.label in
      let r = row env node in
      let buf = Array.make 2 0 in
      let stream sink lo hi =
        Graph.iter_edges_range env.g ~elabel ~slabel ~dlabel ~lo ~hi (fun u v ->
            buf.(0) <- u;
            buf.(1) <- v;
            r.produced <- r.produced + 1;
            Governor.tick env.gov;
            sink buf)
      in
      fun sink -> ranges (stream sink)
  | _ -> invalid_arg "Exec.scan: not a SCAN"

(* The SCAN that streams tuples into the root pipeline: the leftmost scan
   through E/I children and HASH-JOIN probe sides. *)
let rec driving_scan = function
  | Plan.Scan _ as s -> s
  | Plan.Extend { child; _ } -> driving_scan child
  | Plan.Hash_join { probe; _ } -> driving_scan probe

let num_scan_sources g plan =
  match driving_scan plan with
  | Plan.Scan { slabel; _ } -> Graph.num_with_label g slabel
  | _ -> assert false

(* The HASH-JOIN build side's sink: appends each build tuple to [table],
   with its bytes charged to the governor. *)
let build_into env node table =
  let row_bytes = Join_table.bytes_per_row table in
  let r = row env node in
  fun t ->
    Join_table.add table t;
    r.hj_build_tuples <- r.hj_build_tuples + 1;
    Governor.add_bytes env.gov row_bytes;
    Governor.tick env.gov

(* The HASH-JOIN probe: [probe compile env node table] streams the probe
   side against the indexed [table]. Matching rows are read in place, so
   any number of domains can probe one table concurrently. *)
let probe compile env node =
  match node with
  | Plan.Hash_join { probe; probe_key_pos; build_extra_pos; vars; _ } ->
      let probe_driver = compile env probe in
      let pwidth = Array.length (Plan.vars probe) in
      let width = Array.length vars in
      let nextra = Array.length build_extra_pos in
      let buf = Array.make width 0 in
      let r = row env node in
      fun table sink ->
        let on_row off =
          let ok = ref true in
          for i = 0 to nextra - 1 do
            let v = Join_table.get table off build_extra_pos.(i) in
            buf.(pwidth + i) <- v;
            if env.distinct && tuple_contains buf pwidth v then ok := false
          done;
          (* Injectivity among the build-extra columns themselves. *)
          if !ok && env.distinct && nextra > 1 then begin
            for i = 0 to nextra - 1 do
              for j = i + 1 to nextra - 1 do
                if buf.(pwidth + i) = buf.(pwidth + j) then ok := false
              done
            done
          end;
          if !ok then begin
            r.produced <- r.produced + 1;
            Governor.tick env.gov;
            sink buf
          end
        in
        probe_driver (fun t ->
            r.hj_probe_tuples <- r.hj_probe_tuples + 1;
            Governor.tick env.gov;
            Array.blit t 0 buf 0 pwidth;
            Join_table.iter_matches table t probe_key_pos on_row)
  | _ -> invalid_arg "Exec.probe: not a HASH-JOIN"

(* The E/I lookup, shared by the structural operator and the adaptive
   evaluator's steps: the extension set of a tuple under [descriptors],
   intersected afresh or kept from the previous tuple when its sources are
   the same, with every count charged to [row]. *)
type extension = {
  env : env;
  row : Counters.t;
  target_label : int;
  descriptors : Plan.descriptor array;
  lists : Sorted.lists; (* the descriptors' adjacency lists, refilled in place *)
  srcs : int array;
  last_srcs : int array;
  result : Int_vec.t;
  mutable cached : bool;
  mutable set : Buf.t;
  mutable lo : int;
  mutable hi : int;
}

let extension env row ~target_label descriptors =
  let nd = Array.length descriptors in
  {
    env;
    row;
    target_label;
    descriptors;
    lists = Sorted.lists ~bits:(Graph.bitmap_words env.g) nd;
    srcs = Array.make nd (-1);
    last_srcs = Array.make nd (-1);
    result = Int_vec.create ~capacity:64 ();
    cached = false;
    set = Buf.empty;
    lo = 0;
    hi = 0;
  }

let extension_set x = x.set
let extension_lo x = x.lo
let extension_hi x = x.hi

let reset_extension x =
  x.cached <- false;
  Array.fill x.last_srcs 0 (Array.length x.last_srcs) (-1)

let lookup x t =
  let env = x.env and r = x.row and l = x.lists in
  let nd = Array.length x.descriptors in
  let same = ref x.cached in
  for i = 0 to nd - 1 do
    let s = t.(x.descriptors.(i).Plan.pos) in
    x.srcs.(i) <- s;
    if s <> x.last_srcs.(i) then same := false
  done;
  if env.cache && !same then r.cache_hits <- r.cache_hits + 1
  else begin
    for i = 0 to nd - 1 do
      let d = x.descriptors.(i) in
      Graph.neighbours_into env.g d.Plan.dir x.srcs.(i) ~elabel:d.Plan.elabel
        ~nlabel:x.target_label l i;
      r.icost <- r.icost + l.hi.(i) - l.lo.(i)
    done;
    r.intersections <- r.intersections + 1;
    if nd = 1 then begin
      (* Single descriptor: the extension set is the adjacency list itself,
         read in place, no copy. *)
      Governor.tick_work env.gov ((l.hi.(0) - l.lo.(0)) asr work_grain_shift);
      x.set <- l.bufs.(0);
      x.lo <- l.lo.(0);
      x.hi <- l.hi.(0)
    end
    else begin
      Int_vec.clear x.result;
      governed_intersect env x.result l;
      x.set <- Int_vec.buf x.result;
      x.lo <- 0;
      x.hi <- Int_vec.length x.result
    end;
    Array.blit x.srcs 0 x.last_srcs 0 nd;
    x.cached <- true
  end

(* Compile [plan] into a driver function: [driver sink] runs the pipeline,
   passing each produced tuple (a reused buffer) to [sink]. [rewrite] lets a
   caller (the adaptive and parallel executors, cluster shards) take over
   compilation of chosen sub-plans; it receives the recursive compiler so
   intercepted segments can still compile their own children normally.
   [count] makes a root E/I operator count-only: each extension set adds
   its size to the output instead of being enumerated, and the sink is
   never called. *)
let rec compile_rw ?(count = false) rewrite env plan =
  let driver =
    match rewrite (compile_rw rewrite) env plan with
    | Some driver -> driver
    | None -> compile_structural ~count rewrite env plan
  in
  (* The timing branch is taken here, once per operator at plan-compile
     time: with no profile the driver is returned untouched — no clock is
     read per tuple. *)
  match env.prof with None -> driver | Some p -> Profile.wrap p (op_id env plan) driver

and compile_structural ~count rewrite env plan =
  let compile env plan = compile_rw rewrite env plan in
  match plan with
  | Plan.Scan { slabel; _ } ->
      let n = Graph.num_with_label env.g slabel in
      scan env plan (fun emit -> emit 0 n)
  | Plan.Extend { child; target_label; descriptors; vars; _ } ->
      let child_driver = compile env child in
      let width = Array.length vars in
      let buf = Array.make width 0 in
      let r = row env plan in
      let x = extension env r ~target_label descriptors in
      if count then fun _ ->
        reset_extension x;
        child_driver (fun t ->
            lookup x t;
            (* The count-only root's output: claims the whole set at once,
               so an output cap truncates exactly, then unwinds like a
               refused [claim_output]. The counted tuples drain the
               governor's fuel as their one-by-one emission would, so
               checks come at the enumerating run's cadence. *)
            let n = x.hi - x.lo in
            let k = Governor.claim_outputs env.gov n in
            r.produced <- r.produced + k;
            env.c.output <- env.c.output + k;
            if k < n then raise Governor.Trip;
            Governor.tick_work env.gov k)
      else fun sink ->
        reset_extension x;
        child_driver (fun t ->
            Array.blit t 0 buf 0 (width - 1);
            lookup x t;
            let set = x.set in
            for i = x.lo to x.hi - 1 do
              let w = Buf.unsafe_get set i in
              if not (env.distinct && tuple_contains buf (width - 1) w) then begin
                buf.(width - 1) <- w;
                r.produced <- r.produced + 1;
                Governor.tick env.gov;
                sink buf
              end
            done)
  | Plan.Hash_join { build; build_key_pos; _ } ->
      let build_driver = compile env build in
      let row_len = Array.length (Plan.vars build) in
      let probe_driver = probe compile env plan in
      let r = row env plan in
      let build table =
        build_driver (build_into env plan table);
        Join_table.index table
      in
      fun sink ->
        let table = Join_table.create ~key_pos:build_key_pos ~row_len in
        (* Phase spans, not per-tuple spans: one build span and one probe
           span per hash-join execution keeps the traced hot path identical
           to the untraced one. *)
        match env.trace with
        | None ->
            build table;
            probe_driver table sink
        | Some tb ->
            let before = r.hj_build_tuples in
            Trace.begin_span ~cat:"hash-join" tb "hj-build";
            Fun.protect
              ~finally:(fun () ->
                Trace.end_span ~args:[ ("rows", Int (r.hj_build_tuples - before)) ] tb)
              (fun () -> build table);
            Trace.begin_span ~cat:"hash-join" tb "hj-probe";
            Fun.protect
              ~finally:(fun () -> Trace.end_span ~args:[ ("probes", Int r.hj_probe_tuples) ] tb)
              (fun () -> probe_driver table sink)

let no_rewrite _ _ _ = None

(* The root sink: claims an output slot from the governor (exact under an
   output cap: an over-claim raises [Trip] before the tuple is emitted),
   counts it, and forwards it. *)
let emit env sink t =
  Governor.claim_output env.gov;
  env.c.output <- env.c.output + 1;
  sink t

(* The one governed loop: every executor — the sequential run, each
   parallel worker domain, each parallel hash-build domain — runs its
   compiled pipeline through here. A budget [Trip] ends the run quietly;
   any other exception (a raising sink, a faulting operator) becomes a
   structured [Failed { operator = span }] on the shared governor, which
   also stops sibling domains. Nothing escapes, so a domain never leaks its
   siblings on [Domain.join], and the profile, the trace and the
   governor's counters are always closed out. *)
let governed gov env ~span driver sink =
  (match env.trace with Some b -> Trace.begin_span ~cat:"exec" b span | None -> ());
  (match env.prof with Some p -> Profile.start p | None -> ());
  (try driver sink with
  | Governor.Trip -> ()
  | e -> Governor.fail gov ~operator:span ~detail:(Printexc.to_string e));
  (* On an unwind the trailing boundary switches were skipped; [finish]
     charges the outstanding time to the operator that was current. *)
  (match env.prof with Some p -> Profile.finish p | None -> ());
  (match env.trace with
  | Some b ->
      Trace.end_span
        ~args:
          [ ("output", Int env.c.output);
            ("morsels", Int env.c.morsels);
            ("steals", Int env.c.steals);
          ]
        b;
      Trace.close_all b
  | None -> ());
  Governor.finish env.gov env.c

(* A traced run is implicitly profiled, so the operator summary track can
   be synthesized even when the caller asked for no profile. *)
let traced_profile prof (trace : Trace.t option) plan =
  match (prof, trace) with None, Some _ -> Some (Profile.create plan) | _ -> prof

(* Synthesize one span per operator from a profile's self-times and the
   run's counts rows, packed sequentially on a dedicated "operators" track
   starting at [t0_us]. The real per-tuple boundary switching already
   lives in [Profile]; re-emitting it as spans per tuple would dominate the
   trace, so the timeline shows the per-operator totals instead — by
   construction their durations sum exactly to the profile's totals. *)
let emit_operator_track tr prof (rows : Counters.t array) ~t0_us =
  let b = Trace.buffer ~name:"operators" tr ~tid:100 in
  let t = ref t0_us in
  Array.iter
    (fun (op : Profile.op) ->
      let dur = int_of_float (Float.round (op.time_s *. 1e6)) in
      let r = rows.(op.id) in
      Trace.add_complete ~cat:"operator"
        ~args:
          [
            ("kind", Trace.Str (Profile.kind_to_string op.kind));
            ("produced", Int r.produced);
            ("icost", Int r.icost);
            ("cache_hits", Int r.cache_hits);
            ("self_ms", Float (op.time_s *. 1e3));
          ]
        b ~name:op.label ~ts_us:!t ~dur_us:dur;
      t := !t + dur)
    (Profile.ops prof)

(* A run counts at the root instead of enumerating when no one reads its
   rows: no sink, homomorphic semantics (distinct checks every candidate
   against the bound prefix), and no profile or trace — both must see
   every tuple. *)
let count_only env sink =
  Option.is_none sink && (not env.distinct) && Option.is_none env.prof
  && Option.is_none env.trace

let run_rows ?(rewrite = no_rewrite) ?(cache = true) ?(distinct = false) ?budget ?fault ?gov
    ?prof ?trace ?sink g plan =
  let gov =
    match gov with
    | Some t -> t
    | None -> Governor.create ?fault (Option.value budget ~default:Governor.unlimited)
  in
  let prof = traced_profile prof trace plan in
  let tbuf = Option.map (fun tr -> Trace.buffer ~name:"exec" tr ~tid:1) trace in
  let env = make_env ~cache ~distinct ?prof ?trace:tbuf g gov plan in
  let driver = compile_rw ~count:(count_only env sink) rewrite env plan in
  let t0_us = Trace.now_us () in
  governed gov env ~span:"execute" driver (emit env (Option.value sink ~default:ignore));
  (match (trace, prof) with
  | Some tr, Some p -> emit_operator_track tr p env.rows ~t0_us
  | _ -> ());
  (Counters.merge (env.c :: Array.to_list env.rows), env.rows, Governor.outcome gov)

let run_gov ?rewrite ?cache ?distinct ?budget ?fault ?gov ?prof ?trace ?sink g plan =
  let c, _, outcome =
    run_rows ?rewrite ?cache ?distinct ?budget ?fault ?gov ?prof ?trace ?sink g plan
  in
  (c, outcome)

let count ?cache ?distinct g plan =
  match run_gov ?cache ?distinct g plan with
  | _, (Governor.Failed _ as o) -> failwith ("Exec.count: " ^ Governor.outcome_to_string o)
  | c, _ -> c.output
