(* Stdlib.min/max are polymorphic: on ints every call is a C compare. *)
let[@warning "-32"] min = Int.min and[@warning "-32"] max = Int.max

module Graph = Gf_graph.Graph
module Plan = Gf_plan.Plan
module Int_vec = Gf_util.Int_vec
module Sorted = Gf_util.Sorted
module Trace = Gf_obs.Trace
module Buf = Gf_util.Buf

type run = { mutable tuple : int array; mutable cands : Buf.t; mutable lo : int; mutable hi : int }

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
  mutable held : Int_vec.t list;
  mutable extends : (Plan.t * extend) list;
}

and shape =
  | All_stable  (* every tuple of a run extends by [S] *)
  | Single of Sorted.csr  (* one varying list, no stable one *)
  | Kernel of Sorted.run

and extend = {
  env : env;
  row : Counters.t;
  target_label : int;
  width : int; (* the input tuples' width *)
  descriptors : Plan.descriptor array;
  stable : Plan.descriptor array;
  sl : Sorted.lists; (* the stable lists, refilled in place *)
  ss : int array; (* this run's stable sources *)
  last_ss : int array; (* the previous tuple's; [S] is theirs *)
  mutable valid : bool;
  mutable last_c : int; (* the previous tuple's last column *)
  mutable stable_total : int;
  svec : Int_vec.t;
  mutable s : Buf.t;
  mutable s_lo : int;
  mutable s_hi : int;
  shape : shape;
  out : Int_vec.t; (* the kernel's results *)
  filt : Int_vec.t; (* [distinct]: an extension set without the bound vertices *)
  obuf : int array;
  orun : run;
  from : extend option;
      (* the E/I whose runs this one extends, when its extension sets are
         this one's [S]: the same descriptors and target label *)
  mutable set : Buf.t; (* the extension set being handed on *)
  mutable set_lo : int;
  mutable set_hi : int;
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
    held = [];
    extends = [];
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

(* Off-heap scratch vectors, pooled per domain: an operator takes its
   vectors when it is compiled and {!governed} hands them back when the
   run ends, so compiling a plan allocates no bigarray once the pool is
   warm. A domain's service threads share its pool, hence the atomic
   list. A vector grown past [pool_keep] elements is left to the GC
   instead of being kept. *)
let pool : Int_vec.t list Atomic.t Domain.DLS.key = Domain.DLS.new_key (fun () -> Atomic.make [])
let pool_keep = 1 lsl 16

let scratch env =
  let p = Domain.DLS.get pool in
  let rec take () =
    match Atomic.get p with
    | [] -> Int_vec.create ~capacity:64 ()
    | v :: rest as l -> if Atomic.compare_and_set p l rest then v else take ()
  in
  let v = take () in
  Int_vec.clear v;
  env.held <- v :: env.held;
  v

let release env =
  let p = Domain.DLS.get pool in
  let rec give v =
    let l = Atomic.get p in
    if not (Atomic.compare_and_set p l (v :: l)) then give v
  in
  List.iter
    (fun v -> if Bigarray.Array1.dim (Int_vec.big v) <= pool_keep then give v)
    env.held;
  env.held <- []

type runs = (run -> unit) -> unit
type driver = (int array -> unit) -> unit
type rewrite = (env -> Plan.t -> runs) -> env -> Plan.t -> runs option

let tuple_contains tuple len (v : int) =
  let rec go i = i < len && (tuple.(i) = v || go (i + 1)) in
  go 0

(* A run's tuples, one by one, in the run's own buffer. *)
let tuples (d : runs) : driver =
 fun sink ->
  d (fun r ->
      let t = r.tuple in
      let w = Array.length t - 1 in
      for i = r.lo to r.hi - 1 do
        t.(w) <- Buf.unsafe_get r.cands i;
        sink t
      done)

(* A run of length one per tuple: the tuple itself, its last column
   copied into a one-element candidate slice. *)
let of_tuples env (d : driver) : runs =
  let one = scratch env in
  Int_vec.push one 0;
  let b = Int_vec.buf one in
  let r = { tuple = [||]; cands = b; lo = 0; hi = 1 } in
  fun sink ->
    d (fun t ->
        Buf.unsafe_set b 0 t.(Array.length t - 1);
        if r.tuple != t then r.tuple <- t;
        sink r)

(* Hand the tuples [out.tuple ++ [c]], c in [buf.(lo .. hi - 1)], to
   [sink] as output of the operator counting into [r]: counted as
   produced and charged to the governor in pieces no longer than the
   handle's fuel, so checks (and an intermediate cap's overshoot) fall
   exactly where one tick per tuple would put them. *)
let deliver gov (r : Counters.t) out sink buf lo hi =
  if out.cands != buf then out.cands <- buf;
  let lo = ref lo in
  while !lo < hi do
    let n = min (hi - !lo) (Governor.fuel gov) in
    r.produced <- r.produced + n;
    Governor.tick_work gov n;
    out.lo <- !lo;
    out.hi <- !lo + n;
    sink out;
    lo := !lo + n
  done

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

(* The SCAN operator, the only loop over the edge list: one run per source
   vertex, its adjacency slice. [ranges] is called once per drive with the
   scan's emitter, and feeds it every [\[lo, hi)] range of source indices
   to stream this time: the whole space for a structural scan, one shard
   for a cluster part, one morsel, or the chunks a parallel hash build
   pulls from a shared counter. *)
let scan env node ranges =
  match node with
  | Plan.Scan { edge; slabel; dlabel; _ } ->
      let v = Graph.csr env.g Graph.Fwd ~elabel:edge.Gf_query.Query.label ~nlabel:dlabel in
      let sources = Graph.vertices_with_label env.g slabel in
      let r = row env node in
      let out = { tuple = Array.make 2 0; cands = v.nbr; lo = 0; hi = 0 } in
      let stream sink lo hi =
        for i = lo to hi - 1 do
          let u = sources.(i) in
          let x = (u * v.stride) + v.base in
          out.tuple.(0) <- u;
          deliver env.gov r out sink v.nbr
            (Bigarray.Array1.unsafe_get v.off x)
            (Bigarray.Array1.unsafe_get v.off (x + 1))
        done
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
   side against the indexed [table] and hands each joined tuple on as a
   run of length one. Matching rows are read in place, so any number of
   domains can probe one table concurrently. *)
let probe compile env node =
  match node with
  | Plan.Hash_join { probe; probe_key_pos; build_extra_pos; vars; _ } ->
      let probe_driver = tuples (compile env probe) in
      let pwidth = Array.length (Plan.vars probe) in
      let width = Array.length vars in
      let nextra = Array.length build_extra_pos in
      let buf = Array.make width 0 in
      let r = row env node in
      let one = scratch env in
      Int_vec.push one 0;
      let last = Int_vec.buf one in
      let out = { tuple = buf; cands = last; lo = 0; hi = 1 } in
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
            Buf.unsafe_set last 0 buf.(width - 1);
            deliver env.gov r out sink last 0 1
          end
        in
        probe_driver (fun t ->
            r.hj_probe_tuples <- r.hj_probe_tuples + 1;
            Governor.tick env.gov;
            for i = 0 to pwidth - 1 do
              buf.(i) <- t.(i)
            done;
            Join_table.iter_matches table t probe_key_pos on_row)
  | _ -> invalid_arg "Exec.probe: not a HASH-JOIN"

(* The E/I operator, run at a time, shared by the structural operator and
   the adaptive evaluator's steps. An input run is a bound prefix [p] and
   candidates [C]: the tuples [p ++ [c]]. A descriptor sourced from [p]
   is *stable* — its list is the same for every tuple of the run — and
   one sourced from [c] is *varying*. The stable lists are intersected
   once per prefix into [S]; the extension set of [p ++ [c]] is then [S]
   itself (no varying descriptor), [c]'s list read in place (one varying
   descriptor, no stable one), or [S ∩ V(c) ∩ ...] from the run kernel,
   one call per chunk of candidates. Every extension set goes on as the
   run [p ++ [c]] + set.

   The counters are those of extending one tuple at a time: each tuple
   costs one intersection and the length of all its lists, except a tuple
   whose sources equal the previous tuple's, which with the cache on is a
   cache hit. Within a run only the first tuple can repeat its
   predecessor's sources, unless no descriptor varies.

   When the E/I that produced the run has this one's stable descriptors
   and target label ([from]), its extension set for [p] is [S] itself:
   [S] is read from it instead of intersected again. Under [distinct]
   that set lacks [p]'s vertices, which this E/I's own output leaves out
   anyway. *)
let out_room = 4096

(* The stand-in for a vector an operator never writes. *)
let unused = Int_vec.create ~capacity:1 ()

let same_descriptors a b =
  let key (d : Plan.descriptor) = (d.pos, d.dir, d.elabel) in
  List.sort compare (List.map key a) = List.sort compare (List.map key b)

let extend ?from env row ~target_label ~width descriptors =
  let stable = List.filter (fun (d : Plan.descriptor) -> d.pos < width - 1) (Array.to_list descriptors) in
  (* One stable list is [S] in place already. *)
  let from =
    match from with
    | Some p
      when List.length stable >= 2
           && p.target_label = target_label
           && same_descriptors stable (Array.to_list p.descriptors) ->
        Some p
    | _ -> None
  in
  let vary = List.filter (fun (d : Plan.descriptor) -> d.pos = width - 1) (Array.to_list descriptors) in
  let stable = Array.of_list stable in
  let ns = Array.length stable in
  let bits = Graph.bitmap_words env.g in
  let pair k = if k >= 3 then Some (scratch env, scratch env) else None in
  let csr (d : Plan.descriptor) = Graph.csr env.g d.dir ~elabel:d.elabel ~nlabel:target_label in
  let shape =
    match vary with
    | [] -> All_stable
    | [ d ] when ns = 0 -> Single (csr d)
    | _ ->
        Kernel
          (Sorted.run_state ~bits ?scratch:(pair (List.length vary + min ns 1)) ~shared:(ns > 0)
             (Array.of_list (List.map csr vary)))
  in
  let obuf = Array.make (width + 1) 0 in
  let out = scratch env in
  (* Room for a chunk's results: the kernel stops a chunk early when the
     next result might not fit. *)
  Int_vec.ensure out out_room;
  {
    env;
    row;
    target_label;
    width;
    descriptors;
    stable;
    sl = Sorted.lists ~bits ?scratch:(pair ns) ns;
    ss = Array.make ns (-1);
    last_ss = Array.make ns (-1);
    valid = false;
    last_c = -1;
    stable_total = 0;
    svec = (if ns >= 2 then scratch env else unused);
    s = Buf.empty;
    s_lo = 0;
    s_hi = 0;
    shape;
    out;
    filt = (if env.distinct then scratch env else unused);
    obuf;
    orun = { tuple = obuf; cands = Buf.empty; lo = 0; hi = 0 };
    from;
    set = Buf.empty;
    set_lo = 0;
    set_hi = 0;
  }

let reset_extend x = x.valid <- false

(* [S] := the intersection of the stable lists of sources [x.ss]. *)
let compute_stable x =
  let env = x.env and l = x.sl in
  x.valid <- false;
  let total = ref 0 in
  for i = 0 to Array.length x.stable - 1 do
    let d = x.stable.(i) in
    Graph.neighbours_into env.g d.dir x.ss.(i) ~elabel:d.elabel ~nlabel:x.target_label l i;
    total := !total + l.hi.(i) - l.lo.(i)
  done;
  x.stable_total <- !total;
  let row =
    match x.from with
    | Some p ->
        if x.s != p.set then x.s <- p.set;
        x.s_lo <- p.set_lo;
        x.s_hi <- p.set_hi;
        -1
    | None ->
    if Array.length x.stable = 0 then -1
    else if Array.length x.stable = 1 then begin
      (* One stable list: [S] is the adjacency list itself, read in
         place, with its bitmap row. *)
      Governor.tick_work env.gov (!total asr work_grain_shift);
      if x.s != l.bufs.(0) then x.s <- l.bufs.(0);
      x.s_lo <- l.lo.(0);
      x.s_hi <- l.hi.(0);
      l.row.(0)
    end
    else begin
      Int_vec.clear x.svec;
      governed_intersect env x.svec l;
      if x.s != Int_vec.buf x.svec then x.s <- Int_vec.buf x.svec;
      x.s_lo <- 0;
      x.s_hi <- Int_vec.length x.svec;
      -1
    end
  in
  (match x.shape with Kernel kr -> Sorted.set_shared kr x.s x.s_lo x.s_hi row | _ -> ());
  for i = 0 to Array.length x.ss - 1 do
    x.last_ss.(i) <- x.ss.(i)
  done;
  x.valid <- true

(* One extension set, of the tuple in [x.obuf]: counted at a count-only
   root (claimed whole, so an output cap truncates exactly, then unwinds
   like a refused [claim_output]; the counted tuples drain the governor's
   fuel as their one-by-one emission would), else handed on as a run. *)
let emit x ~count sink buf lo hi =
  let env = x.env and r = x.row in
  if count then begin
    let n = hi - lo in
    if n > 0 then begin
      let k = Governor.claim_outputs env.gov n in
      r.produced <- r.produced + k;
      env.c.output <- env.c.output + k;
      if k < n then raise Governor.Trip;
      Governor.tick_work env.gov k
    end
  end
  else begin
    if env.distinct then begin
      let f = x.filt in
      Int_vec.clear f;
      for i = lo to hi - 1 do
        let w = Buf.unsafe_get buf i in
        if not (tuple_contains x.obuf x.width w) then Int_vec.push f w
      done;
      if x.set != Int_vec.buf f then x.set <- Int_vec.buf f;
      x.set_lo <- 0;
      x.set_hi <- Int_vec.length f
    end
    else begin
      if x.set != buf then x.set <- buf;
      x.set_lo <- lo;
      x.set_hi <- hi
    end;
    deliver env.gov r x.orun sink x.set x.set_lo x.set_hi
  end

(* Candidates [run.cands.(i ..)] through the run kernel, up to [hi] or the
   kernel's chunk; returns where it stopped. A candidate whose smallest
   list is longer than [segment] goes alone through the segmented
   intersection. [charge] is false for a cache hit. *)
let kernel_chunk x kr ~count ~charge sink (run : run) i hi =
  let env = x.env and r = x.row and w = x.width in
  let k = Sorted.run_kernel ~count ~giant:segment kr x.out run.cands i hi in
  if k = 0 then begin
    let c = Buf.unsafe_get run.cands i in
    let l = Sorted.run_lists kr c in
    if charge then begin
      r.intersections <- r.intersections + 1;
      r.icost <- r.icost + x.stable_total;
      for j = (if kr.Sorted.shared then 1 else 0) to Array.length l.lo - 1 do
        r.icost <- r.icost + l.hi.(j) - l.lo.(j)
      done
    end;
    Int_vec.clear x.out;
    governed_intersect env x.out l;
    x.obuf.(w - 1) <- c;
    emit x ~count sink (Int_vec.buf x.out) 0 (Int_vec.length x.out);
    i + 1
  end
  else begin
    if charge then begin
      let work = (k * x.stable_total) + kr.Sorted.icost in
      r.intersections <- r.intersections + k;
      r.icost <- r.icost + work;
      Governor.tick_work env.gov (work asr work_grain_shift)
    end;
    let buf = Int_vec.buf x.out and ends = kr.Sorted.ends in
    if count && ends.(k - 1) < Governor.fuel env.gov then
      (* The whole chunk's count at once: it drains less fuel than is
         left, so no check falls inside it. *)
      emit x ~count sink buf 0 ends.(k - 1)
    else begin
      let start = ref 0 in
      for j = 0 to k - 1 do
        x.obuf.(w - 1) <- Buf.unsafe_get run.cands (i + j);
        emit x ~count sink buf !start ends.(j);
        start := ends.(j)
      done
    end;
    i + k
  end

let extend_run x ~count sink (run : run) =
  let lo = run.lo and hi = run.hi in
  if lo < hi then begin
    let env = x.env and r = x.row and w = x.width in
    let t = run.tuple and cands = run.cands in
    let same = ref x.valid in
    for i = 0 to Array.length x.stable - 1 do
      let s = t.(x.stable.(i).pos) in
      x.ss.(i) <- s;
      if s <> x.last_ss.(i) then same := false
    done;
    let first = Buf.unsafe_get cands lo in
    let hit = env.cache && !same && (x.shape == All_stable || first = x.last_c) in
    (* An [S] read from [from] lives in its buffers, valid only for this
       run. *)
    if (not !same) || Option.is_some x.from then compute_stable x;
    for i = 0 to w - 2 do
      x.obuf.(i) <- t.(i)
    done;
    (match x.shape with
    | All_stable ->
        let n = hi - lo in
        let misses = if not env.cache then n else if hit then 0 else 1 in
        r.cache_hits <- r.cache_hits + n - misses;
        r.intersections <- r.intersections + misses;
        r.icost <- r.icost + (misses * x.stable_total);
        for i = lo to hi - 1 do
          x.obuf.(w - 1) <- Buf.unsafe_get cands i;
          emit x ~count sink x.s x.s_lo x.s_hi
        done
    | Single v ->
        for i = lo to hi - 1 do
          let c = Buf.unsafe_get cands i in
          let k = (c * v.stride) + v.base in
          let plo = Bigarray.Array1.unsafe_get v.off k
          and phi = Bigarray.Array1.unsafe_get v.off (k + 1) in
          if i = lo && hit then r.cache_hits <- r.cache_hits + 1
          else begin
            r.intersections <- r.intersections + 1;
            r.icost <- r.icost + phi - plo;
            Governor.tick_work env.gov ((phi - plo) asr work_grain_shift)
          end;
          x.obuf.(w - 1) <- c;
          emit x ~count sink v.nbr plo phi
        done
    | Kernel kr ->
        let i = ref lo in
        if hit then begin
          (* The first tuple repeats its predecessor's sources: a cache
             hit, recomputed here without being counted. *)
          r.cache_hits <- r.cache_hits + 1;
          i := kernel_chunk x kr ~count ~charge:false sink run lo (lo + 1)
        end;
        while !i < hi do
          i := kernel_chunk x kr ~count ~charge:true sink run !i hi
        done);
    x.last_c <- Buf.unsafe_get cands (hi - 1)
  end

(* Compile [plan] into a run driver. [rewrite] lets a caller (the adaptive
   and parallel executors, cluster shards) take over compilation of chosen
   sub-plans; it receives the recursive compiler so intercepted segments
   can still compile their own children normally. [count] makes a root
   E/I operator count-only: each extension set adds its size to the
   output instead of being enumerated, and the sink is never called. *)
let rec compile_runs ~count rewrite env plan =
  let driver =
    match rewrite (compile_runs ~count:false rewrite) env plan with
    | Some driver -> driver
    | None -> compile_structural ~count rewrite env plan
  in
  (* The timing branch is taken here, once per operator at plan-compile
     time: with no profile the driver is returned untouched — no clock is
     read per run. *)
  match env.prof with None -> driver | Some p -> Profile.wrap p (op_id env plan) driver

and compile_structural ~count rewrite env plan : runs =
  let compile env plan = compile_runs ~count:false rewrite env plan in
  match plan with
  | Plan.Scan { slabel; _ } ->
      let n = Graph.num_with_label env.g slabel in
      scan env plan (fun emit -> emit 0 n)
  | Plan.Extend { child; target_label; descriptors; vars; _ } ->
      let child_driver = compile env child in
      let x =
        extend ?from:(List.assq_opt child env.extends) env (row env plan) ~target_label
          ~width:(Array.length vars - 1) descriptors
      in
      env.extends <- (plan, x) :: env.extends;
      fun sink ->
        reset_extend x;
        child_driver (extend_run x ~count sink)
  | Plan.Hash_join { build; build_key_pos; _ } ->
      let build_driver = tuples (compile env build) in
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

let compile_rw ?(count = false) rewrite env plan = tuples (compile_runs ~count rewrite env plan)


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
  release env;
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
