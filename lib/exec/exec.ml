(* Stdlib.min/max are polymorphic: on ints every call is a C compare. *)
let[@warning "-32"] min = Int.min and[@warning "-32"] max = Int.max

module Graph = Gf_graph.Graph
module Plan = Gf_plan.Plan
module Int_vec = Gf_util.Int_vec
module Sorted = Gf_util.Sorted
module Trace = Gf_obs.Trace
module Buf = Gf_util.Buf

type group = Sorted.group = {
  mutable tuple : int array;
  mutable cands : Buf.t;
  mutable keys : int array;
  mutable starts : int array;
  mutable ends : int array;
  mutable first : int;
  mutable last : int;
  mutable lo : int;
  mutable hi : int;
}

let run_lo = Sorted.run_lo
let run_hi = Sorted.run_hi

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
  keyed : bool array; (* [stable.(i)] is sourced from the key column *)
  key_stable : bool; (* some stable descriptor is *)
  sl : Sorted.lists; (* the stable lists, refilled in place *)
  ss : int array; (* the current run's stable sources *)
  last_ss : int array; (* the previous tuple's, in the prefix columns *)
  mutable valid : bool; (* there is a previous tuple *)
  prev : Sorted.prev;
  mutable stable_total : int;
  svec : Int_vec.t;
  mutable s : Buf.t;
  mutable s_lo : int;
  mutable s_hi : int;
  shape : shape;
  per_run : bool;
      (* a [Kernel] whose [S] is intersected here run by run: two or more
         stable lists, one sourced from the key column *)
  out : Int_vec.t; (* the kernel's results *)
  filt : Int_vec.t; (* [distinct]: extension sets without the bound vertices *)
  obuf : int array;
  og : group; (* output runs gathered here *)
  kg : group; (* output runs in the kernel's own arrays ([og] when there is no kernel) *)
  from : bool;
      (* the E/I whose runs this one extends has this one's stable
         descriptors and target label: a run's whole candidate slice is
         its [S] *)
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

type groups = (group -> unit) -> unit
type driver = (int array -> unit) -> unit
type rewrite = (env -> Plan.t -> groups) -> env -> Plan.t -> groups option

let tuple_contains tuple len (v : int) =
  let rec go i = i < len && (tuple.(i) = v || go (i + 1)) in
  go 0

module A = Bigarray.Array1

(* A group's tuples, one by one, in the group's own buffer. *)
let tuples (d : groups) : driver =
 fun sink ->
  d (fun g ->
      let t = g.tuple in
      let w = Array.length t - 1 in
      for j = g.first to g.last - 1 do
        t.(w - 1) <- g.keys.(j);
        let lo = run_lo g j and hi = run_hi g j in
        match g.cands with
        | Buf.I32 a ->
            for i = lo to hi - 1 do
              t.(w) <- Int32.to_int (A.unsafe_get a i);
              sink t
            done
        | Buf.I64 a ->
            for i = lo to hi - 1 do
              t.(w) <- A.unsafe_get a i;
              sink t
            done
      done)

(* A group of one run with one candidate, [cands.(0)]: its key is for
   the caller to set per tuple. *)
let group_of_one tuple cands =
  { tuple; cands; keys = [| 0 |]; starts = [| 0 |]; ends = [| 1 |]; first = 0; last = 1; lo = 0; hi = 1 }

(* A group of one run of length one per tuple: the tuple itself, its last
   column copied into a one-element candidate slice. *)
let of_tuples env (d : driver) : groups =
  let one = scratch env in
  Int_vec.push one 0;
  let b = Int_vec.buf one in
  let g = group_of_one [||] b in
  fun sink ->
    d (fun t ->
        let w = Array.length t in
        Buf.unsafe_set b 0 t.(w - 1);
        g.keys.(0) <- t.(w - 2);
        if g.tuple != t then g.tuple <- t;
        sink g)

(* The most runs an operator gathers into one group. *)
let group_size = Sorted.run_chunk

let new_group ?(size = group_size) tuple cands =
  {
    tuple;
    cands;
    keys = Array.make size 0;
    starts = Array.make size 0;
    ends = Array.make size 0;
    first = 0;
    last = 0;
    lo = 0;
    hi = 0;
  }

(* [deliver] of a group with more tuples than the fuel left. *)
let deliver_pieces gov (r : Counters.t) (g : group) sink =
  let last = g.last and hi = g.hi in
  let j = ref g.first and p = ref g.lo in
  while !j < last do
    let fuel = Governor.fuel gov in
    let a = !j in
    (* Whole runs while they fit: [!k] is the first that does not, or
       [last], and [!start] its first position. *)
    let n = ref 0 and k = ref a and start = ref !p and fits = ref true in
    while !fits && !k < last do
      let len = (if !k = last - 1 then hi else g.ends.(!k)) - !start in
      if !n + len <= fuel then begin
        n := !n + len;
        incr k;
        if !k < last then start := g.starts.(!k)
      end
      else fits := false
    done;
    (* The piece ends in run [!b] at [!bhi]: inside run [!k] when fuel is
       left over. *)
    let b = ref (!k - 1) and bhi = ref 0 in
    if !k < last && !n < fuel then begin
      b := !k;
      bhi := !start + fuel - !n;
      n := fuel
    end
    else bhi := if !b = last - 1 then hi else g.ends.(!b);
    r.produced <- r.produced + !n;
    Governor.tick_work gov !n;
    if !n > 0 then begin
      g.first <- a;
      g.lo <- !p;
      g.last <- !b + 1;
      g.hi <- !bhi;
      sink g
    end;
    if !bhi < (if !b = last - 1 then hi else g.ends.(!b)) then begin
      j := !b;
      p := !bhi
    end
    else begin
      j := !b + 1;
      if !j < last then p := g.starts.(!j)
    end
  done

(* Hand [g]'s [n] tuples to [sink] as output of the operator counting
   into [r]: counted as produced and charged to the governor in pieces no
   longer than the handle's fuel, so checks (and an intermediate cap's
   overshoot) fall exactly where one tick per tuple would put them. A
   piece is [g] itself with [first], [lo], [last] and [hi] cut to it; a
   piece with no tuple is not handed on. *)
let deliver gov (r : Counters.t) (g : group) ~n sink =
  if n <= Governor.fuel gov then begin
    r.produced <- r.produced + n;
    Governor.tick_work gov n;
    if n > 0 then sink g
  end
  else deliver_pieces gov r g sink

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
   vertex with neighbours (its adjacency slice), handed on in groups of
   up to [group_size] sources. [ranges] is called once per drive with the
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
      let out = new_group (Array.make 2 0) v.nbr in
      let stream sink lo hi =
        let i = ref lo in
        while !i < hi do
          let n = ref 0 and total = ref 0 in
          while !n < group_size && !i < hi do
            let u = sources.(!i) in
            let x = (u * v.stride) + v.base in
            let a = A.unsafe_get v.off x and b = A.unsafe_get v.off (x + 1) in
            if a < b then begin
              out.keys.(!n) <- u;
              out.starts.(!n) <- a;
              out.ends.(!n) <- b;
              total := !total + b - a;
              incr n
            end;
            incr i
          done;
          if !n > 0 then begin
            out.first <- 0;
            out.last <- !n;
            out.lo <- out.starts.(0);
            out.hi <- out.ends.(!n - 1);
            deliver env.gov r out ~n:!total sink
          end
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
   group of one run of length one. Matching rows are read in place, so any number of
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
      let out = group_of_one buf last in
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
            out.keys.(0) <- buf.(width - 2);
            out.first <- 0;
            out.last <- 1;
            out.lo <- 0;
            out.hi <- 1;
            deliver env.gov r out ~n:1 sink
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

(* The E/I operator, group at a time, shared by the structural operator
   and the adaptive evaluator's steps. An input group is runs sharing a
   prefix [p], each with its key [k] and candidates [C]: the tuples
   [p ++ [k] ++ [c]]. A descriptor sourced from [p ++ [k]] is *stable* —
   its list is the same for every tuple of a run — and one sourced from
   [c] is *varying*. The stable lists are intersected once per run into
   [S] (once per group when none is sourced from [k]); the extension set
   of a tuple is then [S] itself (no varying descriptor), [c]'s list read
   in place (one varying descriptor, no stable one), or [S ∩ V(c) ∩ ...]
   from the run kernel, one call per chunk of candidates across the
   group's runs. The kernel takes each run's [S] from the run's own
   candidate slice when the E/I that produced the group has this one's
   stable descriptors and target label ([from]: its extension set for
   [p ++ [k]] is [S]; under [distinct] that set lacks the bound vertices,
   which this E/I's own output leaves out anyway), or from [k]'s list
   when that is the one stable list. With two or more stable lists, one
   sourced from [k], [S] is intersected here and the runs go to the
   kernel one at a time. The extension sets of one input run go on as one
   group: prefix [p ++ [k]], key [c].

   The counters are those of extending one tuple at a time: each tuple
   costs one intersection and the length of all its lists, except a tuple
   whose sources equal the previous tuple's, which with the cache on is a
   cache hit. Within a run only the first tuple can repeat its
   predecessor's sources, unless no descriptor varies. *)
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
    | Some p ->
        List.length stable >= 2
        && p.target_label = target_label
        && same_descriptors stable (Array.to_list p.descriptors)
    | None -> false
  in
  let vary = List.filter (fun (d : Plan.descriptor) -> d.pos = width - 1) (Array.to_list descriptors) in
  let stable = Array.of_list stable in
  let ns = Array.length stable in
  let keyed = Array.map (fun (d : Plan.descriptor) -> d.pos = width - 2) stable in
  let key_stable = Array.exists Fun.id keyed in
  let bits = Graph.bitmap_words env.g in
  let pair k = if k >= 3 then Some (scratch env, scratch env) else None in
  let csr (d : Plan.descriptor) = Graph.csr env.g d.dir ~elabel:d.elabel ~nlabel:target_label in
  let source : Sorted.source =
    if from then Own else if ns = 0 then Absent else if ns = 1 && key_stable then Key else Fixed
  in
  let keyed_csrs =
    match source with
    | Own | Key ->
        Array.of_list
          (List.filter_map
             (fun (d : Plan.descriptor) -> if d.pos = width - 2 then Some (csr d) else None)
             (Array.to_list stable))
    | Absent | Fixed -> [||]
  in
  let shape =
    match vary with
    | [] -> All_stable
    | [ d ] when ns = 0 -> Single (csr d)
    | _ ->
        Kernel
          (Sorted.run_state ~bits ?scratch:(pair (List.length vary + min ns 1)) ~keyed:keyed_csrs
             ~cache:env.cache ~source
             (Array.of_list (List.map csr vary)))
  in
  let obuf = Array.make (width + 1) 0 in
  let out = scratch env in
  (* Room for a chunk's results: the kernel stops a chunk early when the
     next result might not fit. *)
  Int_vec.ensure out out_room;
  (* Without [distinct] a kernel's output goes on from its own arrays,
     so only the candidates it leaves to the segmented intersection are
     gathered, one at a time. *)
  let og =
    new_group
      ~size:(match shape with Kernel _ when not env.distinct -> 1 | _ -> group_size)
      obuf Buf.empty
  in
  let prev, kg =
    match shape with
    | Kernel kr ->
        ( kr.prev,
          { tuple = obuf; cands = Int_vec.buf out; keys = kr.keys; starts = kr.starts; ends = kr.ends;
            first = 0; last = 0; lo = 0; hi = 0 } )
    | All_stable | Single _ -> ({ Sorted.same = false; last_key = 0; last_c = 0 }, og)
  in
  {
    env;
    row;
    target_label;
    width;
    descriptors;
    stable;
    keyed;
    key_stable;
    sl = Sorted.lists ~bits ?scratch:(pair ns) ns;
    ss = Array.make ns (-1);
    last_ss = Array.make ns (-1);
    valid = false;
    prev;
    stable_total = 0;
    svec = (if ns >= 2 then scratch env else unused);
    s = Buf.empty;
    s_lo = 0;
    s_hi = 0;
    shape;
    per_run = (not from) && ns >= 2 && key_stable;
    out;
    filt = (if env.distinct then scratch env else unused);
    obuf;
    og;
    kg;
    from;
  }

let reset_extend x =
  x.valid <- false;
  x.prev.same <- false;
  x.og.last <- 0;
  if x.env.distinct then Int_vec.clear x.filt

(* [S] := the intersection of the stable lists of sources [x.ss], for run
   [j] of [g]. *)
let compute_stable x (g : group) j =
  let env = x.env and l = x.sl in
  let total = ref 0 in
  for i = 0 to Array.length x.stable - 1 do
    let d = x.stable.(i) in
    Graph.neighbours_into env.g d.dir x.ss.(i) ~elabel:d.elabel ~nlabel:x.target_label l i;
    total := !total + l.hi.(i) - l.lo.(i)
  done;
  x.stable_total <- !total;
  let row =
    if x.from then begin
      if x.s != g.cands then x.s <- g.cands;
      x.s_lo <- g.starts.(j);
      x.s_hi <- g.ends.(j);
      -1
    end
    else if Array.length x.stable = 0 then -1
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
  match x.shape with
  | Kernel kr ->
      Sorted.set_shared kr x.s x.s_lo x.s_hi row;
      Sorted.set_total kr !total
  | All_stable | Single _ -> ()

(* [n] tuples counted at a count-only root: claimed whole, so an output
   cap truncates exactly, then unwinds like a refused [claim_output]; the
   counted tuples drain the governor's fuel as their one-by-one emission
   would. *)
let claim x n =
  if n > 0 then begin
    let env = x.env in
    let k = Governor.claim_outputs env.gov n in
    x.row.produced <- x.row.produced + k;
    env.c.output <- env.c.output + k;
    if k < n then raise Governor.Trip;
    Governor.tick_work env.gov k
  end

(* Hand on the runs gathered in [x.og]. *)
let flush x sink =
  let og = x.og in
  let n = og.last in
  if n > 0 then begin
    if x.env.distinct then begin
      let b = Int_vec.buf x.filt in
      if og.cands != b then og.cands <- b
    end;
    og.first <- 0;
    og.lo <- og.starts.(0);
    og.hi <- og.ends.(n - 1);
    let total = ref 0 in
    for j = 0 to n - 1 do
      total := !total + og.ends.(j) - og.starts.(j)
    done;
    deliver x.env.gov x.row og ~n:!total sink;
    og.last <- 0;
    if x.env.distinct then Int_vec.clear x.filt
  end

(* The extension set [buf.(lo .. hi - 1)] of the tuple [x.obuf] with last
   column [c]: gathered as the run [c] of [x.og] (under [distinct],
   filtered first), or counted at a count-only root. *)
let emit x ~count sink c buf lo hi =
  if count then claim x (hi - lo)
  else begin
    let og = x.og in
    if x.env.distinct then begin
      if og.last = Array.length og.keys then flush x sink;
      let f = x.filt and w = x.width in
      x.obuf.(w - 1) <- c;
      let start = Int_vec.length f in
      (match buf with
      | Buf.I32 a ->
          for i = lo to hi - 1 do
            let v = Int32.to_int (A.unsafe_get a i) in
            if not (tuple_contains x.obuf w v) then Int_vec.push f v
          done
      | Buf.I64 a ->
          for i = lo to hi - 1 do
            let v = A.unsafe_get a i in
            if not (tuple_contains x.obuf w v) then Int_vec.push f v
          done);
      let n = og.last in
      og.keys.(n) <- c;
      og.starts.(n) <- start;
      og.ends.(n) <- Int_vec.length f;
      og.last <- n + 1
    end
    else begin
      if og.last = Array.length og.keys || (og.last > 0 && og.cands != buf) then flush x sink;
      if og.cands != buf then og.cands <- buf;
      let n = og.last in
      og.keys.(n) <- c;
      og.starts.(n) <- lo;
      og.ends.(n) <- hi;
      og.last <- n + 1
    end
  end

(* The kernel's [k] results, from candidate [i0] of run [j0] of [g] on,
   handed on one group per input run. *)
let hand_on x (kr : Sorted.run) sink (g : group) j0 i0 k =
  let w = x.width and kg = x.kg in
  let out = Int_vec.buf x.out in
  if kg.cands != out then kg.cands <- out;
  let q = ref 0 and j = ref j0 and i = ref i0 in
  while !q < k do
    let hi = run_hi g !j in
    if !i >= hi then begin
      incr j;
      i := g.starts.(!j)
    end
    else begin
      let n = min (hi - !i) (k - !q) in
      x.obuf.(w - 2) <- g.keys.(!j);
      if x.env.distinct then begin
        for p = !q to !q + n - 1 do
          emit x ~count:false sink kr.keys.(p) out kr.starts.(p) kr.ends.(p)
        done;
        flush x sink
      end
      else begin
        kg.first <- !q;
        kg.last <- !q + n;
        kg.lo <- kr.starts.(!q);
        kg.hi <- kr.ends.(!q + n - 1);
        (* The kernel's results lie back to back. *)
        deliver x.env.gov x.row kg ~n:(kg.hi - kg.lo) sink
      end;
      q := !q + n;
      i := !i + n
    end
  done

(* The candidate the kernel left outside it, already counted: one whose
   smallest list is longer than [segment] goes alone through the
   segmented intersection, as does every candidate of a kernel with more
   lists than the C kernel keeps. *)
let outside x (kr : Sorted.run) ~count sink (g : group) =
  let env = x.env and r = x.row in
  let j = kr.j and i = kr.i in
  let key = g.keys.(j) and c = Buf.get g.cands i in
  r.intersections <- r.intersections + kr.charged;
  r.cache_hits <- r.cache_hits + kr.hits;
  r.icost <- r.icost + kr.icost;
  Governor.tick_work env.gov kr.ticks;
  let l = Sorted.run_lists kr g j c in
  Sorted.seek kr ~j ~i:(i + 1) ~stop:kr.stop;
  Int_vec.clear x.out;
  governed_intersect env x.out l;
  x.obuf.(x.width - 2) <- key;
  emit x ~count sink c (Int_vec.buf x.out) 0 (Int_vec.length x.out);
  flush x sink

(* The candidates of [g] from the kernel's position to its stop, through
   the run kernel. *)
let kernel_runs x (kr : Sorted.run) ~count sink (g : group) =
  let env = x.env and r = x.row in
  while kr.j < kr.stop do
    let j0 = kr.j and i0 = kr.i in
    let k = Sorted.run_kernel ~count ~giant:segment kr x.out g in
    if k > 0 then begin
      r.intersections <- r.intersections + kr.charged;
      r.cache_hits <- r.cache_hits + kr.hits;
      r.icost <- r.icost + kr.icost;
      Governor.tick_work env.gov (kr.ticks + (kr.icost asr work_grain_shift));
      if count then begin
        let starts = kr.starts and ends = kr.ends in
        if ends.(k - 1) < Governor.fuel env.gov then
          (* The whole chunk's count at once: it drains less fuel than is
             left, so no check falls inside it. *)
          claim x ends.(k - 1)
        else
          for q = 0 to k - 1 do
            claim x (ends.(q) - starts.(q))
          done
      end
      else hand_on x kr sink g j0 i0 k
    end
    else if kr.outside then outside x kr ~count sink g
  done

(* One tuple of an [All_stable] run: its extension set is [S]. *)
let stable_one x ~count sink c = emit x ~count sink c x.s x.s_lo x.s_hi

(* One tuple of a [Single] run: its extension set is [c]'s list, read in
   place; [hit] when it repeats its predecessor's sources. *)
let single_one x ~count sink (v : Sorted.csr) ~hit c =
  let r = x.row in
  let k = (c * v.stride) + v.base in
  let plo = A.unsafe_get v.off k and phi = A.unsafe_get v.off (k + 1) in
  if hit then r.cache_hits <- r.cache_hits + 1
  else begin
    r.intersections <- r.intersections + 1;
    r.icost <- r.icost + phi - plo;
    Governor.tick_work x.env.gov ((phi - plo) asr work_grain_shift)
  end;
  emit x ~count sink c v.nbr plo phi

(* Run [j] of [g] on its own: the shapes whose [S] is computed here per
   run. *)
let extend_one x ~count sink (g : group) j =
  let lo = run_lo g j and hi = run_hi g j in
  if lo < hi then begin
    let env = x.env and r = x.row and p = x.prev in
    let key = g.keys.(j) in
    let same = p.same && ((not x.key_stable) || key = p.last_key) in
    for i = 0 to Array.length x.stable - 1 do
      if x.keyed.(i) then x.ss.(i) <- key
    done;
    (* An [S] read from [from] is the run's own slice. *)
    if (not same) || x.from then compute_stable x g j;
    x.obuf.(x.width - 2) <- key;
    let cands = g.cands in
    (match x.shape with
    | All_stable -> (
        let n = hi - lo in
        let misses = if not env.cache then n else if same then 0 else 1 in
        r.cache_hits <- r.cache_hits + n - misses;
        r.intersections <- r.intersections + misses;
        r.icost <- r.icost + (misses * x.stable_total);
        match cands with
        | Buf.I32 a ->
            for i = lo to hi - 1 do
              stable_one x ~count sink (Int32.to_int (A.unsafe_get a i))
            done
        | Buf.I64 a ->
            for i = lo to hi - 1 do
              stable_one x ~count sink (A.unsafe_get a i)
            done)
    | Single v -> (
        let hit = env.cache && same && Buf.unsafe_get cands lo = p.last_c in
        match cands with
        | Buf.I32 a ->
            for i = lo to hi - 1 do
              single_one x ~count sink v ~hit:(hit && i = lo) (Int32.to_int (A.unsafe_get a i))
            done
        | Buf.I64 a ->
            for i = lo to hi - 1 do
              single_one x ~count sink v ~hit:(hit && i = lo) (A.unsafe_get a i)
            done)
    | Kernel kr ->
        (* The kernel compares no key for a [Fixed] [S]. *)
        p.same <- same;
        Sorted.seek kr ~j ~i:lo ~stop:(j + 1);
        kernel_runs x kr ~count sink g);
    flush x sink;
    p.same <- true;
    p.last_key <- key;
    p.last_c <- Buf.unsafe_get cands (hi - 1)
  end

let extend_group x ~count sink (g : group) =
  let t = g.tuple and w = x.width and p = x.prev in
  for i = 0 to w - 3 do
    x.obuf.(i) <- t.(i)
  done;
  let same = ref x.valid in
  for i = 0 to Array.length x.stable - 1 do
    if not x.keyed.(i) then begin
      let s = t.(x.stable.(i).pos) in
      x.ss.(i) <- s;
      if s <> x.last_ss.(i) then same := false
    end
  done;
  p.same <- !same;
  (match x.shape with
  | Kernel kr when not x.per_run ->
      (match kr.source with
      | Fixed -> if not !same then compute_stable x g g.first
      | Own ->
          let total = ref 0 in
          for i = 0 to Array.length x.stable - 1 do
            if not x.keyed.(i) then begin
              let d = x.stable.(i) in
              total :=
                !total
                + Graph.partition_size x.env.g d.dir x.ss.(i) ~elabel:d.elabel ~nlabel:x.target_label
            end
          done;
          Sorted.set_total kr !total
      | Absent | Key -> ());
      Sorted.seek kr ~j:g.first ~i:g.lo ~stop:g.last;
      kernel_runs x kr ~count sink g
  | Kernel _ | All_stable | Single _ ->
      for j = g.first to g.last - 1 do
        extend_one x ~count sink g j
      done);
  if p.same then begin
    x.valid <- true;
    for i = 0 to Array.length x.ss - 1 do
      x.last_ss.(i) <- x.ss.(i)
    done
  end

(* Compile [plan] into a group driver. [rewrite] lets a caller (the adaptive
   and parallel executors, cluster shards) take over compilation of chosen
   sub-plans; it receives the recursive compiler so intercepted segments
   can still compile their own children normally. [count] makes a root
   E/I operator count-only: each extension set adds its size to the
   output instead of being enumerated, and the sink is never called. *)
let rec compile_groups ~count rewrite env plan =
  let driver =
    match rewrite (compile_groups ~count:false rewrite) env plan with
    | Some driver -> driver
    | None -> compile_structural ~count rewrite env plan
  in
  (* The timing branch is taken here, once per operator at plan-compile
     time: with no profile the driver is returned untouched — no clock is
     read per group. *)
  match env.prof with None -> driver | Some p -> Profile.wrap p (op_id env plan) driver

and compile_structural ~count rewrite env plan : groups =
  let compile env plan = compile_groups ~count:false rewrite env plan in
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
        child_driver (extend_group x ~count sink)
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

let compile_rw ?(count = false) rewrite env plan = tuples (compile_groups ~count rewrite env plan)


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
