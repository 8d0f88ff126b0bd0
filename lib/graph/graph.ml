(* Stdlib.min/max are polymorphic: on ints every call is a C compare. *)
let[@warning "-32"] min = Int.min and[@warning "-32"] max = Int.max

module Buf = Gf_util.Buf

type direction = Fwd | Bwd

type side = {
  nbr : Buf.t;
  (* Partition offsets: slot (v, el, nl) at index (v * ne + el) * nv + nl.
     Length n * ne * nv + 1. Neighbour ids are sorted within a partition. *)
  off : Buf.i64a;
  (* Hub bitmaps (derived, never persisted): the word offset in [t.bits]
     of the bitmap row of list (v, el), all neighbour labels, at index
     v * ne + el, or -1. Empty when the graph has no rows. *)
  rows : Buf.i32a;
}

(* Where the off-heap storage came from: built in-process, or a binary
   snapshot mapped straight off disk (zero deserialization). *)
type origin = Built | Mapped of string

type t = {
  n : int;
  m : int;
  nv : int;
  ne : int;
  vlabel : Buf.i64a;
  fwd : side;
  bwd : side;
  by_label : int array array; (* vertices grouped by label, ascending *)
  bits : Gf_util.Sorted.bits; (* every bitmap row, n bits each *)
  origin : origin;
}

let num_vertices g = g.n
let num_edges g = g.m
let num_vlabels g = g.nv
let num_elabels g = g.ne
let vlabel g v = Bigarray.Array1.get g.vlabel v
let origin g = g.origin

let slot g v el nl = ((v * g.ne) + el) * g.nv + nl

(* Vertices grouped by label, rebuilt from [vlabel] in O(n) — derived
   state that is never persisted. *)
let group_by_label ~n ~nv (vlabel : Buf.i64a) =
  let counts = Array.make nv 0 in
  for v = 0 to n - 1 do
    let l = Bigarray.Array1.unsafe_get vlabel v in
    counts.(l) <- counts.(l) + 1
  done;
  let by_label = Array.map (fun c -> Array.make c 0) counts in
  let cursor = Array.make nv 0 in
  for v = 0 to n - 1 do
    let l = Bigarray.Array1.unsafe_get vlabel v in
    by_label.(l).(cursor.(l)) <- v;
    cursor.(l) <- cursor.(l) + 1
  done;
  by_label

(* Hub bitmaps, derived from the adjacency in O(n ne log (n ne) + rows
   n / 64) and never persisted. Whole (vertex, direction, edge label)
   lists get a row, longest first (ties by direction, vertex, label, so
   a graph's rows do not depend on how it was built or loaded), until
   the rows reach a quarter of the adjacency bytes; no list shorter than
   [min_row_len] gets one. *)
let min_row_len = 16

let hub_rows ~n ~nv ~ne ~fwd_nbr ~fwd_off ~bwd_nbr ~bwd_off =
  let words = (n + 63) / 64 in
  let budget = (Buf.bytes fwd_nbr + Buf.bytes bwd_nbr) / 4 in
  let max_rows = if words = 0 then 0 else budget / (words * 8) in
  let lists = n * ne in
  let list_len (off : Buf.i64a) j =
    Bigarray.Array1.unsafe_get off ((j + 1) * nv) - Bigarray.Array1.unsafe_get off (j * nv)
  in
  (* Candidate c is list c mod lists of side c / lists (0 forward). *)
  let len c = list_len (if c < lists then fwd_off else bwd_off) (c mod lists) in
  let cands =
    if max_rows = 0 then [||]
    else
      Array.of_seq
        (Seq.filter (fun c -> len c >= min_row_len) (Seq.init (2 * lists) Fun.id))
  in
  Array.stable_sort (fun a b -> compare (len b) (len a)) cands;
  let chosen = Array.sub cands 0 (min max_rows (Array.length cands)) in
  let bits = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (Array.length chosen * words) in
  Bigarray.Array1.fill bits 0L;
  (* Off-heap int32 offsets, so a mapped graph keeps its heap small (the
     row words stay far below 2^31: a quarter of the adjacency bytes),
     and none at all without rows. *)
  let index_len = if Array.length chosen = 0 then 0 else lists in
  let index () =
    let a = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout index_len in
    Bigarray.Array1.fill a (-1l);
    a
  in
  let fwd_rows = index () and bwd_rows = index () in
  Array.iteri
    (fun r c ->
      let row = r * words and j = c mod lists in
      let nbr, off, rows =
        if c < lists then (fwd_nbr, fwd_off, fwd_rows) else (bwd_nbr, bwd_off, bwd_rows)
      in
      Bigarray.Array1.set rows j (Int32.of_int row);
      Buf.iter_range (Gf_util.Sorted.mark bits row) nbr
        (Bigarray.Array1.get off (j * nv))
        (Bigarray.Array1.get off ((j + 1) * nv)))
    chosen;
  (bits, fwd_rows, bwd_rows)

let build_side ~n ~nv ~ne ~vlabel ~sources ~targets ~elabels =
  let m = Array.length sources in
  let nslots = (n * ne * nv) + 1 in
  let off = Buf.alloc_i64 nslots in
  Bigarray.Array1.fill off 0;
  let slot v el nl = ((v * ne) + el) * nv + nl in
  for e = 0 to m - 1 do
    let s = slot sources.(e) elabels.(e) vlabel.(targets.(e)) in
    Bigarray.Array1.unsafe_set off (s + 1) (Bigarray.Array1.unsafe_get off (s + 1) + 1)
  done;
  for i = 1 to nslots - 1 do
    Bigarray.Array1.unsafe_set off i
      (Bigarray.Array1.unsafe_get off i + Bigarray.Array1.unsafe_get off (i - 1))
  done;
  let cursor = Array.init nslots (fun i -> Bigarray.Array1.unsafe_get off i) in
  let nbr = Buf.alloc ~max_value:(max 0 (n - 1)) m in
  for e = 0 to m - 1 do
    let s = slot sources.(e) elabels.(e) vlabel.(targets.(e)) in
    Buf.unsafe_set nbr cursor.(s) targets.(e);
    cursor.(s) <- cursor.(s) + 1
  done;
  (* Sort each partition by neighbour id (build-time only: bounce through a
     heap scratch array per partition). *)
  for s = 0 to nslots - 2 do
    let lo = Bigarray.Array1.unsafe_get off s
    and hi = Bigarray.Array1.unsafe_get off (s + 1) in
    if hi - lo > 1 then begin
      let part = Buf.sub_array nbr lo hi in
      Array.sort compare part;
      for i = 0 to hi - lo - 1 do
        Buf.unsafe_set nbr (lo + i) part.(i)
      done
    end
  done;
  (nbr, off)

(* A graph around its stored arrays, with the derived state rebuilt. *)
let assemble ~n ~m ~nv ~ne ~vlabel ~fwd_nbr ~fwd_off ~bwd_nbr ~bwd_off ~origin =
  let bits, fwd_rows, bwd_rows = hub_rows ~n ~nv ~ne ~fwd_nbr ~fwd_off ~bwd_nbr ~bwd_off in
  {
    n;
    m;
    nv;
    ne;
    vlabel;
    fwd = { nbr = fwd_nbr; off = fwd_off; rows = fwd_rows };
    bwd = { nbr = bwd_nbr; off = bwd_off; rows = bwd_rows };
    by_label = group_by_label ~n ~nv vlabel;
    bits;
    origin;
  }

let build ~num_vlabels ~num_elabels ~vlabel ~edges =
  let n = Array.length vlabel in
  Array.iter
    (fun l ->
      if l < 0 || l >= num_vlabels then invalid_arg "Graph.build: vertex label out of range")
    vlabel;
  (* Drop self-loops and duplicates. *)
  let seen = Hashtbl.create (2 * Array.length edges) in
  let keep = ref [] in
  let count = ref 0 in
  Array.iter
    (fun ((u, v, el) as e) ->
      if u <> v then begin
        if u < 0 || u >= n || v < 0 || v >= n then invalid_arg "Graph.build: vertex out of range";
        if el < 0 || el >= num_elabels then invalid_arg "Graph.build: edge label out of range";
        let key = ((u * n) + v) * num_elabels + el in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          keep := e :: !keep;
          incr count
        end
      end)
    edges;
  let m = !count in
  let srcs = Array.make m 0 and dsts = Array.make m 0 and els = Array.make m 0 in
  List.iteri
    (fun i (u, v, el) ->
      srcs.(i) <- u;
      dsts.(i) <- v;
      els.(i) <- el)
    !keep;
  let fwd_nbr, fwd_off =
    build_side ~n ~nv:num_vlabels ~ne:num_elabels ~vlabel ~sources:srcs ~targets:dsts
      ~elabels:els
  in
  let bwd_nbr, bwd_off =
    build_side ~n ~nv:num_vlabels ~ne:num_elabels ~vlabel ~sources:dsts ~targets:srcs
      ~elabels:els
  in
  let vl = Buf.alloc_i64 n in
  for v = 0 to n - 1 do
    Bigarray.Array1.unsafe_set vl v vlabel.(v)
  done;
  assemble ~n ~m ~nv:num_vlabels ~ne:num_elabels ~vlabel:vl ~fwd_nbr ~fwd_off ~bwd_nbr ~bwd_off
    ~origin:Built

let side g = function Fwd -> g.fwd | Bwd -> g.bwd

let neighbours g dir v ~elabel ~nlabel : Gf_util.Sorted.slice =
  let s = side g dir in
  let i = slot g v elabel nlabel in
  (s.nbr, Bigarray.Array1.unsafe_get s.off i, Bigarray.Array1.unsafe_get s.off (i + 1))

let row_of g s v el =
  if Bigarray.Array1.dim s.rows = 0 then -1
  else Int32.to_int (Bigarray.Array1.unsafe_get s.rows ((v * g.ne) + el))

let neighbours_into g dir v ~elabel ~nlabel (l : Gf_util.Sorted.lists) i =
  let s = side g dir in
  let j = slot g v elabel nlabel in
  if l.bufs.(i) != s.nbr then l.bufs.(i) <- s.nbr;
  l.lo.(i) <- Bigarray.Array1.unsafe_get s.off j;
  l.hi.(i) <- Bigarray.Array1.unsafe_get s.off (j + 1);
  (* A row offset only means something in this graph's word array. *)
  l.row.(i) <- (if l.bits == g.bits then row_of g s v elabel else -1)

let csr g dir ~elabel ~nlabel : Gf_util.Sorted.csr =
  let s = side g dir in
  {
    nbr = s.nbr;
    off = s.off;
    stride = g.ne * g.nv;
    base = (elabel * g.nv) + nlabel;
    rows = s.rows;
    rstride = g.ne;
    rbase = elabel;
  }

let neighbours_any_nlabel g dir v ~elabel : Gf_util.Sorted.slice =
  let s = side g dir in
  let i0 = slot g v elabel 0 in
  (s.nbr, Bigarray.Array1.unsafe_get s.off i0, Bigarray.Array1.unsafe_get s.off (i0 + g.nv))

let degree g dir v =
  let s = side g dir in
  let lo = slot g v 0 0 in
  Bigarray.Array1.unsafe_get s.off (lo + (g.ne * g.nv)) - Bigarray.Array1.unsafe_get s.off lo

let partition_size g dir v ~elabel ~nlabel =
  let s = side g dir in
  let i = slot g v elabel nlabel in
  Bigarray.Array1.unsafe_get s.off (i + 1) - Bigarray.Array1.unsafe_get s.off i

let has_edge g u v ~elabel =
  let arr, lo, hi = neighbours g Fwd u ~elabel ~nlabel:(vlabel g v) in
  Gf_util.Sorted.member arr lo hi v

let vertices_with_label g l = g.by_label.(l)
let num_with_label g l = Array.length g.by_label.(l)

(* No slice tuple or closure per source vertex. *)
let iter_edges_range g ~elabel ~slabel ~dlabel ~lo ~hi f =
  let vs = g.by_label.(slabel) in
  let s = g.fwd in
  for i = lo to hi - 1 do
    let u = vs.(i) in
    let j = slot g u elabel dlabel in
    let plo = Bigarray.Array1.unsafe_get s.off j
    and phi = Bigarray.Array1.unsafe_get s.off (j + 1) in
    match s.nbr with
    | Buf.I32 a ->
        for k = plo to phi - 1 do
          f u (Int32.to_int (Bigarray.Array1.unsafe_get a k))
        done
    | Buf.I64 a ->
        for k = plo to phi - 1 do
          f u (Bigarray.Array1.unsafe_get a k)
        done
  done

let iter_edges g ~elabel ~slabel ~dlabel f =
  iter_edges_range g ~elabel ~slabel ~dlabel ~lo:0 ~hi:(Array.length g.by_label.(slabel)) f

let count_edges g ~elabel ~slabel ~dlabel =
  let vs = g.by_label.(slabel) in
  let total = ref 0 in
  Array.iter (fun u -> total := !total + partition_size g Fwd u ~elabel ~nlabel:dlabel) vs;
  !total

let sample_edge g rng ~elabel ~slabel ~dlabel =
  let total = count_edges g ~elabel ~slabel ~dlabel in
  if total = 0 then None
  else begin
    let k = ref (Gf_util.Rng.int rng total) in
    let vs = g.by_label.(slabel) in
    let result = ref None in
    (try
       Array.iter
         (fun u ->
           let sz = partition_size g Fwd u ~elabel ~nlabel:dlabel in
           if !k < sz then begin
             let arr, lo, _ = neighbours g Fwd u ~elabel ~nlabel:dlabel in
             result := Some (u, Buf.get arr (lo + !k));
             raise Exit
           end
           else k := !k - sz)
         vs
     with Exit -> ());
    !result
  end

let edge_array g =
  let out = Array.make g.m (0, 0, 0) in
  let i = ref 0 in
  for v = 0 to g.n - 1 do
    for el = 0 to g.ne - 1 do
      for nl = 0 to g.nv - 1 do
        let arr, lo, hi = neighbours g Fwd v ~elabel:el ~nlabel:nl in
        Buf.iter_range
          (fun w ->
            out.(!i) <- (v, w, el);
            incr i)
          arr lo hi
      done
    done
  done;
  out

let relabel g rng ~num_vlabels ~num_elabels =
  let vlabel = Array.init g.n (fun _ -> Gf_util.Rng.int rng num_vlabels) in
  let edges =
    Array.map (fun (u, v, _) -> (u, v, Gf_util.Rng.int rng num_elabels)) (edge_array g)
  in
  build ~num_vlabels ~num_elabels ~vlabel ~edges

(* ------------------------------------------------------------------ *)
(* Storage accounting and raw-parts boundary (snapshot IO)             *)
(* ------------------------------------------------------------------ *)

type residency = {
  offheap_bytes : int;
  row_bytes : int;
  heap_bytes : int;
  mapped : bool;
  nbr_width : int;
}

let residency g =
  let side_bytes s = Buf.bytes s.nbr + (Bigarray.Array1.dim s.off * 8) in
  let row_bytes = Bigarray.Array1.dim g.bits * 8 in
  let index_bytes s = Bigarray.Array1.dim s.rows * 4 in
  {
    offheap_bytes =
      (Bigarray.Array1.dim g.vlabel * 8)
      + side_bytes g.fwd + side_bytes g.bwd + row_bytes + index_bytes g.fwd
      + index_bytes g.bwd;
    row_bytes;
    (* by_label is the only remaining heap-resident index: n vertex ids
       plus one header-ish word per label bucket. *)
    heap_bytes = (g.n + (3 * g.nv)) * 8;
    mapped = (match g.origin with Mapped _ -> true | Built -> false);
    nbr_width = Buf.width_bytes g.fwd.nbr;
  }

let bitmap_row g dir v ~elabel = row_of g (side g dir) v elabel
let bitmap_words g = g.bits

module Raw = struct
  type parts = {
    n : int;
    m : int;
    nv : int;
    ne : int;
    vlabel : Buf.i64a;
    fwd_off : Buf.i64a;
    fwd_nbr : Buf.t;
    bwd_off : Buf.i64a;
    bwd_nbr : Buf.t;
  }
end

let to_raw g : Raw.parts =
  {
    n = g.n;
    m = g.m;
    nv = g.nv;
    ne = g.ne;
    vlabel = g.vlabel;
    fwd_off = g.fwd.off;
    fwd_nbr = g.fwd.nbr;
    bwd_off = g.bwd.off;
    bwd_nbr = g.bwd.nbr;
  }

let of_raw ?mapped_from (p : Raw.parts) =
  let nslots = (p.n * p.ne * p.nv) + 1 in
  let check cond msg = if not cond then Error msg else Ok () in
  let ( let* ) = Result.bind in
  let* () = check (p.n >= 0 && p.m >= 0 && p.nv >= 1 && p.ne >= 1) "bad dimensions" in
  let* () = check (Bigarray.Array1.dim p.vlabel = p.n) "vlabel length mismatch" in
  let* () =
    check
      (Bigarray.Array1.dim p.fwd_off = nslots && Bigarray.Array1.dim p.bwd_off = nslots)
      "offset table length mismatch"
  in
  let* () =
    check
      (Buf.length p.fwd_nbr = p.m && Buf.length p.bwd_nbr = p.m)
      "adjacency length mismatch"
  in
  let ends_ok (off : Buf.i64a) =
    nslots = 1
    || (Bigarray.Array1.get off 0 = 0 && Bigarray.Array1.get off (nslots - 1) = p.m)
  in
  let* () = check (ends_ok p.fwd_off && ends_ok p.bwd_off) "offset table endpoints" in
  let labels_ok = ref true in
  for v = 0 to p.n - 1 do
    let l = Bigarray.Array1.unsafe_get p.vlabel v in
    if l < 0 || l >= p.nv then labels_ok := false
  done;
  let* () = check !labels_ok "vertex label out of range" in
  Ok
    (assemble ~n:p.n ~m:p.m ~nv:p.nv ~ne:p.ne ~vlabel:p.vlabel ~fwd_nbr:p.fwd_nbr
       ~fwd_off:p.fwd_off ~bwd_nbr:p.bwd_nbr ~bwd_off:p.bwd_off
       ~origin:(match mapped_from with Some path -> Mapped path | None -> Built))
