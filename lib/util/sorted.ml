(* Stdlib.min/max are polymorphic: on ints every call is a C compare. *)
let[@warning "-32"] min = Int.min and[@warning "-32"] max = Int.max

type slice = Buf.t * int * int

let slice_len ((_, lo, hi) : slice) = hi - lo

let of_array ?width a : slice = (Buf.of_int_array ?width a, 0, Array.length a)

(* ------------------------------------------------------------------ *)
(* C stubs and kernel dispatch                                         *)
(* ------------------------------------------------------------------ *)

external cpu_level : unit -> int = "gfq_cpu_level" [@@noalloc]
external set_level : int -> unit = "gfq_set_level" [@@noalloc]

external c_intersect_i32_i32 :
  Buf.i32a -> int -> int -> Buf.i32a -> int -> int -> Buf.i64a -> int -> int
  = "gfq_intersect_i32_i32_bc" "gfq_intersect_i32_i32"
[@@noalloc]

external c_intersect_i64_i32 :
  Buf.i64a -> int -> int -> Buf.i32a -> int -> int -> Buf.i64a -> int -> int
  = "gfq_intersect_i64_i32_bc" "gfq_intersect_i64_i32"
[@@noalloc]

external c_intersect_i64_i64 :
  Buf.i64a -> int -> int -> Buf.i64a -> int -> int -> Buf.i64a -> int -> int
  = "gfq_intersect_i64_i64_bc" "gfq_intersect_i64_i64"
[@@noalloc]

type bits = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

external c_probe_i32 : Buf.i32a -> int -> int -> bits -> int -> Buf.i64a -> int -> int
  = "gfq_probe_i32_bc" "gfq_probe_i32"
[@@noalloc]

external c_probe_i64 : Buf.i64a -> int -> int -> bits -> int -> Buf.i64a -> int -> int
  = "gfq_probe_i64_bc" "gfq_probe_i64"
[@@noalloc]

type kernel_mode = Scalar | Simd | Auto

let kernel_mode_to_string = function
  | Scalar -> "scalar"
  | Simd -> "simd"
  | Auto -> "auto"

let kernel_mode_of_string = function
  | "scalar" -> Some Scalar
  | "simd" -> Some Simd
  | "auto" -> Some Auto
  | _ -> None

let simd_available () = cpu_level () >= 1

let requested = ref Auto
let use_simd = ref false

(* [Scalar] holds the C kernels to their portable loops; the pairwise
   intersections then run the OCaml loops below. *)
let set_kernel_mode m =
  requested := m;
  use_simd :=
    (match m with Scalar -> false | Simd -> true | Auto -> simd_available ());
  set_level (if !use_simd then 2 else 0)

let kernel_mode () = !requested

(* The resolved kernel, for `stats` and benchmark reports. A forced [Simd]
   on hardware without vector units still runs through the C stubs, whose
   internal dispatch falls back to portable scalar C — reported
   distinctly so an A/B knows what it measured. *)
let kernel_name () =
  if not !use_simd then "scalar"
  else
    match cpu_level () with
    | 2 -> "simd-avx2"
    | 1 -> "simd-sse"
    | _ -> "simd-c-scalar"

let with_kernel_mode m f =
  let saved = !requested in
  set_kernel_mode m;
  Fun.protect ~finally:(fun () -> set_kernel_mode saved) f

let () =
  set_kernel_mode
    (match Sys.getenv_opt "GFQ_KERNEL" with
    | Some s -> (
        match kernel_mode_of_string (String.lowercase_ascii (String.trim s)) with
        | Some m -> m
        | None -> Auto)
    | None -> Auto)

(* ------------------------------------------------------------------ *)
(* Search primitives (portable, allocation-free)                       *)
(* ------------------------------------------------------------------ *)

(* Every scalar loop below exists once per element width: a loop reads
   its bigarrays directly, so no element read matches on [Buf.t]. A
   functor or a loop taking a reader function would not be specialised
   without flambda, and a read through an unknown bigarray kind is a C
   call. *)
module A = Bigarray.Array1

let lower_bound32 (a : Buf.i32a) lo hi x =
  let l = ref lo and h = ref hi in
  while !l < !h do
    let mid = (!l + !h) / 2 in
    if Int32.to_int (A.unsafe_get a mid) < x then l := mid + 1 else h := mid
  done;
  !l

let lower_bound64 (a : Buf.i64a) lo hi x =
  let l = ref lo and h = ref hi in
  while !l < !h do
    let mid = (!l + !h) / 2 in
    if A.unsafe_get a mid < x then l := mid + 1 else h := mid
  done;
  !l

(* Exponential search for x in a.(lo..hi-1), returns the least index with
   a.(i) >= x. Starts from lo, doubling the probe distance: O(log d) where d is
   the distance to the answer, which makes skewed intersections cheap.
   [cur] never passes [hi]. *)
let gallop32 (a : Buf.i32a) lo hi x =
  if lo >= hi || Int32.to_int (A.unsafe_get a lo) >= x then lo
  else begin
    let step = ref 1 and prev = ref lo and cur = ref (lo + 1) in
    while !cur < hi && Int32.to_int (A.unsafe_get a !cur) < x do
      prev := !cur;
      step := !step * 2;
      cur := if !cur + !step < hi then !cur + !step else hi
    done;
    lower_bound32 a (!prev + 1) !cur x
  end

let gallop64 (a : Buf.i64a) lo hi x =
  if lo >= hi || A.unsafe_get a lo >= x then lo
  else begin
    let step = ref 1 and prev = ref lo and cur = ref (lo + 1) in
    while !cur < hi && A.unsafe_get a !cur < x do
      prev := !cur;
      step := !step * 2;
      cur := if !cur + !step < hi then !cur + !step else hi
    done;
    lower_bound64 a (!prev + 1) !cur x
  end

let lower_bound a lo hi x =
  match a with
  | Buf.I32 a -> lower_bound32 a lo hi x
  | Buf.I64 a -> lower_bound64 a lo hi x

let member a lo hi x =
  let i = lower_bound a lo hi x in
  i < hi && Buf.unsafe_get a i = x

let gallop a lo hi x =
  match a with Buf.I32 a -> gallop32 a lo hi x | Buf.I64 a -> gallop64 a lo hi x

(* ------------------------------------------------------------------ *)
(* Pairwise intersection: scalar OCaml fallback + SIMD dispatch        *)
(* ------------------------------------------------------------------ *)

(* The scalar loops write matches into [o] from slot [n] on, which the
   caller has reserved, and return the new length. Intersection is
   symmetric, so merging an int32 list with an int64 one has one loop. *)
let tandem_32_32 (o : Buf.i64a) n (a : Buf.i32a) alo ahi (b : Buf.i32a) blo bhi =
  let i = ref alo and j = ref blo and n = ref n in
  while !i < ahi && !j < bhi do
    let x = Int32.to_int (A.unsafe_get a !i) and y = Int32.to_int (A.unsafe_get b !j) in
    if x < y then incr i
    else if y < x then incr j
    else begin
      A.unsafe_set o !n x;
      incr n;
      incr i;
      incr j
    end
  done;
  !n

let tandem_64_32 (o : Buf.i64a) n (a : Buf.i64a) alo ahi (b : Buf.i32a) blo bhi =
  let i = ref alo and j = ref blo and n = ref n in
  while !i < ahi && !j < bhi do
    let x = A.unsafe_get a !i and y = Int32.to_int (A.unsafe_get b !j) in
    if x < y then incr i
    else if y < x then incr j
    else begin
      A.unsafe_set o !n x;
      incr n;
      incr i;
      incr j
    end
  done;
  !n

let tandem_64_64 (o : Buf.i64a) n (a : Buf.i64a) alo ahi (b : Buf.i64a) blo bhi =
  let i = ref alo and j = ref blo and n = ref n in
  while !i < ahi && !j < bhi do
    let x = A.unsafe_get a !i and y = A.unsafe_get b !j in
    if x < y then incr i
    else if y < x then incr j
    else begin
      A.unsafe_set o !n x;
      incr n;
      incr i;
      incr j
    end
  done;
  !n

(* When |b| >> |a|, iterate over a and gallop in b: one loop per
   (a, b) width pair. *)
let gallop_32_32 (o : Buf.i64a) n (a : Buf.i32a) alo ahi (b : Buf.i32a) blo bhi =
  let i = ref alo and j = ref blo and n = ref n in
  while !i < ahi && !j < bhi do
    let x = Int32.to_int (A.unsafe_get a !i) in
    j := gallop32 b !j bhi x;
    if !j < bhi && Int32.to_int (A.unsafe_get b !j) = x then begin
      A.unsafe_set o !n x;
      incr n;
      incr j
    end;
    incr i
  done;
  !n

let gallop_64_32 (o : Buf.i64a) n (a : Buf.i64a) alo ahi (b : Buf.i32a) blo bhi =
  let i = ref alo and j = ref blo and n = ref n in
  while !i < ahi && !j < bhi do
    let x = A.unsafe_get a !i in
    j := gallop32 b !j bhi x;
    if !j < bhi && Int32.to_int (A.unsafe_get b !j) = x then begin
      A.unsafe_set o !n x;
      incr n;
      incr j
    end;
    incr i
  done;
  !n

let gallop_32_64 (o : Buf.i64a) n (a : Buf.i32a) alo ahi (b : Buf.i64a) blo bhi =
  let i = ref alo and j = ref blo and n = ref n in
  while !i < ahi && !j < bhi do
    let x = Int32.to_int (A.unsafe_get a !i) in
    j := gallop64 b !j bhi x;
    if !j < bhi && A.unsafe_get b !j = x then begin
      A.unsafe_set o !n x;
      incr n;
      incr j
    end;
    incr i
  done;
  !n

let gallop_64_64 (o : Buf.i64a) n (a : Buf.i64a) alo ahi (b : Buf.i64a) blo bhi =
  let i = ref alo and j = ref blo and n = ref n in
  while !i < ahi && !j < bhi do
    let x = A.unsafe_get a !i in
    j := gallop64 b !j bhi x;
    if !j < bhi && A.unsafe_get b !j = x then begin
      A.unsafe_set o !n x;
      incr n;
      incr j
    end;
    incr i
  done;
  !n

let intersect2_tandem o n a alo ahi b blo bhi =
  match (a, b) with
  | Buf.I32 a, Buf.I32 b -> tandem_32_32 o n a alo ahi b blo bhi
  | Buf.I64 a, Buf.I32 b -> tandem_64_32 o n a alo ahi b blo bhi
  | Buf.I32 a, Buf.I64 b -> tandem_64_32 o n b blo bhi a alo ahi
  | Buf.I64 a, Buf.I64 b -> tandem_64_64 o n a alo ahi b blo bhi

let intersect2_gallop o n a alo ahi b blo bhi =
  match (a, b) with
  | Buf.I32 a, Buf.I32 b -> gallop_32_32 o n a alo ahi b blo bhi
  | Buf.I64 a, Buf.I32 b -> gallop_64_32 o n a alo ahi b blo bhi
  | Buf.I32 a, Buf.I64 b -> gallop_32_64 o n a alo ahi b blo bhi
  | Buf.I64 a, Buf.I64 b -> gallop_64_64 o n a alo ahi b blo bhi

let gallop_threshold = 16

(* A match is an element of both lists, so min(|a|, |b|) slots suffice. *)
let intersect2_scalar out a alo ahi b blo bhi =
  let la = ahi - alo and lb = bhi - blo in
  if la > 0 && lb > 0 then begin
    let pos = Int_vec.length out in
    Int_vec.ensure out (pos + if la < lb then la else lb);
    let o = Int_vec.big out in
    let n =
      if lb > la * gallop_threshold then intersect2_gallop o pos a alo ahi b blo bhi
      else if la > lb * gallop_threshold then intersect2_gallop o pos b blo bhi a alo ahi
      else intersect2_tandem o pos a alo ahi b blo bhi
    in
    Int_vec.unsafe_set_len out n
  end

(* The vectorized kernels use unconditional full-width stores: reserve
   min(|a|, |b|) for results plus 8 lanes of scratch slack. *)
let simd_slack = 8

let intersect2_simd out a alo ahi b blo bhi =
  let la = ahi - alo and lb = bhi - blo in
  if la = 0 || lb = 0 then ()
  else begin
    let pos = Int_vec.length out in
    Int_vec.ensure out (pos + min la lb + simd_slack);
    let o = Int_vec.big out in
    let n =
      match (a, b) with
      | Buf.I32 a32, Buf.I32 b32 -> c_intersect_i32_i32 a32 alo ahi b32 blo bhi o pos
      | Buf.I64 a64, Buf.I32 b32 -> c_intersect_i64_i32 a64 alo ahi b32 blo bhi o pos
      | Buf.I32 a32, Buf.I64 b64 -> c_intersect_i64_i32 b64 blo bhi a32 alo ahi o pos
      | Buf.I64 a64, Buf.I64 b64 -> c_intersect_i64_i64 a64 alo ahi b64 blo bhi o pos
    in
    Int_vec.unsafe_set_len out n
  end

let intersect2 out a alo ahi b blo bhi =
  if !use_simd then intersect2_simd out a alo ahi b blo bhi
  else intersect2_scalar out a alo ahi b blo bhi

(* One reused output vector per domain, so counting allocates nothing. *)
let count_out = Domain.DLS.new_key (fun () -> Int_vec.create ~capacity:64 ())

let count_intersect2 a alo ahi b blo bhi =
  let out = Domain.DLS.get count_out in
  Int_vec.clear out;
  intersect2 out a alo ahi b blo bhi;
  Int_vec.length out

(* ------------------------------------------------------------------ *)
(* Bitmap probe                                                        *)
(* ------------------------------------------------------------------ *)

let no_bits : bits = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 0

let mark (bits : bits) row x =
  let w = row + (x lsr 6) in
  Bigarray.Array1.set bits w
    (Int64.logor (Bigarray.Array1.get bits w) (Int64.shift_left 1L (x land 63)))

(* One C loop in every kernel mode: it has no SIMD content. It stores
   every element and advances by its bit, so it writes at most |a| slots
   past the current length. *)
let probe out a alo ahi bits row =
  let pos = Int_vec.length out in
  Int_vec.ensure out (pos + (ahi - alo));
  let o = Int_vec.big out in
  let n =
    match a with
    | Buf.I32 a32 -> c_probe_i32 a32 alo ahi bits row o pos
    | Buf.I64 a64 -> c_probe_i64 a64 alo ahi bits row o pos
  in
  Int_vec.unsafe_set_len out n

(* ------------------------------------------------------------------ *)
(* Multiway intersection                                               *)
(* ------------------------------------------------------------------ *)

type lists = {
  bufs : Buf.t array;
  lo : int array;
  hi : int array;
  bits : bits;
  row : int array;
  order : int array;
  scratch : Int_vec.t;
  scratch2 : Int_vec.t;
}

(* A cascade over k lists narrows through [scratch] from k = 3 and through
   [scratch2] from k = 4; below that they are this placeholder, never
   written, so the common one- and two-list operators allocate no
   off-heap vectors. *)
let unused = Int_vec.create ~capacity:1 ()

let lists ?(bits = no_bits) ?scratch k =
  let vec min_k which =
    if k < min_k then unused
    else match scratch with Some s -> which s | None -> Int_vec.create ~capacity:64 ()
  in
  {
    bufs = Array.make k Buf.empty;
    lo = Array.make k 0;
    hi = Array.make k 0;
    bits;
    row = Array.make k (-1);
    order = Array.make k 0;
    scratch = vec 3 fst;
    scratch2 = vec 4 snd;
  }

let set l i ((b, lo, hi) : slice) =
  l.bufs.(i) <- b;
  l.lo.(i) <- lo;
  l.hi.(i) <- hi;
  l.row.(i) <- -1

let of_slices ?bits slices =
  let l = lists ?bits (Array.length slices) in
  Array.iteri (set l) slices;
  l

let len l i = l.hi.(i) - l.lo.(i)

(* [l.order.(0 .. k-1)] := list indices by ascending length, by insertion
   sort: k is the number of E/I descriptors, a handful at most. *)
let sort_order l k =
  let order = l.order in
  for i = 0 to k - 1 do
    let x = order.(i) in
    let kx = len l x in
    let j = ref (i - 1) in
    while !j >= 0 && len l order.(!j) > kx do
      order.(!j + 1) <- order.(!j);
      decr j
    done;
    order.(!j + 1) <- x
  done

(* The slice [a.(alo .. ahi - 1)], no longer than list [b] of [l],
   intersected with [b] onto [out]: a probe of [b]'s bitmap row when it has
   one and is at least twice as long, else {!intersect2}. *)
let step out a alo ahi l b =
  let r = l.row.(b) in
  if r >= 0 && len l b >= 2 * (ahi - alo) then probe out a alo ahi l.bits r
  else intersect2 out a alo ahi l.bufs.(b) l.lo.(b) l.hi.(b)

(* Lists [a] and [b] of [l], [a] the shorter, onto [out]. *)
let pair out l a b = step out l.bufs.(a) l.lo.(a) l.hi.(a) l b

let cascade out l k =
  if k = 2 then if len l 1 < len l 0 then pair out l 1 0 else pair out l 0 1
  else begin
    let order = l.order in
    for i = 0 to k - 1 do
      order.(i) <- i
    done;
    sort_order l k;
    (* Narrow a running result from the two smallest lists up, ping-ponging
       between the scratch vectors; k = 3 needs only the first. *)
    let cur = ref l.scratch and next = ref l.scratch2 in
    Int_vec.clear !cur;
    pair !cur l order.(0) order.(1);
    for j = 2 to k - 2 do
      let b = order.(j) in
      Int_vec.clear !next;
      step !next (Int_vec.buf !cur) 0 (Int_vec.length !cur) l b;
      let t = !cur in
      cur := !next;
      next := t
    done;
    step out (Int_vec.buf !cur) 0 (Int_vec.length !cur) l order.(k - 1)
  end

let intersect out l =
  match Array.length l.lo with
  | 0 -> ()
  | 1 -> Int_vec.push_buf out l.bufs.(0) l.lo.(0) l.hi.(0)
  | k -> cascade out l k

(* ------------------------------------------------------------------ *)
(* Run kernel                                                          *)
(* ------------------------------------------------------------------ *)

type csr = {
  nbr : Buf.t;
  off : Buf.i64a;
  stride : int;
  base : int;
  rows : Buf.i32a;
  rstride : int;
  rbase : int;
}

(* A group of runs: one shared prefix, one key column whose value changes
   from run to run, and each run's candidates in one buffer. The C kernel
   reads these fields by position: keep the order in step with the G_*
   indices of sorted_stubs.c. *)
type group = {
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

let run_lo (g : group) j = if j = g.first then g.lo else g.starts.(j)
let run_hi (g : group) j = if j = g.last - 1 then g.hi else g.ends.(j)

type prev = { mutable same : bool; mutable last_key : int; mutable last_c : int }
type source = Absent | Fixed | Own | Key

(* Field order in step with the R_* indices of sorted_stubs.c. *)
type run = {
  source : source;
  cache : bool;
  mutable s : Buf.t;
  mutable s_lo : int;
  mutable s_hi : int;
  mutable s_row : int;
  mutable s_total : int;
  run_bits : bits;
  vary : csr array;
  keyed : csr array;
  prev : prev;
  keys : int array;
  starts : int array;
  ends : int array;
  mutable j : int;
  mutable i : int;
  mutable stop : int;
  mutable icost : int;
  mutable charged : int;
  mutable hits : int;
  mutable ticks : int;
  mutable need : int;
  mutable outside : bool;
  cl : lists;
}

let run_chunk = 64

external c_run : run -> bool -> int -> Buf.i64a -> group -> int = "gfq_run" [@@noalloc]

let run_state ?(bits = no_bits) ?scratch ?(keyed = [||]) ~cache ~source vary =
  if Array.length vary = 0 then invalid_arg "Sorted.run_state: no varying list";
  if source = Key && Array.length keyed = 0 then invalid_arg "Sorted.run_state: no keyed list";
  let k = Array.length vary + if source = Absent then 0 else 1 in
  {
    source;
    cache;
    s = Buf.empty;
    s_lo = 0;
    s_hi = 0;
    s_row = -1;
    s_total = 0;
    run_bits = bits;
    vary;
    keyed;
    prev = { same = false; last_key = 0; last_c = 0 };
    keys = Array.make run_chunk 0;
    starts = Array.make run_chunk 0;
    ends = Array.make run_chunk 0;
    j = 0;
    i = 0;
    stop = 0;
    icost = 0;
    charged = 0;
    hits = 0;
    ticks = 0;
    need = 0;
    outside = false;
    cl = lists ~bits ?scratch k;
  }

let set_shared r s lo hi row =
  if r.s != s then r.s <- s;
  r.s_lo <- lo;
  r.s_hi <- hi;
  r.s_row <- row

let set_total r n = r.s_total <- n

let seek r ~j ~i ~stop =
  r.j <- j;
  r.i <- i;
  r.stop <- stop

(* List [i] of [r.cl] := vertex [c]'s list of [v]. *)
let fill_list r i c (v : csr) =
  let l = r.cl in
  let k = (c * v.stride) + v.base in
  let lo = Bigarray.Array1.unsafe_get v.off k and hi = Bigarray.Array1.unsafe_get v.off (k + 1) in
  if l.bufs.(i) != v.nbr then l.bufs.(i) <- v.nbr;
  l.lo.(i) <- lo;
  l.hi.(i) <- hi;
  l.row.(i) <-
    (if Bigarray.Array1.dim v.rows = 0 || Bigarray.Array1.dim r.run_bits = 0 then -1
     else Int32.to_int (Bigarray.Array1.unsafe_get v.rows ((c * v.rstride) + v.rbase)))

let run_lists r (g : group) j c =
  let l = r.cl and key = g.keys.(j) in
  let first =
    match r.source with
    | Absent -> 0
    | Fixed ->
        if l.bufs.(0) != r.s then l.bufs.(0) <- r.s;
        l.lo.(0) <- r.s_lo;
        l.hi.(0) <- r.s_hi;
        l.row.(0) <- r.s_row;
        1
    | Own ->
        if l.bufs.(0) != g.cands then l.bufs.(0) <- g.cands;
        l.lo.(0) <- g.starts.(j);
        l.hi.(0) <- g.ends.(j);
        l.row.(0) <- -1;
        1
    | Key ->
        fill_list r 0 key r.keyed.(0);
        1
  in
  for q = 0 to Array.length r.vary - 1 do
    fill_list r (first + q) c r.vary.(q)
  done;
  l

let run_call ~count ~giant r out g = c_run r count giant (Int_vec.big out) g

let run_kernel ~count ~giant r out g =
  Int_vec.clear out;
  let k = run_call ~count ~giant r out g in
  let k =
    if k = 0 && r.need > 0 then begin
      Int_vec.ensure out r.need;
      run_call ~count ~giant r out g
    end
    else k
  in
  if (not count) && k > 0 then Int_vec.unsafe_set_len out r.ends.(k - 1);
  k

let is_sorted_strict a lo hi =
  let ok = ref true in
  for i = lo + 1 to hi - 1 do
    if Buf.get a (i - 1) >= Buf.get a i then ok := false
  done;
  !ok
