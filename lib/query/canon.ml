(* The canonical code of a query is the smallest string, over vertex orders,
   of the encoding

     n|l₀,l₁,…,|mark|s>d@l|s>d@l…

   (vertex labels by position, the marked vertex's position or "-", then the
   edges sorted by (src, dst, label) position-wise), ties between orders
   broken by the lexicographically smallest position -> vertex sequence.
   Only orders that can win are searched (see [search]); each candidate is
   encoded into a reused buffer and compared in place. *)

(* Digits of [-x] for [x <= 0] (so [min_int] needs no negation). *)
let rec add_digits b x =
  if x <= -10 then add_digits b (x / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (x mod 10)))

(* [x] exactly as [string_of_int] writes it, without the string. *)
let add_int b x =
  if x < 0 then begin
    Buffer.add_char b '-';
    add_digits b x
  end
  else add_digits b (-x)

(* [String.compare] on two buffers' contents, without copying them out. *)
let rec less_from a b i =
  if i = Buffer.length a || i = Buffer.length b then Buffer.length a < Buffer.length b
  else
    let ca = Buffer.nth a i and cb = Buffer.nth b i in
    if ca <> cb then ca < cb else less_from a b (i + 1)

let less a b = less_from a b 0

let before keys (edges : Query.edge array) i j =
  keys.(i) < keys.(j) || (keys.(i) = keys.(j) && edges.(i).label < edges.(j).label)

(* Insertion sort of the edge indices [order] by (src, dst, label) under
   [perm], keyed by [src * n + dst]. Consecutive candidates differ in a few
   positions, so the previous candidate's order is nearly sorted. *)
let sort_edges q perm keys order =
  let n = Query.num_vertices q and edges = q.Query.edges in
  for i = 0 to Array.length edges - 1 do
    keys.(i) <- (perm.(edges.(i).src) * n) + perm.(edges.(i).dst)
  done;
  for k = 1 to Array.length order - 1 do
    let x = order.(k) in
    let j = ref (k - 1) in
    while !j >= 0 && before keys edges x order.(!j) do
      order.(!j + 1) <- order.(!j);
      decr j
    done;
    order.(!j + 1) <- x
  done

(* The encoding of [q] under the order [at] (position -> vertex) and its
   inverse [perm] (vertex -> position), appended to [b]. *)
let encode b q mark at perm keys order =
  let n = Query.num_vertices q in
  add_int b n;
  Buffer.add_char b '|';
  for pos = 0 to n - 1 do
    add_int b (Query.vlabel q at.(pos));
    Buffer.add_char b ','
  done;
  Buffer.add_char b '|';
  (match mark with None -> Buffer.add_char b '-' | Some m -> add_int b perm.(m));
  sort_edges q perm keys order;
  for k = 0 to Array.length order - 1 do
    let e = q.Query.edges.(order.(k)) in
    Buffer.add_char b '|';
    add_int b perm.(e.src);
    Buffer.add_char b '>';
    add_int b perm.(e.dst);
    Buffer.add_char b '@';
    add_int b e.label
  done

let reverse a lo hi =
  let l = ref lo and r = ref (hi - 1) in
  while !l < !r do
    let t = a.(!l) in
    a.(!l) <- a.(!r);
    a.(!r) <- t;
    incr l;
    decr r
  done

(* Rearrange [a.(lo) .. a.(hi - 1)] into its next permutation in
   lexicographic order; false (leaving the range descending) when it was
   the last. *)
let next_perm a lo hi =
  let i = ref (hi - 2) in
  while !i >= lo && a.(!i) > a.(!i + 1) do decr i done;
  !i >= lo
  && begin
       let j = ref (hi - 1) in
       while a.(!j) < a.(!i) do decr j done;
       let t = a.(!i) in
       a.(!i) <- a.(!j);
       a.(!j) <- t;
       reverse a (!i + 1) hi;
       true
     end

(* Which orders can win. Each label token ends in ',', so no token is a
   prefix of another and the label part is smallest exactly when positions
   list the labels in the string order of [string_of_int] ("10" < "2").
   The mark's position comes next: among those orders it is smallest when
   the marked vertex comes first among the vertices with its label (one
   digit, as positions are < [max_exact]). So the vertices fall into cells
   of equal label at fixed position ranges, and only orders within cells
   are searched — in lexicographic order of [at], the last cell turning
   fastest, so the first minimum found is the one a search over all n!
   orders in lexicographic order would keep. *)
let search q mark =
  let n = Query.num_vertices q in
  let token = Array.init n (fun v -> string_of_int (Query.vlabel q v)) in
  let marked v = match mark with Some m -> m = v | None -> false in
  let at = Array.init n Fun.id in
  Array.stable_sort
    (fun a b ->
      match String.compare token.(a) token.(b) with
      | 0 -> compare (marked b) (marked a)
      | c -> c)
    at;
  (* The permutable range [lo, hi) of each cell, the marked vertex pinned. *)
  let ranges = ref [] in
  let start = ref 0 in
  for i = 1 to n do
    if i = n || token.(at.(i)) <> token.(at.(!start)) then begin
      let lo = if marked at.(!start) then !start + 1 else !start in
      if i - lo >= 2 then ranges := (lo, i) :: !ranges;
      start := i
    end
  done;
  let ranges = Array.of_list (List.rev !ranges) in
  let rec advance k =
    k >= 0
    &&
    let lo, hi = ranges.(k) in
    next_perm at lo hi
    || begin
         reverse at lo hi;
         advance (k - 1)
       end
  in
  let m = Query.num_edges q in
  let keys = Array.make m 0 and order = Array.init m Fun.id in
  let perm = Array.make n 0 and best_perm = Array.make n 0 in
  let cand = ref (Buffer.create 128) and best = ref (Buffer.create 128) in
  let continue = ref true in
  while !continue do
    for pos = 0 to n - 1 do
      perm.(at.(pos)) <- pos
    done;
    Buffer.clear !cand;
    encode !cand q mark at perm keys order;
    (* An encoding is never empty, so an empty [best] means none yet. *)
    if Buffer.length !best = 0 || less !cand !best then begin
      let t = !best in
      best := !cand;
      cand := t;
      Array.blit perm 0 best_perm 0 n
    end;
    continue := advance (Array.length ranges - 1)
  done;
  (Buffer.contents !best, best_perm)

let max_exact = 8

let compute ?mark q =
  let n = Query.num_vertices q in
  if n > max_exact then begin
    (* Too many vertices for the exact search: fall back to the exact
       structural encoding under the identity numbering.  The "#" prefix
       keeps fallback codes disjoint from true canonical codes, so equal
       codes still imply isomorphic queries (here: identical queries) —
       the fallback only loses hits for isomorphs submitted with a
       different vertex numbering, it can never alias distinct shapes. *)
    let perm = Array.init n Fun.id in
    let m = Query.num_edges q in
    let b = Buffer.create 128 in
    Buffer.add_char b '#';
    encode b q mark perm perm (Array.make m 0) (Array.init m Fun.id);
    (Buffer.contents b, perm)
  end
  else search q mark

(* Callers (the catalogue on every estimate, the plan cache on every lookup)
   hit the same handful of query values over and over, so memoize by
   structural (query, mark) key.  The table is process-global and bounded;
   it is cleared wholesale when it grows past [memo_cap] (distinct
   templates are few in practice).  A mutex guards it because service
   workers canonicalize concurrently. *)
let memo : (Query.t * int option, string * int array) Hashtbl.t = Hashtbl.create 64
let memo_cap = 4096
let memo_lock = Mutex.create ()

let ncalls = Atomic.make 0
let calls () = Atomic.get ncalls

let code ?mark q =
  Atomic.incr ncalls;
  let key = (q, mark) in
  Mutex.lock memo_lock;
  match Hashtbl.find_opt memo key with
  | Some r ->
      Mutex.unlock memo_lock;
      r
  | None ->
      Mutex.unlock memo_lock;
      let r = compute ?mark q in
      Mutex.lock memo_lock;
      if Hashtbl.length memo >= memo_cap then Hashtbl.reset memo;
      Hashtbl.replace memo key r;
      Mutex.unlock memo_lock;
      r

let iso ?mark1 ?mark2 q1 q2 =
  Query.num_vertices q1 = Query.num_vertices q2
  && Query.num_edges q1 = Query.num_edges q2
  && fst (code ?mark:mark1 q1) = fst (code ?mark:mark2 q2)
