(** Intersection kernels over sorted integer slices.

    A slice is a triple [(buf, lo, hi)] denoting [buf.(lo) .. buf.(hi - 1)],
    strictly increasing, over an off-heap {!Buf.t}. These kernels are the
    computational core of the EXTEND/INTERSECT operator: the worst-case
    optimal multiway intersection is realized as iterative 2-way
    intersections, smallest lists first ({!intersect}, the one multiway
    kernel).

    Two interchangeable pairwise kernels sit behind {!intersect2}: a
    portable scalar OCaml kernel (in-tandem merge switching to galloping
    search under skew) and C stubs over the raw Bigarray payloads —
    shuffle-based SSE/AVX2 pairwise intersection and blocked galloping,
    selected per-CPU at runtime. Both produce bit-identical output (the
    set intersection of strictly increasing sequences is unique); the
    differential test suite enforces it. Selection: the [GFQ_KERNEL]
    environment variable ([scalar|simd|auto], default [auto]) at startup,
    or {!set_kernel_mode} at runtime.

    A list of a k-way intersection may also carry a bitmap row: one bit
    per vertex id, set for every member of the list's whole (vertex,
    direction, edge label) adjacency list ([Graph] derives rows for the
    longest lists). A cascade step whose longer input has a row at least
    twice the shorter's length probes the row once per element of the
    shorter input instead of merging or galloping: same output, sorted,
    at one bit test per element. *)

type slice = Buf.t * int * int

val slice_len : slice -> int

(** [of_array a] copies a heap array into an off-heap slice (tests,
    benches, boundary callers). *)
val of_array : ?width:[ `Auto | `I32 | `I64 ] -> int array -> slice

(** {1 Kernel dispatch} *)

type kernel_mode = Scalar | Simd | Auto

val kernel_mode_of_string : string -> kernel_mode option
val kernel_mode_to_string : kernel_mode -> string

(** [set_kernel_mode m] routes subsequent {!intersect2} calls: [Scalar]
    forces the portable OCaml kernel, [Simd] the C stubs, [Auto] picks
    the stubs when the CPU has vector units. The run kernel
    ({!run_kernel}) is C in every mode; [Scalar] holds it to its portable
    loops. *)
val set_kernel_mode : kernel_mode -> unit

(** The currently requested mode. *)
val kernel_mode : unit -> kernel_mode

(** The resolved kernel actually running: ["scalar"] (the OCaml pairwise
    loops and the portable C run kernel), ["simd-avx2"], ["simd-sse"], or
    ["simd-c-scalar"] (C stubs forced on a CPU without vector units). *)
val kernel_name : unit -> string

(** [with_kernel_mode m f] runs [f] under mode [m], restoring the
    previous mode afterwards — the benchmark A/B harness. *)
val with_kernel_mode : kernel_mode -> (unit -> 'a) -> 'a

(** Raw CPUID probe level from the stubs: 0 none, 1 SSE4, 2 AVX2. *)
val cpu_level : unit -> int

(** {1 Search primitives} *)

(** [member a lo hi x] is binary search for [x] in the slice. *)
val member : Buf.t -> int -> int -> int -> bool

(** [lower_bound a lo hi x] is the least index [i in [lo, hi]] with
    [a.(i) >= x] (or [hi] when none). *)
val lower_bound : Buf.t -> int -> int -> int -> int

(** [gallop a lo hi x] is [lower_bound] by exponential search from [lo]:
    O(log d) in the distance [d] to the answer instead of O(log (hi - lo)),
    which is what makes skewed intersections cheap. *)
val gallop : Buf.t -> int -> int -> int -> int

(** {1 Intersection} *)

(** [intersect2 out a alo ahi b blo bhi] appends the intersection of two
    sorted slices onto [out], through whichever kernel is active. *)
val intersect2 : Int_vec.t -> Buf.t -> int -> int -> Buf.t -> int -> int -> unit

(** {1 Bitmap rows} *)

(** 64-bit words of bitmap rows; bit [x land 63] of word [row + x lsr 6]
    stands for element [x] of the row starting at word [row]. *)
type bits = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [mark bits row x] sets element [x]'s bit in the row at word [row]. *)
val mark : bits -> int -> int -> unit

(** [probe out a alo ahi bits row] appends the elements of the slice
    whose bit is set in the row at word [row] of [bits], in slice order:
    the intersection of the slice with the row's set. One branch-free C
    loop in every kernel mode. *)
val probe : Int_vec.t -> Buf.t -> int -> int -> bits -> int -> unit

(** The inputs of one k-way intersection, owned by the caller and reused
    across calls so that intersecting allocates nothing: list [i] is
    [bufs.(i).(lo.(i) .. hi.(i) - 1)], and [k] is the length of the
    arrays. [row.(i)] is the word offset in [bits] of the list's bitmap
    row, or [-1]: every list of one intersection comes from one graph, so
    they share one word array, fixed when [l] is made. A row may hold more than the list (the other
    neighbour labels of the same adjacency list): probing it is exact
    because every list of one intersection holds ids of one vertex
    label, and it stands for the whole list, so only a list without a
    row, or the shortest one, may be narrowed to a sub-range. [order] is
    per-call scratch (the lists by length); [scratch] and [scratch2] hold
    the running result of a cascade over three or more lists. An E/I
    operator allocates one per operator and refills
    [bufs]/[lo]/[hi]/[row] per tuple (see [Graph.neighbours_into]). *)
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

(** [lists ?bits ?scratch k] is room for a [k]-way intersection over the
    rows of [bits] (default: none), every list empty and without a row.
    [scratch] supplies the cascade's two vectors (default: fresh ones, made
    only for [k >= 3] and [k >= 4]). *)
val lists : ?bits:bits -> ?scratch:Int_vec.t * Int_vec.t -> int -> lists

(** [set l i s] makes slice [s], without a row, list [i] of [l]. *)
val set : lists -> int -> slice -> unit

(** [of_slices ?bits a] is a fresh {!lists} over the slices of [a]
    (tests, benches, boundary callers). *)
val of_slices : ?bits:bits -> slice array -> lists

(** [intersect out l] appends the k-way intersection of [l]'s lists onto
    [out] — the one multiway entry point, the pairwise cascade smallest
    lists first. Allocation-free (bar growth of [out] or of [l]'s scratch
    vectors). Two lists are one step; three or more are ordered by an
    insertion sort on length and narrowed through [l.scratch]/[l.scratch2].
    Each step is a probe of the longer input's row when it has one at
    least twice the shorter's length, else {!intersect2}. With zero lists
    the result is empty; with one it is a copy of that list. *)
val intersect : Int_vec.t -> lists -> unit

(** {1 Run kernel}

    A run is a bound prefix [p] plus a candidate slice [C]: it stands for
    the tuples [p ++ [c]]. The E/I operator extends a whole run at once.
    The lists its descriptors source from [p] (the {e stable} lists) are
    the same for every candidate and are intersected once into a shared
    set [S]; the lists sourced from [c] itself (the {e varying} lists) are
    read per candidate from the CSR arrays, and the run kernel computes
    every [S ∩ V_1(c) ∩ ...] in one call per chunk of candidates. A chunk
    may span the runs of a {!group}, each with its own [S]. *)

(** The varying lists of one (direction, edge label, neighbour label):
    candidate [c]'s list is [nbr.(off.(x) .. off.(x + 1) - 1)] with
    [x = c * stride + base], and its bitmap row, when [rows] is not empty,
    is the word offset [rows.(c * rstride + rbase)] (or [-1]) in the run's
    [bits]. [Graph.csr] makes one. *)
type csr = {
  nbr : Buf.t;
  off : Buf.i64a;
  stride : int;
  base : int;
  rows : Buf.i32a;
  rstride : int;
  rbase : int;
}

(** A group of sibling runs: one shared prefix, one {e key} column whose
    value changes from run to run, and each run's candidates in one
    buffer. With [w = Array.length tuple], run [j] for [j] in
    [\[first, last)] stands for the tuples
    [tuple.(0 .. w - 3) ++ [keys.(j)] ++ [c]] for [c] in
    [cands.(run_lo g j .. run_hi g j - 1)]. [starts.(j) .. ends.(j) - 1] is
    the whole run — the extension set of [prefix ++ [keys.(j)]] when an
    E/I made it — and [lo] and [hi] cut the first and last run when the
    group is handed on in pieces. A plain run is a group of one run. A
    consumer may write [tuple.(w - 2)] and [tuple.(w - 1)], must not
    write the rest, and must not keep the group past its call. *)
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

(** [run_lo g j] and [run_hi g j] bound run [j]'s candidates in [g]. *)
val run_lo : group -> int -> int
val run_hi : group -> int -> int

(** The previous tuple an E/I extended, for its cache: [same] when it
    exists and its sources in the current group's prefix equal this
    group's, then its key and its candidate. *)
type prev = { mutable same : bool; mutable last_key : int; mutable last_c : int }

(** Where a run's shared set [S] comes from: nowhere ([Absent], every list
    varies), one set for the whole call ([Fixed], set by {!set_shared}),
    the run's own whole candidate slice ([Own]: the E/I below has this
    one's stable descriptors, so its extension set is [S]), or the key's
    list in the first [keyed] CSR, with its bitmap row ([Key]: the one
    stable list is sourced from the key column). *)
type source = Absent | Fixed | Own | Key

(** The state of one run kernel, reused across calls: where [S] comes from
    and the fixed one, the varying lists, the stable lists sourced from
    the key column ([keyed]), the previous tuple, and what the last
    {!run_kernel} call reports — for its [q]th candidate, [keys.(q)] is
    the candidate and its result is between [starts.(q)] and [ends.(q)];
    [(j, i)] is where it stopped, and [outside] whether it stopped on a
    candidate left outside it; [charged] candidates were charged [icost]
    in all (the stable lists' total — [s_total] plus the key's [keyed]
    lists — plus their varying lists'), [hits] were cache hits, and
    [ticks] is the governor work of [Key] sets that changed. The other
    fields are the kernel's own. *)
type run = private {
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

(** The most candidates one {!run_kernel} call takes: [64]. *)
val run_chunk : int

(** [run_state ?bits ?scratch ?keyed ~cache ~source vary] is a kernel over
    the varying lists [vary] (at least one), its shared set from [source]
    ([Key] needs [keyed]), counting cache hits when [cache]. Rows are read
    from [bits], which must be the word array the CSR row offsets point
    into; without [bits] no row is probed. [scratch] is as for {!lists},
    used when a candidate has three or more lists. *)
val run_state :
  ?bits:bits ->
  ?scratch:Int_vec.t * Int_vec.t ->
  ?keyed:csr array ->
  cache:bool ->
  source:source ->
  csr array ->
  run

(** [set_shared r s lo hi row] makes [s.(lo .. hi - 1)], with bitmap row
    [row] (or [-1]), the [Fixed] shared set. *)
val set_shared : run -> Buf.t -> int -> int -> int -> unit

(** [set_total r n] makes [n] the stable lists' length charged per tuple
    besides the [keyed] lists'. *)
val set_total : run -> int -> unit

(** [seek r ~j ~i ~stop] makes the next {!run_kernel} call start at
    candidate position [i] of run [j] and stop before run [stop]. *)
val seek : run -> j:int -> i:int -> stop:int -> unit

(** [run_kernel ~count ~giant r out g] extends the candidates of group
    [g] from [(r.j, r.i)] on, up to run [r.stop] — at most {!run_chunk} of
    them, across runs — computing for each candidate [c] of run [j] the
    intersection of run [j]'s shared set with every varying list of [c],
    each pair by {!intersect}'s rule (probe a row at least twice as long,
    else merge or gallop), and counting it as {!run} says. It clears
    [out]; result [q] is [out] between [starts.(q)] and [ends.(q)]. With
    [count] only the sizes are kept ([out] is scratch). It returns the
    number of candidates intersected. A candidate whose smallest list is
    longer than [giant], or that has more than 16 lists, is left outside
    the kernel: the call stops before it, or, when it comes first, counts
    it alone, leaves [(r.j, r.i)] on it and sets [r.outside], returning
    [0]; the caller intersects it (see {!run_lists}) and moves past it
    with {!seek}. [0] without [r.outside] means [r.j = r.stop]. One C
    call does the chunk, under [Scalar] with portable loops. *)
val run_kernel : count:bool -> giant:int -> run -> Int_vec.t -> group -> int

(** [run_lists r g j c] is the lists of candidate [c] of run [j] of [g] —
    the run's shared set first, then the varying lists — as a {!lists} of
    [r], for {!intersect} (or a segmented intersection) outside the
    kernel. Valid until the next call on [r]. *)
val run_lists : run -> group -> int -> int -> lists

(** [count_intersect2 a alo ahi b blo bhi] is the intersection's size,
    computed by {!intersect2} into an output vector reused per domain, so
    it allocates nothing. *)
val count_intersect2 : Buf.t -> int -> int -> Buf.t -> int -> int -> int

(** [is_sorted_strict a lo hi] checks strict ascending order (test helper). *)
val is_sorted_strict : Buf.t -> int -> int -> bool
