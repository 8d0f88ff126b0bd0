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
    the stubs when the CPU has vector units. *)
val set_kernel_mode : kernel_mode -> unit

(** The currently requested mode. *)
val kernel_mode : unit -> kernel_mode

(** The resolved kernel actually running: ["scalar"], ["simd-avx2"],
    ["simd-sse"], or ["simd-c-scalar"] (C stubs forced on a CPU without
    vector units). *)
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

(** [lists ?bits k] is room for a [k]-way intersection over the rows of
    [bits] (default: none), every list empty and without a row. *)
val lists : ?bits:bits -> int -> lists

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

(** [count_intersect2 a alo ahi b blo bhi] is the intersection's size,
    computed by {!intersect2} into an output vector reused per domain, so
    it allocates nothing. *)
val count_intersect2 : Buf.t -> int -> int -> Buf.t -> int -> int -> int

(** [is_sorted_strict a lo hi] checks strict ascending order (test helper). *)
val is_sorted_strict : Buf.t -> int -> int -> bool
