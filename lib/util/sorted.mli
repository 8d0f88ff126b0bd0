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
    or {!set_kernel_mode} at runtime. *)

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

(** The inputs of one k-way intersection, owned by the caller and reused
    across calls so that intersecting allocates nothing: list [i] is
    [bufs.(i).(lo.(i) .. hi.(i) - 1)], and [k] is the length of the
    arrays. [order] is per-call scratch (the lists by length); [scratch]
    and [scratch2] hold the running result of a cascade over three or
    more lists. An E/I operator allocates one per operator and refills
    [bufs]/[lo]/[hi] per tuple (see [Graph.neighbours_into]). *)
type lists = {
  bufs : Buf.t array;
  lo : int array;
  hi : int array;
  order : int array;
  scratch : Int_vec.t;
  scratch2 : Int_vec.t;
}

(** [lists k] is room for a [k]-way intersection, every list empty. *)
val lists : int -> lists

(** [set l i s] makes slice [s] list [i] of [l]. *)
val set : lists -> int -> slice -> unit

(** [of_slices a] is a fresh {!lists} over the slices of [a] (tests,
    benches, boundary callers). *)
val of_slices : slice array -> lists

(** [intersect out l] appends the k-way intersection of [l]'s lists onto
    [out] — the one multiway entry point, the pairwise cascade smallest
    lists first. Allocation-free (bar growth of [out] or of [l]'s scratch
    vectors). Two lists are one {!intersect2}; three or more are ordered
    by an insertion sort on length and narrowed through
    [l.scratch]/[l.scratch2]. With zero lists the result is empty; with
    one it is a copy of that list. *)
val intersect : Int_vec.t -> lists -> unit

(** [count_intersect2 a alo ahi b blo bhi] counts intersection size without
    materializing it. *)
val count_intersect2 : Buf.t -> int -> int -> Buf.t -> int -> int -> int

(** [is_sorted_strict a lo hi] checks strict ascending order (test helper). *)
val is_sorted_strict : Buf.t -> int -> int -> bool
