/* Native intersection kernels over off-heap sorted integer buffers.
 *
 * Inputs are Bigarray payloads: int32 adjacency (graphs with n < 2^31),
 * native-int (64-bit untagged) intermediate buffers. Outputs are always
 * written into a native-int Bigarray (the Int_vec backing store), starting
 * at a caller-supplied position; every entry point returns the new length.
 * The OCaml caller guarantees capacity >= pos + min(|a|, |b|) + 8 — the
 * vectorized paths use unconditional full-width stores, so up to 8 lanes
 * of scratch beyond the logical length may be clobbered.
 *
 * Dispatch is CPUID-based and happens once: gfq_cpu_level() probes AVX2 /
 * SSE4.2 support at first use; non-x86 builds compile only the portable
 * scalar paths and report level 0. gfq_set_level() caps the level the
 * kernels dispatch on (0 holds them to portable C: Sorted's Scalar mode). All stubs are [@@noalloc]: they never
 * allocate, raise, or touch the OCaml heap beyond reading tagged ints.
 */

#include <caml/mlvalues.h>
#include <caml/bigarray.h>
#include <stdint.h>
#include <string.h>

#if defined(__x86_64__) || defined(_M_X64)
#define GFQ_X86 1
#include <immintrin.h>
#endif

/* ------------------------------------------------------------------ */
/* CPU feature probe                                                   */
/* ------------------------------------------------------------------ */

static int cpu_level_cache = -1;

static int probe_cpu_level(void)
{
#ifdef GFQ_X86
  if (__builtin_cpu_supports("avx2")) return 2;
  if (__builtin_cpu_supports("sse4.2")) return 1;
#endif
  return 0;
}

static inline int cpu_level(void)
{
  if (cpu_level_cache < 0) cpu_level_cache = probe_cpu_level();
  return cpu_level_cache;
}

value gfq_cpu_level(value unit)
{
  (void)unit;
  return Val_long(cpu_level());
}

/* The level the kernels dispatch on: the CPU's, or lower when capped. */
static int dispatch_level = -1;

static inline int level(void)
{
  if (dispatch_level < 0) dispatch_level = cpu_level();
  return dispatch_level;
}

value gfq_set_level(value vlevel)
{
  int l = (int)Long_val(vlevel), c = cpu_level();
  dispatch_level = l < c ? l : c;
  return Val_unit;
}

/* ------------------------------------------------------------------ */
/* Portable scalar kernels (macro-stamped per width combination)       */
/* ------------------------------------------------------------------ */

/* Exponential bracket + binary search: first index in [lo, hi) with
 * b[i] >= x, assuming b sorted ascending. O(log d) in the distance d. */
#define DEF_GALLOP(NAME, T)                                                  \
  static intnat NAME(const T *b, intnat lo, intnat hi, T x)                  \
  {                                                                          \
    intnat prev, cur, step, l, h;                                            \
    if (lo >= hi || b[lo] >= x) return lo;                                   \
    step = 1;                                                                \
    prev = lo;                                                               \
    cur = lo + 1;                                                            \
    while (cur < hi && b[cur] < x) {                                         \
      prev = cur;                                                            \
      step <<= 1;                                                            \
      cur += step;                                                           \
      if (cur > hi) cur = hi;                                                \
    }                                                                        \
    l = prev + 1;                                                            \
    h = cur < hi ? cur : hi;                                                 \
    while (l < h) {                                                          \
      intnat mid = l + ((h - l) >> 1);                                       \
      if (b[mid] < x) l = mid + 1; else h = mid;                             \
    }                                                                        \
    return l;                                                                \
  }

DEF_GALLOP(gallop_i32, int32_t)
DEF_GALLOP(gallop_i64, intnat)

/* Scalar intersection with the same shape heuristic as the OCaml
 * fallback: in-tandem merge for comparable lengths, per-element galloping
 * when one side dominates. Output is the set intersection of two strictly
 * increasing sequences, so every correct kernel emits bit-identical
 * results. */
#define DEF_SCALAR_INTERSECT(NAME, TA, TB, GALLOP_B, GALLOP_A)               \
  static intnat NAME(const TA *a, intnat alo, intnat ahi, const TB *b,       \
                     intnat blo, intnat bhi, intnat *out, intnat n)          \
  {                                                                          \
    intnat la = ahi - alo, lb = bhi - blo;                                   \
    if (la == 0 || lb == 0) return n;                                        \
    if (lb > la * 16) {                                                      \
      intnat i = alo, j = blo;                                               \
      while (i < ahi && j < bhi) {                                           \
        TB x = (TB)a[i];                                                     \
        j = GALLOP_B(b, j, bhi, x);                                          \
        if (j < bhi && b[j] == x) { out[n++] = (intnat)x; j++; }             \
        i++;                                                                 \
      }                                                                      \
    } else if (la > lb * 16) {                                               \
      intnat i = alo, j = blo;                                               \
      while (i < ahi && j < bhi) {                                           \
        TA x = (TA)b[j];                                                     \
        i = GALLOP_A(a, i, ahi, x);                                          \
        if (i < ahi && a[i] == x) { out[n++] = (intnat)x; i++; }             \
        j++;                                                                 \
      }                                                                      \
    } else {                                                                 \
      intnat i = alo, j = blo;                                               \
      while (i < ahi && j < bhi) {                                           \
        intnat x = (intnat)a[i], y = (intnat)b[j];                           \
        if (x < y) i++;                                                      \
        else if (y < x) j++;                                                 \
        else { out[n++] = x; i++; j++; }                                     \
      }                                                                      \
    }                                                                        \
    return n;                                                                \
  }

DEF_SCALAR_INTERSECT(isect_scalar_i32_i32, int32_t, int32_t, gallop_i32, gallop_i32)
DEF_SCALAR_INTERSECT(isect_scalar_i64_i32, intnat, int32_t, gallop_i32, gallop_i64)
DEF_SCALAR_INTERSECT(isect_scalar_i64_i64, intnat, intnat, gallop_i64, gallop_i64)

#ifdef GFQ_X86

/* ------------------------------------------------------------------ */
/* Vectorized kernels (AVX2; SSE4.2 machines take the scalar C path)   */
/* ------------------------------------------------------------------ */

/* shuffle control for compacting matched 4-byte lanes to the front:
 * shuf_tab[mask] packs the lanes whose bit is set in mask, zeroing the
 * rest. Filled once at load time. */
static uint8_t shuf_tab[16][16];

__attribute__((constructor)) static void gfq_init_shuf_tab(void)
{
  for (int m = 0; m < 16; m++) {
    int k = 0;
    for (int lane = 0; lane < 4; lane++) {
      if (m & (1 << lane)) {
        for (int byte = 0; byte < 4; byte++)
          shuf_tab[m][4 * k + byte] = (uint8_t)(4 * lane + byte);
        k++;
      }
    }
    for (; k < 4; k++)
      for (int byte = 0; byte < 4; byte++)
        shuf_tab[m][4 * k + byte] = 0x80; /* zero the slack lanes */
  }
}

/* Blocked gallop, i32: resolve the common short hop with one 8-lane
 * compare before falling back to exponential search. Returns the first
 * index in [j, hi) with b[i] >= x. */
__attribute__((target("avx2")))
static inline intnat gallop32_avx2(const int32_t *b, intnat j, intnat hi,
                                   int32_t x)
{
  if (j < hi && b[j] >= x) return j;
  if (j + 8 <= hi) {
    __m256i vx = _mm256_set1_epi32(x);
    __m256i vb = _mm256_loadu_si256((const __m256i *)(b + j));
    /* lanes where b < x */
    unsigned lt = (unsigned)_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpgt_epi32(vx, vb)));
    if (lt != 0xffu) return j + __builtin_ctz(~lt);
    j += 8;
  }
  return gallop_i32(b, j, hi, x);
}

/* Balanced i32 x i32: the classic 4x4 shuffle kernel. Compare a 4-lane
 * block of a against all rotations of a 4-lane block of b, compact the
 * matches with a byte shuffle, widen to int64 and store; advance the
 * side(s) whose block maximum was not larger. */
__attribute__((target("avx2")))
static intnat isect32_shuffle(const int32_t *a, intnat alo, intnat ahi,
                              const int32_t *b, intnat blo, intnat bhi,
                              intnat *out, intnat n)
{
  intnat i = alo, j = blo;
  while (i + 4 <= ahi && j + 4 <= bhi) {
    __m128i va = _mm_loadu_si128((const __m128i *)(a + i));
    __m128i vb = _mm_loadu_si128((const __m128i *)(b + j));
    __m128i c0 = _mm_cmpeq_epi32(va, vb);
    __m128i c1 =
        _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2, 1)));
    __m128i c2 =
        _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(1, 0, 3, 2)));
    __m128i c3 =
        _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(2, 1, 0, 3)));
    __m128i any = _mm_or_si128(_mm_or_si128(c0, c1), _mm_or_si128(c2, c3));
    unsigned mask = (unsigned)_mm_movemask_ps(_mm_castsi128_ps(any));
    __m128i packed =
        _mm_shuffle_epi8(va, _mm_loadu_si128((const __m128i *)shuf_tab[mask]));
    _mm256_storeu_si256((__m256i *)(out + n), _mm256_cvtepi32_epi64(packed));
    n += (intnat)__builtin_popcount(mask);
    int32_t amax = a[i + 3], bmax = b[j + 3];
    if (amax <= bmax) i += 4;
    if (bmax <= amax) j += 4;
  }
  /* tandem tail */
  while (i < ahi && j < bhi) {
    int32_t x = a[i], y = b[j];
    if (x < y) i++;
    else if (y < x) j++;
    else { out[n++] = (intnat)x; i++; j++; }
  }
  return n;
}

/* Skewed i32 x i32: iterate the short side, blocked-gallop the long one. */
__attribute__((target("avx2")))
static intnat isect32_gallop_avx2(const int32_t *a, intnat alo, intnat ahi,
                                  const int32_t *b, intnat blo, intnat bhi,
                                  intnat *out, intnat n)
{
  intnat i = alo, j = blo;
  while (i < ahi && j < bhi) {
    int32_t x = a[i];
    j = gallop32_avx2(b, j, bhi, x);
    if (j < bhi && b[j] == x) { out[n++] = (intnat)x; j++; }
    i++;
  }
  return n;
}

__attribute__((target("avx2")))
static intnat isect_avx2_i32_i32(const int32_t *a, intnat alo, intnat ahi,
                                 const int32_t *b, intnat blo, intnat bhi,
                                 intnat *out, intnat n)
{
  intnat la = ahi - alo, lb = bhi - blo;
  if (la == 0 || lb == 0) return n;
  if (lb > la * 16) return isect32_gallop_avx2(a, alo, ahi, b, blo, bhi, out, n);
  if (la > lb * 16) return isect32_gallop_avx2(b, blo, bhi, a, alo, ahi, out, n);
  return isect32_shuffle(a, alo, ahi, b, blo, bhi, out, n);
}

/* Blocked gallop, native-int lanes (4 per AVX2 vector). */
__attribute__((target("avx2")))
static inline intnat gallop64_avx2(const intnat *b, intnat j, intnat hi,
                                   intnat x)
{
  if (j < hi && b[j] >= x) return j;
  if (j + 4 <= hi) {
    __m256i vx = _mm256_set1_epi64x((long long)x);
    __m256i vb = _mm256_loadu_si256((const __m256i *)(b + j));
    unsigned lt = (unsigned)_mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpgt_epi64(vx, vb)));
    if (lt != 0xfu) return j + __builtin_ctz(~lt);
    j += 4;
  }
  return gallop_i64(b, j, hi, x);
}

__attribute__((target("avx2")))
static intnat isect_avx2_i64_i32(const intnat *a, intnat alo, intnat ahi,
                                 const int32_t *b, intnat blo, intnat bhi,
                                 intnat *out, intnat n)
{
  intnat la = ahi - alo, lb = bhi - blo;
  if (la == 0 || lb == 0) return n;
  if (lb > la * 16) {
    intnat i = alo, j = blo;
    while (i < ahi && j < bhi) {
      int32_t x = (int32_t)a[i];
      j = gallop32_avx2(b, j, bhi, x);
      if (j < bhi && b[j] == x) { out[n++] = (intnat)x; j++; }
      i++;
    }
    return n;
  }
  if (la > lb * 16) {
    intnat i = alo, j = blo;
    while (i < ahi && j < bhi) {
      intnat x = (intnat)b[j];
      i = gallop64_avx2(a, i, ahi, x);
      if (i < ahi && a[i] == x) { out[n++] = x; i++; }
      j++;
    }
    return n;
  }
  return isect_scalar_i64_i32(a, alo, ahi, b, blo, bhi, out, n);
}

__attribute__((target("avx2")))
static intnat isect_avx2_i64_i64(const intnat *a, intnat alo, intnat ahi,
                                 const intnat *b, intnat blo, intnat bhi,
                                 intnat *out, intnat n)
{
  intnat la = ahi - alo, lb = bhi - blo;
  if (la == 0 || lb == 0) return n;
  if (lb > la * 16) {
    intnat i = alo, j = blo;
    while (i < ahi && j < bhi) {
      intnat x = a[i];
      j = gallop64_avx2(b, j, bhi, x);
      if (j < bhi && b[j] == x) { out[n++] = x; j++; }
      i++;
    }
    return n;
  }
  if (la > lb * 16) {
    intnat i = alo, j = blo;
    while (i < ahi && j < bhi) {
      intnat x = b[j];
      i = gallop64_avx2(a, i, ahi, x);
      if (i < ahi && a[i] == x) { out[n++] = x; i++; }
      j++;
    }
    return n;
  }
  return isect_scalar_i64_i64(a, alo, ahi, b, blo, bhi, out, n);
}

#endif /* GFQ_X86 */

/* ------------------------------------------------------------------ */
/* OCaml entry points                                                  */
/* ------------------------------------------------------------------ */

/* Width dispatch, shared by the pairwise entry points and the run
 * kernel: AVX2 when the CPU has it, portable C otherwise. */
static intnat isect_i32_i32(const int32_t *a, intnat alo, intnat ahi,
                            const int32_t *b, intnat blo, intnat bhi,
                            intnat *out, intnat n)
{
#ifdef GFQ_X86
  if (level() >= 2)
    return isect_avx2_i32_i32(a, alo, ahi, b, blo, bhi, out, n);
#endif
  return isect_scalar_i32_i32(a, alo, ahi, b, blo, bhi, out, n);
}

static intnat isect_i64_i32(const intnat *a, intnat alo, intnat ahi,
                            const int32_t *b, intnat blo, intnat bhi,
                            intnat *out, intnat n)
{
#ifdef GFQ_X86
  if (level() >= 2)
    return isect_avx2_i64_i32(a, alo, ahi, b, blo, bhi, out, n);
#endif
  return isect_scalar_i64_i32(a, alo, ahi, b, blo, bhi, out, n);
}

static intnat isect_i64_i64(const intnat *a, intnat alo, intnat ahi,
                            const intnat *b, intnat blo, intnat bhi,
                            intnat *out, intnat n)
{
#ifdef GFQ_X86
  if (level() >= 2)
    return isect_avx2_i64_i64(a, alo, ahi, b, blo, bhi, out, n);
#endif
  return isect_scalar_i64_i64(a, alo, ahi, b, blo, bhi, out, n);
}

value gfq_intersect_i32_i32(value va, value valo, value vahi, value vb,
                            value vblo, value vbhi, value vout, value vpos)
{
  return Val_long(isect_i32_i32(
      (const int32_t *)Caml_ba_data_val(va), Long_val(valo), Long_val(vahi),
      (const int32_t *)Caml_ba_data_val(vb), Long_val(vblo), Long_val(vbhi),
      (intnat *)Caml_ba_data_val(vout), Long_val(vpos)));
}

value gfq_intersect_i32_i32_bc(value *argv, int argn)
{
  (void)argn;
  return gfq_intersect_i32_i32(argv[0], argv[1], argv[2], argv[3], argv[4],
                               argv[5], argv[6], argv[7]);
}

value gfq_intersect_i64_i32(value va, value valo, value vahi, value vb,
                            value vblo, value vbhi, value vout, value vpos)
{
  return Val_long(isect_i64_i32(
      (const intnat *)Caml_ba_data_val(va), Long_val(valo), Long_val(vahi),
      (const int32_t *)Caml_ba_data_val(vb), Long_val(vblo), Long_val(vbhi),
      (intnat *)Caml_ba_data_val(vout), Long_val(vpos)));
}

value gfq_intersect_i64_i32_bc(value *argv, int argn)
{
  (void)argn;
  return gfq_intersect_i64_i32(argv[0], argv[1], argv[2], argv[3], argv[4],
                               argv[5], argv[6], argv[7]);
}

value gfq_intersect_i64_i64(value va, value valo, value vahi, value vb,
                            value vblo, value vbhi, value vout, value vpos)
{
  return Val_long(isect_i64_i64(
      (const intnat *)Caml_ba_data_val(va), Long_val(valo), Long_val(vahi),
      (const intnat *)Caml_ba_data_val(vb), Long_val(vblo), Long_val(vbhi),
      (intnat *)Caml_ba_data_val(vout), Long_val(vpos)));
}

value gfq_intersect_i64_i64_bc(value *argv, int argn)
{
  (void)argn;
  return gfq_intersect_i64_i64(argv[0], argv[1], argv[2], argv[3], argv[4],
                               argv[5], argv[6], argv[7]);
}

/* ------------------------------------------------------------------ */
/* Bitmap probe                                                        */
/* ------------------------------------------------------------------ */

/* Emit the elements of a whose bit is set in the bitmap row starting at
 * word [row] of [bits]. Branch-free: every element is stored at out[n]
 * and n advances by its bit, so the caller reserves pos + |a| slots.
 * Output order is a's order. */
#define DEF_PROBE(NAME, LOOP, T)                                             \
  static intnat LOOP(const T *a, intnat alo, intnat ahi,                     \
                     const uint64_t *bits, intnat *out, intnat n)            \
  {                                                                          \
    for (intnat i = alo; i < ahi; i++) {                                     \
      uintnat x = (uintnat)a[i];                                             \
      out[n] = (intnat)x;                                                    \
      n += (intnat)((bits[x >> 6] >> (x & 63)) & 1);                         \
    }                                                                        \
    return n;                                                                \
  }                                                                          \
                                                                             \
  value NAME(value va, value valo, value vahi, value vbits, value vrow,      \
             value vout, value vpos)                                         \
  {                                                                          \
    return Val_long(LOOP((const T *)Caml_ba_data_val(va), Long_val(valo),    \
                         Long_val(vahi),                                     \
                         (const uint64_t *)Caml_ba_data_val(vbits) +         \
                             Long_val(vrow),                                 \
                         (intnat *)Caml_ba_data_val(vout), Long_val(vpos))); \
  }                                                                          \
                                                                             \
  value NAME##_bc(value *argv, int argn)                                     \
  {                                                                          \
    (void)argn;                                                              \
    return NAME(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],        \
                argv[6]);                                                    \
  }

DEF_PROBE(gfq_probe_i32, probe_i32, int32_t)
DEF_PROBE(gfq_probe_i64, probe_i64, intnat)

/* ------------------------------------------------------------------ */
/* Run kernel                                                          */
/* ------------------------------------------------------------------ */

/* One list of a candidate's intersection: a slice of an int32 (w = 0) or
 * native-int (w = 1) array, with its bitmap row's word offset or -1. */
typedef struct {
  const void *p;
  int w;
  intnat lo, hi, row;
} glist;

static inline void buf_of(value vbuf, const void **p, int *w)
{
  /* Buf.t: I32 of i32a (tag 0) | I64 of i64a (tag 1). */
  *p = Caml_ba_data_val(Field(vbuf, 0));
  *w = Tag_val(vbuf) == 1;
}

static inline intnat rd(const void *p, int w, intnat i)
{
  return w ? ((const intnat *)p)[i] : (intnat)((const int32_t *)p)[i];
}

static intnat isect_any(const void *a, int aw, intnat alo, intnat ahi,
                        const void *b, int bw, intnat blo, intnat bhi,
                        intnat *out, intnat n)
{
  if (!aw && !bw) return isect_i32_i32(a, alo, ahi, b, blo, bhi, out, n);
  if (aw && !bw) return isect_i64_i32(a, alo, ahi, b, blo, bhi, out, n);
  if (!aw && bw) return isect_i64_i32(b, blo, bhi, a, alo, ahi, out, n);
  return isect_i64_i64(a, alo, ahi, b, blo, bhi, out, n);
}

/* Sorted.step: the slice a, no longer than list b, against b — a probe of
 * b's row when it has one at least twice a's length, else the pairwise
 * kernel. Writes at out[n], never past a read position of a when a is the
 * output region itself, so a cascade narrows in place. */
static intnat step_any(const void *a, int aw, intnat alo, intnat ahi,
                       const glist *b, const uint64_t *bits, intnat *out,
                       intnat n)
{
  if (b->row >= 0 && b->hi - b->lo >= 2 * (ahi - alo))
    return aw ? probe_i64(a, alo, ahi, bits + b->row, out, n)
              : probe_i32(a, alo, ahi, bits + b->row, out, n);
  return isect_any(a, aw, alo, ahi, b->p, b->w, b->lo, b->hi, out, n);
}

/* Field positions of Sorted.run, Sorted.group, Sorted.prev and
 * Sorted.csr, and the constructors of Sorted.source. */
enum { R_SOURCE, R_CACHE, R_S, R_S_LO, R_S_HI, R_S_ROW, R_S_TOTAL, R_BITS,
       R_VARY, R_KEYED, R_PREV, R_KEYS, R_STARTS, R_ENDS, R_J, R_I, R_STOP,
       R_ICOST, R_CHARGED, R_HITS, R_TICKS, R_NEED, R_OUTSIDE };
enum { G_TUPLE, G_CANDS, G_KEYS, G_STARTS, G_ENDS, G_FIRST, G_LAST, G_LO,
       G_HI };
enum { P_SAME, P_LAST_KEY, P_LAST_C };
enum { C_NBR, C_OFF, C_STRIDE, C_BASE, C_ROWS, C_RSTRIDE, C_RBASE };
enum { S_ABSENT, S_FIXED, S_OWN, S_KEY };

#define MAX_LISTS 16

/* A CSR side: vertex c's list is p[off[x] .. off[x + 1]), x = c * stride
 * + base; its bitmap row rows[c * rstride + rbase] when rows is set. */
typedef struct {
  const void *p;
  int w;
  const intnat *off;
  intnat stride, base;
  const int32_t *rows;
  intnat rstride, rbase;
} vlist;

static void vlist_of(value c, intnat nbits, vlist *v)
{
  value rows = Field(c, C_ROWS);
  buf_of(Field(c, C_NBR), &v->p, &v->w);
  v->off = (const intnat *)Caml_ba_data_val(Field(c, C_OFF));
  v->stride = Long_val(Field(c, C_STRIDE));
  v->base = Long_val(Field(c, C_BASE));
  v->rows = Caml_ba_array_val(rows)->dim[0] == 0 || nbits == 0
                ? NULL
                : (const int32_t *)Caml_ba_data_val(rows);
  v->rstride = Long_val(Field(c, C_RSTRIDE));
  v->rbase = Long_val(Field(c, C_RBASE));
}

/* The length of vertex c's list of the CSR side vc (a Sorted.csr), read
 * from its fields: for lists the kernel only charges, however many. */
static inline intnat csr_len(value vc, intnat c)
{
  const intnat *off = (const intnat *)Caml_ba_data_val(Field(vc, C_OFF));
  intnat x = c * Long_val(Field(vc, C_STRIDE)) + Long_val(Field(vc, C_BASE));
  return off[x + 1] - off[x];
}

static inline void list_of(const vlist *v, intnat c, glist *l)
{
  intnat x = c * v->stride + v->base;
  l->p = v->p;
  l->w = v->w;
  l->lo = v->off[x];
  l->hi = v->off[x + 1];
  l->row = v->rows ? (intnat)v->rows[c * v->rstride + v->rbase] : -1;
}

/* The candidates of a group from run j, position i on (r.j, r.i), up to
 * run r.stop, at most Wosize(ends) of them. For each candidate c of run
 * j: the intersection of the run's shared list S (none, the fixed one,
 * the run's own candidate slice, or the key's list of keyed[0]) with
 * every varying list of c, smallest lists first. Results go back to back
 * from out[0] (count mode: each one over the last); for candidate number
 * q, keys[q] is c and its result is out[starts[q] .. ends[q]) (in count
 * mode only the sizes mean anything). Stops before a candidate whose
 * result might not fit the output ([need] is then the capacity it
 * wants). A candidate left outside the kernel — its smallest list is
 * longer than [giant], or it has more than MAX_LISTS lists — ends the
 * call: when it is the first, it is counted alone and (r.j, r.i) is left
 * on it with [outside] set, for the caller to intersect; else the call
 * stops before it. The counts are those of extending one tuple at a
 * time: a candidate whose sources equal the previous tuple's (same
 * prefix, same key when S depends on it, same candidate) is a cache hit,
 * the others are charged the stable lists' length (s_total plus the
 * key's keyed lists) and their varying lists'; a run whose S is the
 * key's list and changed is charged its length >> 8 in [ticks]. Returns
 * the number of candidates intersected. */
value gfq_run(value vr, value vcount, value vgiant, value vout, value vg)
{
  int count = Bool_val(vcount);
  intnat giant = Long_val(vgiant);
  intnat *out = (intnat *)Caml_ba_data_val(vout);
  intnat cap = Caml_ba_array_val(vout)->dim[0];
  const void *cp;
  int cw;
  buf_of(Field(vg, G_CANDS), &cp, &cw);
  value gkeys = Field(vg, G_KEYS), gstarts = Field(vg, G_STARTS),
        gends = Field(vg, G_ENDS);
  intnat last = Long_val(Field(vg, G_LAST)), ghi = Long_val(Field(vg, G_HI));
  const uint64_t *bits = (const uint64_t *)Caml_ba_data_val(Field(vr, R_BITS));
  intnat nbits = Caml_ba_array_val(Field(vr, R_BITS))->dim[0];
  int src = (int)Long_val(Field(vr, R_SOURCE));
  int cache = Bool_val(Field(vr, R_CACHE));
  int key_dep = src == S_OWN || src == S_KEY;
  value vary = Field(vr, R_VARY), keyed = Field(vr, R_KEYED);
  int nv = (int)Wosize_val(vary), nk = (int)Wosize_val(keyed);
  /* Too many lists to keep on the stack: every candidate goes outside,
   * its varying lists only measured. */
  int wide = nv + (src != S_ABSENT) > MAX_LISTS;
  vlist v[MAX_LISTS], kv;
  if (!wide)
    for (int q = 0; q < nv; q++) vlist_of(Field(vary, q), nbits, &v[q]);
  if (src == S_KEY) vlist_of(Field(keyed, 0), nbits, &kv);
  glist s = {0};
  if (src == S_FIXED) {
    buf_of(Field(vr, R_S), &s.p, &s.w);
    s.lo = Long_val(Field(vr, R_S_LO));
    s.hi = Long_val(Field(vr, R_S_HI));
    s.row = Long_val(Field(vr, R_S_ROW));
  }
  intnat s_total = Long_val(Field(vr, R_S_TOTAL)), stot = s_total;
  value prev = Field(vr, R_PREV);
  int same = Bool_val(Field(prev, P_SAME));
  intnat last_key = Long_val(Field(prev, P_LAST_KEY));
  intnat last_c = Long_val(Field(prev, P_LAST_C));
  value keys = Field(vr, R_KEYS), starts = Field(vr, R_STARTS),
        ends = Field(vr, R_ENDS);
  intnat chunk = (intnat)Wosize_val(ends);
  intnat j = Long_val(Field(vr, R_J)), i = Long_val(Field(vr, R_I));
  intnat stop = Long_val(Field(vr, R_STOP));
  intnat n = 0, acc = 0, icost = 0, charged = 0, hits = 0, ticks = 0;
  intnat need = 0, k = 0, key = 0;
  int outside = 0;
  while (j < stop && k < chunk) {
    intnat rhi = j == last - 1 ? ghi : Long_val(Field(gends, j));
    if (i < rhi) {
      /* The run's S and stable length, and whether its sources repeat
       * the previous tuple's. */
      key = Long_val(Field(gkeys, j));
      stot = s_total;
      for (int q = 0; q < nk; q++) stot += csr_len(Field(keyed, q), key);
      if (src == S_KEY) list_of(&kv, key, &s);
      if (src == S_OWN) {
        s.p = cp;
        s.w = cw;
        s.lo = Long_val(Field(gstarts, j));
        s.hi = Long_val(Field(gends, j));
        s.row = -1;
      }
      int same_cur = same && (!key_dep || key == last_key);
      for (; i < rhi && k < chunk; i++) {
        intnat c = rd(cp, cw, i), vl = 0, e = n;
        glist l[MAX_LISTS];
        int m = 0;
        if (wide) {
          for (int q = 0; q < nv; q++) vl += csr_len(Field(vary, q), c);
          outside = 1;
        } else {
          if (src != S_ABSENT) l[m++] = s;
          for (int q = 0; q < nv; q++, m++) {
            list_of(&v[q], c, &l[m]);
            vl += l[m].hi - l[m].lo;
          }
          /* Shortest list first: an insertion sort by length, a handful
           * of lists, usually two. */
          if (m == 2) {
            if (l[1].hi - l[1].lo < l[0].hi - l[0].lo) {
              glist t = l[0];
              l[0] = l[1];
              l[1] = t;
            }
          } else
            for (int a = 1; a < m; a++) {
              glist t = l[a];
              int b = a - 1;
              while (b >= 0 && l[b].hi - l[b].lo > t.hi - t.lo) {
                l[b + 1] = l[b];
                b--;
              }
              l[b + 1] = t;
            }
          intnat mn = l[0].hi - l[0].lo;
          outside = mn > giant;
          if (!outside && n + mn + 8 > cap) {
            need = n + mn + 8;
            goto stopped;
          }
        }
        if (outside) {
          if (k > 0) {
            outside = 0;
            goto stopped;
          }
        } else if (m == 1) {
          for (intnat q = l[0].lo; q < l[0].hi; q++)
            out[n + q - l[0].lo] = rd(l[0].p, l[0].w, q);
          e = n + (l[0].hi - l[0].lo);
        } else {
          e = step_any(l[0].p, l[0].w, l[0].lo, l[0].hi, &l[1], bits, out, n);
          for (int q = 2; q < m && e > n; q++)
            e = step_any(out, 1, n, e, &l[q], bits, out, n);
        }
        if (!same_cur && src == S_KEY) ticks += (s.hi - s.lo) >> 8;
        if (cache && same_cur && c == last_c)
          hits++;
        else {
          charged++;
          icost += stot + vl;
        }
        same = same_cur = 1;
        last_key = key;
        last_c = c;
        if (outside) goto stopped;
        Field(keys, k) = Val_long(c);
        Field(starts, k) = Val_long(acc);
        acc += e - n;
        Field(ends, k) = Val_long(acc);
        if (!count) n = e;
        k++;
      }
    }
    if (i >= rhi) {
      j++;
      if (j < stop) i = Long_val(Field(gstarts, j));
    }
  }
stopped:
  Field(vr, R_J) = Val_long(j);
  Field(vr, R_I) = Val_long(i);
  Field(prev, P_SAME) = Val_bool(same);
  Field(prev, P_LAST_KEY) = Val_long(last_key);
  Field(prev, P_LAST_C) = Val_long(last_c);
  Field(vr, R_ICOST) = Val_long(icost);
  Field(vr, R_CHARGED) = Val_long(charged);
  Field(vr, R_HITS) = Val_long(hits);
  Field(vr, R_TICKS) = Val_long(ticks);
  Field(vr, R_NEED) = Val_long(need);
  Field(vr, R_OUTSIDE) = Val_bool(outside);
  return Val_long(k);
}
