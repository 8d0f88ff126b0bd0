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
 * scalar paths and report level 0. All stubs are [@@noalloc]: they never
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

value gfq_intersect_i32_i32(value va, value valo, value vahi, value vb,
                            value vblo, value vbhi, value vout, value vpos)
{
  const int32_t *a = (const int32_t *)Caml_ba_data_val(va);
  const int32_t *b = (const int32_t *)Caml_ba_data_val(vb);
  intnat *out = (intnat *)Caml_ba_data_val(vout);
  intnat alo = Long_val(valo), ahi = Long_val(vahi);
  intnat blo = Long_val(vblo), bhi = Long_val(vbhi);
  intnat n = Long_val(vpos);
#ifdef GFQ_X86
  if (cpu_level() >= 2)
    return Val_long(isect_avx2_i32_i32(a, alo, ahi, b, blo, bhi, out, n));
#endif
  return Val_long(isect_scalar_i32_i32(a, alo, ahi, b, blo, bhi, out, n));
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
  const intnat *a = (const intnat *)Caml_ba_data_val(va);
  const int32_t *b = (const int32_t *)Caml_ba_data_val(vb);
  intnat *out = (intnat *)Caml_ba_data_val(vout);
  intnat alo = Long_val(valo), ahi = Long_val(vahi);
  intnat blo = Long_val(vblo), bhi = Long_val(vbhi);
  intnat n = Long_val(vpos);
#ifdef GFQ_X86
  if (cpu_level() >= 2)
    return Val_long(isect_avx2_i64_i32(a, alo, ahi, b, blo, bhi, out, n));
#endif
  return Val_long(isect_scalar_i64_i32(a, alo, ahi, b, blo, bhi, out, n));
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
  const intnat *a = (const intnat *)Caml_ba_data_val(va);
  const intnat *b = (const intnat *)Caml_ba_data_val(vb);
  intnat *out = (intnat *)Caml_ba_data_val(vout);
  intnat alo = Long_val(valo), ahi = Long_val(vahi);
  intnat blo = Long_val(vblo), bhi = Long_val(vbhi);
  intnat n = Long_val(vpos);
#ifdef GFQ_X86
  if (cpu_level() >= 2)
    return Val_long(isect_avx2_i64_i64(a, alo, ahi, b, blo, bhi, out, n));
#endif
  return Val_long(isect_scalar_i64_i64(a, alo, ahi, b, blo, bhi, out, n));
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
#define DEF_PROBE(NAME, T)                                                   \
  value NAME(value va, value valo, value vahi, value vbits, value vrow,      \
             value vout, value vpos)                                         \
  {                                                                          \
    const T *a = (const T *)Caml_ba_data_val(va);                            \
    const uint64_t *bits =                                                   \
        (const uint64_t *)Caml_ba_data_val(vbits) + Long_val(vrow);          \
    intnat *out = (intnat *)Caml_ba_data_val(vout);                          \
    intnat ahi = Long_val(vahi), n = Long_val(vpos);                         \
    for (intnat i = Long_val(valo); i < ahi; i++) {                          \
      uintnat x = (uintnat)a[i];                                             \
      out[n] = (intnat)x;                                                    \
      n += (intnat)((bits[x >> 6] >> (x & 63)) & 1);                         \
    }                                                                        \
    return Val_long(n);                                                      \
  }                                                                          \
                                                                             \
  value NAME##_bc(value *argv, int argn)                                     \
  {                                                                          \
    (void)argn;                                                              \
    return NAME(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],        \
                argv[6]);                                                    \
  }

DEF_PROBE(gfq_probe_i32, int32_t)
DEF_PROBE(gfq_probe_i64, intnat)
