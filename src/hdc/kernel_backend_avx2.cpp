// AVX2+FMA implementations of the kernel backend. This translation unit is
// the only one compiled with -mavx2 -mfma (see src/hdc/CMakeLists.txt); it
// is entered only after runtime CPUID dispatch confirms the host supports
// both feature sets, so the rest of the build stays portable x86-64.
//
// Sign application from packed bits uses the same IEEE-754 sign-bit XOR as
// the scalar backend, vectorized four lanes at a time: the bit for lane l of
// a 4-wide group at offset j is moved to bit 63 with a per-lane variable
// shift (VPSLLVQ), masked to the sign bit, and XORed into the doubles.
// Integer kernels are bit-exact with scalar; real kernels accumulate in
// multiple lanes and so differ from scalar only by summation order.
#include "hdc/kernel_backend.hpp"

#ifdef REGHD_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>

#include "hdc/rff_remat.hpp"
#include "util/fast_trig.hpp"

namespace reghd::hdc {

namespace {

constexpr std::uint64_t kSignBit = 0x8000000000000000ULL;

inline double apply_sign(double v, std::uint64_t keep) {
  const std::uint64_t flip = (~keep & 1ULL) << 63;
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) ^ flip);
}

inline double hsum(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  const __m128d shuf = _mm_unpackhi_pd(lo, lo);
  return _mm_cvtsd_f64(_mm_add_sd(lo, shuf));
}

// The lane-constant vectors below are built inside each function (no
// namespace-scope __m256i: its dynamic initializer would execute AVX
// instructions at program load, before runtime dispatch can rule them out).

/// Sign-flip masks (bit 63 per lane) for the 4-wide group at bit offset j of
/// `inverted_word` (= ~bits: flip where the packed bit is 0). Lane l's bit
/// (j+l) is moved to position 63 with a per-lane shift of 63−l.
inline __m256d group_flips(std::uint64_t inverted_word, std::size_t j) {
  const __m256i lane_shifts = _mm256_setr_epi64x(63, 62, 61, 60);
  const __m256i bits = _mm256_set1_epi64x(static_cast<long long>(inverted_word >> j));
  const __m256i flips = _mm256_and_si256(_mm256_sllv_epi64(bits, lane_shifts),
                                         _mm256_set1_epi64x(static_cast<long long>(kSignBit)));
  return _mm256_castsi256_pd(flips);
}

/// Lane vector whose sign bit (bit 63) carries mask bit j+l of `mask_word`.
/// Only the sign bit is meaningful — which is all BLENDV reads — so no
/// compare or AND is needed after the per-lane shift.
inline __m256d group_sign_select(std::uint64_t mask_word, std::size_t j) {
  const __m256i lane_shifts = _mm256_setr_epi64x(63, 62, 61, 60);
  const __m256i bits = _mm256_set1_epi64x(static_cast<long long>(mask_word >> j));
  return _mm256_castsi256_pd(_mm256_sllv_epi64(bits, lane_shifts));
}

double avx2_dot_real_real(const double* a, const double* b, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4), acc1);
    acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 8), _mm256_loadu_pd(b + i + 8), acc2);
    acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 12), _mm256_loadu_pd(b + i + 12), acc3);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i), acc0);
  }
  double acc = hsum(_mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3)));
  for (; i < n; ++i) {
    acc += a[i] * b[i];
  }
  return acc;
}

double avx2_dot_real_binary(const double* a, const std::uint64_t* bits, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (std::size_t w = 0; i + 64 <= n; ++w, i += 64) {
    const std::uint64_t inv = ~bits[w];
    for (std::size_t j = 0; j < 64; j += 8) {
      const __m256d v0 = _mm256_loadu_pd(a + i + j);
      const __m256d v1 = _mm256_loadu_pd(a + i + j + 4);
      acc0 = _mm256_add_pd(acc0, _mm256_xor_pd(v0, group_flips(inv, j)));
      acc1 = _mm256_add_pd(acc1, _mm256_xor_pd(v1, group_flips(inv, j + 4)));
    }
  }
  double acc = hsum(_mm256_add_pd(acc0, acc1));
  if (i < n) {
    const std::uint64_t word = bits[i >> 6];
    for (std::size_t j = 0; i + j < n; ++j) {
      acc += apply_sign(a[i + j], word >> j);
    }
  }
  return acc;
}

double avx2_masked_dot(const double* a, const std::uint64_t* signs,
                       const std::uint64_t* mask, std::size_t n) {
  // Masked lanes contribute +0.0 via BLENDV against zero (exact), replacing
  // the previous cmpeq-built all-ones mask + AND — one shifted vector per
  // group is enough because BLENDV keys on the sign bit alone.
  const __m256d zero = _mm256_setzero_pd();
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (std::size_t w = 0; i + 64 <= n; ++w, i += 64) {
    const std::uint64_t m = mask[w];
    if (m == 0) {
      continue;
    }
    const std::uint64_t inv = ~signs[w];
    for (std::size_t j = 0; j < 64; j += 8) {
      const __m256d v0 = _mm256_xor_pd(_mm256_loadu_pd(a + i + j), group_flips(inv, j));
      const __m256d v1 =
          _mm256_xor_pd(_mm256_loadu_pd(a + i + j + 4), group_flips(inv, j + 4));
      acc0 = _mm256_add_pd(acc0, _mm256_blendv_pd(zero, v0, group_sign_select(m, j)));
      acc1 = _mm256_add_pd(acc1, _mm256_blendv_pd(zero, v1, group_sign_select(m, j + 4)));
    }
  }
  double acc = hsum(_mm256_add_pd(acc0, acc1));
  if (i < n) {
    const std::uint64_t sign_bits = signs[i >> 6];
    std::uint64_t active = mask[i >> 6];
    while (active != 0) {
      const auto j = static_cast<std::size_t>(std::countr_zero(active));
      active &= active - 1;
      acc += apply_sign(a[i + j], sign_bits >> j);
    }
  }
  return acc;
}

/// popcount(a XOR b) over whole words — hamming's inner loop. POPCNT (enabled by
/// -mavx2) runs one word per cycle; four independent counters hide the
/// instruction latency. AVX2 has no vector popcount.
inline std::int64_t xor_popcount(const std::uint64_t* a, const std::uint64_t* b,
                                 std::size_t words) {
  std::int64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    c0 += std::popcount(a[i] ^ b[i]);
    c1 += std::popcount(a[i + 1] ^ b[i + 1]);
    c2 += std::popcount(a[i + 2] ^ b[i + 2]);
    c3 += std::popcount(a[i + 3] ^ b[i + 3]);
  }
  for (; i < words; ++i) {
    c0 += std::popcount(a[i] ^ b[i]);
  }
  return c0 + c1 + c2 + c3;
}

/// 2·popcount(XNOR(a,b) ∧ mask) − popcount(mask) — the masked popcount inner
/// loop of the ternary bank scan. Two interleaved agree/active counter pairs
/// (two POPCNTs per word) keep the port-bound chain latency-hidden like
/// xor_popcount.
inline std::int64_t masked_xnor_popcount(const std::uint64_t* a, const std::uint64_t* b,
                                         const std::uint64_t* mask, std::size_t words) {
  std::int64_t agree0 = 0, agree1 = 0;
  std::int64_t active0 = 0, active1 = 0;
  std::size_t i = 0;
  for (; i + 2 <= words; i += 2) {
    agree0 += std::popcount(~(a[i] ^ b[i]) & mask[i]);
    active0 += std::popcount(mask[i]);
    agree1 += std::popcount(~(a[i + 1] ^ b[i + 1]) & mask[i + 1]);
    active1 += std::popcount(mask[i + 1]);
  }
  for (; i < words; ++i) {
    agree0 += std::popcount(~(a[i] ^ b[i]) & mask[i]);
    active0 += std::popcount(mask[i]);
  }
  return 2 * (agree0 + agree1) - (active0 + active1);
}

std::int64_t avx2_hamming(const std::uint64_t* a, const std::uint64_t* b,
                          std::size_t words) {
  return xor_popcount(a, b, words);
}

void avx2_add_scaled_real(double* a, const double* b, double c, std::size_t n) {
  // mul + add (no FMA): each slot must round exactly like the scalar
  // backend's `a[i] += c * b[i]` so both tables accumulate bit-identically.
  // The kernel is memory-bound; the win comes from access pattern, not
  // arithmetic. std::vector storage is only 16-byte aligned, so a plain
  // unaligned 32-byte loop splits a cache line on every other access of the
  // read-modify-write destination — peel to 32-byte alignment of `a` first
  // so all full-width destination accesses are aligned.
  const __m256d cv = _mm256_set1_pd(c);
  std::size_t i = 0;
  while (i < n && (reinterpret_cast<std::uintptr_t>(a + i) & 31U) != 0) {
    a[i] += c * b[i];
    ++i;
  }
  for (; i + 16 <= n; i += 16) {
    _mm256_store_pd(a + i, _mm256_add_pd(_mm256_load_pd(a + i),
                                         _mm256_mul_pd(cv, _mm256_loadu_pd(b + i))));
    _mm256_store_pd(a + i + 4,
                    _mm256_add_pd(_mm256_load_pd(a + i + 4),
                                  _mm256_mul_pd(cv, _mm256_loadu_pd(b + i + 4))));
    _mm256_store_pd(a + i + 8,
                    _mm256_add_pd(_mm256_load_pd(a + i + 8),
                                  _mm256_mul_pd(cv, _mm256_loadu_pd(b + i + 8))));
    _mm256_store_pd(a + i + 12,
                    _mm256_add_pd(_mm256_load_pd(a + i + 12),
                                  _mm256_mul_pd(cv, _mm256_loadu_pd(b + i + 12))));
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_store_pd(a + i, _mm256_add_pd(_mm256_load_pd(a + i),
                                         _mm256_mul_pd(cv, _mm256_loadu_pd(b + i))));
  }
  for (; i < n; ++i) {
    a[i] += c * b[i];
  }
}

void avx2_add_scaled_binary(double* a, const std::uint64_t* bits, double c,
                            std::size_t n) {
  const __m256d cv = _mm256_set1_pd(c);
  const std::uint64_t c_bits = std::bit_cast<std::uint64_t>(c);
  std::size_t i = 0;
  for (std::size_t w = 0; i + 64 <= n; ++w, i += 64) {
    const std::uint64_t inv = ~bits[w];
    for (std::size_t j = 0; j < 64; j += 4) {
      const __m256d incr = _mm256_xor_pd(cv, group_flips(inv, j));
      _mm256_storeu_pd(a + i + j, _mm256_add_pd(_mm256_loadu_pd(a + i + j), incr));
    }
  }
  if (i < n) {
    const std::uint64_t word = bits[i >> 6];
    for (std::size_t j = 0; i + j < n; ++j) {
      const std::uint64_t flip = (~(word >> j) & 1ULL) << 63;
      a[i + j] += std::bit_cast<double>(c_bits ^ flip);
    }
  }
}

void avx2_merge_accumulate(double* acc, const double* rep, const double* base,
                           std::size_t n) {
  // sub then add per lane (no FMA, no cross-lane work): each slot rounds
  // exactly like the scalar backend's `acc[i] += rep[i] - base[i]`, so both
  // tables produce bit-identical merged accumulators. Alignment-peeled on the
  // read-modify-write destination like avx2_add_scaled_real.
  std::size_t i = 0;
  while (i < n && (reinterpret_cast<std::uintptr_t>(acc + i) & 31U) != 0) {
    acc[i] += rep[i] - base[i];
    ++i;
  }
  for (; i + 16 <= n; i += 16) {
    _mm256_store_pd(acc + i,
                    _mm256_add_pd(_mm256_load_pd(acc + i),
                                  _mm256_sub_pd(_mm256_loadu_pd(rep + i),
                                                _mm256_loadu_pd(base + i))));
    _mm256_store_pd(acc + i + 4,
                    _mm256_add_pd(_mm256_load_pd(acc + i + 4),
                                  _mm256_sub_pd(_mm256_loadu_pd(rep + i + 4),
                                                _mm256_loadu_pd(base + i + 4))));
    _mm256_store_pd(acc + i + 8,
                    _mm256_add_pd(_mm256_load_pd(acc + i + 8),
                                  _mm256_sub_pd(_mm256_loadu_pd(rep + i + 8),
                                                _mm256_loadu_pd(base + i + 8))));
    _mm256_store_pd(acc + i + 12,
                    _mm256_add_pd(_mm256_load_pd(acc + i + 12),
                                  _mm256_sub_pd(_mm256_loadu_pd(rep + i + 12),
                                                _mm256_loadu_pd(base + i + 12))));
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_store_pd(acc + i,
                    _mm256_add_pd(_mm256_load_pd(acc + i),
                                  _mm256_sub_pd(_mm256_loadu_pd(rep + i),
                                                _mm256_loadu_pd(base + i))));
  }
  for (; i < n; ++i) {
    acc[i] += rep[i] - base[i];
  }
}

void avx2_scale_real(double* a, double c, std::size_t n) {
  // Same alignment-peeled pattern as avx2_add_scaled_real: the in-place
  // destination is the whole working set, so aligned full-width accesses are
  // the entire optimization.
  const __m256d cv = _mm256_set1_pd(c);
  std::size_t i = 0;
  while (i < n && (reinterpret_cast<std::uintptr_t>(a + i) & 31U) != 0) {
    a[i] *= c;
    ++i;
  }
  for (; i + 16 <= n; i += 16) {
    _mm256_store_pd(a + i, _mm256_mul_pd(cv, _mm256_load_pd(a + i)));
    _mm256_store_pd(a + i + 4, _mm256_mul_pd(cv, _mm256_load_pd(a + i + 4)));
    _mm256_store_pd(a + i + 8, _mm256_mul_pd(cv, _mm256_load_pd(a + i + 8)));
    _mm256_store_pd(a + i + 12, _mm256_mul_pd(cv, _mm256_load_pd(a + i + 12)));
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_store_pd(a + i, _mm256_mul_pd(cv, _mm256_load_pd(a + i)));
  }
  for (; i < n; ++i) {
    a[i] *= c;
  }
}

/// The RFF trig map on four lanes in registers: ½·(fast_sin(2·z + phase) −
/// sin_phase) — util::fast_sin replayed 4 lanes wide, identical operations in
/// identical order per element (this TU is compiled with -ffp-contract=off,
/// so the compiler cannot fuse any of them into FMAs), hence bit-identical
/// to the scalar kernel. Lanes with !(|2·z + phase| < 2³⁰) — NaN and ±Inf
/// included — are redone with std::sin, the escape fast_sin itself takes.
inline __m256d trig4(__m256d z, __m256d phase, __m256d sin_phase) {
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d two_over_pi = _mm256_set1_pd(6.36619772367581382433e-01);
  const __m256d shift = _mm256_set1_pd(6755399441055744.0);
  const __m256d pio2_hi = _mm256_set1_pd(1.57079632673412561417e+00);
  const __m256d pio2_lo = _mm256_set1_pd(6.07710050650619224932e-11);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
  const __m256d range = _mm256_set1_pd(1073741824.0);  // 2^30
  const __m256i one64 = _mm256_set1_epi64x(1);
  const __m256i two64 = _mm256_set1_epi64x(2);

  const __m256d x = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(2.0), z), phase);
  const __m256d shifted = _mm256_add_pd(_mm256_mul_pd(x, two_over_pi), shift);
  const __m256i q = _mm256_castpd_si256(shifted);
  const __m256d k = _mm256_sub_pd(shifted, shift);
  const __m256d r = _mm256_sub_pd(_mm256_sub_pd(x, _mm256_mul_pd(k, pio2_hi)),
                                  _mm256_mul_pd(k, pio2_lo));
  const __m256d r2 = _mm256_mul_pd(r, r);

  __m256d sp = _mm256_set1_pd(1.58969099521155010221e-10);
  sp = _mm256_add_pd(_mm256_set1_pd(-2.50507602534068634195e-08),
                     _mm256_mul_pd(r2, sp));
  sp = _mm256_add_pd(_mm256_set1_pd(2.75573137070700676789e-06),
                     _mm256_mul_pd(r2, sp));
  sp = _mm256_add_pd(_mm256_set1_pd(-1.98412698298579493134e-04),
                     _mm256_mul_pd(r2, sp));
  sp = _mm256_add_pd(_mm256_set1_pd(8.33333333332248946124e-03),
                     _mm256_mul_pd(r2, sp));
  sp = _mm256_add_pd(_mm256_set1_pd(-1.66666666666666324348e-01),
                     _mm256_mul_pd(r2, sp));
  const __m256d ps = _mm256_add_pd(r, _mm256_mul_pd(_mm256_mul_pd(r, r2), sp));

  __m256d cp = _mm256_set1_pd(-1.13596475577881948265e-11);
  cp = _mm256_add_pd(_mm256_set1_pd(2.08757232129817482790e-09),
                     _mm256_mul_pd(r2, cp));
  cp = _mm256_add_pd(_mm256_set1_pd(-2.75573143513906633035e-07),
                     _mm256_mul_pd(r2, cp));
  cp = _mm256_add_pd(_mm256_set1_pd(2.48015872894767294178e-05),
                     _mm256_mul_pd(r2, cp));
  cp = _mm256_add_pd(_mm256_set1_pd(-1.38888888888741095749e-03),
                     _mm256_mul_pd(r2, cp));
  cp = _mm256_add_pd(_mm256_set1_pd(4.16666666666666019037e-02),
                     _mm256_mul_pd(r2, cp));
  const __m256d pc =
      _mm256_add_pd(_mm256_sub_pd(_mm256_set1_pd(1.0), _mm256_mul_pd(half, r2)),
                    _mm256_mul_pd(_mm256_mul_pd(r2, r2), cp));

  const __m256d odd = _mm256_castsi256_pd(
      _mm256_cmpeq_epi64(_mm256_and_si256(q, one64), one64));
  __m256d v = _mm256_blendv_pd(ps, pc, odd);
  const __m256i sign_flip = _mm256_slli_epi64(_mm256_and_si256(q, two64), 62);
  v = _mm256_xor_pd(v, _mm256_castsi256_pd(sign_flip));

  __m256d out = _mm256_mul_pd(half, _mm256_sub_pd(v, sin_phase));

  const __m256d absx = _mm256_and_pd(x, abs_mask);
  // NLT_UQ: true when !(|x| < 2^30), which also catches NaN — the same
  // condition fast_sin uses for its std::sin fallback.
  const int oor = _mm256_movemask_pd(_mm256_cmp_pd(absx, range, _CMP_NLT_UQ));
  if (oor != 0) [[unlikely]] {
    alignas(32) double xa[4];
    alignas(32) double sa[4];
    alignas(32) double oa[4];
    _mm256_store_pd(xa, x);
    _mm256_store_pd(sa, sin_phase);
    _mm256_store_pd(oa, out);
    for (int l = 0; l < 4; ++l) {
      if ((oor & (1 << l)) != 0) {
        oa[l] = 0.5 * (std::sin(xa[l]) - sa[l]);
      }
    }
    out = _mm256_load_pd(oa);
  }
  return out;
}

void avx2_rff_trig_map(double* z, const double* phase, const double* sin_phase,
                       std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(z + i, trig4(_mm256_loadu_pd(z + i), _mm256_loadu_pd(phase + i),
                                  _mm256_loadu_pd(sin_phase + i)));
  }
  for (; i < n; ++i) {
    z[i] = 0.5 * (util::fast_sin(2.0 * z[i] + phase[i]) - sin_phase[i]);
  }
}

/// Low 64 bits of a 64×64 multiply per lane. AVX2 has no VPMULLQ, so the
/// product is assembled from 32×32→64 pieces:
///   a·b mod 2⁶⁴ = lo(a)·lo(b) + ((lo(a)·hi(b) + hi(a)·lo(b)) « 32).
inline __m256i mullo64(__m256i a, __m256i b) {
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i lolo = _mm256_mul_epu32(a, b);
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a, b_hi),
                                         _mm256_mul_epu32(a_hi, b));
  return _mm256_add_epi64(lolo, _mm256_slli_epi64(cross, 32));
}

/// util::SplitMix64's output mix per lane (the state addition happens in the
/// caller — detail::splitmix_at seeks by counter, so "state" is just an add).
inline __m256i splitmix_mix(__m256i z) {
  z = mullo64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)),
              _mm256_set1_epi64x(static_cast<long long>(0xbf58476d1ce4e5b9ULL)));
  z = mullo64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)),
              _mm256_set1_epi64x(static_cast<long long>(0x94d049bb133111ebULL)));
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

/// Exact uint64 → double conversion for lane values < 2⁵³ (AVX2 has no
/// u64→f64 cvt). Both 32-bit halves convert exactly via the 2⁵² magic-bias
/// trick, and hi·2³² + lo recombines exactly (every intermediate is an
/// integer < 2⁵³), so each lane equals the scalar static_cast<double>.
inline __m256d u64_to_double_53(__m256i v) {
  const __m256i magic = _mm256_set1_epi64x(0x4330000000000000LL);  // 2^52
  const __m256d bias = _mm256_set1_pd(0x1.0p52);
  const __m256i lo = _mm256_and_si256(v, _mm256_set1_epi64x(0xFFFFFFFFLL));
  const __m256i hi = _mm256_srli_epi64(v, 32);
  const __m256d lo_d = _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(lo, magic)), bias);
  const __m256d hi_d = _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(hi, magic)), bias);
  return _mm256_add_pd(_mm256_mul_pd(hi_d, _mm256_set1_pd(0x1.0p32)), lo_d);
}

/// util::fast_log replayed 4 lanes wide — identical operations in identical
/// order per element (this TU is compiled with -ffp-contract=off), hence
/// bit-identical on the caller's domain, positive normal lanes (the
/// Box–Muller uniform u₁ ∈ [2⁻⁵³, 1]; fast_log itself owns no wider domain).
/// The scalar [√½ fold is two exact candidate values behind a compare — here
/// one compare mask feeding two blends. DIVPD is correctly rounded, so the
/// s = f/(2+f) lanes match scalar exactly.
inline __m256d fast_log4(__m256d x) {
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256i bits = _mm256_castpd_si256(x);
  const __m256d m_half = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_and_si256(bits, _mm256_set1_epi64x(0x000FFFFFFFFFFFFFLL)),
      _mm256_set1_epi64x(0x3FE0000000000000LL)));
  // biased exponent < 2^11, so the magic-bias conversion is exact and the
  // merged subtraction (2^52 + 1022 is exactly representable) still yields
  // the exact integer-valued e of the scalar code.
  __m256d e = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64(bits, 52),
                                          _mm256_set1_epi64x(0x4330000000000000LL))),
      _mm256_set1_pd(0x1.0p52 + 1022.0));
  const __m256d low =
      _mm256_cmp_pd(m_half, _mm256_set1_pd(7.07106781186547524401e-01), _CMP_LT_OQ);
  const __m256d m = _mm256_blendv_pd(m_half, _mm256_add_pd(m_half, m_half), low);
  e = _mm256_blendv_pd(e, _mm256_sub_pd(e, one), low);

  const __m256d f = _mm256_sub_pd(m, one);
  const __m256d s = _mm256_div_pd(f, _mm256_add_pd(_mm256_set1_pd(2.0), f));
  const __m256d z = _mm256_mul_pd(s, s);
  const __m256d w = _mm256_mul_pd(z, z);
  __m256d t1 = _mm256_add_pd(_mm256_set1_pd(2.222219843214978396e-01),
                             _mm256_mul_pd(w, _mm256_set1_pd(1.531383769920937332e-01)));
  t1 = _mm256_mul_pd(w, _mm256_add_pd(_mm256_set1_pd(3.999999999940941908e-01),
                                      _mm256_mul_pd(w, t1)));
  __m256d t2 = _mm256_add_pd(_mm256_set1_pd(1.818357216161805012e-01),
                             _mm256_mul_pd(w, _mm256_set1_pd(1.479819860511658591e-01)));
  t2 = _mm256_add_pd(_mm256_set1_pd(2.857142874366239149e-01), _mm256_mul_pd(w, t2));
  t2 = _mm256_mul_pd(z, _mm256_add_pd(_mm256_set1_pd(6.666666666666735130e-01),
                                      _mm256_mul_pd(w, t2)));
  const __m256d r = _mm256_add_pd(t2, t1);
  const __m256d hfsq = _mm256_mul_pd(_mm256_mul_pd(half, f), f);
  const __m256d ln2lo = _mm256_set1_pd(1.90821492927058770002e-10);
  const __m256d ln2hi = _mm256_set1_pd(6.93147180369123816490e-01);
  const __m256d inner = _mm256_add_pd(_mm256_mul_pd(s, _mm256_add_pd(hfsq, r)),
                                      _mm256_mul_pd(e, ln2lo));
  return _mm256_sub_pd(_mm256_mul_pd(e, ln2hi),
                       _mm256_sub_pd(_mm256_sub_pd(hfsq, inner), f));
}

struct SinCos4 {
  __m256d sin;
  __m256d cos;
};

/// util::fast_sin and util::fast_cos replayed 4 lanes wide for |x| < 2³⁰
/// (the caller's domain is the Box–Muller angle ∈ [0, 2π), so the scalar
/// functions' std::sin/std::cos escape is dead code here). Both share one
/// Cody–Waite reduction and both polynomials — the scalar pair recomputes
/// identical intermediates, so sharing keeps every lane bit-identical while
/// halving the work of calling them separately.
inline SinCos4 fast_sincos4(__m256d x) {
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d two_over_pi = _mm256_set1_pd(6.36619772367581382433e-01);
  const __m256d shift = _mm256_set1_pd(6755399441055744.0);
  const __m256d pio2_hi = _mm256_set1_pd(1.57079632673412561417e+00);
  const __m256d pio2_lo = _mm256_set1_pd(6.07710050650619224932e-11);
  const __m256i one64 = _mm256_set1_epi64x(1);
  const __m256i two64 = _mm256_set1_epi64x(2);

  const __m256d shifted = _mm256_add_pd(_mm256_mul_pd(x, two_over_pi), shift);
  const __m256i q = _mm256_castpd_si256(shifted);
  const __m256d k = _mm256_sub_pd(shifted, shift);
  const __m256d r = _mm256_sub_pd(_mm256_sub_pd(x, _mm256_mul_pd(k, pio2_hi)),
                                  _mm256_mul_pd(k, pio2_lo));
  const __m256d r2 = _mm256_mul_pd(r, r);

  __m256d sp = _mm256_set1_pd(1.58969099521155010221e-10);
  sp = _mm256_add_pd(_mm256_set1_pd(-2.50507602534068634195e-08),
                     _mm256_mul_pd(r2, sp));
  sp = _mm256_add_pd(_mm256_set1_pd(2.75573137070700676789e-06),
                     _mm256_mul_pd(r2, sp));
  sp = _mm256_add_pd(_mm256_set1_pd(-1.98412698298579493134e-04),
                     _mm256_mul_pd(r2, sp));
  sp = _mm256_add_pd(_mm256_set1_pd(8.33333333332248946124e-03),
                     _mm256_mul_pd(r2, sp));
  sp = _mm256_add_pd(_mm256_set1_pd(-1.66666666666666324348e-01),
                     _mm256_mul_pd(r2, sp));
  const __m256d ps = _mm256_add_pd(r, _mm256_mul_pd(_mm256_mul_pd(r, r2), sp));

  __m256d cp = _mm256_set1_pd(-1.13596475577881948265e-11);
  cp = _mm256_add_pd(_mm256_set1_pd(2.08757232129817482790e-09),
                     _mm256_mul_pd(r2, cp));
  cp = _mm256_add_pd(_mm256_set1_pd(-2.75573143513906633035e-07),
                     _mm256_mul_pd(r2, cp));
  cp = _mm256_add_pd(_mm256_set1_pd(2.48015872894767294178e-05),
                     _mm256_mul_pd(r2, cp));
  cp = _mm256_add_pd(_mm256_set1_pd(-1.38888888888741095749e-03),
                     _mm256_mul_pd(r2, cp));
  cp = _mm256_add_pd(_mm256_set1_pd(4.16666666666666019037e-02),
                     _mm256_mul_pd(r2, cp));
  const __m256d pc =
      _mm256_add_pd(_mm256_sub_pd(_mm256_set1_pd(1.0), _mm256_mul_pd(half, r2)),
                    _mm256_mul_pd(_mm256_mul_pd(r2, r2), cp));

  const __m256d odd =
      _mm256_castsi256_pd(_mm256_cmpeq_epi64(_mm256_and_si256(q, one64), one64));
  SinCos4 out;
  // sin: even quadrant → ±sin(r), odd → ±cos(r); sign from bit 1 of q.
  const __m256i sin_flip = _mm256_slli_epi64(_mm256_and_si256(q, two64), 62);
  out.sin = _mm256_xor_pd(_mm256_blendv_pd(ps, pc, odd), _mm256_castsi256_pd(sin_flip));
  // cos: the roles swapped; sign from bit 1 of q + 1.
  const __m256i cos_flip =
      _mm256_slli_epi64(_mm256_and_si256(_mm256_add_epi64(q, one64), two64), 62);
  out.cos = _mm256_xor_pd(_mm256_blendv_pd(pc, ps, odd), _mm256_castsi256_pd(cos_flip));
  return out;
}

void avx2_rff_rematerialize(std::uint64_t seed, double stddev, std::size_t row0,
                            std::size_t rows, std::size_t n_features, double* out,
                            std::size_t ld) {
  // Four consecutive rows per lane group, walking the weight index together:
  // the four lanes of weight pair (k, k+1) land in out[k·ld + r .. r+3] —
  // unit-stride stores in the kernel's feature-major layout. Every lane
  // replays the exact operation sequence of detail::rff_rematerialize_rows
  // (which also handles the rows % 4 tail): counter-seeked SplitMix64 draws
  // through mullo64/splitmix_mix, exact u64→double, then Box–Muller through
  // fast_log4/fast_sincos4 and the correctly-rounded VSQRTPD — bit-identical
  // to scalar.
  constexpr double kTwoPi = 2.0 * std::numbers::pi;
  constexpr double kInv53 = 0x1.0p-53;
  const __m256d stddev_v = _mm256_set1_pd(stddev);
  const __m256d two_pi = _mm256_set1_pd(kTwoPi);
  const __m256d inv53 = _mm256_set1_pd(kInv53);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d neg_two = _mm256_set1_pd(-2.0);
  constexpr std::uint64_t kG = detail::kSmGamma;
  const __m256i lane_gamma = _mm256_setr_epi64x(
      0, static_cast<long long>(kG), static_cast<long long>(2 * kG),
      static_cast<long long>(3 * kG));

  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    // Lane l's row seed is mix(seed + (row0 + r + l + 1)·γ) — the (row0+r+l)-th
    // SplitMix64 output of `seed`, exactly detail::splitmix_at.
    const std::uint64_t base =
        seed + (static_cast<std::uint64_t>(row0 + r) + 1) * kG;
    const __m256i row_seed = splitmix_mix(
        _mm256_add_epi64(_mm256_set1_epi64x(static_cast<long long>(base)), lane_gamma));
    double* out_r = out + r;
    for (std::size_t k = 0; k < n_features; k += 2) {
      const __m256i draw_a = splitmix_mix(_mm256_add_epi64(
          row_seed, _mm256_set1_epi64x(static_cast<long long>(
                        (static_cast<std::uint64_t>(k) + 1) * kG))));
      const __m256i draw_b = splitmix_mix(_mm256_add_epi64(
          row_seed, _mm256_set1_epi64x(static_cast<long long>(
                        (static_cast<std::uint64_t>(k) + 2) * kG))));
      const __m256d a = u64_to_double_53(_mm256_srli_epi64(draw_a, 11));
      const __m256d b = u64_to_double_53(_mm256_srli_epi64(draw_b, 11));
      const __m256d u1 = _mm256_mul_pd(_mm256_add_pd(a, one), inv53);
      const __m256d u2 = _mm256_mul_pd(b, inv53);
      const __m256d radius = _mm256_sqrt_pd(_mm256_mul_pd(neg_two, fast_log4(u1)));
      const __m256d angle = _mm256_mul_pd(two_pi, u2);
      const SinCos4 sc = fast_sincos4(angle);
      _mm256_storeu_pd(out_r + k * ld,
                       _mm256_mul_pd(_mm256_mul_pd(radius, sc.cos), stddev_v));
      if (k + 1 < n_features) {
        _mm256_storeu_pd(out_r + (k + 1) * ld,
                         _mm256_mul_pd(_mm256_mul_pd(radius, sc.sin), stddev_v));
      }
    }
  }
  if (r < rows) {
    detail::rff_rematerialize_rows(seed, stddev, row0 + r, rows - r, n_features,
                                   out + r, ld);
  }
}

void avx2_rff_remat_dot(std::uint64_t seed, double stddev, std::size_t row0,
                        std::size_t rows, const double* x, std::size_t n_features,
                        double* out) {
  // The same lane walk (and therefore the same bit-identical weight draws) as
  // avx2_rff_rematerialize, but the weight pair is consumed in registers the
  // moment it exists: z ← z + x_k·w, mul then add with k ascending — the
  // add_scaled_real per-element chain — so the single-query path never
  // stores a weight tile. Row tails replay the scalar reference.
  constexpr double kTwoPi = 2.0 * std::numbers::pi;
  constexpr double kInv53 = 0x1.0p-53;
  const __m256d stddev_v = _mm256_set1_pd(stddev);
  const __m256d two_pi = _mm256_set1_pd(kTwoPi);
  const __m256d inv53 = _mm256_set1_pd(kInv53);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d neg_two = _mm256_set1_pd(-2.0);
  constexpr std::uint64_t kG = detail::kSmGamma;
  const __m256i lane_gamma = _mm256_setr_epi64x(
      0, static_cast<long long>(kG), static_cast<long long>(2 * kG),
      static_cast<long long>(3 * kG));

  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const std::uint64_t base =
        seed + (static_cast<std::uint64_t>(row0 + r) + 1) * kG;
    const __m256i row_seed = splitmix_mix(
        _mm256_add_epi64(_mm256_set1_epi64x(static_cast<long long>(base)), lane_gamma));
    __m256d z = _mm256_setzero_pd();
    for (std::size_t k = 0; k < n_features; k += 2) {
      const __m256i draw_a = splitmix_mix(_mm256_add_epi64(
          row_seed, _mm256_set1_epi64x(static_cast<long long>(
                        (static_cast<std::uint64_t>(k) + 1) * kG))));
      const __m256i draw_b = splitmix_mix(_mm256_add_epi64(
          row_seed, _mm256_set1_epi64x(static_cast<long long>(
                        (static_cast<std::uint64_t>(k) + 2) * kG))));
      const __m256d a = u64_to_double_53(_mm256_srli_epi64(draw_a, 11));
      const __m256d b = u64_to_double_53(_mm256_srli_epi64(draw_b, 11));
      const __m256d u1 = _mm256_mul_pd(_mm256_add_pd(a, one), inv53);
      const __m256d u2 = _mm256_mul_pd(b, inv53);
      const __m256d radius = _mm256_sqrt_pd(_mm256_mul_pd(neg_two, fast_log4(u1)));
      const __m256d angle = _mm256_mul_pd(two_pi, u2);
      const SinCos4 sc = fast_sincos4(angle);
      const __m256d w_cos = _mm256_mul_pd(_mm256_mul_pd(radius, sc.cos), stddev_v);
      z = _mm256_add_pd(z, _mm256_mul_pd(_mm256_set1_pd(x[k]), w_cos));
      if (k + 1 < n_features) {
        const __m256d w_sin = _mm256_mul_pd(_mm256_mul_pd(radius, sc.sin), stddev_v);
        z = _mm256_add_pd(z, _mm256_mul_pd(_mm256_set1_pd(x[k + 1]), w_sin));
      }
    }
    _mm256_storeu_pd(out + r, z);
  }
  if (r < rows) {
    detail::rff_remat_dot_rows(seed, stddev, row0 + r, rows - r, x, n_features,
                               out + r);
  }
}

/// The loop of rff_project_map: the blocked projection with the trig map
/// fused into its one store. Same traversal as the scalar kernel (column
/// tile = 512 doubles), with C register-blocked 16 wide: the 4 accumulator
/// vectors start at +0.0 (the value a zero-filled C would load) and stay in
/// registers across the whole k loop, then go through trig4 before the one
/// store, so C is write-only. mul + add (no FMA) and ascending k keep every
/// element's rounding sequence identical to the scalar add_scaled_real
/// chain; the last n % 16 columns run that chain and the scalar trig map's
/// expression. Kept as a function of its own: made the entry point's body,
/// the same loop compiles with a different register allocation under gcc.
void gemm_rows(const double* a, std::size_t lda, const double* b, std::size_t ldb,
               const double* phase, const double* sin_phase, double* c, std::size_t ldc,
               std::size_t m, std::size_t k, std::size_t n) {
  constexpr std::size_t kColTile = 512;
  for (std::size_t j0 = 0; j0 < n; j0 += kColTile) {
    const std::size_t jn = std::min(n, j0 + kColTile);
    for (std::size_t r = 0; r < m; ++r) {
      const double* arow = a + r * lda;
      double* crow = c + r * ldc;
      std::size_t j = j0;
      for (; j + 16 <= jn; j += 16) {
        __m256d acc[4];
        for (std::size_t v = 0; v < 4; ++v) {
          acc[v] = _mm256_setzero_pd();
        }
        for (std::size_t kk = 0; kk < k; ++kk) {
          const __m256d av = _mm256_broadcast_sd(arow + kk);
          const double* bp = b + kk * ldb + j;
          for (std::size_t v = 0; v < 4; ++v) {
            acc[v] = _mm256_add_pd(acc[v], _mm256_mul_pd(av, _mm256_loadu_pd(bp + 4 * v)));
          }
        }
        for (std::size_t v = 0; v < 4; ++v) {
          acc[v] = trig4(acc[v], _mm256_loadu_pd(phase + j + 4 * v),
                         _mm256_loadu_pd(sin_phase + j + 4 * v));
          _mm256_storeu_pd(crow + j + 4 * v, acc[v]);
        }
      }
      for (; j < jn; ++j) {
        double acc = 0.0;
        for (std::size_t kk = 0; kk < k; ++kk) {
          acc += arow[kk] * b[kk * ldb + j];
        }
        acc = 0.5 * (util::fast_sin(2.0 * acc + phase[j]) - sin_phase[j]);
        crow[j] = acc;
      }
    }
  }
}

void avx2_rff_project_map(const double* a, std::size_t lda, const double* b,
                          std::size_t ldb, const double* phase, const double* sin_phase,
                          double* c, std::size_t ldc, std::size_t m, std::size_t k,
                          std::size_t n) {
  gemm_rows(a, lda, b, ldb, phase, sin_phase, c, ldc, m, k, n);
}

/// The single-query bank scan: out[r] = avx2_dot_real_real(rows + r·ld, q,
/// n). Row pairs share every q load; each row keeps the 4-accumulator
/// structure of avx2_dot_real_real (16-wide FMA loop, then 4-wide into acc0,
/// then the (0+1)+(2+3) horizontal sum and scalar tail).
void dot_rows_paired(const double* q, const double* rows, std::size_t ld,
                     std::size_t num_rows, std::size_t n, double* out) {
  std::size_t r = 0;
  for (; r + 2 <= num_rows; r += 2) {
    const double* a0 = rows + r * ld;
    const double* a1 = a0 + ld;
    __m256d p00 = _mm256_setzero_pd(), p01 = _mm256_setzero_pd();
    __m256d p02 = _mm256_setzero_pd(), p03 = _mm256_setzero_pd();
    __m256d p10 = _mm256_setzero_pd(), p11 = _mm256_setzero_pd();
    __m256d p12 = _mm256_setzero_pd(), p13 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
      const __m256d q0 = _mm256_loadu_pd(q + i);
      const __m256d q1 = _mm256_loadu_pd(q + i + 4);
      const __m256d q2 = _mm256_loadu_pd(q + i + 8);
      const __m256d q3 = _mm256_loadu_pd(q + i + 12);
      p00 = _mm256_fmadd_pd(_mm256_loadu_pd(a0 + i), q0, p00);
      p01 = _mm256_fmadd_pd(_mm256_loadu_pd(a0 + i + 4), q1, p01);
      p02 = _mm256_fmadd_pd(_mm256_loadu_pd(a0 + i + 8), q2, p02);
      p03 = _mm256_fmadd_pd(_mm256_loadu_pd(a0 + i + 12), q3, p03);
      p10 = _mm256_fmadd_pd(_mm256_loadu_pd(a1 + i), q0, p10);
      p11 = _mm256_fmadd_pd(_mm256_loadu_pd(a1 + i + 4), q1, p11);
      p12 = _mm256_fmadd_pd(_mm256_loadu_pd(a1 + i + 8), q2, p12);
      p13 = _mm256_fmadd_pd(_mm256_loadu_pd(a1 + i + 12), q3, p13);
    }
    for (; i + 4 <= n; i += 4) {
      const __m256d qv = _mm256_loadu_pd(q + i);
      p00 = _mm256_fmadd_pd(_mm256_loadu_pd(a0 + i), qv, p00);
      p10 = _mm256_fmadd_pd(_mm256_loadu_pd(a1 + i), qv, p10);
    }
    double s0 = hsum(_mm256_add_pd(_mm256_add_pd(p00, p01), _mm256_add_pd(p02, p03)));
    double s1 = hsum(_mm256_add_pd(_mm256_add_pd(p10, p11), _mm256_add_pd(p12, p13)));
    for (; i < n; ++i) {
      s0 += a0[i] * q[i];
      s1 += a1[i] * q[i];
    }
    out[r] = s0;
    out[r + 1] = s1;
  }
  for (; r < num_rows; ++r) {
    out[r] = avx2_dot_real_real(rows + r * ld, q, n);
  }
}

/// One NQ-query × NR-row register tile of avx2_dot_rows_multi:
/// out[j·ldo + r] = avx2_dot_real_real(a[r], q[j], n), bit for bit. Every
/// pair keeps avx2_dot_real_real's four accumulators (16-wide FMA loop,
/// 4-wide spill into the first, (0+1)+(2+3) horizontal sum, scalar tail),
/// all live in one pass — 16 at 2 × 2, with 8 loads per 16 FMAs. Unlike the
/// AVX-512 tile this does not run lane-outer: a 4-wide chunk is half a cache
/// line, so a pass per accumulator would pull every line in twice, and in
/// microbench every lane-outer AVX2 shape (4 × 2, 2 × 4, 3 × 3, …) was
/// slower than the paired-row scan.
template <std::size_t NQ, std::size_t NR>
void dot_tile(const double* const* q, const double* const* a, std::size_t n, double* out,
              std::size_t ldo) {
  __m256d p[NQ][NR][4];
  for (std::size_t j = 0; j < NQ; ++j) {
    for (std::size_t r = 0; r < NR; ++r) {
      for (std::size_t l = 0; l < 4; ++l) {
        p[j][r][l] = _mm256_setzero_pd();
      }
    }
  }
  const auto step = [&](std::size_t i, std::size_t l) {
    __m256d qv[NQ];
    for (std::size_t j = 0; j < NQ; ++j) {
      qv[j] = _mm256_loadu_pd(q[j] + i);
    }
    for (std::size_t r = 0; r < NR; ++r) {
      const __m256d av = _mm256_loadu_pd(a[r] + i);
      for (std::size_t j = 0; j < NQ; ++j) {
        p[j][r][l] = _mm256_fmadd_pd(av, qv[j], p[j][r][l]);
      }
    }
  };
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    step(i, 0);
    step(i + 4, 1);
    step(i + 8, 2);
    step(i + 12, 3);
  }
  for (; i + 4 <= n; i += 4) {
    step(i, 0);
  }
  for (std::size_t j = 0; j < NQ; ++j) {
    for (std::size_t r = 0; r < NR; ++r) {
      double s = hsum(_mm256_add_pd(_mm256_add_pd(p[j][r][0], p[j][r][1]),
                                    _mm256_add_pd(p[j][r][2], p[j][r][3])));
      for (std::size_t t = i; t < n; ++t) {
        s += a[r][t] * q[j][t];
      }
      out[j * ldo + r] = s;
    }
  }
}

void avx2_dot_rows_multi(const double* rows, std::size_t ld, std::size_t nrows,
                         const double* queries, std::size_t ldq, std::size_t nq,
                         std::size_t n, double* out) {
  // Query pairs in 2 × 2 tiles (2 × 1 for an odd last row). A leftover
  // query — and a single query — runs the paired-row scan.
  std::size_t j0 = 0;
  for (; j0 + 2 <= nq; j0 += 2) {
    const double* q[2] = {queries + j0 * ldq, queries + (j0 + 1) * ldq};
    double* o = out + j0 * nrows;
    std::size_t r0 = 0;
    for (; r0 + 2 <= nrows; r0 += 2) {
      const double* a[2] = {rows + r0 * ld, rows + (r0 + 1) * ld};
      dot_tile<2, 2>(q, a, n, o + r0, nrows);
    }
    if (r0 < nrows) {
      const double* a[1] = {rows + r0 * ld};
      dot_tile<2, 1>(q, a, n, o + r0, nrows);
    }
  }
  if (j0 < nq) {
    dot_rows_paired(queries + j0 * ldq, rows, ld, nrows, n, out + j0 * nrows);
  }
}

/// One pass of avx2_update_dot_rows over R ≤ 2 bank rows (rows + idx[j]·ld)
/// that both update (kUpdate) or both only score: avx2_dot_real_real's exact
/// per-row operation sequence (16-wide FMA loop into four accumulators,
/// 4-wide spill into the first, (0+1)+(2+3) horizontal sum, scalar tail),
/// each component first updated by coeff·u and stored back when kUpdate (mul
/// then add, the per-slot rounding of avx2_add_scaled_real). A component's
/// update never depends on its neighbours, so out[idx[j]] is
/// avx2_dot_real_real of the updated row whatever the grouping. Two rows
/// keep all eight accumulators in the sixteen YMM registers.
template <std::size_t R, bool kUpdate>
void update_dot_pass(double* rows, std::size_t ld, const std::size_t* idx,
                     const double* coeff, const double* u, const double* q, std::size_t n,
                     double* out) {
  double* a[R] = {};
  __m256d cv[R] = {};
  __m256d p[R][4] = {};  // value-initialized: all lanes +0.0
  for (std::size_t j = 0; j < R; ++j) {
    a[j] = rows + idx[j] * ld;
    cv[j] = _mm256_set1_pd(coeff[idx[j]]);
  }
  const auto step = [&](std::size_t i, std::size_t lane) {
    const __m256d qv = _mm256_loadu_pd(q + i);
    __m256d uv = _mm256_setzero_pd();
    if constexpr (kUpdate) {
      uv = _mm256_loadu_pd(u + i);
    }
    for (std::size_t j = 0; j < R; ++j) {
      __m256d x = _mm256_loadu_pd(a[j] + i);
      if constexpr (kUpdate) {
        x = _mm256_add_pd(x, _mm256_mul_pd(cv[j], uv));
        _mm256_storeu_pd(a[j] + i, x);
      }
      p[j][lane] = _mm256_fmadd_pd(x, qv, p[j][lane]);
    }
  };
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    step(i, 0);
    step(i + 4, 1);
    step(i + 8, 2);
    step(i + 12, 3);
  }
  for (; i + 4 <= n; i += 4) {
    step(i, 0);
  }
  double sum[R] = {};
  for (std::size_t j = 0; j < R; ++j) {
    sum[j] =
        hsum(_mm256_add_pd(_mm256_add_pd(p[j][0], p[j][1]), _mm256_add_pd(p[j][2], p[j][3])));
  }
  for (; i < n; ++i) {
    for (std::size_t j = 0; j < R; ++j) {
      if constexpr (kUpdate) {
        a[j][i] += coeff[idx[j]] * u[i];
      }
      sum[j] += a[j][i] * q[i];
    }
  }
  for (std::size_t j = 0; j < R; ++j) {
    out[idx[j]] = sum[j];
  }
}

void avx2_update_dot_rows(double* rows, std::size_t ld, std::size_t num_rows,
                          const double* coeff, const double* q_update, const double* q_next,
                          std::size_t n, double* out) {
  if (q_next == nullptr) {
    detail::update_dot_rows_composed<avx2_add_scaled_real, avx2_dot_rows_multi>(
        rows, ld, num_rows, coeff, q_update, q_next, n, out);
    return;
  }
  // Rows that update and rows that only score (the losing clusters) go in
  // separate row-pair passes, so every q_next / q_update load serves two rows
  // and a scan-only row is never stored.
  std::size_t groups[2][2] = {};
  std::size_t fill[2] = {0, 0};
  const auto flush = [&](std::size_t update) {
    const std::size_t* idx = groups[update];
    if (update != 0) {
      fill[1] == 2 ? update_dot_pass<2, true>(rows, ld, idx, coeff, q_update, q_next, n, out)
                   : update_dot_pass<1, true>(rows, ld, idx, coeff, q_update, q_next, n, out);
    } else {
      fill[0] == 2 ? update_dot_pass<2, false>(rows, ld, idx, coeff, q_update, q_next, n, out)
                   : update_dot_pass<1, false>(rows, ld, idx, coeff, q_update, q_next, n, out);
    }
    fill[update] = 0;
  };
  for (std::size_t r = 0; r < num_rows; ++r) {
    const std::size_t update = coeff[r] != 0.0 ? 1 : 0;
    groups[update][fill[update]++] = r;
    if (fill[update] == 2) {
      flush(update);
    }
  }
  for (const std::size_t update : {std::size_t{0}, std::size_t{1}}) {
    if (fill[update] > 0) {
      flush(update);
    }
  }
}

void avx2_dot_rows_block(const double* q, const double* const* rows,
                         std::size_t num_rows, std::size_t len, bool last,
                         double* state, double* out) {
  // Carries avx2_dot_real_real's four vector accumulators per row (16
  // doubles of each row's kDotRowsBlockState slot). Non-final block lengths
  // are multiples of 64, so the 16-wide main loop consumes every non-final
  // block exactly and the lane phase — which 4-group of a 16-stride
  // iteration each element feeds — is a function of i mod 16 and survives
  // the block boundary. The 4-wide spill into acc0, the (0+1)+(2+3)
  // horizontal sum and the scalar tail run only on the final call, exactly
  // once — so out[r] replays avx2_dot_real_real(row_r, q, total_n)
  // operation for operation.
  for (std::size_t r = 0; r < num_rows; ++r) {
    double* st = state + r * kDotRowsBlockState;
    __m256d acc0 = _mm256_loadu_pd(st);
    __m256d acc1 = _mm256_loadu_pd(st + 4);
    __m256d acc2 = _mm256_loadu_pd(st + 8);
    __m256d acc3 = _mm256_loadu_pd(st + 12);
    const double* a = rows[r];
    std::size_t i = 0;
    for (; i + 16 <= len; i += 16) {
      acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(q + i), acc0);
      acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(q + i + 4), acc1);
      acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 8), _mm256_loadu_pd(q + i + 8), acc2);
      acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 12), _mm256_loadu_pd(q + i + 12),
                             acc3);
    }
    if (!last) {
      _mm256_storeu_pd(st, acc0);
      _mm256_storeu_pd(st + 4, acc1);
      _mm256_storeu_pd(st + 8, acc2);
      _mm256_storeu_pd(st + 12, acc3);
      continue;
    }
    for (; i + 4 <= len; i += 4) {
      acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(q + i), acc0);
    }
    double acc = hsum(_mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3)));
    for (; i < len; ++i) {
      acc += a[i] * q[i];
    }
    out[r] = acc;
  }
}

void avx2_dot_rows_ternary(const std::uint64_t* q, const std::uint64_t* signs,
                           const std::uint64_t* masks, std::size_t ld,
                           std::size_t num_rows, std::size_t n, std::int64_t* out) {
  // Per row 2·popcount(XNOR(q, signs_r) ∧ mask_r) − popcount(mask_r) through
  // masked_xnor_popcount. The q words are a ⌈n/64⌉-word strip that stays
  // L1-resident across the whole bank, and the kernel is POPCNT-port bound,
  // so there is nothing left for a bespoke row-paired loop to win.
  const std::size_t words = (n + 63) / 64;
  for (std::size_t r = 0; r < num_rows; ++r) {
    out[r] = masked_xnor_popcount(signs + r * ld, q, masks + r * ld, words);
  }
}

void avx2_sign_pack(const double* v, std::uint64_t* bits, std::size_t n) {
  // 4 lanes per compare; the inverted negative-lane movemask nibble lands in
  // the packed word. CMP_LT_OQ is false for NaN, so NaN sets its bit exactly
  // like the scalar kernel.
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  const std::size_t full_words = n / 64;
  for (std::size_t w = 0; w < full_words; ++w) {
    std::uint64_t word = 0;
    for (std::size_t j = 0; j < 64; j += 4) {
      const int neg =
          _mm256_movemask_pd(_mm256_cmp_pd(_mm256_loadu_pd(v + i + j), zero, _CMP_LT_OQ));
      word |= static_cast<std::uint64_t>(~neg & 0xF) << j;
    }
    bits[w] = word;
    i += 64;
  }
  if (i < n) {
    std::uint64_t word = 0;
    for (std::size_t j = 0; i + j < n; ++j) {
      word |= static_cast<std::uint64_t>(!(v[i + j] < 0.0)) << j;
    }
    bits[i >> 6] = word;
  }
}

constexpr KernelBackend kAvx2Backend{
    "avx2",
    4,
    avx2_dot_real_real,
    avx2_dot_real_binary,
    avx2_masked_dot,
    avx2_hamming,
    avx2_add_scaled_real,
    avx2_add_scaled_binary,
    avx2_merge_accumulate,
    avx2_scale_real,
    avx2_rff_trig_map,
    avx2_rff_rematerialize,
    avx2_rff_remat_dot,
    avx2_rff_project_map,
    avx2_dot_rows_multi,
    avx2_update_dot_rows,
    avx2_dot_rows_block,
    avx2_dot_rows_ternary,
    avx2_sign_pack,
};

}  // namespace

const KernelBackend* avx2_backend_table() noexcept { return &kAvx2Backend; }

}  // namespace reghd::hdc

#endif  // REGHD_HAVE_AVX2
