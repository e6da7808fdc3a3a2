// AVX-512 implementations of the kernel backend. This translation unit is
// the only one compiled with -mavx512f -mavx512bw (see src/hdc/
// CMakeLists.txt); it is entered only after runtime cpuid+xgetbv dispatch
// confirms the CPU reports avx512f+avx512bw and the OS has enabled the
// ZMM/opmask register state, so the rest of the build stays portable.
//
// The table is composed at first use as a copy of the AVX2 table with the
// kernels the wider ISA actually improves overridden: the 512-bit real
// reductions (dot_real_real / dot_rows_multi / dot_rows_block share one
// exact operation sequence), the per-component streaming kernels
// (add_scaled_real / merge_accumulate / scale_real, mul-then-add so each
// slot rounds exactly like scalar), the mask-register sign_pack, and —
// when the CPU additionally reports avx512_vpopcntdq — VPOPCNTDQ-vectorized
// popcount kernels for the packed bank scans (AVX2 has no vector popcount;
// these are the popcount-throughput-bound kernels the quantized path lives
// on). The RFF encode path is overridden end to end:
//  * the 8-lane regenerator rff_rematerialize — its Box–Muller pipeline is
//    the fixed cost of every encode of a rematerialized projection over the
//    encoder's storage budget;
//  * rff_project_map, a GEMM holding 16 accumulators in registers across
//    all of k, with the trig map — util::fast_sin replayed 8 lanes wide,
//    each lane running only the polynomial fast_sin keeps for it,
//    out-of-range and NaN lanes redone with std::sin — applied to each
//    register block before its one store: the encoder's projection never
//    zero-fills or reloads its output.
// Everything else (the bit-sign dot family) is inherited from the AVX2
// table unchanged: those kernels are bound by shifts/blends, not by vector
// width.
#include "hdc/kernel_backend.hpp"

#ifdef REGHD_HAVE_AVX512

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>

#include "hdc/rff_remat.hpp"
#include "util/fast_trig.hpp"

namespace reghd::hdc {

// Defined in kernel_backend_avx2.cpp; the base table this one patches.
const KernelBackend* avx2_backend_table() noexcept;

namespace {

inline double hsum512(__m512d v) {
  __m256d lo = _mm512_castpd512_pd256(v);
  const __m256d hi = _mm512_extractf64x4_pd(v, 1);
  lo = _mm256_add_pd(lo, hi);
  __m128d l = _mm256_castpd256_pd128(lo);
  const __m128d h = _mm256_extractf128_pd(lo, 1);
  l = _mm_add_pd(l, h);
  const __m128d shuf = _mm_unpackhi_pd(l, l);
  return _mm_cvtsd_f64(_mm_add_sd(l, shuf));
}

double avx512_dot_real_real(const double* a, const double* b, std::size_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  __m512d acc2 = _mm512_setzero_pd();
  __m512d acc3 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i), acc0);
    acc1 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i + 8), _mm512_loadu_pd(b + i + 8), acc1);
    acc2 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i + 16), _mm512_loadu_pd(b + i + 16), acc2);
    acc3 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i + 24), _mm512_loadu_pd(b + i + 24), acc3);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i), acc0);
  }
  double acc =
      hsum512(_mm512_add_pd(_mm512_add_pd(acc0, acc1), _mm512_add_pd(acc2, acc3)));
  for (; i < n; ++i) {
    acc += a[i] * b[i];
  }
  return acc;
}

/// The single-query bank scan: out[r] = avx512_dot_real_real(rows + r·ld, q,
/// n). Row pairs share every q load; each row keeps the 4-accumulator
/// structure of avx512_dot_real_real (32-wide FMA loop, 8-wide spill into
/// acc0, (0+1)+(2+3) horizontal sum, scalar tail).
void dot_rows_paired512(const double* q, const double* rows, std::size_t ld,
                        std::size_t num_rows, std::size_t n, double* out) {
  std::size_t r = 0;
  for (; r + 2 <= num_rows; r += 2) {
    const double* a0 = rows + r * ld;
    const double* a1 = a0 + ld;
    __m512d p00 = _mm512_setzero_pd(), p01 = _mm512_setzero_pd();
    __m512d p02 = _mm512_setzero_pd(), p03 = _mm512_setzero_pd();
    __m512d p10 = _mm512_setzero_pd(), p11 = _mm512_setzero_pd();
    __m512d p12 = _mm512_setzero_pd(), p13 = _mm512_setzero_pd();
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
      const __m512d q0 = _mm512_loadu_pd(q + i);
      const __m512d q1 = _mm512_loadu_pd(q + i + 8);
      const __m512d q2 = _mm512_loadu_pd(q + i + 16);
      const __m512d q3 = _mm512_loadu_pd(q + i + 24);
      p00 = _mm512_fmadd_pd(_mm512_loadu_pd(a0 + i), q0, p00);
      p01 = _mm512_fmadd_pd(_mm512_loadu_pd(a0 + i + 8), q1, p01);
      p02 = _mm512_fmadd_pd(_mm512_loadu_pd(a0 + i + 16), q2, p02);
      p03 = _mm512_fmadd_pd(_mm512_loadu_pd(a0 + i + 24), q3, p03);
      p10 = _mm512_fmadd_pd(_mm512_loadu_pd(a1 + i), q0, p10);
      p11 = _mm512_fmadd_pd(_mm512_loadu_pd(a1 + i + 8), q1, p11);
      p12 = _mm512_fmadd_pd(_mm512_loadu_pd(a1 + i + 16), q2, p12);
      p13 = _mm512_fmadd_pd(_mm512_loadu_pd(a1 + i + 24), q3, p13);
    }
    for (; i + 8 <= n; i += 8) {
      const __m512d qv = _mm512_loadu_pd(q + i);
      p00 = _mm512_fmadd_pd(_mm512_loadu_pd(a0 + i), qv, p00);
      p10 = _mm512_fmadd_pd(_mm512_loadu_pd(a1 + i), qv, p10);
    }
    double s0 = hsum512(_mm512_add_pd(_mm512_add_pd(p00, p01), _mm512_add_pd(p02, p03)));
    double s1 = hsum512(_mm512_add_pd(_mm512_add_pd(p10, p11), _mm512_add_pd(p12, p13)));
    for (; i < n; ++i) {
      s0 += a0[i] * q[i];
      s1 += a1[i] * q[i];
    }
    out[r] = s0;
    out[r + 1] = s1;
  }
  for (; r < num_rows; ++r) {
    out[r] = avx512_dot_real_real(rows + r * ld, q, n);
  }
}

/// One NQ-query × NR-row register tile of avx512_dot_rows_multi:
/// out[j·ldo + r] = avx512_dot_real_real(a[r], q[j], n), bit for bit. The
/// tile runs "lane-outer": avx512_dot_real_real's accumulator l only ever
/// sees chunks i = 8l, 8l + 32, … of the 32-wide main loop (and, for l = 0,
/// the 8-wide spill chunks), so one pass per l replays every pair's
/// accumulator l in its own order while keeping just NQ·NR accumulators
/// live — 16 at 4 × 4, with 8 loads per 16 FMAs. The four finished
/// accumulators of each pair then take the (0+1)+(2+3) horizontal sum and
/// the scalar tail, exactly as avx512_dot_real_real ends.
template <std::size_t NQ, std::size_t NR>
void dot_tile512(const double* const* q, const double* const* a, std::size_t n, double* out,
                 std::size_t ldo) {
  const std::size_t main_end = n & ~std::size_t{31};
  const std::size_t spill_end = n & ~std::size_t{7};
  __m512d acc[4][NQ][NR];
  for (std::size_t l = 0; l < 4; ++l) {
    __m512d p[NQ][NR];
    for (std::size_t j = 0; j < NQ; ++j) {
      for (std::size_t r = 0; r < NR; ++r) {
        p[j][r] = _mm512_setzero_pd();
      }
    }
    const auto step = [&](std::size_t i) {
      __m512d qv[NQ];
      __m512d av[NR];
      for (std::size_t j = 0; j < NQ; ++j) {
        qv[j] = _mm512_loadu_pd(q[j] + i);
      }
      for (std::size_t r = 0; r < NR; ++r) {
        av[r] = _mm512_loadu_pd(a[r] + i);
      }
      for (std::size_t j = 0; j < NQ; ++j) {
        for (std::size_t r = 0; r < NR; ++r) {
          p[j][r] = _mm512_fmadd_pd(av[r], qv[j], p[j][r]);
        }
      }
    };
    for (std::size_t i = 8 * l; i < main_end; i += 32) {
      step(i);
    }
    if (l == 0) {
      for (std::size_t i = main_end; i < spill_end; i += 8) {
        step(i);
      }
    }
    for (std::size_t j = 0; j < NQ; ++j) {
      for (std::size_t r = 0; r < NR; ++r) {
        acc[l][j][r] = p[j][r];
      }
    }
  }
  for (std::size_t j = 0; j < NQ; ++j) {
    for (std::size_t r = 0; r < NR; ++r) {
      double s = hsum512(_mm512_add_pd(_mm512_add_pd(acc[0][j][r], acc[1][j][r]),
                                       _mm512_add_pd(acc[2][j][r], acc[3][j][r])));
      for (std::size_t i = spill_end; i < n; ++i) {
        s += a[r][i] * q[j][i];
      }
      out[j * ldo + r] = s;
    }
  }
}

void avx512_dot_rows_multi(const double* rows, std::size_t ld, std::size_t nrows,
                           const double* queries, std::size_t ldq, std::size_t nq,
                           std::size_t n, double* out) {
  // Four queries at a time in 4 × 4 tiles (4 × 3/2/1 for the last rows).
  // Leftover queries — and a single query — run the paired-row scan: a
  // 1 × 4 tile is slower than it, because one query has no row loads to
  // share.
  std::size_t j0 = 0;
  for (; j0 + 4 <= nq; j0 += 4) {
    const double* q[4];
    for (std::size_t j = 0; j < 4; ++j) {
      q[j] = queries + (j0 + j) * ldq;
    }
    double* o = out + j0 * nrows;
    std::size_t r0 = 0;
    for (; r0 + 4 <= nrows; r0 += 4) {
      const double* a[4] = {rows + r0 * ld, rows + (r0 + 1) * ld, rows + (r0 + 2) * ld,
                            rows + (r0 + 3) * ld};
      dot_tile512<4, 4>(q, a, n, o + r0, nrows);
    }
    const double* a[3] = {};
    for (std::size_t r = r0; r < nrows; ++r) {
      a[r - r0] = rows + r * ld;
    }
    switch (nrows - r0) {
      case 3:
        dot_tile512<4, 3>(q, a, n, o + r0, nrows);
        break;
      case 2:
        dot_tile512<4, 2>(q, a, n, o + r0, nrows);
        break;
      case 1:
        dot_tile512<4, 1>(q, a, n, o + r0, nrows);
        break;
      default:
        break;
    }
  }
  for (; j0 < nq; ++j0) {
    dot_rows_paired512(queries + j0 * ldq, rows, ld, nrows, n, out + j0 * nrows);
  }
}

void avx512_dot_rows_block(const double* q, const double* const* rows,
                           std::size_t num_rows, std::size_t len, bool last,
                           double* state, double* out) {
  // Carries avx512_dot_real_real's four 512-bit accumulators per row (the
  // full 32-double kDotRowsBlockState slot). Non-final block lengths are
  // multiples of 64, so the 32-wide main loop consumes them exactly and the
  // lane phase survives the boundary; the 8-wide spill, horizontal sum and
  // scalar tail run only on the final call.
  for (std::size_t r = 0; r < num_rows; ++r) {
    double* st = state + r * kDotRowsBlockState;
    __m512d acc0 = _mm512_loadu_pd(st);
    __m512d acc1 = _mm512_loadu_pd(st + 8);
    __m512d acc2 = _mm512_loadu_pd(st + 16);
    __m512d acc3 = _mm512_loadu_pd(st + 24);
    const double* a = rows[r];
    std::size_t i = 0;
    for (; i + 32 <= len; i += 32) {
      acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(q + i), acc0);
      acc1 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i + 8), _mm512_loadu_pd(q + i + 8), acc1);
      acc2 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i + 16), _mm512_loadu_pd(q + i + 16),
                             acc2);
      acc3 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i + 24), _mm512_loadu_pd(q + i + 24),
                             acc3);
    }
    if (!last) {
      _mm512_storeu_pd(st, acc0);
      _mm512_storeu_pd(st + 8, acc1);
      _mm512_storeu_pd(st + 16, acc2);
      _mm512_storeu_pd(st + 24, acc3);
      continue;
    }
    for (; i + 8 <= len; i += 8) {
      acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(q + i), acc0);
    }
    double acc =
        hsum512(_mm512_add_pd(_mm512_add_pd(acc0, acc1), _mm512_add_pd(acc2, acc3)));
    for (; i < len; ++i) {
      acc += a[i] * q[i];
    }
    out[r] = acc;
  }
}

void avx512_add_scaled_real(double* a, const double* b, double c, std::size_t n) {
  // mul + add (no FMA): each slot must round exactly like the scalar
  // backend's `a[i] += c * b[i]`. Alignment-peeled to 64-byte destination
  // accesses like the AVX2 kernel (std::vector storage is only 16-byte
  // aligned).
  const __m512d cv = _mm512_set1_pd(c);
  std::size_t i = 0;
  while (i < n && (reinterpret_cast<std::uintptr_t>(a + i) & 63U) != 0) {
    a[i] += c * b[i];
    ++i;
  }
  for (; i + 32 <= n; i += 32) {
    _mm512_store_pd(a + i, _mm512_add_pd(_mm512_load_pd(a + i),
                                         _mm512_mul_pd(cv, _mm512_loadu_pd(b + i))));
    _mm512_store_pd(a + i + 8,
                    _mm512_add_pd(_mm512_load_pd(a + i + 8),
                                  _mm512_mul_pd(cv, _mm512_loadu_pd(b + i + 8))));
    _mm512_store_pd(a + i + 16,
                    _mm512_add_pd(_mm512_load_pd(a + i + 16),
                                  _mm512_mul_pd(cv, _mm512_loadu_pd(b + i + 16))));
    _mm512_store_pd(a + i + 24,
                    _mm512_add_pd(_mm512_load_pd(a + i + 24),
                                  _mm512_mul_pd(cv, _mm512_loadu_pd(b + i + 24))));
  }
  for (; i + 8 <= n; i += 8) {
    _mm512_store_pd(a + i, _mm512_add_pd(_mm512_load_pd(a + i),
                                         _mm512_mul_pd(cv, _mm512_loadu_pd(b + i))));
  }
  for (; i < n; ++i) {
    a[i] += c * b[i];
  }
}

/// One pass of avx512_update_dot_rows over R ≤ 4 bank rows (rows + idx[j]·ld)
/// that all update (kUpdate) or all only score: avx512_dot_real_real's exact
/// per-row operation sequence (32-wide FMA loop into four accumulators,
/// 8-wide spill into the first, (0+1)+(2+3) horizontal sum, scalar tail),
/// each component first updated by coeff·u and stored back when kUpdate (mul
/// then add, the per-slot rounding of avx512_add_scaled_real). A component's
/// update never depends on its neighbours, so out[idx[j]] is
/// avx512_dot_real_real of the updated row whatever the grouping.
template <std::size_t R, bool kUpdate>
void update_dot_pass512(double* rows, std::size_t ld, const std::size_t* idx,
                        const double* coeff, const double* u, const double* q, std::size_t n,
                        double* out) {
  double* a[R] = {};
  __m512d cv[R] = {};
  __m512d p[R][4] = {};  // value-initialized: all lanes +0.0
  for (std::size_t j = 0; j < R; ++j) {
    a[j] = rows + idx[j] * ld;
    cv[j] = _mm512_set1_pd(coeff[idx[j]]);
  }
  const auto step = [&](std::size_t i, std::size_t lane) {
    const __m512d qv = _mm512_loadu_pd(q + i);
    __m512d uv = _mm512_setzero_pd();
    if constexpr (kUpdate) {
      uv = _mm512_loadu_pd(u + i);
    }
    for (std::size_t j = 0; j < R; ++j) {
      __m512d x = _mm512_loadu_pd(a[j] + i);
      if constexpr (kUpdate) {
        x = _mm512_add_pd(x, _mm512_mul_pd(cv[j], uv));
        _mm512_storeu_pd(a[j] + i, x);
      }
      p[j][lane] = _mm512_fmadd_pd(x, qv, p[j][lane]);
    }
  };
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    step(i, 0);
    step(i + 8, 1);
    step(i + 16, 2);
    step(i + 24, 3);
  }
  for (; i + 8 <= n; i += 8) {
    step(i, 0);
  }
  double sum[R] = {};
  for (std::size_t j = 0; j < R; ++j) {
    sum[j] = hsum512(
        _mm512_add_pd(_mm512_add_pd(p[j][0], p[j][1]), _mm512_add_pd(p[j][2], p[j][3])));
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

template <bool kUpdate>
void update_dot_group512(std::size_t size, double* rows, std::size_t ld,
                         const std::size_t* idx, const double* coeff, const double* u,
                         const double* q, std::size_t n, double* out) {
  switch (size) {
    case 1:
      update_dot_pass512<1, kUpdate>(rows, ld, idx, coeff, u, q, n, out);
      break;
    case 2:
      update_dot_pass512<2, kUpdate>(rows, ld, idx, coeff, u, q, n, out);
      break;
    case 3:
      update_dot_pass512<3, kUpdate>(rows, ld, idx, coeff, u, q, n, out);
      break;
    default:
      update_dot_pass512<4, kUpdate>(rows, ld, idx, coeff, u, q, n, out);
      break;
  }
}

void avx512_update_dot_rows(double* rows, std::size_t ld, std::size_t num_rows,
                            const double* coeff, const double* q_update, const double* q_next,
                            std::size_t n, double* out) {
  if (q_next == nullptr) {
    detail::update_dot_rows_composed<avx512_add_scaled_real, avx512_dot_rows_multi>(
        rows, ld, num_rows, coeff, q_update, q_next, n, out);
    return;
  }
  // Rows that update and rows that only score (the losing clusters) go in
  // separate passes of up to four rows each, so every q_next / q_update load
  // serves four rows and a scan-only row is never stored.
  std::size_t groups[2][4] = {};
  std::size_t fill[2] = {0, 0};
  const auto flush = [&](std::size_t update) {
    if (update != 0) {
      update_dot_group512<true>(fill[1], rows, ld, groups[1], coeff, q_update, q_next, n, out);
    } else {
      update_dot_group512<false>(fill[0], rows, ld, groups[0], coeff, q_update, q_next, n,
                                 out);
    }
    fill[update] = 0;
  };
  for (std::size_t r = 0; r < num_rows; ++r) {
    const std::size_t update = coeff[r] != 0.0 ? 1 : 0;
    groups[update][fill[update]++] = r;
    if (fill[update] == 4) {
      flush(update);
    }
  }
  for (const std::size_t update : {std::size_t{0}, std::size_t{1}}) {
    if (fill[update] > 0) {
      flush(update);
    }
  }
}

void avx512_merge_accumulate(double* acc, const double* rep, const double* base,
                             std::size_t n) {
  // sub then add per lane: each slot rounds exactly like the scalar
  // backend's `acc[i] += rep[i] - base[i]` (the shard-merge proofs rely on
  // bit-identity across tables).
  std::size_t i = 0;
  while (i < n && (reinterpret_cast<std::uintptr_t>(acc + i) & 63U) != 0) {
    acc[i] += rep[i] - base[i];
    ++i;
  }
  for (; i + 8 <= n; i += 8) {
    _mm512_store_pd(acc + i,
                    _mm512_add_pd(_mm512_load_pd(acc + i),
                                  _mm512_sub_pd(_mm512_loadu_pd(rep + i),
                                                _mm512_loadu_pd(base + i))));
  }
  for (; i < n; ++i) {
    acc[i] += rep[i] - base[i];
  }
}

void avx512_scale_real(double* a, double c, std::size_t n) {
  const __m512d cv = _mm512_set1_pd(c);
  std::size_t i = 0;
  while (i < n && (reinterpret_cast<std::uintptr_t>(a + i) & 63U) != 0) {
    a[i] *= c;
    ++i;
  }
  for (; i + 8 <= n; i += 8) {
    _mm512_store_pd(a + i, _mm512_mul_pd(cv, _mm512_load_pd(a + i)));
  }
  for (; i < n; ++i) {
    a[i] *= c;
  }
}

void avx512_sign_pack(const double* v, std::uint64_t* bits, std::size_t n) {
  // One VCMPPD per 8 lanes straight into a mask register; the inverted mask
  // byte lands in the packed word. _CMP_LT_OQ is false for NaN, so NaN sets
  // its bit exactly like the scalar kernel.
  const __m512d zero = _mm512_setzero_pd();
  std::size_t i = 0;
  const std::size_t full_words = n / 64;
  for (std::size_t w = 0; w < full_words; ++w) {
    std::uint64_t word = 0;
    for (std::size_t j = 0; j < 64; j += 8) {
      const auto neg = static_cast<unsigned>(
          _mm512_cmp_pd_mask(_mm512_loadu_pd(v + i + j), zero, _CMP_LT_OQ));
      word |= static_cast<std::uint64_t>(~neg & 0xFFU) << j;
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

// ---------------------------------------------------------------------------
// VPOPCNTDQ popcount family. The TU baseline is avx512f+avx512bw; these
// functions opt into the vpopcntdq extension with a target attribute and are
// only installed in the table when cpuid reports the feature. Integer-exact,
// so they are bit-identical to the scalar/AVX2 POPCNT loops by construction.
// ---------------------------------------------------------------------------

__attribute__((target("avx512f,avx512bw,avx512vpopcntdq"))) std::int64_t
vpop_xor_popcount(const std::uint64_t* a, const std::uint64_t* b, std::size_t words) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= words; i += 8) {
    const __m512i x = _mm512_xor_si512(_mm512_loadu_si512(a + i),
                                       _mm512_loadu_si512(b + i));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(x));
  }
  std::int64_t total = _mm512_reduce_add_epi64(acc);
  for (; i < words; ++i) {
    total += std::popcount(a[i] ^ b[i]);
  }
  return total;
}

__attribute__((target("avx512f,avx512bw,avx512vpopcntdq"))) std::int64_t
vpop_masked_xnor_popcount(const std::uint64_t* a, const std::uint64_t* b,
                          const std::uint64_t* mask, std::size_t words) {
  __m512i agree = _mm512_setzero_si512();
  __m512i active = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= words; i += 8) {
    const __m512i m = _mm512_loadu_si512(mask + i);
    const __m512i x = _mm512_xor_si512(_mm512_loadu_si512(a + i),
                                       _mm512_loadu_si512(b + i));
    // ~(a ^ b) & m in one ANDNOT.
    agree = _mm512_add_epi64(agree, _mm512_popcnt_epi64(_mm512_andnot_si512(x, m)));
    active = _mm512_add_epi64(active, _mm512_popcnt_epi64(m));
  }
  std::int64_t agree_total = _mm512_reduce_add_epi64(agree);
  std::int64_t active_total = _mm512_reduce_add_epi64(active);
  for (; i < words; ++i) {
    agree_total += std::popcount(~(a[i] ^ b[i]) & mask[i]);
    active_total += std::popcount(mask[i]);
  }
  return 2 * agree_total - active_total;
}

std::int64_t vpop_hamming(const std::uint64_t* a, const std::uint64_t* b,
                          std::size_t words) {
  return vpop_xor_popcount(a, b, words);
}

void vpop_dot_rows_ternary(const std::uint64_t* q, const std::uint64_t* signs,
                           const std::uint64_t* masks, std::size_t ld,
                           std::size_t num_rows, std::size_t n, std::int64_t* out) {
  const std::size_t words = (n + 63) / 64;
  for (std::size_t r = 0; r < num_rows; ++r) {
    out[r] = vpop_masked_xnor_popcount(signs + r * ld, q, masks + r * ld, words);
  }
}

// ---------------------------------------------------------------------------
// 8-lane Box–Muller replay for the fused single-query projection. These are
// the AVX2 TU's mullo64 / splitmix_mix / u64_to_double_53 / fast_log4 /
// fast_sincos4 helpers widened to 512 bits: identical operations in identical
// per-lane order (blendv becomes a mask blend, xor_pd goes through the
// integer domain — both AVX-512F-only and bit-transparent), VSQRTPD and
// VDIVPD are correctly rounded at any width, so every lane stays
// bit-identical to the scalar reference in rff_remat.hpp.
// ---------------------------------------------------------------------------

inline __m512i mullo64_512(__m512i a, __m512i b) {
  // Low 64 bits of a 64×64 multiply per lane without AVX-512DQ's VPMULLQ:
  //   a·b mod 2⁶⁴ = lo(a)·lo(b) + ((lo(a)·hi(b) + hi(a)·lo(b)) « 32).
  const __m512i a_hi = _mm512_srli_epi64(a, 32);
  const __m512i b_hi = _mm512_srli_epi64(b, 32);
  const __m512i lolo = _mm512_mul_epu32(a, b);
  const __m512i cross = _mm512_add_epi64(_mm512_mul_epu32(a, b_hi),
                                         _mm512_mul_epu32(a_hi, b));
  return _mm512_add_epi64(lolo, _mm512_slli_epi64(cross, 32));
}

inline __m512i splitmix_mix8(__m512i z) {
  z = mullo64_512(_mm512_xor_si512(z, _mm512_srli_epi64(z, 30)),
                  _mm512_set1_epi64(static_cast<long long>(0xbf58476d1ce4e5b9ULL)));
  z = mullo64_512(_mm512_xor_si512(z, _mm512_srli_epi64(z, 27)),
                  _mm512_set1_epi64(static_cast<long long>(0x94d049bb133111ebULL)));
  return _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
}

inline __m512d u64_to_double_53_512(__m512i v) {
  // Exact uint64 → double for lane values < 2⁵³ via the 2⁵² magic-bias trick
  // (AVX-512F has no u64→f64 cvt; that is a DQ instruction).
  const __m512i magic = _mm512_set1_epi64(0x4330000000000000LL);
  const __m512d bias = _mm512_set1_pd(0x1.0p52);
  const __m512i lo = _mm512_and_si512(v, _mm512_set1_epi64(0xFFFFFFFFLL));
  const __m512i hi = _mm512_srli_epi64(v, 32);
  const __m512d lo_d =
      _mm512_sub_pd(_mm512_castsi512_pd(_mm512_or_si512(lo, magic)), bias);
  const __m512d hi_d =
      _mm512_sub_pd(_mm512_castsi512_pd(_mm512_or_si512(hi, magic)), bias);
  return _mm512_add_pd(_mm512_mul_pd(hi_d, _mm512_set1_pd(0x1.0p32)), lo_d);
}

inline __m512d fast_log8(__m512d x) {
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512i bits = _mm512_castpd_si512(x);
  const __m512d m_half = _mm512_castsi512_pd(_mm512_or_si512(
      _mm512_and_si512(bits, _mm512_set1_epi64(0x000FFFFFFFFFFFFFLL)),
      _mm512_set1_epi64(0x3FE0000000000000LL)));
  __m512d e = _mm512_sub_pd(
      _mm512_castsi512_pd(_mm512_or_si512(_mm512_srli_epi64(bits, 52),
                                          _mm512_set1_epi64(0x4330000000000000LL))),
      _mm512_set1_pd(0x1.0p52 + 1022.0));
  const __mmask8 low =
      _mm512_cmp_pd_mask(m_half, _mm512_set1_pd(7.07106781186547524401e-01), _CMP_LT_OQ);
  const __m512d m = _mm512_mask_blend_pd(low, m_half, _mm512_add_pd(m_half, m_half));
  e = _mm512_mask_blend_pd(low, e, _mm512_sub_pd(e, one));

  const __m512d f = _mm512_sub_pd(m, one);
  const __m512d s = _mm512_div_pd(f, _mm512_add_pd(_mm512_set1_pd(2.0), f));
  const __m512d z = _mm512_mul_pd(s, s);
  const __m512d w = _mm512_mul_pd(z, z);
  __m512d t1 = _mm512_add_pd(_mm512_set1_pd(2.222219843214978396e-01),
                             _mm512_mul_pd(w, _mm512_set1_pd(1.531383769920937332e-01)));
  t1 = _mm512_mul_pd(w, _mm512_add_pd(_mm512_set1_pd(3.999999999940941908e-01),
                                      _mm512_mul_pd(w, t1)));
  __m512d t2 = _mm512_add_pd(_mm512_set1_pd(1.818357216161805012e-01),
                             _mm512_mul_pd(w, _mm512_set1_pd(1.479819860511658591e-01)));
  t2 = _mm512_add_pd(_mm512_set1_pd(2.857142874366239149e-01), _mm512_mul_pd(w, t2));
  t2 = _mm512_mul_pd(z, _mm512_add_pd(_mm512_set1_pd(6.666666666666735130e-01),
                                      _mm512_mul_pd(w, t2)));
  const __m512d r = _mm512_add_pd(t2, t1);
  const __m512d hfsq = _mm512_mul_pd(_mm512_mul_pd(half, f), f);
  const __m512d ln2lo = _mm512_set1_pd(1.90821492927058770002e-10);
  const __m512d ln2hi = _mm512_set1_pd(6.93147180369123816490e-01);
  const __m512d inner = _mm512_add_pd(_mm512_mul_pd(s, _mm512_add_pd(hfsq, r)),
                                      _mm512_mul_pd(e, ln2lo));
  return _mm512_sub_pd(_mm512_mul_pd(e, ln2hi),
                       _mm512_sub_pd(_mm512_sub_pd(hfsq, inner), f));
}

struct SinCos8 {
  __m512d sin;
  __m512d cos;
};

inline SinCos8 fast_sincos8(__m512d x) {
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d two_over_pi = _mm512_set1_pd(6.36619772367581382433e-01);
  const __m512d shift = _mm512_set1_pd(6755399441055744.0);
  const __m512d pio2_hi = _mm512_set1_pd(1.57079632673412561417e+00);
  const __m512d pio2_lo = _mm512_set1_pd(6.07710050650619224932e-11);
  const __m512i one64 = _mm512_set1_epi64(1);
  const __m512i two64 = _mm512_set1_epi64(2);

  const __m512d shifted = _mm512_add_pd(_mm512_mul_pd(x, two_over_pi), shift);
  const __m512i q = _mm512_castpd_si512(shifted);
  const __m512d k = _mm512_sub_pd(shifted, shift);
  const __m512d r = _mm512_sub_pd(_mm512_sub_pd(x, _mm512_mul_pd(k, pio2_hi)),
                                  _mm512_mul_pd(k, pio2_lo));
  const __m512d r2 = _mm512_mul_pd(r, r);

  __m512d sp = _mm512_set1_pd(1.58969099521155010221e-10);
  sp = _mm512_add_pd(_mm512_set1_pd(-2.50507602534068634195e-08),
                     _mm512_mul_pd(r2, sp));
  sp = _mm512_add_pd(_mm512_set1_pd(2.75573137070700676789e-06),
                     _mm512_mul_pd(r2, sp));
  sp = _mm512_add_pd(_mm512_set1_pd(-1.98412698298579493134e-04),
                     _mm512_mul_pd(r2, sp));
  sp = _mm512_add_pd(_mm512_set1_pd(8.33333333332248946124e-03),
                     _mm512_mul_pd(r2, sp));
  sp = _mm512_add_pd(_mm512_set1_pd(-1.66666666666666324348e-01),
                     _mm512_mul_pd(r2, sp));
  const __m512d ps = _mm512_add_pd(r, _mm512_mul_pd(_mm512_mul_pd(r, r2), sp));

  __m512d cp = _mm512_set1_pd(-1.13596475577881948265e-11);
  cp = _mm512_add_pd(_mm512_set1_pd(2.08757232129817482790e-09),
                     _mm512_mul_pd(r2, cp));
  cp = _mm512_add_pd(_mm512_set1_pd(-2.75573143513906633035e-07),
                     _mm512_mul_pd(r2, cp));
  cp = _mm512_add_pd(_mm512_set1_pd(2.48015872894767294178e-05),
                     _mm512_mul_pd(r2, cp));
  cp = _mm512_add_pd(_mm512_set1_pd(-1.38888888888741095749e-03),
                     _mm512_mul_pd(r2, cp));
  cp = _mm512_add_pd(_mm512_set1_pd(4.16666666666666019037e-02),
                     _mm512_mul_pd(r2, cp));
  const __m512d pc =
      _mm512_add_pd(_mm512_sub_pd(_mm512_set1_pd(1.0), _mm512_mul_pd(half, r2)),
                    _mm512_mul_pd(_mm512_mul_pd(r2, r2), cp));

  const __mmask8 odd = _mm512_test_epi64_mask(q, one64);
  SinCos8 out;
  // sin: even quadrant → ±sin(r), odd → ±cos(r); sign from bit 1 of q.
  const __m512i sin_flip = _mm512_slli_epi64(_mm512_and_si512(q, two64), 62);
  out.sin = _mm512_castsi512_pd(_mm512_xor_si512(
      _mm512_castpd_si512(_mm512_mask_blend_pd(odd, ps, pc)), sin_flip));
  // cos: the roles swapped; sign from bit 1 of q + 1.
  const __m512i cos_flip =
      _mm512_slli_epi64(_mm512_and_si512(_mm512_add_epi64(q, one64), two64), 62);
  out.cos = _mm512_castsi512_pd(_mm512_xor_si512(
      _mm512_castpd_si512(_mm512_mask_blend_pd(odd, pc, ps)), cos_flip));
  return out;
}

/// util::fast_sin replayed 8 lanes wide for |x| < 2³⁰ (out-of-range lanes
/// are the caller's to redo). fast_sin evaluates both fdlibm polynomials and
/// keeps one per lane — sin(r) in even quadrants, cos(r) in odd ones — so
/// each lane here runs only the polynomial it keeps: one Horner chain over
/// per-lane coefficients (sin's in even lanes, cos's in odd lanes), then
///   even: r + (r·r2)·p,   odd: (1 − ½·r2) + (r2·r2)·p,
/// the scalar expressions operation for operation. Every lane's value is
/// bit-identical to fast_sin, with seven fewer vector operations per group
/// than evaluating both polynomials and blending.
inline __m512d fast_sin8(__m512d x) {
  const __m512d shifted = _mm512_add_pd(
      _mm512_mul_pd(x, _mm512_set1_pd(6.36619772367581382433e-01)),
      _mm512_set1_pd(6755399441055744.0));
  const __m512i q = _mm512_castpd_si512(shifted);
  const __m512d k = _mm512_sub_pd(shifted, _mm512_set1_pd(6755399441055744.0));
  const __m512d r = _mm512_sub_pd(
      _mm512_sub_pd(x, _mm512_mul_pd(k, _mm512_set1_pd(1.57079632673412561417e+00))),
      _mm512_mul_pd(k, _mm512_set1_pd(6.07710050650619224932e-11)));
  const __m512d r2 = _mm512_mul_pd(r, r);

  const __mmask8 odd = _mm512_test_epi64_mask(q, _mm512_set1_epi64(1));
  const auto coef = [odd](double sin_c, double cos_c) {
    return _mm512_mask_blend_pd(odd, _mm512_set1_pd(sin_c), _mm512_set1_pd(cos_c));
  };
  __m512d p = coef(1.58969099521155010221e-10, -1.13596475577881948265e-11);
  p = _mm512_add_pd(coef(-2.50507602534068634195e-08, 2.08757232129817482790e-09),
                    _mm512_mul_pd(r2, p));
  p = _mm512_add_pd(coef(2.75573137070700676789e-06, -2.75573143513906633035e-07),
                    _mm512_mul_pd(r2, p));
  p = _mm512_add_pd(coef(-1.98412698298579493134e-04, 2.48015872894767294178e-05),
                    _mm512_mul_pd(r2, p));
  p = _mm512_add_pd(coef(8.33333333332248946124e-03, -1.38888888888741095749e-03),
                    _mm512_mul_pd(r2, p));
  p = _mm512_add_pd(coef(-1.66666666666666324348e-01, 4.16666666666666019037e-02),
                    _mm512_mul_pd(r2, p));
  const __m512d head = _mm512_mask_sub_pd(r, odd, _mm512_set1_pd(1.0),
                                          _mm512_mul_pd(_mm512_set1_pd(0.5), r2));
  const __m512d scale = _mm512_mask_mul_pd(_mm512_mul_pd(r, r2), odd, r2, r2);
  const __m512d v = _mm512_add_pd(head, _mm512_mul_pd(scale, p));
  // Bit 1 of q flips the sign: v ^ ((q « 62) ∧ sign bit) in one ternary op.
  return _mm512_castsi512_pd(_mm512_ternarylogic_epi64(
      _mm512_castpd_si512(v), _mm512_slli_epi64(q, 62),
      _mm512_set1_epi64(static_cast<long long>(0x8000000000000000ULL)), 0x78));
}

/// The RFF trig map on eight lanes in registers: ½·(fast_sin(2·z + phase) −
/// sin_phase), util::fast_sin's operation sequence per lane. Lanes with
/// !(|2·z + phase| < 2³⁰) — NaN and ±Inf included — are redone with
/// std::sin, the escape fast_sin itself takes.
inline __m512d trig8(__m512d z, __m512d phase, __m512d sin_phase) {
  const __m512d x = _mm512_add_pd(_mm512_mul_pd(_mm512_set1_pd(2.0), z), phase);
  __m512d out = _mm512_mul_pd(_mm512_set1_pd(0.5), _mm512_sub_pd(fast_sin8(x), sin_phase));
  const __mmask8 oor =
      _mm512_cmp_pd_mask(_mm512_abs_pd(x), _mm512_set1_pd(1073741824.0), _CMP_NLT_UQ);
  if (oor != 0) [[unlikely]] {
    alignas(64) double xa[8];
    alignas(64) double sa[8];
    alignas(64) double oa[8];
    _mm512_store_pd(xa, x);
    _mm512_store_pd(sa, sin_phase);
    _mm512_store_pd(oa, out);
    for (unsigned l = 0; l < 8; ++l) {
      if (((oor >> l) & 1U) != 0) {
        oa[l] = 0.5 * (std::sin(xa[l]) - sa[l]);
      }
    }
    out = _mm512_load_pd(oa);
  }
  return out;
}

/// rff_project_map's register block: C[0..R) × [0..8·V) over A[0..R) × B,
/// the R·V accumulators held in registers across the whole k loop. Per
/// element: ascending k, mul then add — the scalar add_scaled_real chain's
/// rounding sequence — so the block shape never shows. The accumulators
/// start at +0.0 (the value a zero-filled C would load) and go through trig8
/// before the one store, so C is write-only; `phase` / `sin_phase` point at
/// the block's first column.
template <std::size_t R, std::size_t V>
inline void gemm_block(const double* a, std::size_t lda, const double* b,
                       std::size_t ldb, const double* phase, const double* sin_phase,
                       double* c, std::size_t ldc, std::size_t k) {
  __m512d acc[R][V];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < V; ++v) {
      acc[r][v] = _mm512_setzero_pd();
    }
  }
  for (std::size_t kk = 0; kk < k; ++kk) {
    for (std::size_t v = 0; v < V; ++v) {
      const __m512d bv = _mm512_loadu_pd(b + kk * ldb + 8 * v);
      for (std::size_t r = 0; r < R; ++r) {
        acc[r][v] = _mm512_add_pd(acc[r][v],
                                  _mm512_mul_pd(_mm512_set1_pd(a[r * lda + kk]), bv));
      }
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < V; ++v) {
      acc[r][v] = trig8(acc[r][v], _mm512_loadu_pd(phase + 8 * v),
                        _mm512_loadu_pd(sin_phase + 8 * v));
      _mm512_storeu_pd(c + r * ldc + 8 * v, acc[r][v]);
    }
  }
}

/// Rows [0, m) of one 8·V-column panel: blocks of R rows, then the m % R
/// leftover rows in halving blocks (R/2, R/4, …, 1).
template <std::size_t R, std::size_t V>
inline void gemm_panel(const double* a, std::size_t lda, const double* b,
                       std::size_t ldb, const double* phase, const double* sin_phase,
                       double* c, std::size_t ldc, std::size_t m, std::size_t k) {
  std::size_t r = 0;
  for (; r + R <= m; r += R) {
    gemm_block<R, V>(a + r * lda, lda, b, ldb, phase, sin_phase, c + r * ldc, ldc, k);
  }
  if constexpr (R > 1) {
    if (r < m) {
      gemm_panel<R / 2, V>(a + r * lda, lda, b, ldb, phase, sin_phase, c + r * ldc, ldc,
                           m - r, k);
    }
  }
}

/// The traversal of rff_project_map: the scalar kernel's 512-column tiles,
/// each cut into panels that keep 16 accumulators in registers across all
/// of k — 4 rows × 32 columns, 8 rows × 16 columns (the rematerialized
/// encoder's weight tiles), 16 rows × 8 columns — so every B load feeds
/// several rows and enough independent add chains are in flight to cover
/// the add latency. The last n % 8 columns run the scalar chain and the
/// scalar trig map's expression. Kept as a function of its own, like the
/// AVX2 table's gemm_rows.
void gemm_tiles(const double* a, std::size_t lda, const double* b, std::size_t ldb,
                const double* phase, const double* sin_phase, double* c,
                std::size_t ldc, std::size_t m, std::size_t k, std::size_t n) {
  constexpr std::size_t kColTile = 512;
  for (std::size_t j0 = 0; j0 < n; j0 += kColTile) {
    const std::size_t jn = std::min(n, j0 + kColTile);
    std::size_t j = j0;
    for (; j + 32 <= jn; j += 32) {
      gemm_panel<4, 4>(a, lda, b + j, ldb, phase + j, sin_phase + j, c + j, ldc, m, k);
    }
    for (; j + 16 <= jn; j += 16) {
      gemm_panel<8, 2>(a, lda, b + j, ldb, phase + j, sin_phase + j, c + j, ldc, m, k);
    }
    for (; j + 8 <= jn; j += 8) {
      gemm_panel<16, 1>(a, lda, b + j, ldb, phase + j, sin_phase + j, c + j, ldc, m, k);
    }
    for (; j < jn; ++j) {
      for (std::size_t r = 0; r < m; ++r) {
        double acc = 0.0;
        for (std::size_t kk = 0; kk < k; ++kk) {
          acc += a[r * lda + kk] * b[kk * ldb + j];
        }
        acc = 0.5 * (util::fast_sin(2.0 * acc + phase[j]) - sin_phase[j]);
        c[r * ldc + j] = acc;
      }
    }
  }
}

void avx512_rff_project_map(const double* a, std::size_t lda, const double* b,
                            std::size_t ldb, const double* phase,
                            const double* sin_phase, double* c, std::size_t ldc,
                            std::size_t m, std::size_t k, std::size_t n) {
  gemm_tiles(a, lda, b, ldb, phase, sin_phase, c, ldc, m, k, n);
}

/// Seeds of the eight rows [row, row + 8): lane l is mix(seed + (row + l +
/// 1)·γ) — exactly detail::splitmix_at(seed, row + l).
inline __m512i row_seeds8(std::uint64_t seed, std::size_t row) {
  constexpr std::uint64_t kG = detail::kSmGamma;
  const __m512i lane_gamma = _mm512_setr_epi64(
      0, static_cast<long long>(kG), static_cast<long long>(2 * kG),
      static_cast<long long>(3 * kG), static_cast<long long>(4 * kG),
      static_cast<long long>(5 * kG), static_cast<long long>(6 * kG),
      static_cast<long long>(7 * kG));
  const std::uint64_t base = seed + (static_cast<std::uint64_t>(row) + 1) * kG;
  return splitmix_mix8(
      _mm512_add_epi64(_mm512_set1_epi64(static_cast<long long>(base)), lane_gamma));
}

struct WeightPair8 {
  __m512d even;  ///< w[k]: the cosine half of the Box–Muller pair.
  __m512d odd;   ///< w[k+1]: the sine half (unused when k + 1 == n_features).
};

/// Weights k and k + 1 (k even) of the eight rows seeded by `row_seed`: two
/// counter-seeked draws, exact u64 → double, then Box–Muller — lane for lane
/// the operation sequence of detail::rff_rematerialize_rows.
inline WeightPair8 box_muller8(__m512i row_seed, std::size_t k, __m512d stddev) {
  constexpr std::uint64_t kG = detail::kSmGamma;
  const __m512i draw_a = splitmix_mix8(_mm512_add_epi64(
      row_seed,
      _mm512_set1_epi64(static_cast<long long>((static_cast<std::uint64_t>(k) + 1) * kG))));
  const __m512i draw_b = splitmix_mix8(_mm512_add_epi64(
      row_seed,
      _mm512_set1_epi64(static_cast<long long>((static_cast<std::uint64_t>(k) + 2) * kG))));
  const __m512d a = u64_to_double_53_512(_mm512_srli_epi64(draw_a, 11));
  const __m512d b = u64_to_double_53_512(_mm512_srli_epi64(draw_b, 11));
  const __m512d inv53 = _mm512_set1_pd(0x1.0p-53);
  const __m512d u1 = _mm512_mul_pd(_mm512_add_pd(a, _mm512_set1_pd(1.0)), inv53);
  const __m512d u2 = _mm512_mul_pd(b, inv53);
  const __m512d radius =
      _mm512_sqrt_pd(_mm512_mul_pd(_mm512_set1_pd(-2.0), fast_log8(u1)));
  const SinCos8 sc = fast_sincos8(_mm512_mul_pd(_mm512_set1_pd(2.0 * std::numbers::pi), u2));
  return {_mm512_mul_pd(_mm512_mul_pd(radius, sc.cos), stddev),
          _mm512_mul_pd(_mm512_mul_pd(radius, sc.sin), stddev)};
}

void avx512_rff_rematerialize(std::uint64_t seed, double stddev, std::size_t row0,
                              std::size_t rows, std::size_t n_features, double* out,
                              std::size_t ld) {
  // Eight consecutive rows per vector: the lanes of weight pair (k, k+1)
  // land in out[k·ld + r .. r+7], unit-stride in the feature-major layout
  // rff_project_map streams. Row tails replay the scalar reference.
  const __m512d stddev_v = _mm512_set1_pd(stddev);
  std::size_t r = 0;
  for (; r + 8 <= rows; r += 8) {
    const __m512i row_seed = row_seeds8(seed, row0 + r);
    double* out_r = out + r;
    for (std::size_t k = 0; k < n_features; k += 2) {
      const WeightPair8 w = box_muller8(row_seed, k, stddev_v);
      _mm512_storeu_pd(out_r + k * ld, w.even);
      if (k + 1 < n_features) {
        _mm512_storeu_pd(out_r + (k + 1) * ld, w.odd);
      }
    }
  }
  if (r < rows) {
    detail::rff_rematerialize_rows(seed, stddev, row0 + r, rows - r, n_features,
                                   out + r, ld);
  }
}

KernelBackend make_avx512_table(bool vpopcntdq) {
  KernelBackend table = *avx2_backend_table();
  table.name = "avx512";
  table.f64_lanes = 8;
  table.dot_real_real = avx512_dot_real_real;
  table.add_scaled_real = avx512_add_scaled_real;
  table.merge_accumulate = avx512_merge_accumulate;
  table.scale_real = avx512_scale_real;
  table.rff_rematerialize = avx512_rff_rematerialize;
  table.dot_rows_multi = avx512_dot_rows_multi;
  table.update_dot_rows = avx512_update_dot_rows;
  table.dot_rows_block = avx512_dot_rows_block;
  table.sign_pack = avx512_sign_pack;
  table.rff_project_map = avx512_rff_project_map;
  if (vpopcntdq) {
    table.hamming = vpop_hamming;
    table.dot_rows_ternary = vpop_dot_rows_ternary;
  }
  return table;
}

}  // namespace

const KernelBackend* avx512_backend_table(bool vpopcntdq) noexcept {
  // Two fixed variants behind function-local statics: the table is composed
  // on first call (always after runtime dispatch has confirmed AVX-512), and
  // both variants report the same name — VPOPCNTDQ is a sub-dispatch, not a
  // user-visible backend.
  static const KernelBackend base = make_avx512_table(false);
  static const KernelBackend vpop = make_avx512_table(true);
  return vpopcntdq ? &vpop : &base;
}

}  // namespace reghd::hdc

#endif  // REGHD_HAVE_AVX512
