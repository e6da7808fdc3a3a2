// aarch64 NEON implementations of the kernel backend. NEON (Advanced SIMD)
// is baseline on aarch64, so unlike the x86 tables this TU needs no special
// ISA flags and no runtime CPU check — it is simply compiled in (and the
// x86 TUs compiled out) when CMAKE_SYSTEM_PROCESSOR is aarch64/arm64.
//
// Contract discipline mirrors the AVX2 table:
//  * Reduction kernels (dot_real_real / dot_rows_multi / dot_rows_block) use
//    four 2-lane accumulators with a fixed combine order — self-consistent
//    (the dot_rows_multi contract) but free to differ from scalar by summation order,
//    so vfmaq_f64 is allowed there.
//  * Per-component kernels (add_scaled_real, merge_accumulate, scale_real,
//    and the GEMM under rff_project_map) must round every slot exactly like
//    scalar: separate
//    vmulq/vaddq — never vfmaq — and this TU plus the scalar TU are compiled
//    with -ffp-contract=off, because on aarch64 (where FMA is baseline) the
//    compiler would otherwise contract scalar `a += c*b` into fmadd and the
//    two tables would diverge by 1 ulp.
//  * Integer kernels reuse the scalar operation sequences (std::popcount
//    lowers to the NEON CNT pipeline on aarch64); the RFF generators
//    delegate to the shared scalar cores, which are branch-free and
//    bit-identical by construction.
#include "hdc/kernel_backend.hpp"

#ifdef REGHD_HAVE_NEON
#ifdef __aarch64__

#include <arm_neon.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "hdc/rff_remat.hpp"
#include "util/fast_trig.hpp"

namespace reghd::hdc {

namespace {

/// +v when the low bit of `keep` is 1, −v when it is 0 (IEEE sign-bit XOR —
/// the scalar backend's branchless sign application).
inline double apply_sign(double v, std::uint64_t keep) {
  const std::uint64_t flip = (~keep & 1ULL) << 63;
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) ^ flip);
}

double neon_dot_real_real(const double* a, const double* b, std::size_t n) {
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  float64x2_t acc2 = vdupq_n_f64(0.0);
  float64x2_t acc3 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = vfmaq_f64(acc0, vld1q_f64(a + i), vld1q_f64(b + i));
    acc1 = vfmaq_f64(acc1, vld1q_f64(a + i + 2), vld1q_f64(b + i + 2));
    acc2 = vfmaq_f64(acc2, vld1q_f64(a + i + 4), vld1q_f64(b + i + 4));
    acc3 = vfmaq_f64(acc3, vld1q_f64(a + i + 6), vld1q_f64(b + i + 6));
  }
  for (; i + 2 <= n; i += 2) {
    acc0 = vfmaq_f64(acc0, vld1q_f64(a + i), vld1q_f64(b + i));
  }
  const float64x2_t sum =
      vaddq_f64(vaddq_f64(acc0, acc1), vaddq_f64(acc2, acc3));
  double acc = vgetq_lane_f64(sum, 0) + vgetq_lane_f64(sum, 1);
  for (; i < n; ++i) {
    acc += a[i] * b[i];
  }
  return acc;
}

double neon_dot_real_binary(const double* a, const std::uint64_t* bits, std::size_t n) {
  double acc = 0.0;
  std::size_t i = 0;
  for (std::size_t w = 0; i + 64 <= n; ++w, i += 64) {
    const std::uint64_t word = bits[w];
    for (std::size_t j = 0; j < 64; ++j) {
      acc += apply_sign(a[i + j], word >> j);
    }
  }
  if (i < n) {
    const std::uint64_t word = bits[i >> 6];
    for (std::size_t j = 0; i + j < n; ++j) {
      acc += apply_sign(a[i + j], word >> j);
    }
  }
  return acc;
}

double neon_masked_dot(const double* a, const std::uint64_t* signs,
                       const std::uint64_t* mask, std::size_t n) {
  double acc = 0.0;
  const std::size_t words = (n + 63) / 64;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t active = mask[w];
    const std::uint64_t sign_bits = signs[w];
    const std::size_t base = w << 6;
    while (active != 0) {
      const auto j = static_cast<std::size_t>(std::countr_zero(active));
      active &= active - 1;
      acc += apply_sign(a[base + j], sign_bits >> j);
    }
  }
  return acc;
}

std::int64_t neon_hamming(const std::uint64_t* a, const std::uint64_t* b,
                          std::size_t words) {
  // std::popcount lowers to CNT+ADDV on aarch64; four independent counters
  // hide the reduction latency like the x86 POPCNT loop.
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

std::int64_t neon_masked_xnor_popcount(const std::uint64_t* a, const std::uint64_t* b,
                                       const std::uint64_t* mask, std::size_t words) {
  std::int64_t agree = 0;
  std::int64_t active = 0;
  for (std::size_t i = 0; i < words; ++i) {
    const std::uint64_t m = mask[i];
    agree += std::popcount(~(a[i] ^ b[i]) & m);
    active += std::popcount(m);
  }
  return 2 * agree - active;
}

void neon_add_scaled_real(double* a, const double* b, double c, std::size_t n) {
  // mul + add (no vfmaq): each slot must round exactly like the scalar
  // backend's `a[i] += c * b[i]`.
  const float64x2_t cv = vdupq_n_f64(c);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    vst1q_f64(a + i, vaddq_f64(vld1q_f64(a + i), vmulq_f64(cv, vld1q_f64(b + i))));
    vst1q_f64(a + i + 2,
              vaddq_f64(vld1q_f64(a + i + 2), vmulq_f64(cv, vld1q_f64(b + i + 2))));
    vst1q_f64(a + i + 4,
              vaddq_f64(vld1q_f64(a + i + 4), vmulq_f64(cv, vld1q_f64(b + i + 4))));
    vst1q_f64(a + i + 6,
              vaddq_f64(vld1q_f64(a + i + 6), vmulq_f64(cv, vld1q_f64(b + i + 6))));
  }
  for (; i < n; ++i) {
    a[i] += c * b[i];
  }
}

void neon_add_scaled_binary(double* a, const std::uint64_t* bits, double c,
                            std::size_t n) {
  const std::uint64_t c_bits = std::bit_cast<std::uint64_t>(c);
  std::size_t i = 0;
  for (std::size_t w = 0; i + 64 <= n; ++w, i += 64) {
    const std::uint64_t word = bits[w];
    for (std::size_t j = 0; j < 64; ++j) {
      const std::uint64_t flip = (~(word >> j) & 1ULL) << 63;
      a[i + j] += std::bit_cast<double>(c_bits ^ flip);
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

void neon_merge_accumulate(double* acc, const double* rep, const double* base,
                           std::size_t n) {
  // sub then add per lane (no fused ops): bit-identical to scalar, which the
  // shard-merge order-invariance proofs rely on.
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(acc + i, vaddq_f64(vld1q_f64(acc + i),
                                 vsubq_f64(vld1q_f64(rep + i), vld1q_f64(base + i))));
  }
  for (; i < n; ++i) {
    acc[i] += rep[i] - base[i];
  }
}

void neon_scale_real(double* a, double c, std::size_t n) {
  const float64x2_t cv = vdupq_n_f64(c);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(a + i, vmulq_f64(cv, vld1q_f64(a + i)));
  }
  for (; i < n; ++i) {
    a[i] *= c;
  }
}

void neon_rff_trig_map(double* z, const double* phase, const double* sin_phase,
                       std::size_t n) {
  // The exact scalar expression — util::fast_sin is branch-free with a fixed
  // operation order, and this TU is compiled with -ffp-contract=off, so the
  // result is bit-identical to the scalar kernel.
  for (std::size_t i = 0; i < n; ++i) {
    z[i] = 0.5 * (util::fast_sin(2.0 * z[i] + phase[i]) - sin_phase[i]);
  }
}

void neon_rff_rematerialize(std::uint64_t seed, double stddev, std::size_t row0,
                            std::size_t rows, std::size_t n_features, double* out,
                            std::size_t ld) {
  // The shared scalar core is the contract's reference operation sequence.
  detail::rff_rematerialize_rows(seed, stddev, row0, rows, n_features, out, ld);
}

void neon_rff_remat_dot(std::uint64_t seed, double stddev, std::size_t row0,
                        std::size_t rows, const double* x, std::size_t n_features,
                        double* out) {
  // Same reference sequence, fused with the ascending-k accumulation chain —
  // still skips the weight-tile stores the unfused pair would pay, which is
  // the part an in-order embedded core feels most.
  detail::rff_remat_dot_rows(seed, stddev, row0, rows, x, n_features, out);
}

/// rff_project_map's accumulate step, c[r·ldc + j] += Σ_k a[r·lda + k] ·
/// b[k·ldb + j]: the scalar one's traversal (column tile = 512 doubles), C
/// register-blocked 8 wide; mul + add (no vfmaq) and ascending k keep every
/// element's rounding sequence identical to scalar.
void neon_gemm(const double* a, std::size_t lda, const double* b,
                          std::size_t ldb, double* c, std::size_t ldc, std::size_t m,
                          std::size_t k, std::size_t n) {
  constexpr std::size_t kColTile = 512;
  for (std::size_t j0 = 0; j0 < n; j0 += kColTile) {
    const std::size_t jn = std::min(n, j0 + kColTile);
    for (std::size_t r = 0; r < m; ++r) {
      const double* arow = a + r * lda;
      double* crow = c + r * ldc;
      std::size_t j = j0;
      for (; j + 8 <= jn; j += 8) {
        float64x2_t c0 = vld1q_f64(crow + j);
        float64x2_t c1 = vld1q_f64(crow + j + 2);
        float64x2_t c2 = vld1q_f64(crow + j + 4);
        float64x2_t c3 = vld1q_f64(crow + j + 6);
        for (std::size_t kk = 0; kk < k; ++kk) {
          const float64x2_t av = vdupq_n_f64(arow[kk]);
          const double* bp = b + kk * ldb + j;
          c0 = vaddq_f64(c0, vmulq_f64(av, vld1q_f64(bp)));
          c1 = vaddq_f64(c1, vmulq_f64(av, vld1q_f64(bp + 2)));
          c2 = vaddq_f64(c2, vmulq_f64(av, vld1q_f64(bp + 4)));
          c3 = vaddq_f64(c3, vmulq_f64(av, vld1q_f64(bp + 6)));
        }
        vst1q_f64(crow + j, c0);
        vst1q_f64(crow + j + 2, c1);
        vst1q_f64(crow + j + 4, c2);
        vst1q_f64(crow + j + 6, c3);
      }
      for (; j < jn; ++j) {
        double acc = crow[j];
        for (std::size_t kk = 0; kk < k; ++kk) {
          acc += arow[kk] * b[kk * ldb + j];
        }
        crow[j] = acc;
      }
    }
  }
}

void neon_dot_rows_block(const double* q, const double* const* rows,
                         std::size_t num_rows, std::size_t len, bool last,
                         double* state, double* out) {
  // Carries neon_dot_real_real's four 2-lane accumulators per row (the first
  // 8 doubles of each row's kDotRowsBlockState slot). Non-final block
  // lengths are multiples of 64, so the 8-wide main loop consumes them
  // exactly; the 2-wide spill, lane sum and scalar tail run only on the
  // final call.
  for (std::size_t r = 0; r < num_rows; ++r) {
    double* st = state + r * kDotRowsBlockState;
    float64x2_t acc0 = vld1q_f64(st);
    float64x2_t acc1 = vld1q_f64(st + 2);
    float64x2_t acc2 = vld1q_f64(st + 4);
    float64x2_t acc3 = vld1q_f64(st + 6);
    const double* a = rows[r];
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8) {
      acc0 = vfmaq_f64(acc0, vld1q_f64(a + i), vld1q_f64(q + i));
      acc1 = vfmaq_f64(acc1, vld1q_f64(a + i + 2), vld1q_f64(q + i + 2));
      acc2 = vfmaq_f64(acc2, vld1q_f64(a + i + 4), vld1q_f64(q + i + 4));
      acc3 = vfmaq_f64(acc3, vld1q_f64(a + i + 6), vld1q_f64(q + i + 6));
    }
    if (!last) {
      vst1q_f64(st, acc0);
      vst1q_f64(st + 2, acc1);
      vst1q_f64(st + 4, acc2);
      vst1q_f64(st + 6, acc3);
      continue;
    }
    for (; i + 2 <= len; i += 2) {
      acc0 = vfmaq_f64(acc0, vld1q_f64(a + i), vld1q_f64(q + i));
    }
    const float64x2_t sum = vaddq_f64(vaddq_f64(acc0, acc1), vaddq_f64(acc2, acc3));
    double acc = vgetq_lane_f64(sum, 0) + vgetq_lane_f64(sum, 1);
    for (; i < len; ++i) {
      acc += a[i] * q[i];
    }
    out[r] = acc;
  }
}

void neon_dot_rows_ternary(const std::uint64_t* q, const std::uint64_t* signs,
                           const std::uint64_t* masks, std::size_t ld,
                           std::size_t num_rows, std::size_t n, std::int64_t* out) {
  const std::size_t words = (n + 63) / 64;
  for (std::size_t r = 0; r < num_rows; ++r) {
    out[r] = neon_masked_xnor_popcount(signs + r * ld, q, masks + r * ld, words);
  }
}

void neon_sign_pack(const double* v, std::uint64_t* bits, std::size_t n) {
  // Scalar operation sequence (`v < 0.0` is false for NaN, so NaN sets its
  // bit; padding bits of the final word are written zero).
  const std::size_t words = (n + 63) / 64;
  for (std::size_t w = 0; w < words; ++w) {
    const std::size_t base = w << 6;
    const std::size_t limit = std::min<std::size_t>(64, n - base);
    std::uint64_t word = 0;
    for (std::size_t j = 0; j < limit; ++j) {
      word |= static_cast<std::uint64_t>(!(v[base + j] < 0.0)) << j;
    }
    bits[w] = word;
  }
}

constexpr KernelBackend kNeonBackend{
    "neon",
    kNeonF64Lanes,
    neon_dot_real_real,
    neon_dot_real_binary,
    neon_masked_dot,
    neon_hamming,
    neon_add_scaled_real,
    neon_add_scaled_binary,
    neon_merge_accumulate,
    neon_scale_real,
    neon_rff_trig_map,
    neon_rff_rematerialize,
    neon_rff_remat_dot,
    detail::rff_project_map_composed<neon_gemm, neon_rff_trig_map>,
    detail::dot_rows_multi_composed<neon_dot_real_real>,
    detail::update_dot_rows_composed<neon_add_scaled_real,
                                     detail::dot_rows_multi_composed<neon_dot_real_real>>,
    neon_dot_rows_block,
    neon_dot_rows_ternary,
    neon_sign_pack,
};

}  // namespace

const KernelBackend* neon_backend_table() noexcept { return &kNeonBackend; }

}  // namespace reghd::hdc

#endif  // __aarch64__
#endif  // REGHD_HAVE_NEON
