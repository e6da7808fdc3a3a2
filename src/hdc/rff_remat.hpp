// Shared scalar core of the RFF projection rematerialization kernel, and the
// composed rff_project_map every table without a fused one uses.
//
// Every kernel-backend translation unit includes this header: the scalar
// and NEON tables use it as the whole kernel, the AVX2 and AVX-512 tables use
// it for row tails (rows % 4, rows % 8) around their lane-parallel main
// loops. Keeping the reference operation sequence in one place is what makes
// the bit-exactness contract in kernel_backend.hpp auditable — there is
// exactly one definition of how a weight is derived from (seed, row,
// feature), and the SIMD main loops replay it operation for operation.
//
// No TU may let the compiler contract the arithmetic into FMAs: the scalar
// TU targets baseline x86-64 (no FMA instructions exist), the SIMD TUs are
// compiled with -ffp-contract=off. fast_log / fast_cos / fast_sin are
// branch-free on the domains used here (u₁ ∈ [2⁻⁵³, 1], angle ∈ [0, 2π)).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numbers>

#include "util/fast_trig.hpp"
#include "util/random.hpp"

namespace reghd::hdc::detail {

/// SplitMix64's additive constant. The rematerialization kernel seeks the
/// stream by counter — the i-th output of seed s is mix(s + (i+1)·γ) — so
/// any row tile regenerates its weights without stepping through the prefix.
constexpr std::uint64_t kSmGamma = 0x9e3779b97f4a7c15ULL;

/// The i-th (0-indexed) SplitMix64 output of `seed`, by counter seek.
[[nodiscard]] constexpr std::uint64_t splitmix_at(std::uint64_t seed,
                                                  std::uint64_t i) noexcept {
  return util::SplitMix64(seed + i * kSmGamma).next();
}

/// Reference implementation of KernelBackend::rff_rematerialize (see the
/// contract there): writes w_{row0+r, k} to out[k·ld + r], feature-major.
inline void rff_rematerialize_rows(std::uint64_t seed, double stddev, std::size_t row0,
                                   std::size_t rows, std::size_t n_features, double* out,
                                   std::size_t ld) {
  constexpr double kTwoPi = 2.0 * std::numbers::pi;
  constexpr double kInv53 = 0x1.0p-53;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint64_t row_seed = splitmix_at(seed, row0 + r);
    for (std::size_t k = 0; k < n_features; k += 2) {
      const double a = static_cast<double>(splitmix_at(row_seed, k) >> 11);
      const double b = static_cast<double>(splitmix_at(row_seed, k + 1) >> 11);
      const double u1 = (a + 1.0) * kInv53;  // (0, 1] — inside fast_log's domain
      const double u2 = b * kInv53;          // [0, 1)
      const double radius = std::sqrt(-2.0 * util::fast_log(u1));
      const double angle = kTwoPi * u2;  // < 2π — fast_cos/sin stay branch-free
      out[k * ld + r] = (radius * util::fast_cos(angle)) * stddev;
      if (k + 1 < n_features) {
        out[(k + 1) * ld + r] = (radius * util::fast_sin(angle)) * stddev;
      }
    }
  }
}

/// Reference implementation of KernelBackend::rff_remat_dot (see the
/// contract there): out[r] = the ascending-k mul-then-add chain over row
/// (row0+r)'s weights, each weight derived exactly as in
/// rff_rematerialize_rows above — the weight expression and the axpy
/// accumulation chain replayed back to back, with no tile in between.
inline void rff_remat_dot_rows(std::uint64_t seed, double stddev, std::size_t row0,
                               std::size_t rows, const double* x,
                               std::size_t n_features, double* out) {
  constexpr double kTwoPi = 2.0 * std::numbers::pi;
  constexpr double kInv53 = 0x1.0p-53;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint64_t row_seed = splitmix_at(seed, row0 + r);
    double z = 0.0;
    for (std::size_t k = 0; k < n_features; k += 2) {
      const double a = static_cast<double>(splitmix_at(row_seed, k) >> 11);
      const double b = static_cast<double>(splitmix_at(row_seed, k + 1) >> 11);
      const double u1 = (a + 1.0) * kInv53;  // (0, 1] — inside fast_log's domain
      const double u2 = b * kInv53;          // [0, 1)
      const double radius = std::sqrt(-2.0 * util::fast_log(u1));
      const double angle = kTwoPi * u2;  // < 2π — fast_cos/sin stay branch-free
      z += x[k] * ((radius * util::fast_cos(angle)) * stddev);
      if (k + 1 < n_features) {
        z += x[k + 1] * ((radius * util::fast_sin(angle)) * stddev);
      }
    }
    out[r] = z;
  }
}

/// KernelBackend::rff_project_map composed from a table's blocked Gemm
/// accumulate (c += a·b, per element the add_scaled_real chain) and its
/// TrigMap (rff_trig_map): zero C, accumulate, then map each row — the
/// contract's definition, and the whole kernel on every table without a
/// fused one.
template <auto Gemm, auto TrigMap>
void rff_project_map_composed(const double* a, std::size_t lda, const double* b,
                              std::size_t ldb, const double* phase,
                              const double* sin_phase, double* c, std::size_t ldc,
                              std::size_t m, std::size_t k, std::size_t n) {
  for (std::size_t r = 0; r < m; ++r) {
    std::fill_n(c + r * ldc, n, 0.0);
  }
  Gemm(a, lda, b, ldb, c, ldc, m, k, n);
  for (std::size_t r = 0; r < m; ++r) {
    TrigMap(c + r * ldc, phase, sin_phase, n);
  }
}

}  // namespace reghd::hdc::detail
