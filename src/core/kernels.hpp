// The per-model pieces of RegHD's prediction and update: the model and
// cluster snapshots, the Eq. 2/7 accumulator update with its NLMS
// normalizer, and the raw query dot. MultiModelRegressor's scorer
// (finish_scan / finish_row) composes the four §3.2 prediction kernels from
// these and the hdc ops; SingleModelRegressor is its k = 1 adapter.
//
// Prediction normalization: all prediction dot products are divided by the
// dimensionality D, i.e. ŷ contributions are (1/D)·M·Q. This makes the
// learning rate α dimension-independent (an update M += α·err·S changes the
// sample's own prediction by ≈ α·err regardless of D) and keeps the paper's
// nominal α values stable across the Table 2 dimensionality sweep.
#pragma once

#include <span>

#include "core/config.hpp"
#include "hdc/encoding.hpp"
#include "hdc/ops.hpp"

namespace reghd::core {

/// Snapshot state of one regression model: the binary snapshot M^b, the
/// ternary mask (QuantHD extension), and the calibration scales fitted at
/// quantization time (§3.2; map popcount scores back to accumulator units).
/// The integer accumulator M itself lives with the owning regressor (a row
/// of MultiModelRegressor's bank arena).
struct RegressionModel {
  hdc::BinaryHV binary;
  double gamma = 0.0;  ///< mean_j |M_j| — the binary-snapshot scale.

  /// Ternary snapshot: bit j of `ternary_mask` is set iff |M_j| clears the
  /// threshold; signs come from `binary`. `gamma_ternary` is the mean |M_j|
  /// over the surviving components.
  hdc::BinaryHV ternary_mask;
  double gamma_ternary = 0.0;

  /// Fraction of mean |M_j| below which a component is masked out of the
  /// ternary snapshot (QuantHD's dead-zone width).
  static constexpr double kTernaryThreshold = 0.6;

  explicit RegressionModel(std::size_t dim) : binary(dim), ternary_mask(dim) {}
  RegressionModel() = default;

  /// Refreshes binary + ternary snapshots and both scales from the
  /// accumulator M.
  void requantize(std::span<const double> accumulator);
};

/// Snapshot state of one cluster center: the binary snapshot C^b and the
/// cached squared norm ‖C‖² for O(1) cosine updates. The integer
/// accumulator C lives with the owner (a bank-arena row).
struct ClusterCenter {
  hdc::BinaryHV binary;
  double norm2 = 0.0;

  /// Refreshes C^b from the accumulator and recomputes ‖C‖² exactly
  /// (nulling the incremental updates' drift).
  void requantize(std::span<const double> accumulator);
};

/// Accumulator update M += coeff·S with the sample taken at the given query
/// precision (real encoder output vs its packed sign vector).
void update_accumulator(std::span<double> accumulator, const hdc::EncodedSampleView& sample,
                        double coeff, QueryPrecision precision);

/// Normalization factor D/‖S‖² that turns the LMS update into normalized
/// LMS: with it, an update α·err changes the sample's own (1/D)·M·S
/// prediction by exactly α·err regardless of encoder output scale. For
/// bipolar/binary queries ‖S‖² = D and the factor is exactly 1 — i.e. the
/// paper's literal update rule (Eqs. 2, 7) is recovered.
[[nodiscard]] double update_normalizer(const hdc::EncodedSampleView& sample,
                                       QueryPrecision precision);

/// Raw (unnormalized) dot of a real accumulator against the query at the
/// given precision; used where the caller owns normalization (cosine).
[[nodiscard]] double raw_query_dot(std::span<const double> accumulator,
                                   const hdc::EncodedSampleView& query, QueryPrecision precision);

/// Squared norm of the query at the given precision (bipolar: exactly D).
[[nodiscard]] double query_norm2(const hdc::EncodedSampleView& query, QueryPrecision precision);

}  // namespace reghd::core
