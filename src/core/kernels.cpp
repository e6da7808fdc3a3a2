#include "core/kernels.hpp"

#include <cmath>

namespace reghd::core {

void RegressionModel::requantize(std::span<const double> accumulator) {
  binary = hdc::RealHVView(accumulator).sign_packed();
  double abs_sum = 0.0;
  for (const double v : accumulator) {
    abs_sum += std::abs(v);
  }
  const std::size_t dim = accumulator.size();
  gamma = dim > 0 ? abs_sum / static_cast<double>(dim) : 0.0;

  // Ternary snapshot: dead-zone components below kTernaryThreshold·γ.
  ternary_mask = hdc::BinaryHV(dim);
  const double threshold = kTernaryThreshold * gamma;
  double kept_sum = 0.0;
  std::size_t kept = 0;
  for (std::size_t j = 0; j < dim; ++j) {
    const double mag = std::abs(accumulator[j]);
    if (mag >= threshold) {
      ternary_mask.set_bit(j, true);
      kept_sum += mag;
      ++kept;
    }
  }
  gamma_ternary = kept > 0 ? kept_sum / static_cast<double>(kept) : 0.0;
}

void ClusterCenter::requantize(std::span<const double> accumulator) {
  binary = hdc::RealHVView(accumulator).sign_packed();
  norm2 = 0.0;
  for (const double v : accumulator) {
    norm2 += v * v;
  }
}

void update_accumulator(std::span<double> accumulator, const hdc::EncodedSampleView& sample,
                        double coeff, QueryPrecision precision) {
  if (precision == QueryPrecision::kReal) {
    hdc::add_scaled(accumulator, sample.real, coeff);
  } else {
    hdc::add_scaled(accumulator, sample.binary, coeff);
  }
}

double raw_query_dot(std::span<const double> accumulator, const hdc::EncodedSampleView& query,
                     QueryPrecision precision) {
  const hdc::RealHVView acc(accumulator);
  if (precision == QueryPrecision::kReal) {
    return hdc::dot(acc, query.real);
  }
  return hdc::dot(acc, query.binary);
}

double update_normalizer(const hdc::EncodedSampleView& sample, QueryPrecision precision) {
  if (precision == QueryPrecision::kBinary) {
    return 1.0;
  }
  const double n2 = sample.real_norm2;
  if (n2 <= 0.0) {
    return 0.0;  // degenerate all-zero encoding: skip the update
  }
  return static_cast<double>(sample.real.dim()) / n2;
}

double query_norm2(const hdc::EncodedSampleView& query, QueryPrecision precision) {
  if (precision == QueryPrecision::kReal) {
    return query.real_norm2;
  }
  return static_cast<double>(query.binary.dim());
}

}  // namespace reghd::core
