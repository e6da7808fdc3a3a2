#include "hdc/capacity.hpp"

#include <cmath>

#include "hdc/hypervector.hpp"
#include "hdc/ops.hpp"
#include "hdc/random_hv.hpp"
#include "util/check.hpp"
#include "util/statistics.hpp"

namespace reghd::hdc {

namespace {

void check_query(const CapacityQuery& q) {
  REGHD_CHECK(q.dimension > 0, "capacity model requires positive dimension");
  REGHD_CHECK(q.patterns > 0, "capacity model requires at least one pattern");
  REGHD_CHECK(q.threshold > 0.0 && q.threshold < 1.0,
              "capacity threshold must lie in (0,1), got " << q.threshold);
}

}  // namespace

double false_positive_probability(const CapacityQuery& query) {
  check_query(query);
  const double z = query.threshold * std::sqrt(static_cast<double>(query.dimension) /
                                               static_cast<double>(query.patterns));
  return util::normal_tail(z);
}

std::size_t max_patterns(std::size_t dimension, double threshold, double max_error) {
  REGHD_CHECK(max_error > 0.0 && max_error < 0.5,
              "max_error must lie in (0, 0.5), got " << max_error);
  // Invert Pr(Z > T√(D/P)) ≤ ε  ⇔  T√(D/P) ≥ Q⁻¹(ε)  ⇔  P ≤ D·T²/Q⁻¹(ε)².
  const double z = util::normal_quantile(1.0 - max_error);
  const double p = static_cast<double>(dimension) * threshold * threshold / (z * z);
  if (p < 1.0) {
    return 0;
  }
  return static_cast<std::size_t>(p);
}

std::size_t min_dimension(std::size_t patterns, double threshold, double max_error) {
  REGHD_CHECK(patterns > 0, "min_dimension requires at least one pattern");
  REGHD_CHECK(max_error > 0.0 && max_error < 0.5,
              "max_error must lie in (0, 0.5), got " << max_error);
  const double z = util::normal_quantile(1.0 - max_error);
  const double d = static_cast<double>(patterns) * z * z / (threshold * threshold);
  return static_cast<std::size_t>(std::ceil(d));
}

double simulate_false_positive_rate(const CapacityQuery& query, std::size_t trials,
                                    util::Rng& rng) {
  check_query(query);
  REGHD_CHECK(trials > 0, "simulation requires at least one trial");

  // Superpose P random bipolar patterns into one accumulator. Every
  // component stays an integer, so each probe dot below is exact in any
  // summation order.
  RealHV memory(query.dimension);
  for (std::size_t p = 0; p < query.patterns; ++p) {
    add_scaled(memory, random_bipolar(query.dimension, rng), 1.0);
  }

  const double cut = query.threshold * static_cast<double>(query.dimension);
  std::size_t hits = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    const BinaryHV probe = random_bipolar(query.dimension, rng);
    if (dot(memory, probe) > cut) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(trials);
}

}  // namespace reghd::hdc
