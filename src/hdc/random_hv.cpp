#include "hdc/random_hv.hpp"

#include <algorithm>

namespace reghd::hdc {

BinaryHV random_bipolar(std::size_t dim, util::Rng& rng) {
  BinaryHV out(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    out.set_bit(i, rng.rademacher() > 0);
  }
  return out;
}

BinaryHV random_binary(std::size_t dim, util::Rng& rng) {
  BinaryHV out(dim);
  // One engine word supplies 64 bits; the final partial word is masked by
  // only setting bits below dim, preserving the zero-padding invariant.
  for (std::size_t i = 0; i < dim; i += 64) {
    std::uint64_t bits = rng.bits();
    const std::size_t limit = std::min<std::size_t>(64, dim - i);
    for (std::size_t j = 0; j < limit; ++j) {
      out.set_bit(i + j, (bits & 1ULL) != 0);
      bits >>= 1;
    }
  }
  return out;
}

RealHV random_gaussian(std::size_t dim, util::Rng& rng, double mean, double stddev) {
  std::vector<double> out(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    out[i] = rng.normal(mean, stddev);
  }
  return RealHV(std::move(out));
}

std::vector<BinaryHV> random_bipolar_set(std::size_t count, std::size_t dim, util::Rng& rng) {
  std::vector<BinaryHV> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(random_bipolar(dim, rng));
  }
  return out;
}

BinaryHV flip_noise(const BinaryHV& v, double p, util::Rng& rng) {
  REGHD_CHECK(p >= 0.0 && p <= 1.0, "flip probability must lie in [0,1], got " << p);
  BinaryHV out = v;
  for (std::size_t i = 0; i < v.dim(); ++i) {
    if (rng.bernoulli(p)) {
      out.set_bit(i, !out.bit(i));
    }
  }
  return out;
}

RealHV gaussian_noise(const RealHV& v, double stddev, util::Rng& rng) {
  REGHD_CHECK(stddev >= 0.0, "noise stddev must be non-negative, got " << stddev);
  RealHV out = v;
  for (double& x : out.values()) {
    x += rng.normal(0.0, stddev);
  }
  return out;
}

}  // namespace reghd::hdc
