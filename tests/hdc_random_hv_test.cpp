// Tests for random hypervector generation: determinism, balance, and the
// near-orthogonality property (the foundation of HD computing, paper §2.2).
#include <gtest/gtest.h>

#include <cmath>

#include "hdc/ops.hpp"
#include "hdc/random_hv.hpp"
#include "util/random.hpp"

namespace reghd::hdc {
namespace {

TEST(RandomBipolarTest, DeterministicForFixedSeed) {
  util::Rng a(5);
  util::Rng b(5);
  EXPECT_EQ(random_bipolar(256, a), random_bipolar(256, b));
}

TEST(RandomBipolarTest, RoughlyBalanced) {
  util::Rng rng(7);
  const BinaryHV v = random_bipolar(10000, rng);
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < v.dim(); ++i) {
    sum += v.bipolar(i);
  }
  // Sum of 10k ±1 has stddev 100; 5σ bound.
  EXPECT_LT(std::abs(sum), 500);
}

TEST(RandomBipolarTest, OneRademacherDrawPerComponent) {
  // Component i is the i-th Rademacher draw (bit set ⇔ +1), and the padding
  // bits of the final word stay zero.
  util::Rng rng(9);
  util::Rng twin(9);
  const BinaryHV v = random_bipolar(130, rng);
  for (std::size_t i = 0; i < v.dim(); ++i) {
    EXPECT_EQ(v.bipolar(i), twin.rademacher()) << "component " << i;
  }
  EXPECT_EQ(v.words()[2] >> 2, 0ULL);
  EXPECT_EQ(rng.bits(), twin.bits());  // both streams consumed alike
}

TEST(RandomBinaryTest, RoughlyHalfBitsSet) {
  util::Rng rng(11);
  const BinaryHV v = random_binary(10000, rng);
  const auto pop = static_cast<double>(v.popcount());
  EXPECT_NEAR(pop / 10000.0, 0.5, 0.05);
}

TEST(RandomBinaryTest, PaddingInvariantHolds) {
  util::Rng rng(13);
  const BinaryHV v = random_binary(70, rng);
  EXPECT_EQ(v.words()[1] >> 6, 0ULL);
}

TEST(RandomGaussianTest, MomentsMatch) {
  util::Rng rng(17);
  const RealHV v = random_gaussian(20000, rng, 2.0, 3.0);
  double sum = 0.0;
  double sq = 0.0;
  for (const double x : v.values()) {
    sum += x;
    sq += x * x;
  }
  const double mean = sum / 20000.0;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(sq / 20000.0 - mean * mean, 9.0, 0.4);
}

// Near-orthogonality sweep: random bipolar hypervectors of dimension D have
// cosine similarity concentrating as N(0, 1/D) — this is Eq. 3's "noise"
// term being near zero.
class OrthogonalityTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OrthogonalityTest, RandomBipolarPairsAreNearOrthogonal) {
  const std::size_t dim = GetParam();
  util::Rng rng(dim * 31 + 1);
  const double bound = 6.0 / std::sqrt(static_cast<double>(dim));  // 6σ
  for (int trial = 0; trial < 20; ++trial) {
    const BinaryHV a = random_bipolar(dim, rng);
    const BinaryHV b = random_bipolar(dim, rng);
    const double cos_sim = static_cast<double>(bipolar_dot(a, b)) / static_cast<double>(dim);
    EXPECT_LT(std::abs(cos_sim), bound) << "dim=" << dim;
  }
}

TEST_P(OrthogonalityTest, SimilarityVarianceScalesInverselyWithDim) {
  const std::size_t dim = GetParam();
  util::Rng rng(dim * 37 + 5);
  double sq_sum = 0.0;
  constexpr int kPairs = 200;
  for (int trial = 0; trial < kPairs; ++trial) {
    const BinaryHV a = random_binary(dim, rng);
    const BinaryHV b = random_binary(dim, rng);
    const double s = hamming_similarity(a, b);
    sq_sum += s * s;
  }
  const double measured_var = sq_sum / kPairs;
  const double expected_var = 1.0 / static_cast<double>(dim);
  EXPECT_GT(measured_var, expected_var * 0.5);
  EXPECT_LT(measured_var, expected_var * 2.0);
}

INSTANTIATE_TEST_SUITE_P(Dims, OrthogonalityTest,
                         ::testing::Values(512, 1024, 2048, 4096, 10000));

TEST(RandomBipolarSetTest, ProducesIndependentVectors) {
  util::Rng rng(23);
  const auto set = random_bipolar_set(5, 2048, rng);
  ASSERT_EQ(set.size(), 5u);
  for (std::size_t i = 0; i < set.size(); ++i) {
    for (std::size_t j = i + 1; j < set.size(); ++j) {
      const double cos_sim = static_cast<double>(bipolar_dot(set[i], set[j])) / 2048.0;
      EXPECT_LT(std::abs(cos_sim), 0.15);
    }
  }
}

TEST(FlipNoiseTest, FlipRateMatchesProbability) {
  util::Rng rng(29);
  const BinaryHV v = random_binary(20000, rng);
  const BinaryHV noisy = flip_noise(v, 0.1, rng);
  const auto flips = static_cast<double>(hamming_distance(v, noisy));
  EXPECT_NEAR(flips / 20000.0, 0.1, 0.01);
}

TEST(FlipNoiseTest, ZeroAndOneProbabilityEdges) {
  util::Rng rng(31);
  const BinaryHV v = random_binary(500, rng);
  EXPECT_EQ(flip_noise(v, 0.0, rng), v);
  const BinaryHV flipped = flip_noise(v, 1.0, rng);
  EXPECT_EQ(hamming_distance(v, flipped), 500u);
  EXPECT_THROW((void)flip_noise(v, 1.5, rng), std::invalid_argument);
}

TEST(GaussianNoiseTest, PerturbationHasRequestedScale) {
  util::Rng rng(37);
  const RealHV v = random_gaussian(10000, rng);
  const RealHV noisy = gaussian_noise(v, 0.5, rng);
  double sq = 0.0;
  for (std::size_t i = 0; i < v.dim(); ++i) {
    const double d = noisy[i] - v[i];
    sq += d * d;
  }
  EXPECT_NEAR(std::sqrt(sq / 10000.0), 0.5, 0.05);
  EXPECT_THROW((void)gaussian_noise(v, -0.1, rng), std::invalid_argument);
}

}  // namespace
}  // namespace reghd::hdc
