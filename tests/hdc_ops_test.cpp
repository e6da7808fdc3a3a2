// Tests for hypervector algebra — in particular the exact identities that
// make the §3 quantized kernels faithful stand-ins for full precision:
//   bipolar_dot = D − 2·hamming,   dot(real, binary) = dot(real, bipolar),
// each checked against the ±1 components read one at a time (bipolar(i),
// to_real()).
#include <gtest/gtest.h>

#include <cmath>

#include "hdc/hypervector.hpp"
#include "hdc/ops.hpp"
#include "hdc/random_hv.hpp"
#include "util/random.hpp"

namespace reghd::hdc {
namespace {

class OpsIdentityTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OpsIdentityTest, BipolarDotEqualsDMinusTwoHamming) {
  const std::size_t dim = GetParam();
  util::Rng rng(dim);
  const BinaryHV a = random_binary(dim, rng);
  const BinaryHV b = random_binary(dim, rng);
  std::int64_t d = 0;
  for (std::size_t i = 0; i < dim; ++i) {
    d += a.bipolar(i) * b.bipolar(i);
  }
  EXPECT_EQ(bipolar_dot(a, b), d);
  EXPECT_EQ(d, static_cast<std::int64_t>(dim) -
                   2 * static_cast<std::int64_t>(hamming_distance(a, b)));
}

TEST_P(OpsIdentityTest, RealBinaryDotEqualsRealBipolarDot) {
  const std::size_t dim = GetParam();
  util::Rng rng(dim + 1);
  const RealHV m = random_gaussian(dim, rng);
  const BinaryHV s = random_bipolar(dim, rng);
  EXPECT_NEAR(dot(m, s), dot(m, s.to_real()), 1e-9);
}

TEST_P(OpsIdentityTest, HammingSimilarityEqualsBipolarCosine) {
  const std::size_t dim = GetParam();
  util::Rng rng(dim + 2);
  const BinaryHV a = random_binary(dim, rng);
  const BinaryHV b = random_binary(dim, rng);
  EXPECT_NEAR(hamming_similarity(a, b), cosine(a.to_real(), b.to_real()), 1e-12);
}

// Odd sizes exercise the padded final word; 64/128 exercise exact word fits.
INSTANTIATE_TEST_SUITE_P(Dims, OpsIdentityTest,
                         ::testing::Values(1, 63, 64, 65, 128, 1000, 4096));

TEST(DotTest, HandComputedRealReal) {
  const RealHV a(std::vector<double>{1.0, 2.0, 3.0});
  const RealHV b(std::vector<double>{4.0, -5.0, 6.0});
  EXPECT_DOUBLE_EQ(dot(a, b), 4.0 - 10.0 + 18.0);
}

TEST(DotTest, RejectsDimensionMismatch) {
  const RealHV a(4);
  const RealHV b(5);
  EXPECT_THROW((void)dot(a, b), std::invalid_argument);
  EXPECT_THROW((void)dot(a, BinaryHV(5)), std::invalid_argument);
  EXPECT_THROW((void)hamming_distance(BinaryHV(4), BinaryHV(5)), std::invalid_argument);
}

TEST(HammingTest, SelfDistanceZeroComplementFull) {
  util::Rng rng(31);
  const BinaryHV a = random_binary(200, rng);
  EXPECT_EQ(hamming_distance(a, a), 0u);
  BinaryHV complement(200);
  for (std::size_t i = 0; i < 200; ++i) {
    complement.set_bit(i, !a.bit(i));
  }
  EXPECT_EQ(hamming_distance(a, complement), 200u);
  EXPECT_DOUBLE_EQ(hamming_similarity(a, a), 1.0);
  EXPECT_DOUBLE_EQ(hamming_similarity(a, complement), -1.0);
}

TEST(CosineTest, RangeAndKnownValues) {
  const RealHV a(std::vector<double>{1.0, 0.0});
  const RealHV b(std::vector<double>{0.0, 1.0});
  const RealHV c(std::vector<double>{2.0, 0.0});
  EXPECT_NEAR(cosine(a, b), 0.0, 1e-12);
  EXPECT_NEAR(cosine(a, c), 1.0, 1e-12);  // scale-invariant
}

TEST(CosineTest, ZeroVectorYieldsZero) {
  const RealHV zero(3);
  const RealHV v(std::vector<double>{1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(cosine(zero, v), 0.0);
}

TEST(CosineTest, MixedOverloadsAgreeWithRealReal) {
  util::Rng rng(37);
  const RealHV m = random_gaussian(512, rng);
  const BinaryHV s = random_bipolar(512, rng);
  EXPECT_NEAR(cosine(m, s), cosine(m, s.to_real()), 1e-12);
}

TEST(NormTest, Euclidean) {
  const RealHV v(std::vector<double>{3.0, 4.0});
  EXPECT_DOUBLE_EQ(norm(v), 5.0);
}

TEST(AddScaledTest, AllSampleRepresentationsAgree) {
  util::Rng rng(41);
  const BinaryHV s = random_bipolar(300, rng);
  RealHV via_binary(300);
  RealHV via_real(300);
  add_scaled(via_binary, s, 0.75);
  add_scaled(via_real, s.to_real(), 0.75);
  for (std::size_t i = 0; i < 300; ++i) {
    EXPECT_EQ(via_binary[i], 0.75 * s.bipolar(i));  // exactly ±c
    EXPECT_NEAR(via_binary[i], via_real[i], 1e-12);
  }
}

TEST(AddScaledTest, AccumulatesRepeatedUpdates) {
  RealHV acc(2);
  const RealHV s(std::vector<double>{1.0, -1.0});
  add_scaled(acc, s, 0.5);
  add_scaled(acc, s, 0.25);
  EXPECT_DOUBLE_EQ(acc[0], 0.75);
  EXPECT_DOUBLE_EQ(acc[1], -0.75);
}

TEST(ScaleTest, MultipliesComponents) {
  RealHV v(std::vector<double>{2.0, -4.0});
  scale(v, -0.5);
  EXPECT_DOUBLE_EQ(v[0], -1.0);
  EXPECT_DOUBLE_EQ(v[1], 2.0);
}

TEST(XorBindTest, EquivalentToBipolarMultiplication) {
  util::Rng rng(43);
  const BinaryHV a = random_binary(150, rng);
  const BinaryHV b = random_binary(150, rng);
  const BinaryHV bound = xor_bind(a, b);
  for (std::size_t i = 0; i < 150; ++i) {
    EXPECT_EQ(bound.bipolar(i), a.bipolar(i) * b.bipolar(i));
  }
}

TEST(XorBindTest, SelfBindIsIdentityVector) {
  util::Rng rng(47);
  const BinaryHV a = random_binary(128, rng);
  const BinaryHV self = xor_bind(a, a);
  EXPECT_EQ(self.popcount(), 128u);  // all +1
}

TEST(XorBindTest, BindingPreservesDistance) {
  // d(bind(a,c), bind(b,c)) = d(a,b): binding is an isometry.
  util::Rng rng(53);
  const BinaryHV a = random_binary(256, rng);
  const BinaryHV b = random_binary(256, rng);
  const BinaryHV c = random_binary(256, rng);
  EXPECT_EQ(hamming_distance(xor_bind(a, c), xor_bind(b, c)), hamming_distance(a, b));
}

TEST(MaskedDotTest, MatchesElementwiseReference) {
  util::Rng rng(61);
  const std::size_t dim = 300;
  const BinaryHV a = random_binary(dim, rng);
  const BinaryHV mask = random_binary(dim, rng);
  const RealHV q = random_gaussian(dim, rng);
  double expected_real = 0.0;
  for (std::size_t j = 0; j < dim; ++j) {
    if (mask.bit(j)) {
      expected_real += a.bit(j) ? q[j] : -q[j];
    }
  }
  EXPECT_NEAR(masked_dot(q, a, mask), expected_real, 1e-9);
}

TEST(MaskedDotTest, FullMaskReducesToUnmaskedKernels) {
  util::Rng rng(67);
  const std::size_t dim = 256;
  const BinaryHV a = random_binary(dim, rng);
  BinaryHV full(dim);
  for (std::size_t j = 0; j < dim; ++j) {
    full.set_bit(j, true);
  }
  const RealHV q = random_gaussian(dim, rng);
  EXPECT_NEAR(masked_dot(q, a, full), dot(q, a), 1e-9);
}

TEST(MaskedDotTest, EmptyMaskYieldsZero) {
  util::Rng rng(71);
  const BinaryHV a = random_binary(128, rng);
  const BinaryHV empty(128);
  EXPECT_DOUBLE_EQ(masked_dot(random_gaussian(128, rng), a, empty), 0.0);
}

TEST(MaskedDotTest, RejectsDimensionMismatch) {
  const BinaryHV a(64);
  const BinaryHV mask(65);
  EXPECT_THROW((void)masked_dot(RealHV(64), a, mask), std::invalid_argument);
}

TEST(PermuteTest, RotationAndInverse) {
  util::Rng rng(59);
  const BinaryHV a = random_binary(100, rng);
  const BinaryHV rotated = permute(a, 17);
  EXPECT_EQ(rotated.popcount(), a.popcount());
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(rotated.bit((i + 17) % 100), a.bit(i));
  }
  EXPECT_EQ(permute(rotated, 100 - 17), a);
  EXPECT_EQ(permute(a, 0), a);
  EXPECT_EQ(permute(a, 100), a);  // full cycle
}

TEST(MajorityTest, OddCountMajorityRules) {
  BinaryHV ones(4);
  for (std::size_t i = 0; i < 4; ++i) {
    ones.set_bit(i, true);
  }
  const BinaryHV zeros(4);
  const BinaryHV maj = majority({ones, ones, zeros});
  EXPECT_EQ(maj, ones);
}

TEST(MajorityTest, TieBreaksTowardOne) {
  BinaryHV ones(4);
  for (std::size_t i = 0; i < 4; ++i) {
    ones.set_bit(i, true);
  }
  const BinaryHV zeros(4);
  const BinaryHV maj = majority({ones, zeros});
  EXPECT_EQ(maj, ones);
}

TEST(MajorityTest, RejectsEmptyInput) {
  EXPECT_THROW((void)majority({}), std::invalid_argument);
}

}  // namespace
}  // namespace reghd::hdc
