// Tests for the hypervector value types and representation conversions.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>

#include "hdc/hypervector.hpp"
#include "hdc/random_hv.hpp"
#include "util/random.hpp"

namespace reghd::hdc {
namespace {

TEST(RealHVTest, ZeroInitialized) {
  const RealHV v(16);
  EXPECT_EQ(v.dim(), 16u);
  for (std::size_t i = 0; i < v.dim(); ++i) {
    EXPECT_DOUBLE_EQ(v[i], 0.0);
  }
}

TEST(RealHVTest, AdoptsValuesAndClears) {
  RealHV v(std::vector<double>{1.0, -2.0, 3.0});
  EXPECT_EQ(v.dim(), 3u);
  EXPECT_DOUBLE_EQ(v[1], -2.0);
  v.clear();
  EXPECT_DOUBLE_EQ(v[1], 0.0);
  EXPECT_EQ(v.dim(), 3u);
}

TEST(RealHVTest, SignMapsZeroToPlusOne) {
  const RealHV v(std::vector<double>{1.5, -0.5, 0.0});
  const BinaryHV s = v.sign_packed();
  EXPECT_EQ(s.bipolar(0), 1);
  EXPECT_EQ(s.bipolar(1), -1);
  EXPECT_EQ(s.bipolar(2), 1);  // the documented tie rule
}

TEST(RealHVTest, SignPackedFollowsTheSignRule) {
  util::Rng rng(3);
  RealHV v = random_gaussian(130, rng);  // odd size exercises padding
  // One rule for every special value: only components < 0 clear their bit.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double special[] = {0.0, -0.0, std::nan(""), -std::nan(""), kInf, -kInf};
  for (std::size_t i = 0; i < std::size(special); ++i) {
    v[i] = special[i];        // first word
    v[129 - i] = special[i];  // the padded final word
  }
  BinaryHV expected(v.dim());
  for (std::size_t i = 0; i < v.dim(); ++i) {
    expected.set_bit(i, !(v[i] < 0.0));
  }
  EXPECT_EQ(v.sign_packed(), expected);
  EXPECT_EQ(RealHVView(v).sign_packed(), expected);
  const BinaryHV bits = v.sign_packed();
  for (std::size_t i = 0; i < std::size(special); ++i) {
    EXPECT_EQ(bits.bit(i), !(special[i] < 0.0)) << "special value " << i;
  }
}

TEST(BinaryHVTest, BitManipulation) {
  BinaryHV v(100);
  EXPECT_EQ(v.dim(), 100u);
  EXPECT_EQ(v.word_count(), 2u);
  EXPECT_FALSE(v.bit(63));
  v.set_bit(63, true);
  v.set_bit(99, true);
  EXPECT_TRUE(v.bit(63));
  EXPECT_TRUE(v.bit(99));
  EXPECT_EQ(v.popcount(), 2u);
  v.set_bit(63, false);
  EXPECT_EQ(v.popcount(), 1u);
}

TEST(BinaryHVTest, BipolarViewOfBits) {
  BinaryHV v(4);
  v.set_bit(1, true);
  EXPECT_EQ(v.bipolar(0), -1);
  EXPECT_EQ(v.bipolar(1), +1);
}

TEST(BinaryHVTest, PaddingBitsStayZeroThroughConversions) {
  // 70 dims → 2 words with 58 padding bits; popcount must never see them.
  util::Rng rng(13);
  const BinaryHV v = random_binary(70, rng);
  const auto words = v.words();
  EXPECT_EQ(words[1] >> 6, 0ULL);  // bits 70.. of word 1 are zero
  const BinaryHV via_real = v.to_real().sign_packed();
  EXPECT_EQ(via_real, v);
}

TEST(BinaryHVTest, ToRealIsPlusMinusOne) {
  util::Rng rng(17);
  const BinaryHV v = random_binary(96, rng);
  const RealHV r = v.to_real();
  for (std::size_t i = 0; i < 96; ++i) {
    EXPECT_DOUBLE_EQ(r[i], v.bit(i) ? 1.0 : -1.0);
  }
}

TEST(ConversionTest, BothRepresentationsAgreeOnSigns) {
  util::Rng rng(19);
  const RealHV real = random_gaussian(257, rng);
  const BinaryHV binary = real.sign_packed();
  const RealHV widened = binary.to_real();
  for (std::size_t i = 0; i < real.dim(); ++i) {
    const int expected = real[i] >= 0.0 ? 1 : -1;
    EXPECT_EQ(binary.bipolar(i), expected);
    EXPECT_EQ(widened[i], static_cast<double>(expected));
  }
}

TEST(EqualityTest, ValueSemantics) {
  util::Rng rng(23);
  const BinaryHV a = random_binary(128, rng);
  BinaryHV b = a;
  EXPECT_EQ(a, b);
  b.set_bit(5, !b.bit(5));
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace reghd::hdc
