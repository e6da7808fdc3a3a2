// Tests for the shared prediction/update kernels: the §3.2 precision modes,
// requantization, and the normalized-LMS scaling. The prediction-dot tests
// score Eq. 2's (1/D)·M·S through a k = 1 MultiModelRegressor (the path
// SingleModelRegressor runs), with M written into its one model row.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/kernels.hpp"
#include "core/multi_model.hpp"
#include "hdc/random_hv.hpp"
#include "util/random.hpp"

namespace reghd::core {
namespace {

hdc::EncodedSample sample_from_real(hdc::RealHV real) {
  hdc::EncodedSample s;
  s.real = std::move(real);
  s.binary = s.real.sign_packed();
  double n2 = 0.0;
  for (const double v : s.real.values()) {
    n2 += v * v;
  }
  s.real_norm2 = n2;
  s.real_norm = std::sqrt(n2);
  return s;
}

hdc::EncodedSample random_sample(std::size_t dim, std::uint64_t seed) {
  util::Rng rng(seed);
  return sample_from_real(hdc::random_gaussian(dim, rng));
}

/// Eq. 2's prediction of accumulator `acc` at `mode`: predict() of a k = 1
/// MultiModelRegressor holding `acc` as its model row, snapshots refreshed
/// by requantize().
double predict_k1(const hdc::RealHV& acc, const hdc::EncodedSampleView& s,
                   PredictionMode mode) {
  RegHDConfig cfg;
  cfg.dim = acc.dim();
  cfg.models = 1;
  cfg.query_precision = mode.query;
  cfg.model_precision = mode.model;
  MultiModelRegressor model(cfg);
  std::ranges::copy(acc.values(), model.mutable_model_accumulator(0).begin());
  model.requantize();
  return model.predict(s);
}

TEST(RegressionModelTest, RequantizeDerivesSnapshotAndGamma) {
  hdc::RealHV acc(4);
  RegressionModel m(4);
  acc[0] = 2.0;
  acc[1] = -4.0;
  acc[2] = 1.0;
  acc[3] = -1.0;
  m.requantize(acc.values());
  EXPECT_TRUE(m.binary.bit(0));
  EXPECT_FALSE(m.binary.bit(1));
  EXPECT_DOUBLE_EQ(m.gamma, 2.0);  // mean |M_j| = (2+4+1+1)/4
}

TEST(PredictDotTest, FullPrecisionIsNormalizedDot) {
  const std::size_t dim = 256;
  const hdc::EncodedSample s = random_sample(dim, 1);
  hdc::RealHV acc(dim);
  util::Rng rng(2);
  for (std::size_t j = 0; j < dim; ++j) {
    acc[j] = rng.normal();
  }
  const double expected = hdc::dot(acc, s.real) / static_cast<double>(dim);
  EXPECT_NEAR(predict_k1(acc, s, PredictionMode::full_precision()), expected, 1e-12);
}

TEST(PredictDotTest, BinaryQueryMatchesBipolarDot) {
  const std::size_t dim = 256;
  const hdc::EncodedSample s = random_sample(dim, 3);
  hdc::RealHV acc(dim);
  util::Rng rng(4);
  for (std::size_t j = 0; j < dim; ++j) {
    acc[j] = rng.normal();
  }
  // S = sign(real) ∈ {−1,+1}^D, written out densely as the reference.
  hdc::RealHV bipolar(dim);
  for (std::size_t j = 0; j < dim; ++j) {
    bipolar[j] = s.real[j] < 0.0 ? -1.0 : 1.0;
  }
  const double expected = hdc::dot(acc, bipolar) / static_cast<double>(dim);
  EXPECT_NEAR(predict_k1(acc, s, PredictionMode::binary_query_integer_model()), expected,
              1e-12);
}

TEST(PredictDotTest, BinaryModelModesUseGammaScale) {
  const std::size_t dim = 128;
  const hdc::EncodedSample s = random_sample(dim, 5);
  hdc::RealHV acc(dim);
  RegressionModel m(dim);
  util::Rng rng(6);
  for (std::size_t j = 0; j < dim; ++j) {
    acc[j] = rng.normal();
  }
  m.requantize(acc.values());

  const double iq_bm = predict_k1(acc, s, PredictionMode::integer_query_binary_model());
  EXPECT_NEAR(iq_bm, m.gamma * hdc::dot(s.real, m.binary) / static_cast<double>(dim), 1e-12);

  const double bq_bm = predict_k1(acc, s, PredictionMode::binary_query_binary_model());
  EXPECT_NEAR(bq_bm,
              m.gamma * static_cast<double>(hdc::bipolar_dot(m.binary, s.binary)) /
                  static_cast<double>(dim),
              1e-12);
}

TEST(PredictDotTest, GammaCalibrationApproximatesFullPrecision) {
  // For a model whose magnitudes are independent of its signs, the γ-scaled
  // binary model tracks the real model's prediction closely at high D.
  const std::size_t dim = 8192;
  const hdc::EncodedSample s = random_sample(dim, 7);
  hdc::RealHV acc(dim);
  util::Rng rng(8);
  for (std::size_t j = 0; j < dim; ++j) {
    acc[j] = rng.normal(0.0, 2.0);
  }
  const double full = predict_k1(acc, s, PredictionMode::full_precision());
  const double approx = predict_k1(acc, s, PredictionMode::integer_query_binary_model());
  // Both are ~N(0, σ/√D)-scale quantities; they must agree in sign and
  // order of magnitude for the calibration to be useful.
  EXPECT_NEAR(approx, full, 0.2 * std::abs(full) + 0.05);
}

TEST(PredictDotTest, AllModesAgreeWhenQueryIsBipolarAndModelUniform) {
  // Construct the exactly-representable case: query components ±1 and model
  // components ±c. Then every §3.2 kernel computes the same value.
  const std::size_t dim = 192;
  util::Rng rng(9);
  const hdc::BinaryHV q = hdc::random_bipolar(dim, rng);
  hdc::EncodedSample s = sample_from_real(q.to_real());
  hdc::RealHV acc(dim);
  RegressionModel m(dim);
  const double c = 1.5;
  for (std::size_t j = 0; j < dim; ++j) {
    acc[j] = (rng.bits() & 1) ? c : -c;
  }
  m.requantize(acc.values());
  EXPECT_NEAR(m.gamma, c, 1e-12);

  const double full = predict_k1(acc, s, PredictionMode::full_precision());
  for (const auto mode :
       {PredictionMode::binary_query_integer_model(),
        PredictionMode::integer_query_binary_model(),
        PredictionMode::binary_query_binary_model()}) {
    EXPECT_NEAR(predict_k1(acc, s, mode), full, 1e-9) << mode.to_string();
  }
}

TEST(RegressionModelTest, TernarySnapshotMasksSmallComponents) {
  hdc::RealHV acc(8);
  RegressionModel m(8);
  // Magnitudes 1..8: mean 4.5, threshold 0.6·4.5 = 2.7 → keep |M| ≥ 2.7.
  for (std::size_t j = 0; j < 8; ++j) {
    acc[j] = (j % 2 == 0 ? 1.0 : -1.0) * static_cast<double>(j + 1);
  }
  m.requantize(acc.values());
  for (std::size_t j = 0; j < 8; ++j) {
    EXPECT_EQ(m.ternary_mask.bit(j), j + 1 >= 3) << "component " << j;
  }
  // γ_ternary = mean of kept magnitudes (3..8).
  EXPECT_NEAR(m.gamma_ternary, (3 + 4 + 5 + 6 + 7 + 8) / 6.0, 1e-12);
}

TEST(PredictDotTest, TernaryModelZeroesDeadZoneContributions) {
  const std::size_t dim = 128;
  hdc::RealHV acc(dim);
  RegressionModel m(dim);
  util::Rng rng(21);
  for (std::size_t j = 0; j < dim; ++j) {
    acc[j] = rng.normal();
  }
  m.requantize(acc.values());
  const hdc::EncodedSample s = random_sample(dim, 22);

  const PredictionMode ternary{QueryPrecision::kReal, ModelPrecision::kTernary};
  double expected = 0.0;
  for (std::size_t j = 0; j < dim; ++j) {
    if (m.ternary_mask.bit(j)) {
      expected += (m.binary.bit(j) ? 1.0 : -1.0) * s.real[j];
    }
  }
  expected *= m.gamma_ternary / static_cast<double>(dim);
  EXPECT_NEAR(predict_k1(acc, s, ternary), expected, 1e-9);

  const PredictionMode ternary_bq{QueryPrecision::kBinary, ModelPrecision::kTernary};
  double expected_bq = 0.0;
  for (std::size_t j = 0; j < dim; ++j) {
    if (m.ternary_mask.bit(j)) {
      expected_bq += static_cast<double>(m.binary.bipolar(j) * s.binary.bipolar(j));
    }
  }
  expected_bq *= m.gamma_ternary / static_cast<double>(dim);
  EXPECT_NEAR(predict_k1(acc, s, ternary_bq), expected_bq, 1e-9);
}

TEST(PredictDotTest, TernaryApproximatesFullPrecisionBetterThanBinaryOnSpreadMagnitudes) {
  // With heavy-tailed magnitudes, the binary snapshot is dominated by the
  // rounding of many near-zero components; the ternary dead zone removes
  // them. Compare approximation error to the full-precision dot.
  const std::size_t dim = 8192;
  hdc::RealHV acc(dim);
  util::Rng rng(23);
  for (std::size_t j = 0; j < dim; ++j) {
    const double z = rng.normal();
    acc[j] = z * z * z;  // cubed normal: heavy tails, many tiny values
  }
  double err_binary = 0.0;
  double err_ternary = 0.0;
  for (int trial = 0; trial < 10; ++trial) {
    const hdc::EncodedSample s = random_sample(dim, 100 + static_cast<std::uint64_t>(trial));
    const double full = predict_k1(acc, s, PredictionMode::full_precision());
    const double bin = predict_k1(acc, s, {QueryPrecision::kReal, ModelPrecision::kBinary});
    const double ter = predict_k1(acc, s, {QueryPrecision::kReal, ModelPrecision::kTernary});
    err_binary += (bin - full) * (bin - full);
    err_ternary += (ter - full) * (ter - full);
  }
  EXPECT_LT(err_ternary, err_binary);
}

TEST(UpdateAccumulatorTest, RealAndBinaryPrecisions) {
  const std::size_t dim = 64;
  const hdc::EncodedSample s = random_sample(dim, 10);
  hdc::RealHV acc_real(dim);
  hdc::RealHV acc_bin(dim);
  update_accumulator(acc_real.values(), s, 0.5, QueryPrecision::kReal);
  update_accumulator(acc_bin.values(), s, 0.5, QueryPrecision::kBinary);
  for (std::size_t j = 0; j < dim; ++j) {
    EXPECT_DOUBLE_EQ(acc_real[j], 0.5 * s.real[j]);
    EXPECT_DOUBLE_EQ(acc_bin[j], s.real[j] < 0.0 ? -0.5 : 0.5);
  }
}

TEST(UpdateNormalizerTest, ExactlyOneForBinaryQueries) {
  const hdc::EncodedSample s = random_sample(100, 11);
  EXPECT_DOUBLE_EQ(update_normalizer(s, QueryPrecision::kBinary), 1.0);
}

TEST(UpdateNormalizerTest, SelfCorrectionIsExactlyAlpha) {
  // The NLMS property: after M += α·err·normalizer·S, the prediction for S
  // itself moves by exactly α·err.
  const std::size_t dim = 512;
  const hdc::EncodedSample s = random_sample(dim, 12);
  hdc::RealHV acc(dim);
  const double target = 3.0;
  const double alpha = 0.25;
  const double before = predict_k1(acc, s, PredictionMode::full_precision());
  const double err = target - before;
  update_accumulator(acc.values(), s,
                     alpha * err * update_normalizer(s, QueryPrecision::kReal),
                     QueryPrecision::kReal);
  const double after = predict_k1(acc, s, PredictionMode::full_precision());
  EXPECT_NEAR(after - before, alpha * err, 1e-9);
}

TEST(UpdateNormalizerTest, DegenerateZeroEncodingSkipsUpdate) {
  hdc::EncodedSample s = sample_from_real(hdc::RealHV(16));  // all zeros
  EXPECT_DOUBLE_EQ(update_normalizer(s, QueryPrecision::kReal), 0.0);
}

TEST(QueryNorm2Test, MatchesRepresentation) {
  const hdc::EncodedSample s = random_sample(77, 13);
  EXPECT_DOUBLE_EQ(query_norm2(s, QueryPrecision::kReal), s.real_norm2);
  EXPECT_DOUBLE_EQ(query_norm2(s, QueryPrecision::kBinary), 77.0);
}

TEST(PredictionModeTest, PresetsAndNames) {
  EXPECT_EQ(PredictionMode::full_precision().to_string(), "integer-query/integer-model");
  EXPECT_EQ(PredictionMode::binary_query_binary_model().to_string(),
            "binary-query/binary-model");
  EXPECT_EQ(PredictionMode::full_precision(), PredictionMode{});
}

}  // namespace
}  // namespace reghd::core
