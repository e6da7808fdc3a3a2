// Robustness properties (paper §3: "hypervectors store information across
// all their components so that no component is more responsible for storing
// any piece of information than another"): graceful degradation under bit
// flips and component noise, swept parametrically.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/multi_model.hpp"
#include "data/scaler.hpp"
#include "data/synthetic.hpp"
#include "hdc/encoding.hpp"
#include "hdc/random_hv.hpp"
#include "util/random.hpp"

namespace reghd::core {
namespace {

struct Fixture {
  EncodedDataset train;
  EncodedDataset val;
  EncodedDataset test;
  std::unique_ptr<hdc::Encoder> encoder;
  std::unique_ptr<MultiModelRegressor> model;
};

Fixture make_trained_fixture(std::size_t dim, QueryPrecision query) {
  data::Dataset dataset = data::make_sine_task(800, 123, 0.02);
  data::StandardScaler fs;
  fs.fit(dataset);
  fs.transform(dataset);
  data::TargetScaler ts;
  ts.fit(dataset);
  ts.transform(dataset);

  util::Rng rng(123);
  const data::TrainTestSplit outer = data::train_test_split(dataset, 0.25, rng);
  const data::TrainTestSplit inner = data::train_test_split(outer.train, 0.2, rng);

  hdc::EncoderConfig enc_cfg;
  enc_cfg.input_dim = dataset.num_features();
  enc_cfg.dim = dim;
  enc_cfg.seed = 123;

  Fixture fx;
  fx.encoder = hdc::make_encoder(enc_cfg);
  fx.train = EncodedDataset::from(*fx.encoder, inner.train);
  fx.val = EncodedDataset::from(*fx.encoder, inner.test);
  fx.test = EncodedDataset::from(*fx.encoder, outer.test);

  RegHDConfig cfg;
  cfg.dim = dim;
  cfg.models = 4;
  cfg.seed = 123;
  cfg.query_precision = query;
  fx.model = std::make_unique<MultiModelRegressor>(cfg);
  fx.model->fit(fx.train, fx.val);
  return fx;
}

/// Re-derives an EncodedSample from a perturbed real vector.
hdc::EncodedSample resample(hdc::RealHV real) {
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

double mse_with_query_noise(const Fixture& fx, double noise_std, util::Rng& rng) {
  double acc = 0.0;
  for (std::size_t i = 0; i < fx.test.size(); ++i) {
    const hdc::EncodedSample noisy =
        resample(hdc::gaussian_noise(fx.test.sample(i).real.to_owning(), noise_std, rng));
    const double e = fx.model->predict(noisy) - fx.test.target(i);
    acc += e * e;
  }
  return acc / static_cast<double>(fx.test.size());
}

class QueryNoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(QueryNoiseSweep, ComponentNoiseDegradesGracefully) {
  // The encoder output components are O(0.35); noise up to 30% of that must
  // leave the model far better than the mean predictor (MSE 1 in scaled
  // units). This is the redundancy argument of §3.
  const double noise = GetParam();
  static const Fixture fx = make_trained_fixture(2048, QueryPrecision::kReal);
  util::Rng rng(static_cast<std::uint64_t>(noise * 1e6) + 1);
  const double clean = mse_with_query_noise(fx, 0.0, rng);
  const double noisy = mse_with_query_noise(fx, noise, rng);
  EXPECT_LT(clean, 0.15);
  EXPECT_LT(noisy, 0.5);
  EXPECT_GE(noisy, clean * 0.5);  // sanity: noise cannot systematically help
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, QueryNoiseSweep, ::testing::Values(0.02, 0.05, 0.1));

class BitFlipSweep : public ::testing::TestWithParam<double> {};

TEST_P(BitFlipSweep, BinaryQueryBitFlipsDegradeGracefully) {
  // Hardware-fault model for the binary path: flip a fraction of the query
  // bits. Up to 5% flips the quality must remain useful.
  const double flip_rate = GetParam();
  static const Fixture fx = make_trained_fixture(2048, QueryPrecision::kBinary);
  util::Rng rng(static_cast<std::uint64_t>(flip_rate * 1e6) + 7);

  double acc = 0.0;
  for (std::size_t i = 0; i < fx.test.size(); ++i) {
    hdc::EncodedSample corrupted = fx.test.sample(i).materialize();
    corrupted.binary = hdc::flip_noise(corrupted.binary, flip_rate, rng);
    const double e = fx.model->predict(corrupted) - fx.test.target(i);
    acc += e * e;
  }
  const double noisy_mse = acc / static_cast<double>(fx.test.size());
  EXPECT_LT(noisy_mse, 0.6);  // mean predictor is 1.0
}

INSTANTIATE_TEST_SUITE_P(FlipRates, BitFlipSweep, ::testing::Values(0.01, 0.02, 0.05));

TEST(RobustnessTest, ModelComponentFaultsToleratedBetterAtHigherDimension) {
  // Knock out 10% of model components; the relative damage at D=4096 must
  // not exceed the damage at D=512 (information is spread thinner per
  // component at higher D). Allow generous slack for seed variation.
  auto damage_at_dim = [](std::size_t dim) {
    Fixture fx = make_trained_fixture(dim, QueryPrecision::kReal);
    const double clean = fx.model->evaluate_mse(fx.test);
    util::Rng rng(dim);
    std::vector<RegressionModel> models = fx.model->state().models;
    for (std::size_t i = 0; i < fx.model->num_models(); ++i) {
      const std::span<double> acc = fx.model->mutable_model_accumulator(i);
      for (std::size_t j = 0; j < dim; ++j) {
        if (rng.bernoulli(0.1)) {
          acc[j] = 0.0;  // stuck-at-zero fault
        }
      }
      models[i].requantize(acc);
    }
    fx.model->set_snapshots(fx.model->state().clusters, std::move(models));
    const double faulty = fx.model->evaluate_mse(fx.test);
    return faulty - clean;
  };
  EXPECT_LT(damage_at_dim(4096), damage_at_dim(512) + 0.05);
}

TEST(RobustnessTest, PredictionsBoundedUnderExtremeCorruption) {
  // Even a fully random query must not produce NaN/inf or absurd outputs.
  static const Fixture fx = make_trained_fixture(1024, QueryPrecision::kReal);
  util::Rng rng(999);
  const hdc::EncodedSample garbage = resample(hdc::random_gaussian(1024, rng, 0.0, 10.0));
  const double p = fx.model->predict(garbage);
  EXPECT_TRUE(std::isfinite(p));
  EXPECT_LT(std::abs(p), 100.0);
}

}  // namespace
}  // namespace reghd::core
