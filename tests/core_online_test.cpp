// Tests for the streaming OnlineRegHD learner: prequential learning,
// adaptive scaling, warm-up behaviour, and drift adaptation via decay.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "core/checkpoint.hpp"
#include "core/online.hpp"
#include "data/synthetic.hpp"
#include "util/random.hpp"

namespace reghd::core {
namespace {

OnlineConfig small_config(std::size_t dim = 1024, std::size_t models = 4) {
  OnlineConfig cfg;
  cfg.reghd.dim = dim;
  cfg.reghd.models = models;
  cfg.reghd.seed = 5;
  cfg.encoder.seed = 5;
  return cfg;
}

/// Prequential MSE over a window of the stream.
double window_mse(OnlineRegHD& learner, const data::Dataset& stream, std::size_t begin,
                  std::size_t end) {
  double acc = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    const double p = learner.update(stream.row(i), stream.target(i));
    const double e = p - stream.target(i);
    acc += e * e;
  }
  return acc / static_cast<double>(end - begin);
}

TEST(OnlineRegHDTest, PrequentialErrorDecreasesOverTheStream) {
  const data::Dataset stream = data::make_friedman1(3000, 11);
  OnlineRegHD learner(small_config(), stream.num_features());
  const double early = window_mse(learner, stream, 0, 500);
  (void)window_mse(learner, stream, 500, 2500);  // keep consuming the stream
  const double late = window_mse(learner, stream, 2500, 3000);
  EXPECT_LT(late, 0.6 * early);
  EXPECT_EQ(learner.samples_seen(), 3000u);
}

TEST(OnlineRegHDTest, PredictionsInOriginalUnits) {
  const data::Dataset stream = data::make_friedman1(2000, 13);  // targets ≈ [0, 30]
  OnlineRegHD learner(small_config(), stream.num_features());
  (void)window_mse(learner, stream, 0, 1500);
  double mean_pred = 0.0;
  for (std::size_t i = 1500; i < 1600; ++i) {
    mean_pred += learner.predict(stream.row(i));
  }
  mean_pred /= 100.0;
  EXPECT_GT(mean_pred, 5.0);
  EXPECT_LT(mean_pred, 25.0);
}

TEST(OnlineRegHDTest, WarmupReturnsRunningMean) {
  const data::Dataset stream = data::make_friedman1(100, 17);
  auto cfg = small_config();
  cfg.warmup = 20;
  OnlineRegHD learner(cfg, stream.num_features());
  // First prediction before any label: 0 (no statistics at all).
  EXPECT_DOUBLE_EQ(learner.predict(stream.row(0)), 0.0);
  (void)learner.update(stream.row(0), stream.target(0));
  // During warm-up the prediction is the running target mean.
  EXPECT_DOUBLE_EQ(learner.predict(stream.row(1)), stream.target(0));
}

TEST(OnlineRegHDTest, RecoversFromConceptDrift) {
  // One abrupt teacher change halfway. Prequential error must spike at the
  // drift point and return near the pre-drift level after adaptation — the
  // normalized-LMS update is inherently tracking, so recovery is fast.
  const data::Dataset stream =
      data::make_drift_stream(4000, 6, {2000}, 19, 0.02);
  OnlineRegHD learner(small_config(), stream.num_features());
  (void)window_mse(learner, stream, 0, 1500);
  const double pre_drift = window_mse(learner, stream, 1500, 2000);
  const double at_drift = window_mse(learner, stream, 2000, 2300);
  (void)window_mse(learner, stream, 2300, 3200);
  const double recovered = window_mse(learner, stream, 3200, 4000);
  EXPECT_GT(at_drift, 2.0 * pre_drift);        // the drift is visible
  EXPECT_LT(recovered, 0.5 * at_drift);        // and the learner adapts
}

TEST(OnlineRegHDTest, QuantizedStreamingStaysHealthy) {
  auto cfg = small_config();
  cfg.reghd.cluster_mode = ClusterMode::kQuantized;
  cfg.reghd.query_precision = QueryPrecision::kBinary;
  cfg.requantize_every = 64;
  const data::Dataset stream = data::make_friedman1(2500, 23);
  OnlineRegHD learner(cfg, stream.num_features());
  const double early = window_mse(learner, stream, 0, 500);
  const double late = window_mse(learner, stream, 2000, 2500);
  EXPECT_LT(late, early);
  EXPECT_TRUE(std::isfinite(late));
}

TEST(OnlineRegHDTest, WithoutAdaptiveScalingRawUnitsFlowThrough) {
  // Friedman features are already in [0, 1]; disabling scaling must still
  // learn (the encoder handles the raw range).
  auto cfg = small_config();
  cfg.adaptive_scaling = false;
  const data::Dataset stream = data::make_friedman1(2500, 29);
  OnlineRegHD learner(cfg, stream.num_features());
  const double early = window_mse(learner, stream, 0, 500);
  const double late = window_mse(learner, stream, 2000, 2500);
  EXPECT_LT(late, early);
}

TEST(OnlineRegHDTest, ValidatesConfigurationAndInput) {
  EXPECT_THROW(OnlineRegHD(small_config(), 0), std::invalid_argument);
  auto cfg = small_config();
  cfg.decay = 0.0;
  EXPECT_THROW(OnlineRegHD(cfg, 3), std::invalid_argument);
  cfg = small_config();
  cfg.decay = 1.5;
  EXPECT_THROW(OnlineRegHD(cfg, 3), std::invalid_argument);

  OnlineRegHD learner(small_config(), 3);
  EXPECT_THROW((void)learner.update(std::vector<double>{1.0}, 2.0), std::invalid_argument);
}

std::string checkpoint_bytes(const OnlineRegHD& learner) {
  std::ostringstream out(std::ios::binary);
  save_online_checkpoint(out, learner);
  return std::move(out).str();
}

TEST(OnlineRegHDTest, CopyIsBitIdenticalAndSharesTheEncoder) {
  const data::Dataset stream = data::make_friedman1(300, 37);
  auto cfg = small_config(512);
  cfg.requantize_every = 64;
  OnlineRegHD orig(cfg, stream.num_features());
  for (std::size_t i = 0; i < 200; ++i) {
    (void)orig.update(stream.row(i), stream.target(i));
  }

  const OnlineRegHD copy = orig;
  EXPECT_EQ(&copy.encoder(), &orig.encoder());
  EXPECT_EQ(checkpoint_bytes(copy), checkpoint_bytes(orig));
  for (std::size_t i = 200; i < 260; ++i) {
    EXPECT_EQ(copy.predict(stream.row(i)), orig.predict(stream.row(i))) << "row " << i;
  }
}

TEST(OnlineRegHDTest, UpdatingACopyLeavesTheOriginalUntouched) {
  const data::Dataset stream = data::make_friedman1(300, 41);
  OnlineRegHD orig(small_config(512), stream.num_features());
  for (std::size_t i = 0; i < 100; ++i) {
    (void)orig.update(stream.row(i), stream.target(i));
  }
  const std::string before = checkpoint_bytes(orig);

  OnlineRegHD copy = orig;
  for (std::size_t i = 100; i < 200; ++i) {
    (void)copy.update(stream.row(i), stream.target(i));
  }
  EXPECT_NE(checkpoint_bytes(copy), before);
  EXPECT_EQ(checkpoint_bytes(orig), before);
}

TEST(OnlineRegHDTest, ProjectionStorageOnACopyLeavesTheOriginalAlone) {
  const data::Dataset stream = data::make_friedman1(200, 43);
  auto cfg = small_config(512);
  cfg.encoder.projection_storage = hdc::ProjectionStorage::kResident;
  OnlineRegHD orig(cfg, stream.num_features());
  for (std::size_t i = 0; i < 100; ++i) {
    (void)orig.update(stream.row(i), stream.target(i));
  }

  OnlineRegHD copy = orig;
  copy.set_projection_storage(hdc::ProjectionStorage::kRematerialized);
  EXPECT_NE(&copy.encoder(), &orig.encoder());
  EXPECT_EQ(copy.encoder().config().projection_storage,
            hdc::ProjectionStorage::kRematerialized);
  EXPECT_EQ(orig.encoder().config().projection_storage, hdc::ProjectionStorage::kResident);
  EXPECT_EQ(orig.config().encoder.projection_storage, hdc::ProjectionStorage::kResident);
  for (std::size_t i = 100; i < 140; ++i) {
    EXPECT_EQ(copy.predict(stream.row(i)), orig.predict(stream.row(i))) << "row " << i;
  }
}

TEST(OnlineRegHDTest, DeterministicForFixedSeed) {
  const data::Dataset stream = data::make_friedman1(500, 31);
  OnlineRegHD a(small_config(), stream.num_features());
  OnlineRegHD b(small_config(), stream.num_features());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.update(stream.row(i), stream.target(i)),
                     b.update(stream.row(i), stream.target(i)));
  }
}

}  // namespace
}  // namespace reghd::core
