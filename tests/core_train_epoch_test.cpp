// train_epoch's per-sample loop against the train_step it replays.
//
// With a real query and full-precision clusters, train_epoch applies sample
// t's Eq. 7/8 updates and scores sample t + 1 in one update_dot_rows sweep
// over the arena; every other mode calls train_step. Either way an epoch
// over N samples must be bit-for-bit N train_step calls with the same
// requantize cadence: the accumulators, ‖C‖², every snapshot and the packed
// bank, the returned squared error, and the train-step, cluster-update and
// cluster-hit counters. Dot reductions are backend-specific, so CI runs this
// suite under each REGHD_KERNEL table; both sides always share one table.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/encoded.hpp"
#include "core/multi_model.hpp"
#include "data/dataset.hpp"
#include "hdc/encoding.hpp"
#include "obs/telemetry.hpp"
#include "util/random.hpp"

namespace reghd::core {
namespace {

constexpr std::size_t kFeatures = 5;
constexpr std::size_t kRows = 24;

data::Dataset make_dataset(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> flat(kRows * kFeatures);
  std::vector<double> targets(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    double sum = 0.0;
    for (std::size_t f = 0; f < kFeatures; ++f) {
      const double x = rng.normal(0.0, 1.0);
      flat[i * kFeatures + f] = x;
      sum += x * (f % 2 == 0 ? 0.7 : -0.4);
    }
    targets[i] = std::cos(sum) + 0.2 * sum;
  }
  return {"train-epoch", kFeatures, std::move(flat), std::move(targets)};
}

EncodedDataset encoded(std::size_t dim) {
  hdc::EncoderConfig enc;
  enc.input_dim = kFeatures;
  enc.dim = dim;
  return EncodedDataset::from(*hdc::make_encoder(enc), make_dataset(0x7E90C + dim), 1);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

::testing::AssertionResult same_row(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "sizes " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) {
      return ::testing::AssertionFailure() << "component " << i << ": " << a[i] << " vs "
                                           << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

void expect_same_state(const MultiModelRegressor& a, const MultiModelRegressor& b,
                       const std::string& what) {
  ASSERT_EQ(a.num_models(), b.num_models()) << what;
  for (std::size_t i = 0; i < a.num_models(); ++i) {
    EXPECT_TRUE(same_row(a.cluster_accumulator(i), b.cluster_accumulator(i)))
        << what << " cluster " << i;
    EXPECT_TRUE(same_row(a.model_accumulator(i), b.model_accumulator(i)))
        << what << " model " << i;
    EXPECT_TRUE(same_bits(a.cluster(i).norm2, b.cluster(i).norm2))
        << what << " ‖C‖² " << i << ": " << a.cluster(i).norm2 << " vs " << b.cluster(i).norm2;
    EXPECT_EQ(a.cluster(i).binary, b.cluster(i).binary) << what << " C^b " << i;
    EXPECT_EQ(a.model(i).binary, b.model(i).binary) << what << " M^b " << i;
    EXPECT_EQ(a.model(i).ternary_mask, b.model(i).ternary_mask) << what << " mask " << i;
    EXPECT_TRUE(same_bits(a.model(i).gamma, b.model(i).gamma)) << what << " γ " << i;
    EXPECT_TRUE(same_bits(a.model(i).gamma_ternary, b.model(i).gamma_ternary))
        << what << " γ_t " << i;
  }
  const PackedTernaryBank& pa = a.packed_bank();
  const PackedTernaryBank& pb = b.packed_bank();
  EXPECT_EQ(pa.valid, pb.valid) << what;
  EXPECT_EQ(pa.signs, pb.signs) << what;
  EXPECT_EQ(pa.masks, pb.masks) << what;
  EXPECT_TRUE(same_row(pa.scale, pb.scale)) << what << " bank scales";
}

/// What one epoch moved in the counters train_epoch must reproduce.
struct Counts {
  std::uint64_t steps = 0;
  std::uint64_t cluster_updates = 0;
  std::uint64_t requantizes = 0;
  std::vector<std::uint64_t> hits;
};

Counts counts_since(const obs::TelemetrySnapshot& start) {
  const obs::TelemetrySnapshot now = obs::snapshot();
  Counts c;
  c.steps = now.counter(obs::Counter::kTrainSteps) - start.counter(obs::Counter::kTrainSteps);
  c.cluster_updates = now.counter(obs::Counter::kClusterUpdates) -
                      start.counter(obs::Counter::kClusterUpdates);
  c.requantizes =
      now.counter(obs::Counter::kRequantizes) - start.counter(obs::Counter::kRequantizes);
  for (std::size_t i = 0; i < now.cluster_hits.size(); ++i) {
    c.hits.push_back(now.cluster_hits[i] - start.cluster_hits[i]);
  }
  return c;
}

TEST(TrainEpochEquivalenceTest, PerSampleEpochEqualsTrainStepReplay) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  for (const std::size_t dim : {std::size_t{1000}, std::size_t{4096}}) {
    const EncodedDataset train = encoded(dim);
    // Repeats and a non-monotone walk, so a row can follow itself.
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < kRows; ++i) {
      order.push_back((7 * i + 3) % kRows);
    }
    order.push_back(order.back());
    order.push_back(0);
    for (const ClusterMode cluster :
         {ClusterMode::kFullPrecision, ClusterMode::kQuantized, ClusterMode::kNaiveBinary}) {
      for (const QueryPrecision query : {QueryPrecision::kReal, QueryPrecision::kBinary}) {
        for (const ModelPrecision model :
             {ModelPrecision::kReal, ModelPrecision::kBinary, ModelPrecision::kTernary}) {
          for (const UpdateRule rule :
               {UpdateRule::kConfidenceWeighted, UpdateRule::kWinnerOnly}) {
            for (const std::size_t interval : {std::size_t{0}, std::size_t{3}}) {
              RegHDConfig cfg;
              cfg.dim = dim;
              cfg.models = 3;
              cfg.cluster_mode = cluster;
              cfg.query_precision = query;
              cfg.model_precision = model;
              cfg.update_rule = rule;
              cfg.requantize_interval = interval;
              MultiModelRegressor epoch(cfg);
              epoch.init_clusters(train);
              MultiModelRegressor replay = epoch;
              const std::string what = "D " + std::to_string(dim) + " " + to_string(cluster) +
                                       " " + cfg.prediction_mode().to_string() + " " +
                                       to_string(rule) + " requantize_interval " +
                                       std::to_string(interval);

              const obs::TelemetrySnapshot t0 = obs::snapshot();
              const double epoch_sq = epoch.train_epoch(train, order, 0);
              const Counts epoch_counts = counts_since(t0);

              const obs::TelemetrySnapshot t1 = obs::snapshot();
              double replay_sq = 0.0;
              std::size_t since = 0;
              for (const std::size_t i : order) {
                const double y = train.target(i);
                const double before = replay.train_step(train.sample(i), y);
                replay_sq += (y - before) * (y - before);
                if (interval > 0 && ++since >= interval) {
                  replay.requantize();
                  since = 0;
                }
              }
              replay.requantize();
              const Counts replay_counts = counts_since(t1);

              EXPECT_TRUE(same_bits(epoch_sq, replay_sq))
                  << what << ": " << epoch_sq << " vs " << replay_sq;
              expect_same_state(epoch, replay, what);
#ifndef REGHD_NO_TELEMETRY
              EXPECT_EQ(epoch_counts.steps, order.size()) << what;
#endif
              EXPECT_EQ(epoch_counts.steps, replay_counts.steps) << what;
              EXPECT_EQ(epoch_counts.cluster_updates, replay_counts.cluster_updates) << what;
              EXPECT_EQ(epoch_counts.requantizes, replay_counts.requantizes) << what;
              EXPECT_EQ(epoch_counts.hits, replay_counts.hits) << what;
            }
          }
        }
      }
    }
  }
  obs::set_enabled(was_enabled);
}

}  // namespace
}  // namespace reghd::core
