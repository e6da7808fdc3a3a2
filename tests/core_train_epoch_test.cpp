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
//
// The fused sweep may be split by arena rows over a team of pool threads
// (RegHDConfig::threads); the team suite pins that no thread count moves a
// bit, and that an epoch started inside pool work finishes serially.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/encoded.hpp"
#include "core/model_io.hpp"
#include "core/multi_model.hpp"
#include "data/dataset.hpp"
#include "hdc/encoding.hpp"
#include "obs/telemetry.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace reghd::core {
namespace {

constexpr std::size_t kFeatures = 5;
constexpr std::size_t kRows = 24;

data::Dataset make_dataset(std::uint64_t seed, std::size_t rows) {
  util::Rng rng(seed);
  std::vector<double> flat(rows * kFeatures);
  std::vector<double> targets(rows);
  for (std::size_t i = 0; i < rows; ++i) {
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

EncodedDataset encoded(std::size_t dim, std::size_t rows = kRows) {
  hdc::EncoderConfig enc;
  enc.input_dim = kFeatures;
  enc.dim = dim;
  return EncodedDataset::from(*hdc::make_encoder(enc), make_dataset(0x7E90C + dim, rows), 1);
}

std::string model_bytes(const MultiModelRegressor& model) {
  std::ostringstream os(std::ios::binary);
  io::write_model_section(os, model);
  return os.str();
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

/// One epoch over a shuffled order with repeats, from the same seeded
/// clusters every time.
struct TeamRun {
  double sq = 0.0;
  Counts counts;
  std::uint64_t pool_jobs = 0;
  MultiModelRegressor model;
};

constexpr std::size_t kTeamRows = 64;

std::vector<std::size_t> team_order() {
  std::vector<std::size_t> order(kTeamRows);
  for (std::size_t i = 0; i < kTeamRows; ++i) {
    order[i] = i;
  }
  util::Rng rng(0x7EA4);
  rng.shuffle(order);
  order.push_back(order[5]);
  order.push_back(order.back());
  return order;
}

TeamRun run_team_epoch(const EncodedDataset& train, const RegHDConfig& cfg) {
  TeamRun run{0.0, {}, 0, MultiModelRegressor(cfg)};
  run.model.init_clusters(train);
  const std::vector<std::size_t> order = team_order();
  const obs::TelemetrySnapshot t0 = obs::snapshot();
  run.sq = run.model.train_epoch(train, order, 0);
  run.counts = counts_since(t0);
  run.pool_jobs = obs::snapshot().counter(obs::Counter::kPoolJobs) -
                  t0.counter(obs::Counter::kPoolJobs);
  return run;
}

TEST(TrainEpochTeamTest, AnyThreadCountIsBitIdentical) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  // A team forms from 2k·D = 65536 up: k = 8 from D = 4096, k = 3 at
  // D = 11002 (whose scalar tail follows the SIMD loops), k = 1 at
  // D = 32768. Smaller shapes stay serial by design and must agree all the
  // same.
  for (const std::size_t dim :
       {std::size_t{1000}, std::size_t{4096}, std::size_t{11002}, std::size_t{32768}}) {
    const EncodedDataset train = encoded(dim, kTeamRows);
    for (const std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
      for (const std::size_t interval : {std::size_t{0}, std::size_t{3}}) {
        RegHDConfig cfg;
        cfg.dim = dim;
        cfg.models = k;
        cfg.requantize_interval = interval;
        cfg.threads = 1;
        const TeamRun serial = run_team_epoch(train, cfg);
        const std::string serial_bytes = model_bytes(serial.model);
        for (const std::size_t threads :
             {std::size_t{2}, std::size_t{3}, std::size_t{4}, std::size_t{7}}) {
          cfg.threads = threads;
          const TeamRun team = run_team_epoch(train, cfg);
          const std::string what = "D " + std::to_string(dim) + " k " + std::to_string(k) +
                                   " requantize_interval " + std::to_string(interval) +
                                   " threads " + std::to_string(threads);
          EXPECT_TRUE(model_bytes(team.model) == serial_bytes) << what << ": model bytes";
          EXPECT_TRUE(same_bits(team.sq, serial.sq)) << what << ": " << team.sq << " vs "
                                                     << serial.sq;
          expect_same_state(team.model, serial.model, what);
          EXPECT_EQ(team.counts.steps, serial.counts.steps) << what;
          EXPECT_EQ(team.counts.cluster_updates, serial.counts.cluster_updates) << what;
          EXPECT_EQ(team.counts.requantizes, serial.counts.requantizes) << what;
          EXPECT_EQ(team.counts.hits, serial.counts.hits) << what;
#ifndef REGHD_NO_TELEMETRY
          // The train_sharded shape must actually split whenever the pool
          // can field a team, or this sweep would compare serial to serial.
          if (k == 8 && dim == 4096 && util::ThreadPool::global().thread_count() >= 2) {
            EXPECT_EQ(team.pool_jobs, 1u) << what << ": no team ran";
          }
#endif
        }
      }
    }
  }
  obs::set_enabled(was_enabled);
}

TEST(TrainEpochTeamTest, EpochInsidePoolWorkFinishesSerially) {
  // Inside a parallel_for block the pool refuses the team (its workers may
  // be the ones running the enclosing blocks), so the epoch runs on the
  // calling worker alone — and must still finish, bit-identical. The suite's
  // ctest TIMEOUT turns a deadlock into a failure.
  const EncodedDataset train = encoded(4096, kTeamRows);
  RegHDConfig cfg;
  cfg.dim = 4096;
  cfg.models = 8;
  cfg.threads = 1;
  const TeamRun serial = run_team_epoch(train, cfg);
  cfg.threads = 4;
  std::vector<double> sq(2, 0.0);
  std::vector<std::string> bytes(2);
  util::parallel_for(
      2,
      [&](std::size_t i) {
        const TeamRun nested = run_team_epoch(train, cfg);
        sq[i] = nested.sq;
        bytes[i] = model_bytes(nested.model);
      },
      2);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(same_bits(sq[i], serial.sq)) << "block " << i;
    EXPECT_TRUE(bytes[i] == model_bytes(serial.model)) << "block " << i << ": model bytes";
  }
}

}  // namespace
}  // namespace reghd::core
