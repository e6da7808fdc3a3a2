// Server end-to-end semantics: both admission paths (fused single-query and
// bank-scan batch) are bit-identical to the offline learner, training through
// the server replays the offline update sequence exactly, and the admission /
// shutdown / persistence protocols hold.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/online.hpp"
#include "data/synthetic.hpp"
#include "obs/telemetry.hpp"
#include "util/fault_injection.hpp"

namespace reghd::serve {
namespace {

core::OnlineConfig online_config() {
  core::OnlineConfig cfg;
  cfg.reghd.dim = 256;
  cfg.reghd.models = 4;
  cfg.requantize_every = 64;
  return cfg;
}

core::OnlineConfig quantized_config() {
  core::OnlineConfig cfg = online_config();
  cfg.reghd.cluster_mode = core::ClusterMode::kQuantized;
  cfg.reghd.query_precision = core::QueryPrecision::kBinary;
  cfg.reghd.model_precision = core::ModelPrecision::kTernary;
  return cfg;
}

core::OnlineRegHD trained_learner(const core::OnlineConfig& cfg,
                                  const data::Dataset& d, std::size_t updates) {
  core::OnlineRegHD learner(cfg, d.num_features());
  for (std::size_t i = 0; i < updates; ++i) {
    learner.update(d.row(i % d.size()), d.target(i % d.size()));
  }
  return learner;
}

void expect_paths_match_offline(const core::OnlineConfig& cfg) {
  const data::Dataset d = data::make_friedman1(400, 9);
  const core::OnlineRegHD learner = trained_learner(cfg, d, 300);

  ServeConfig always_single;
  always_single.shards = 1;
  always_single.batch_threshold = std::numeric_limits<std::size_t>::max();
  ServeConfig always_batch;
  always_batch.shards = 1;
  always_batch.batch_threshold = 1;  // every drain group takes the bank scan

  Server single(always_single, cfg, d.num_features());
  Server batch(always_batch, cfg, d.num_features());
  single.bootstrap(0, learner);
  batch.bootstrap(0, learner);
  single.start();
  batch.start();

  for (std::size_t i = 300; i < 400; ++i) {
    const double want = learner.predict(d.row(i));
    EXPECT_EQ(single.predict(i, d.row(i)), want) << "single path row " << i;
    EXPECT_EQ(batch.predict(i, d.row(i)), want) << "batch path row " << i;
  }

  // Pipelined submission: whatever admission grouping the worker lands on,
  // every completion must still equal the offline prediction bit for bit.
  constexpr std::size_t kInflight = 64;
  std::vector<RequestSlot> slots(kInflight);
  for (std::size_t i = 0; i < kInflight; ++i) {
    while (!batch.try_predict(i, d.row(300 + i), &slots[i])) {
    }
  }
  for (std::size_t i = 0; i < kInflight; ++i) {
    slots[i].wait();
    ASSERT_EQ(slots[i].error, 0U);
    EXPECT_EQ(slots[i].result, learner.predict(d.row(300 + i)))
        << "pipelined row " << i;
  }

  single.stop();
  batch.stop();
}

TEST(ServeRuntimeTest, FullPrecisionPathsMatchOfflinePredict) {
  expect_paths_match_offline(online_config());
}

TEST(ServeRuntimeTest, QuantizedPathsMatchOfflinePredict) {
  expect_paths_match_offline(quantized_config());
}

TEST(ServeRuntimeTest, ColdServerMatchesColdOfflinePredict) {
  const data::Dataset d = data::make_friedman1(64, 9);
  const core::OnlineConfig cfg = online_config();
  const core::OnlineRegHD fresh(cfg, d.num_features());
  ServeConfig sc;
  sc.batch_threshold = 1;  // exercise the batch path's cold gate
  Server server(sc, cfg, d.num_features());
  server.start();
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(server.predict(i, d.row(i)), fresh.predict(d.row(i)));
  }
  server.stop();
}

TEST(ServeRuntimeTest, TrainingThroughServerReplaysOfflineSequenceExactly) {
  const data::Dataset d = data::make_friedman1(256, 9);
  const core::OnlineConfig cfg = online_config();

  // Offline reference: the exact same update sequence on a plain learner.
  core::OnlineRegHD offline(cfg, d.num_features());
  for (std::size_t i = 0; i < d.size(); ++i) {
    offline.update(d.row(i), d.target(i));
  }

  ServeConfig sc;
  sc.shards = 1;
  sc.publish_every_updates = 50;
  sc.publish_interval_ms = 5.0;
  Server server(sc, cfg, d.num_features());
  server.start();
  // One producer → the train ring is FIFO → the trainer applies the samples
  // in exactly this order.
  for (std::size_t i = 0; i < d.size(); ++i) {
    while (!server.try_train(0, d.row(i), d.target(i))) {
      std::this_thread::yield();
    }
  }
  while (server.train_applied(0) < d.size()) {
    std::this_thread::yield();
  }
  server.stop();

  const std::shared_ptr<const ModelSnapshot> snap = server.snapshot(0);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->learner.samples_seen(), offline.samples_seen());
  EXPECT_EQ(snap->trained_updates, offline.samples_seen());
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(snap->learner.predict(d.row(i)), offline.predict(d.row(i)))
        << "post-training prediction " << i;
  }
}

TEST(ServeRuntimeTest, NonFiniteTrainSampleIsCountedAndLeavesNoTrace) {
  // One NaN target in the middle of a live training stream: admission
  // rejects it with std::invalid_argument before it is enqueued, counts it
  // as serve_nonfinite_rejects, and the published snapshot equals a learner
  // that never saw that sample.
  const data::Dataset d = data::make_friedman1(160, 9);
  const core::OnlineConfig cfg = online_config();
  constexpr std::size_t kPoisoned = 80;
  core::OnlineRegHD offline(cfg, d.num_features());
  for (std::size_t i = 0; i < d.size(); ++i) {
    offline.update(d.row(i), d.target(i));
  }

  obs::set_enabled(true);
  obs::reset();
  ServeConfig sc;
  sc.shards = 1;
  sc.publish_every_updates = 50;
  sc.publish_interval_ms = 5.0;
  Server server(sc, cfg, d.num_features());
  server.start();
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (i == kPoisoned) {
      EXPECT_THROW((void)server.try_train(0, d.row(i),
                                          std::numeric_limits<double>::quiet_NaN()),
                   std::invalid_argument);
    }
    while (!server.try_train(0, d.row(i), d.target(i))) {
      std::this_thread::yield();
    }
  }
  while (server.train_applied(0) < d.size()) {
    std::this_thread::yield();
  }
  server.stop();
  const obs::TelemetrySnapshot telemetry = obs::snapshot();
  obs::set_enabled(false);

  EXPECT_EQ(telemetry.counter(obs::Counter::kServeNonfiniteRejects), 1U);
  EXPECT_EQ(telemetry.counter(obs::Counter::kServeTrainErrors), 0U);
  EXPECT_EQ(telemetry.counter(obs::Counter::kOnlineNonfiniteRejects), 0U);
  EXPECT_EQ(server.train_applied(0), d.size());
  const std::shared_ptr<const ModelSnapshot> snap = server.snapshot(0);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->learner.samples_seen(), offline.samples_seen());
  std::ostringstream want(std::ios::binary);
  std::ostringstream got(std::ios::binary);
  core::save_online_checkpoint(want, offline);
  core::save_online_checkpoint(got, snap->learner);
  EXPECT_EQ(got.str(), want.str());
}

TEST(ServeRuntimeTest, NonFiniteQueriesAreRejectedAtAdmission) {
  // NaN and ±Inf features (and targets) are refused by try_predict /
  // try_train like a wrong feature count: std::invalid_argument, nothing
  // enqueued, one serve_nonfinite_rejects per refusal. A finite query after
  // them is still served, bit-identical to the offline learner.
  const data::Dataset d = data::make_friedman1(200, 9);
  const core::OnlineConfig cfg = online_config();
  const core::OnlineRegHD learner = trained_learner(cfg, d, 150);

  obs::set_enabled(true);
  obs::reset();
  ServeConfig sc;
  sc.shards = 1;
  Server server(sc, cfg, d.num_features());
  server.bootstrap(0, learner);
  server.start();

  std::uint64_t refused = 0;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    std::vector<double> row(d.row(3).begin(), d.row(3).end());
    row[2] = bad;
    RequestSlot slot;
    EXPECT_THROW((void)server.try_predict(3, row, &slot), std::invalid_argument);
    EXPECT_THROW((void)server.predict(3, row), std::invalid_argument);
    EXPECT_THROW((void)server.try_train(3, row, 1.0), std::invalid_argument);
    EXPECT_THROW((void)server.try_train(3, d.row(3), bad), std::invalid_argument);
    refused += 4;
  }
  const double served = server.predict(4, d.row(4));
  server.stop();
  const obs::TelemetrySnapshot telemetry = obs::snapshot();
  obs::set_enabled(false);

  EXPECT_EQ(served, learner.predict(d.row(4)));
  EXPECT_EQ(telemetry.counter(obs::Counter::kServeNonfiniteRejects), refused);
  EXPECT_EQ(telemetry.counter(obs::Counter::kServeRequests), 1U);
  EXPECT_EQ(server.train_applied(0), 0U);
}

TEST(ServeRuntimeTest, TrainingAdvancesSnapshotEpochWhilePredictsKeepFlowing) {
  const data::Dataset d = data::make_friedman1(512, 9);
  const core::OnlineConfig cfg = online_config();
  ServeConfig sc;
  sc.publish_every_updates = 32;
  sc.publish_interval_ms = 1.0;
  Server server(sc, cfg, d.num_features());
  server.start();
  const std::uint64_t initial_epoch = server.snapshot_epoch(0);
  EXPECT_GE(initial_epoch, 1U);
  for (std::size_t i = 0; i < 200; ++i) {
    while (!server.try_train(0, d.row(i), d.target(i))) {
      std::this_thread::yield();
    }
    (void)server.predict(i, d.row(i));  // predicts interleave with publishes
  }
  while (server.train_applied(0) < 200) {
    std::this_thread::yield();
  }
  server.stop();
  EXPECT_GT(server.snapshot_epoch(0), initial_epoch);
  EXPECT_EQ(server.snapshot(0)->learner.samples_seen(), 200U);
}

TEST(ServeRuntimeTest, ShardRoutingIsStableAndCoversAllShards) {
  ServeConfig sc;
  sc.shards = 4;
  const Server server(sc, online_config(), 9);
  std::vector<bool> hit(sc.shards, false);
  for (std::uint64_t key = 0; key < 256; ++key) {
    const std::size_t s = server.shard_of(key);
    ASSERT_LT(s, sc.shards);
    ASSERT_EQ(s, server.shard_of(key));  // stable
    hit[s] = true;
  }
  for (std::size_t s = 0; s < sc.shards; ++s) {
    EXPECT_TRUE(hit[s]) << "no key of 256 routed to shard " << s;
  }
}

TEST(ServeRuntimeTest, MultiShardServerMatchesOfflineAcrossKeys) {
  const data::Dataset d = data::make_friedman1(300, 9);
  const core::OnlineConfig cfg = online_config();
  const core::OnlineRegHD learner = trained_learner(cfg, d, 200);
  ServeConfig sc;
  sc.shards = 2;
  Server server(sc, cfg, d.num_features());
  server.bootstrap(0, learner);
  server.bootstrap(1, learner);
  server.start();
  for (std::size_t i = 200; i < 300; ++i) {
    EXPECT_EQ(server.predict(i * 7919, d.row(i)), learner.predict(d.row(i)));
  }
  server.stop();
}

TEST(ServeRuntimeTest, AdmissionClosedBeforeStartAndAfterStop) {
  const core::OnlineConfig cfg = online_config();
  Server server(ServeConfig{}, cfg, 9);
  const std::vector<double> row(9, 0.0);
  RequestSlot slot;
  EXPECT_FALSE(server.running());
  EXPECT_FALSE(server.try_predict(0, row, &slot));
  EXPECT_FALSE(server.try_train(0, row, 1.0));
  server.start();
  EXPECT_TRUE(server.running());
  EXPECT_TRUE(server.try_predict(0, row, &slot));
  slot.wait();
  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_FALSE(server.try_predict(0, row, &slot));
  EXPECT_THROW((void)server.predict(0, row), std::exception);
  server.stop();  // idempotent
}

TEST(ServeRuntimeTest, SnapshotsPreserveRematerializedProjectionStorage) {
  // Projection storage is deliberately absent from the checkpoint container,
  // so a recovered learner comes back resident, and a bootstrapped learner
  // arrives in whatever mode its caller built it with. The server must pin
  // its configured mode at every hop (bootstrap, each publish's copy,
  // recovery) — a resident encoder would re-materialize the F×D matrix —
  // with predictions bit-identical to the offline learner.
  const data::Dataset d = data::make_friedman1(300, 9);
  core::OnlineConfig cfg = online_config();
  cfg.encoder.projection_storage = hdc::ProjectionStorage::kRematerialized;
  const core::OnlineRegHD learner = trained_learner(cfg, d, 200);
  ASSERT_EQ(learner.encoder().config().projection_storage,
            hdc::ProjectionStorage::kRematerialized);

  ServeConfig sc;
  sc.publish_every_updates = 16;
  sc.publish_interval_ms = 1.0;
  Server server(sc, cfg, d.num_features());
  server.bootstrap(0, learner);  // copy #1, then the server's storage mode
  server.start();                // copy #2 (initial publish) shares that encoder
  for (std::size_t i = 0; i < 64; ++i) {
    while (!server.try_train(0, d.row(i), d.target(i))) {
      std::this_thread::yield();
    }
  }
  while (server.train_applied(0) < 64) {
    std::this_thread::yield();
  }
  server.stop();

  const std::shared_ptr<const ModelSnapshot> snap = server.snapshot(0);
  ASSERT_NE(snap, nullptr);
  EXPECT_GT(snap->epoch, 1U);  // at least one trainer publish happened
  EXPECT_EQ(snap->learner.encoder().config().projection_storage,
            hdc::ProjectionStorage::kRematerialized);

  core::OnlineRegHD offline = trained_learner(cfg, d, 200);
  for (std::size_t i = 0; i < 64; ++i) {
    offline.update(d.row(i), d.target(i));
  }
  for (std::size_t i = 200; i < 232; ++i) {
    EXPECT_EQ(snap->learner.predict(d.row(i)), offline.predict(d.row(i)))
        << "rematerialized snapshot prediction " << i;
  }
}

TEST(ServeRuntimeTest, CheckpointDirPersistsAndRecoversShardState) {
  namespace fs = std::filesystem;
  const data::Dataset d = data::make_friedman1(128, 9);
  const core::OnlineConfig cfg = online_config();
  const fs::path dir =
      fs::temp_directory_path() / "reghd_serve_runtime_ckpt_test";
  fs::remove_all(dir);

  ServeConfig sc;
  sc.checkpoint_dir = dir.string();
  {
    Server server(sc, cfg, d.num_features());
    server.start();
    for (std::size_t i = 0; i < d.size(); ++i) {
      while (!server.try_train(0, d.row(i), d.target(i))) {
        std::this_thread::yield();
      }
    }
    while (server.train_applied(0) < d.size()) {
      std::this_thread::yield();
    }
    server.stop();  // persists shard_0
  }

  core::OnlineRegHD offline(cfg, d.num_features());
  for (std::size_t i = 0; i < d.size(); ++i) {
    offline.update(d.row(i), d.target(i));
  }

  Server revived(sc, cfg, d.num_features());
  revived.start();  // recovers shard_0 from the checkpoint
  EXPECT_EQ(revived.snapshot(0)->learner.samples_seen(), offline.samples_seen());
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(revived.predict(0, d.row(i)), offline.predict(d.row(i)));
  }
  revived.stop();
  fs::remove_all(dir);
}

TEST(ServeRuntimeTest, FailedFinalCheckpointSaveIsCountedNotThrown) {
  // stop() runs the final persistence pass and is also called from ~Server.
  // A save failure escaping stop() would therefore throw out of a destructor
  // → std::terminate. This pins the fix: arm a write fault on the final
  // save, let the Server go out of scope, and require that the process is
  // still here with the failure visible on the checkpoint-failure counter.
  namespace fs = std::filesystem;
  const data::Dataset d = data::make_friedman1(64, 9);
  const fs::path dir =
      fs::temp_directory_path() / "reghd_serve_runtime_fault_test";
  fs::remove_all(dir);

  obs::set_enabled(true);
  obs::reset();
  ServeConfig sc;
  sc.shards = 1;
  sc.checkpoint_dir = dir.string();
  {
    Server server(sc, online_config(), d.num_features());
    server.set_persist_fault_plan(
        util::FaultPlan{util::FaultMode::kFailAt, 0, 1});
    server.start();
    for (std::size_t i = 0; i < d.size(); ++i) {
      while (!server.try_train(0, d.row(i), d.target(i))) {
        std::this_thread::yield();
      }
    }
    while (server.train_applied(0) < d.size()) {
      std::this_thread::yield();
    }
  }  // ~Server → stop() → failing save; must NOT std::terminate

  const obs::TelemetrySnapshot snap = obs::snapshot();
  // ≥ 1, not == 1: the write layer counts the failure it detects and stop()'s
  // catch counts the escaped exception — one fault may register twice.
  EXPECT_GE(snap.counter(obs::Counter::kCkptSaveFailures), 1U);
  obs::set_enabled(false);
  fs::remove_all(dir);
}

TEST(ServeRuntimeTest, UnusableCheckpointDirAtStopIsCountedNotThrown) {
  // Same invariant, different failure stage: the CheckpointManager
  // *constructor* throws inside stop() (the checkpoint path has become a
  // regular file, so the shard directory cannot be created). The directory
  // is valid at start() and sabotaged while the server runs — the shape of
  // a real operational failure (volume yanked, path clobbered).
  namespace fs = std::filesystem;
  const data::Dataset d = data::make_friedman1(64, 9);
  const fs::path dir =
      fs::temp_directory_path() / "reghd_serve_runtime_baddir_test";
  fs::remove_all(dir);

  obs::set_enabled(true);
  obs::reset();
  ServeConfig sc;
  sc.shards = 1;
  sc.checkpoint_dir = dir.string();
  {
    Server server(sc, online_config(), d.num_features());
    server.start();
    for (std::size_t i = 0; i < 8; ++i) {
      while (!server.try_train(0, d.row(i), d.target(i))) {
        std::this_thread::yield();
      }
    }
    while (server.train_applied(0) < 8) {
      std::this_thread::yield();
    }
    // Clobber the checkpoint path: now a FILE, so stop() cannot create
    // <dir>/shard_0 and the manager constructor throws.
    fs::remove_all(dir);
    {
      std::ofstream blocker(dir);
      blocker << "x";
    }
  }  // ~Server: directory setup fails inside stop(); must not escape

  const obs::TelemetrySnapshot snap = obs::snapshot();
  EXPECT_GE(snap.counter(obs::Counter::kCkptSaveFailures), 1U);
  obs::set_enabled(false);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace reghd::serve
