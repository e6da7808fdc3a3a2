// CheckpointManager + online checkpoint format: full-state capture,
// atomic writes, keep-last-K retention, and recovery that skips every
// corrupted checkpoint.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "core/checkpoint.hpp"
#include "core/model_io.hpp"
#include "core/sharded_training.hpp"
#include "data/synthetic.hpp"
#include "util/atomic_file.hpp"
#include "util/framing.hpp"
#include "util/serialize.hpp"

namespace reghd::core {
namespace {

namespace fs = std::filesystem;

OnlineConfig small_config() {
  OnlineConfig cfg;
  cfg.reghd.dim = 128;
  cfg.reghd.models = 2;
  cfg.reghd.cluster_mode = ClusterMode::kQuantized;
  cfg.requantize_every = 48;
  cfg.decay = 0.999;
  return cfg;
}

OnlineRegHD trained_learner(std::size_t updates) {
  const data::Dataset d = data::make_friedman1(512, 9);
  OnlineRegHD learner(small_config(), d.num_features());
  for (std::size_t i = 0; i < updates && i < d.size(); ++i) {
    learner.update(d.row(i), d.target(i));
  }
  return learner;
}

std::string serialize(const OnlineRegHD& learner) {
  std::ostringstream out(std::ios::binary);
  save_online_checkpoint(out, learner);
  return out.str();
}

class CheckpointManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("reghd-ckpt-" +
             std::string(::testing::UnitTest::GetInstance()->current_test_info()->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  CheckpointConfig config(std::size_t keep_last = 3) {
    CheckpointConfig cfg;
    cfg.dir = dir_;
    cfg.keep_last = keep_last;
    cfg.fsync = false;  // unit tests don't need durability barriers
    return cfg;
  }

  std::string dir_;
};

TEST_F(CheckpointManagerTest, SaveLoadIsBitIdentical) {
  // The checkpoint is taken at a step that is NOT a requantize boundary
  // (173 % 48 != 0), so the binary snapshots are stale relative to the
  // accumulators — exactly the state a naive "requantize on load" would
  // corrupt.
  const OnlineRegHD learner = trained_learner(173);
  std::istringstream in(serialize(learner), std::ios::binary);
  const OnlineRegHD restored = load_online_checkpoint(in);

  EXPECT_EQ(restored.samples_seen(), learner.samples_seen());
  EXPECT_EQ(restored.since_requantize(), learner.since_requantize());
  EXPECT_EQ(serialize(restored), serialize(learner));
}

TEST_F(CheckpointManagerTest, LoadAppliesProjectionStorageOverride) {
  // Projection storage is a deployment knob, deliberately not serialized: a
  // plain load always comes back resident, and the override applies the
  // caller's mode at construction — same state, same bytes, bit-identical
  // predictions, and (over kRematCacheBytes) no F×D matrix ever built.
  const data::Dataset d = data::make_friedman1(64, 9);
  const OnlineRegHD learner = trained_learner(173);
  const std::string bytes = serialize(learner);

  std::istringstream plain_in(bytes, std::ios::binary);
  const OnlineRegHD plain = load_online_checkpoint(plain_in);
  EXPECT_EQ(plain.config().encoder.projection_storage,
            hdc::ProjectionStorage::kResident);

  std::istringstream remat_in(bytes, std::ios::binary);
  const OnlineRegHD remat =
      load_online_checkpoint(remat_in, hdc::ProjectionStorage::kRematerialized);
  EXPECT_EQ(remat.config().encoder.projection_storage,
            hdc::ProjectionStorage::kRematerialized);
  EXPECT_EQ(remat.samples_seen(), learner.samples_seen());
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(remat.predict(d.row(i)), plain.predict(d.row(i)))
        << "storage modes diverged on row " << i;
  }
  // The override round-trips back out as the serialized default, so the
  // bytes a rematerialized deployment re-saves equal the original file.
  EXPECT_EQ(serialize(remat), bytes);
}

TEST_F(CheckpointManagerTest, PackedBankSectionRoundTripsVerbatim) {
  // Quantized model precision puts model rows in the packed scan bank; the
  // PBNK section must restore the exact planes and scales the checkpointed
  // process scored through.
  OnlineConfig cfg = small_config();
  cfg.reghd.query_precision = QueryPrecision::kBinary;
  cfg.reghd.model_precision = ModelPrecision::kTernary;
  const data::Dataset d = data::make_friedman1(512, 9);
  OnlineRegHD learner(cfg, d.num_features());
  for (std::size_t i = 0; i < 173; ++i) {
    learner.update(d.row(i), d.target(i));
  }
  ASSERT_TRUE(learner.model().packed_bank().valid);

  std::istringstream in(serialize(learner), std::ios::binary);
  const OnlineRegHD restored = load_online_checkpoint(in);
  const PackedTernaryBank& want = learner.model().packed_bank();
  const PackedTernaryBank& got = restored.model().packed_bank();
  ASSERT_TRUE(got.valid);
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.words, want.words);
  EXPECT_EQ(std::vector<std::uint64_t>(got.signs.begin(), got.signs.end()),
            std::vector<std::uint64_t>(want.signs.begin(), want.signs.end()));
  EXPECT_EQ(std::vector<std::uint64_t>(got.masks.begin(), got.masks.end()),
            std::vector<std::uint64_t>(want.masks.begin(), want.masks.end()));
  EXPECT_EQ(got.scale, want.scale);
  EXPECT_EQ(serialize(restored), serialize(learner));
}

TEST_F(CheckpointManagerTest, CheckpointWithoutPackedBankSectionStillLoads) {
  // Files written before the PBNK section existed have no bank section; the
  // loader must fall back to re-packing from the restored snapshots and end
  // up in the identical state. Simulate one by re-framing the checkpoint
  // with the PBNK section dropped.
  OnlineConfig cfg = small_config();
  cfg.reghd.query_precision = QueryPrecision::kBinary;
  cfg.reghd.model_precision = ModelPrecision::kTernary;
  const data::Dataset d = data::make_friedman1(512, 9);
  OnlineRegHD learner(cfg, d.num_features());
  for (std::size_t i = 0; i < 173; ++i) {
    learner.update(d.row(i), d.target(i));
  }

  const std::string bytes = serialize(learner);
  const util::ParsedFile file = util::parse_sections(bytes.substr(8));
  std::ostringstream stripped(std::ios::binary);
  util::write_scalar<std::uint32_t>(stripped, kModelMagic);
  util::write_scalar<std::uint32_t>(stripped, kModelVersionLatest);
  util::SectionWriter writer(stripped, file.kind);
  bool dropped = false;
  for (const util::Section& s : file.sections) {
    if (s.tag == util::fourcc("PBNK")) {
      dropped = true;
      continue;
    }
    writer.add(s.tag, s.payload);
  }
  writer.finish();
  ASSERT_TRUE(dropped) << "expected the checkpoint to carry a PBNK section";

  std::istringstream in(stripped.str(), std::ios::binary);
  const OnlineRegHD restored = load_online_checkpoint(in);
  ASSERT_TRUE(restored.model().packed_bank().valid);
  EXPECT_EQ(serialize(restored), serialize(learner));
}

TEST_F(CheckpointManagerTest, RecoverReturnsNewestValid) {
  CheckpointManager manager(config());
  OnlineRegHD learner = trained_learner(100);
  manager.save(learner);
  const data::Dataset d = data::make_friedman1(512, 9);
  for (std::size_t i = 100; i < 150; ++i) {
    learner.update(d.row(i), d.target(i));
  }
  manager.save(learner);

  const auto recovered = manager.recover();
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->samples_seen(), 150u);
  EXPECT_EQ(serialize(*recovered), serialize(learner));
}

TEST_F(CheckpointManagerTest, KeepLastPrunesOldCheckpoints) {
  CheckpointManager manager(config(2));
  OnlineRegHD learner = trained_learner(10);
  const data::Dataset d = data::make_friedman1(512, 9);
  for (std::size_t i = 10; i < 50; i += 10) {
    manager.save(learner);
    for (std::size_t j = i; j < i + 10; ++j) {
      learner.update(d.row(j), d.target(j));
    }
  }
  manager.save(learner);
  EXPECT_EQ(manager.checkpoints().size(), 2u);
  const auto recovered = manager.recover();
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->samples_seen(), 50u);
}

TEST_F(CheckpointManagerTest, MaybeSaveHonorsCadence) {
  CheckpointConfig cfg = config();
  cfg.every = 50;
  CheckpointManager manager(cfg);
  const data::Dataset d = data::make_friedman1(512, 9);
  OnlineRegHD learner(small_config(), d.num_features());
  std::size_t saves = 0;
  for (std::size_t i = 0; i < 120; ++i) {
    learner.update(d.row(i), d.target(i));
    saves += manager.maybe_save(learner).has_value() ? 1 : 0;
  }
  EXPECT_EQ(saves, 2u);  // steps 50 and 100
  EXPECT_EQ(manager.checkpoints().size(), 2u);
}

TEST_F(CheckpointManagerTest, RecoverSkipsCorruptNewest) {
  CheckpointManager manager(config());
  OnlineRegHD learner = trained_learner(96);  // requantize boundary: snapshots fresh
  manager.save(learner);
  const std::string valid_bytes = serialize(learner);

  const data::Dataset d = data::make_friedman1(512, 9);
  for (std::size_t i = 96; i < 120; ++i) {
    learner.update(d.row(i), d.target(i));
  }
  // The newest checkpoint lands on storage silently damaged.
  manager.set_fault_plan({util::FaultMode::kBitFlipAt, 500, 4});
  manager.save(learner);

  const auto recovered = manager.recover();
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->samples_seen(), 96u);  // fell back past the damage
  EXPECT_EQ(serialize(*recovered), valid_bytes);
}

TEST_F(CheckpointManagerTest, RecoverEmptyAndAllCorrupt) {
  CheckpointManager manager(config());
  EXPECT_FALSE(manager.recover().has_value());

  OnlineRegHD learner = trained_learner(60);
  manager.set_fault_plan({util::FaultMode::kTruncateAt, 40, 1});
  manager.save(learner);
  EXPECT_FALSE(manager.recover().has_value());
}

TEST_F(CheckpointManagerTest, FailedSaveLeavesExistingCheckpointsIntact) {
  CheckpointManager manager(config());
  OnlineRegHD learner = trained_learner(60);
  manager.save(learner);
  const auto before = manager.checkpoints();

  manager.set_fault_plan({util::FaultMode::kFailAt, 64, 1});
  EXPECT_THROW(manager.save(learner), util::IoError);
  EXPECT_EQ(manager.checkpoints(), before);
  ASSERT_TRUE(manager.recover().has_value());

  // The armed plan was consumed by the failed save; the next one succeeds.
  EXPECT_NO_THROW(manager.save(learner));
}

TEST_F(CheckpointManagerTest, ForeignFilesAndTmpDebrisAreIgnored) {
  CheckpointManager manager(config());
  util::atomic_write_file(dir_ + "/notes.txt", "not a checkpoint");
  util::atomic_write_file(dir_ + "/ckpt-banana.reghd", "bad step");
  util::atomic_write_file(dir_ + "/ckpt-00000000000000000009.reghd.tmp", "debris");
  EXPECT_TRUE(manager.checkpoints().empty());
  EXPECT_FALSE(manager.recover().has_value());

  OnlineRegHD learner = trained_learner(30);
  manager.save(learner);
  EXPECT_EQ(manager.checkpoints().size(), 1u);
  // prune() cleared the crash debris during the save.
  EXPECT_FALSE(fs::exists(dir_ + "/ckpt-00000000000000000009.reghd.tmp"));
}

TEST_F(CheckpointManagerTest, ShardedMergedStreamRoundTripsAndRefinesBitIdentically) {
  // Cross-feature stress: shard-train a stream, merge, checkpoint the merged
  // learner through the v2 container, resume, then keep refining BOTH copies
  // with identical updates. The byte streams must stay identical at every
  // step — the checkpoint captured the complete merged state (accumulators,
  // snapshots, packed bank, Welford statistics, requantize accounting).
  OnlineConfig cfg = small_config();
  cfg.reghd.query_precision = QueryPrecision::kBinary;
  cfg.reghd.model_precision = ModelPrecision::kTernary;
  const data::Dataset d = data::make_friedman1(512, 9);

  ShardedTrainConfig scfg;
  scfg.shards = 4;
  OnlineRegHD merged = train_online_sharded(
      cfg, d.features_flat().subspan(0, 400 * d.num_features()),
      std::span<const double>(d.targets().data(), 400), d.num_features(), scfg);

  std::istringstream in(serialize(merged), std::ios::binary);
  OnlineRegHD resumed = load_online_checkpoint(in);
  EXPECT_EQ(serialize(resumed), serialize(merged));

  // Refine: both learners consume the tail of the stream.
  for (std::size_t i = 400; i < d.size(); ++i) {
    EXPECT_EQ(resumed.update(d.row(i), d.target(i)), merged.update(d.row(i), d.target(i)));
  }
  EXPECT_EQ(serialize(resumed), serialize(merged));
}

TEST_F(CheckpointManagerTest, ShardedMergedCheckpointWithoutPackedBankStillLoads) {
  // The merge finalizes with requantize(), so the saved bank is derivable
  // from the saved snapshots; a PBNK-stripped container (the pre-bank format)
  // must re-pack to the identical state.
  OnlineConfig cfg = small_config();
  cfg.reghd.query_precision = QueryPrecision::kBinary;
  cfg.reghd.model_precision = ModelPrecision::kTernary;
  const data::Dataset d = data::make_friedman1(400, 9);

  ShardedTrainConfig scfg;
  scfg.shards = 3;
  const OnlineRegHD merged = train_online_sharded(cfg, d.features_flat(), d.targets(),
                                                  d.num_features(), scfg);
  ASSERT_TRUE(merged.model().packed_bank().valid);

  const std::string bytes = serialize(merged);
  const util::ParsedFile file = util::parse_sections(bytes.substr(8));
  std::ostringstream stripped(std::ios::binary);
  util::write_scalar<std::uint32_t>(stripped, kModelMagic);
  util::write_scalar<std::uint32_t>(stripped, kModelVersionLatest);
  util::SectionWriter writer(stripped, file.kind);
  bool dropped = false;
  for (const util::Section& s : file.sections) {
    if (s.tag == util::fourcc("PBNK")) {
      dropped = true;
      continue;
    }
    writer.add(s.tag, s.payload);
  }
  writer.finish();
  ASSERT_TRUE(dropped) << "expected the merged checkpoint to carry a PBNK section";

  std::istringstream in(stripped.str(), std::ios::binary);
  const OnlineRegHD restored = load_online_checkpoint(in);
  ASSERT_TRUE(restored.model().packed_bank().valid);
  EXPECT_EQ(serialize(restored), bytes);
}

TEST_F(CheckpointManagerTest, ShardedPipelineModelRoundTripsThroughModelFile) {
  PipelineConfig pcfg;
  pcfg.reghd.dim = 128;
  pcfg.reghd.models = 2;
  pcfg.reghd.max_epochs = 3;
  pcfg.reghd.cluster_mode = ClusterMode::kQuantized;
  RegHDPipeline pipeline(pcfg);
  ShardedTrainConfig scfg;
  scfg.shards = 3;
  scfg.refine_epochs = 1;
  pipeline.fit_sharded(data::make_friedman1(160, 5), scfg);

  std::ostringstream out(std::ios::binary);
  save_pipeline(out, pipeline);
  std::istringstream in(out.str(), std::ios::binary);
  const RegHDPipeline loaded = load_pipeline(in);

  const data::Dataset queries = data::make_friedman1(16, 77);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(loaded.predict(queries.row(i)), pipeline.predict(queries.row(i)));
  }
}

TEST_F(CheckpointManagerTest, PipelineCheckpointsRoundTrip) {
  PipelineConfig pcfg;
  pcfg.reghd.dim = 128;
  pcfg.reghd.models = 2;
  pcfg.reghd.max_epochs = 3;
  pcfg.reghd.threads = 1;
  RegHDPipeline pipeline(pcfg);
  pipeline.fit(data::make_friedman1(120, 5));

  CheckpointManager manager(config());
  manager.save(pipeline, 3);
  const auto recovered = manager.recover_pipeline();
  ASSERT_TRUE(recovered.has_value());
  const data::Dataset queries = data::make_friedman1(16, 77);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(recovered->predict(queries.row(i)), pipeline.predict(queries.row(i)));
  }
  // Pipeline files don't satisfy online recovery and vice versa.
  EXPECT_FALSE(manager.recover().has_value());
}

}  // namespace
}  // namespace reghd::core
