// Property tests for sharded data-parallel training (core/sharded_training):
// the merge is order-invariant and associative bit for bit, S = 1 degenerates
// to a plain fit() bit-identically (batch and online), shards that read the
// one training arena by row id equal fits on copied-out subsets, thread count
// never changes results, and the merged model actually learned something.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/model_io.hpp"
#include "core/reghd.hpp"
#include "data/synthetic.hpp"
#include "util/serialize.hpp"

namespace reghd::core {
namespace {

// --------------------------------------------------------------------------
// fixtures
// --------------------------------------------------------------------------

/// The three precision regimes the merge must be exact in: full-precision
/// accumulators, the paper's quantized clustering with binary models, and the
/// packed ternary scan bank.
enum class Mode { kReal, kQuantizedBinary, kTernaryBank };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kReal:
      return "real";
    case Mode::kQuantizedBinary:
      return "quantized_binary";
    case Mode::kTernaryBank:
      return "ternary_bank";
  }
  return "?";
}

RegHDConfig make_config(Mode mode) {
  RegHDConfig cfg;
  cfg.dim = 256;
  cfg.models = 3;
  cfg.max_epochs = 6;
  cfg.patience = 3;
  cfg.seed = 99;
  switch (mode) {
    case Mode::kReal:
      break;
    case Mode::kQuantizedBinary:
      cfg.cluster_mode = ClusterMode::kQuantized;
      cfg.query_precision = QueryPrecision::kBinary;
      cfg.model_precision = ModelPrecision::kBinary;
      break;
    case Mode::kTernaryBank:
      cfg.cluster_mode = ClusterMode::kQuantized;
      cfg.query_precision = QueryPrecision::kBinary;
      cfg.model_precision = ModelPrecision::kTernary;
      break;
  }
  return cfg;
}

struct EncodedTask {
  EncodedDataset train;
  EncodedDataset val;
};

EncodedTask make_encoded_task(std::size_t dim) {
  hdc::EncoderConfig ecfg;
  ecfg.kind = hdc::EncoderKind::kRffProjection;
  ecfg.dim = dim;
  const data::Dataset d = data::make_friedman1(144, 11);
  ecfg.input_dim = d.num_features();
  const auto encoder = hdc::make_encoder(ecfg);
  const EncodedDataset all = EncodedDataset::from(*encoder, d);
  std::vector<std::size_t> train_rows(120);
  std::iota(train_rows.begin(), train_rows.end(), 0);
  std::vector<std::size_t> val_rows(24);
  std::iota(val_rows.begin(), val_rows.end(), 120);
  return EncodedTask{all.subset(train_rows), all.subset(val_rows)};
}

/// Serializes the COMPLETE learned state — accumulators, binary/ternary
/// snapshots, scales, cluster norms, and the packed scan bank — so an
/// EXPECT_EQ on two fingerprints is a bit-identity claim, not an
/// approximate one.
std::string fingerprint(const MultiModelRegressor& reg) {
  std::ostringstream out(std::ios::binary);
  io::write_model_section(out, reg);
  for (std::size_t i = 0; i < reg.num_models(); ++i) {
    const RegressionModel& m = reg.model(i);
    for (const std::uint64_t w : m.binary.words()) {
      util::write_scalar<std::uint64_t>(out, w);
    }
    util::write_scalar<double>(out, m.gamma);
    for (const std::uint64_t w : m.ternary_mask.words()) {
      util::write_scalar<std::uint64_t>(out, w);
    }
    util::write_scalar<double>(out, m.gamma_ternary);
    const ClusterCenter& c = reg.cluster(i);
    for (const std::uint64_t w : c.binary.words()) {
      util::write_scalar<std::uint64_t>(out, w);
    }
    util::write_scalar<double>(out, c.norm2);
  }
  const PackedTernaryBank& bank = reg.packed_bank();
  util::write_scalar<std::uint64_t>(out, bank.rows);
  util::write_scalar<std::uint64_t>(out, bank.words);
  for (const std::uint64_t w : bank.signs) {
    util::write_scalar<std::uint64_t>(out, w);
  }
  for (const std::uint64_t w : bank.masks) {
    util::write_scalar<std::uint64_t>(out, w);
  }
  for (const double s : bank.scale) {
    util::write_scalar<double>(out, s);
  }
  return out.str();
}

struct TrainedShards {
  std::vector<MultiModelRegressor> replicas;
  std::vector<MultiModelRegressor> bases;
};

/// Trains S independent replicas on subset() copies of ShardedTrainer's
/// shards — the reference replay its in-place row lists must match — and
/// hands the pieces back so tests can assemble merge sets in arbitrary
/// orders and groupings.
TrainedShards train_shards(const RegHDConfig& cfg, const EncodedDataset& train,
                           const EncodedDataset& val, std::size_t shards) {
  TrainedShards out;
  const auto parts = ShardedTrainer::partition(train.size(), shards);
  for (std::size_t s = 0; s < shards; ++s) {
    const EncodedDataset shard_data = train.subset(parts[s]);
    MultiModelRegressor replica(cfg);
    replica.fit(shard_data, val);
    MultiModelRegressor base(cfg);
    base.init_clusters(shard_data);
    out.replicas.push_back(std::move(replica));
    out.bases.push_back(std::move(base));
  }
  return out;
}

MultiModelRegressor apply_set(const RegHDConfig& cfg, const EncodedDataset& train,
                              const ShardMergeSet& set) {
  MultiModelRegressor merged(cfg);
  merged.init_clusters(train);
  set.apply_into(merged);
  return merged;
}

// --------------------------------------------------------------------------
// partition properties
// --------------------------------------------------------------------------

TEST(ShardPartitionTest, RoundRobinCoversEveryRowExactlyOnce) {
  const auto parts = ShardedTrainer::partition(17, 4);
  ASSERT_EQ(parts.size(), 4u);
  std::vector<int> hits(17, 0);
  for (std::size_t s = 0; s < parts.size(); ++s) {
    for (const std::size_t r : parts[s]) {
      ASSERT_LT(r, 17u);
      ++hits[r];
      EXPECT_EQ(r % 4, s);  // round-robin assignment
    }
  }
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(), [](int h) { return h == 1; }));
  // Balanced to within one row.
  for (const auto& p : parts) {
    EXPECT_GE(p.size(), 4u);
    EXPECT_LE(p.size(), 5u);
  }
}

TEST(ShardPartitionTest, RejectsMoreShardsThanRows) {
  EXPECT_THROW(ShardedTrainer::partition(3, 4), std::exception);
  EXPECT_THROW(ShardedTrainer::partition(3, 0), std::exception);
}

// --------------------------------------------------------------------------
// merge algebra: order invariance + associativity, per precision mode
// --------------------------------------------------------------------------

TEST(ShardMergeSetTest, MergeIsOrderInvariantAcrossAllPermutations) {
  const EncodedTask task = make_encoded_task(256);
  for (const Mode mode : {Mode::kReal, Mode::kQuantizedBinary, Mode::kTernaryBank}) {
    SCOPED_TRACE(mode_name(mode));
    const RegHDConfig cfg = make_config(mode);
    const TrainedShards shards = train_shards(cfg, task.train, task.val, 3);

    std::vector<std::size_t> perm = {0, 1, 2};
    std::string reference;
    do {
      ShardMergeSet set;
      for (const std::size_t s : perm) {
        set.add(s, shards.replicas[s], shards.bases[s]);
      }
      const std::string fp = fingerprint(apply_set(cfg, task.train, set));
      if (reference.empty()) {
        reference = fp;
      } else {
        EXPECT_EQ(fp, reference) << "insertion order " << perm[0] << perm[1] << perm[2]
                                 << " changed the merged bits";
      }
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_FALSE(reference.empty());
  }
}

TEST(ShardMergeSetTest, CombineIsAssociativeAndCommutative) {
  const EncodedTask task = make_encoded_task(256);
  for (const Mode mode : {Mode::kReal, Mode::kQuantizedBinary, Mode::kTernaryBank}) {
    SCOPED_TRACE(mode_name(mode));
    const RegHDConfig cfg = make_config(mode);
    const TrainedShards shards = train_shards(cfg, task.train, task.val, 3);

    ShardMergeSet a;
    a.add(0, shards.replicas[0], shards.bases[0]);
    ShardMergeSet b;
    b.add(1, shards.replicas[1], shards.bases[1]);
    ShardMergeSet c;
    c.add(2, shards.replicas[2], shards.bases[2]);

    const std::string left = fingerprint(apply_set(cfg, task.train, a.combine(b).combine(c)));
    const std::string right = fingerprint(apply_set(cfg, task.train, a.combine(b.combine(c))));
    const std::string swapped = fingerprint(apply_set(cfg, task.train, c.combine(b).combine(a)));
    EXPECT_EQ(left, right) << "(a+b)+c != a+(b+c)";
    EXPECT_EQ(left, swapped) << "(c+b)+a != (a+b)+c";
  }
}

TEST(ShardMergeSetTest, DuplicateShardIdsAreRejected) {
  const EncodedTask task = make_encoded_task(256);
  const RegHDConfig cfg = make_config(Mode::kReal);
  const TrainedShards shards = train_shards(cfg, task.train, task.val, 2);

  ShardMergeSet set;
  set.add(0, shards.replicas[0], shards.bases[0]);
  EXPECT_THROW(set.add(0, shards.replicas[1], shards.bases[1]), std::exception);

  ShardMergeSet other;
  other.add(0, shards.replicas[1], shards.bases[1]);
  EXPECT_THROW((void)set.combine(other), std::exception);

  ShardMergeSet empty;
  MultiModelRegressor merged(cfg);
  EXPECT_THROW(empty.apply_into(merged), std::exception);
}

// --------------------------------------------------------------------------
// degenerate case: one shard IS a plain fit
// --------------------------------------------------------------------------

TEST(ShardedTrainerTest, SingleShardMatchesPlainFitBitIdentically) {
  const EncodedTask task = make_encoded_task(256);
  for (const Mode mode : {Mode::kReal, Mode::kQuantizedBinary, Mode::kTernaryBank}) {
    SCOPED_TRACE(mode_name(mode));
    const RegHDConfig cfg = make_config(mode);

    MultiModelRegressor plain(cfg);
    const TrainingReport plain_report = plain.fit(task.train, task.val);

    ShardedTrainer trainer(cfg);
    ShardedTrainConfig scfg;
    scfg.shards = 1;
    const ShardedTrainReport report = trainer.fit(task.train, task.val, scfg);

    ASSERT_EQ(report.shards, 1u);
    ASSERT_EQ(report.shard_reports.size(), 1u);
    EXPECT_EQ(report.shard_reports[0].report.epochs_run, plain_report.epochs_run);
    EXPECT_EQ(fingerprint(trainer.regressor()), fingerprint(plain));
  }
}

TEST(ShardedTrainerTest, ShardCountIsClampedToRows) {
  const EncodedTask task = make_encoded_task(256);
  const RegHDConfig cfg = make_config(Mode::kReal);
  ShardedTrainer trainer(cfg);
  ShardedTrainConfig scfg;
  scfg.shards = 1000;  // far more shards than the 120 training rows
  const ShardedTrainReport report = trainer.fit(task.train, task.val, scfg);
  EXPECT_EQ(report.shards, task.train.size());
}

// --------------------------------------------------------------------------
// row views: shards read the one training arena in place, by row id
// --------------------------------------------------------------------------

/// Odd rows of [0, n) visited in stride-37 order: an unsorted,
/// non-contiguous row list (37 is coprime to the 120-row training set).
std::vector<std::size_t> scattered_rows(std::size_t n) {
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = (i * 37) % n;
    if (r % 2 == 1) {
      rows.push_back(r);
    }
  }
  return rows;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_report(const TrainingReport& a, const TrainingReport& b) {
  EXPECT_EQ(a.epochs_run, b.epochs_run);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.stop_reason, b.stop_reason);
  EXPECT_EQ(bits(a.best_val_mse), bits(b.best_val_mse));
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t e = 0; e < a.history.size(); ++e) {
    EXPECT_EQ(a.history[e].epoch, b.history[e].epoch);
    EXPECT_EQ(bits(a.history[e].train_mse), bits(b.history[e].train_mse)) << "epoch " << e;
    EXPECT_EQ(bits(a.history[e].val_mse), bits(b.history[e].val_mse)) << "epoch " << e;
  }
}

TEST(ShardedTrainerTest, RowViewShardsMatchSubsetCopyReplay) {
  const EncodedTask task = make_encoded_task(256);
  for (const std::size_t batch_size : {std::size_t{0}, std::size_t{16}}) {
    for (const Mode mode : {Mode::kReal, Mode::kQuantizedBinary, Mode::kTernaryBank}) {
      SCOPED_TRACE(std::string(mode_name(mode)) + " batch_size=" +
                   std::to_string(batch_size));
      RegHDConfig cfg = make_config(mode);
      cfg.batch_size = batch_size;

      // Reference: every shard copied out of the arena with subset().
      const TrainedShards shards = train_shards(cfg, task.train, task.val, 3);
      ShardMergeSet set;
      for (std::size_t s = 0; s < 3; ++s) {
        set.add(s, shards.replicas[s], shards.bases[s]);
      }
      const std::string reference = fingerprint(apply_set(cfg, task.train, set));

      ShardedTrainer trainer(cfg);
      ShardedTrainConfig scfg;
      scfg.shards = 3;
      trainer.fit(task.train, task.val, scfg);
      EXPECT_EQ(fingerprint(trainer.regressor()), reference);
    }
  }
}

TEST(ShardedTrainerTest, RowListFitMatchesSubsetFit) {
  const EncodedTask task = make_encoded_task(256);
  const std::vector<std::size_t> rows = scattered_rows(task.train.size());
  ASSERT_FALSE(std::is_sorted(rows.begin(), rows.end()));
  const EncodedDataset copy = task.train.subset(rows);
  for (const std::size_t batch_size : {std::size_t{0}, std::size_t{16}}) {
    for (const Mode mode : {Mode::kReal, Mode::kQuantizedBinary, Mode::kTernaryBank}) {
      SCOPED_TRACE(std::string(mode_name(mode)) + " batch_size=" +
                   std::to_string(batch_size));
      RegHDConfig cfg = make_config(mode);
      cfg.batch_size = batch_size;

      MultiModelRegressor from_copy(cfg);
      const TrainingReport copy_report = from_copy.fit(copy, task.val);
      MultiModelRegressor from_rows(cfg);
      const TrainingReport rows_report = from_rows.fit(task.train, rows, task.val);
      EXPECT_EQ(fingerprint(from_rows), fingerprint(from_copy));
      // train_mse averages over the listed rows, not over the whole arena.
      expect_same_report(rows_report, copy_report);

      MultiModelRegressor seeded_copy(cfg);
      seeded_copy.init_clusters(copy);
      MultiModelRegressor seeded_rows(cfg);
      seeded_rows.init_clusters(task.train, rows);
      EXPECT_EQ(fingerprint(seeded_rows), fingerprint(seeded_copy));
    }
  }
}

TEST(ShardedTrainerTest, RowListFitRejectsEmptyAndOutOfRangeRows) {
  const EncodedTask task = make_encoded_task(256);
  MultiModelRegressor reg(make_config(Mode::kReal));
  const std::vector<std::size_t> none;
  EXPECT_THROW((void)reg.fit(task.train, none, task.val), std::invalid_argument);
  const std::vector<std::size_t> past_end = {0, task.train.size()};
  EXPECT_THROW((void)reg.fit(task.train, past_end, task.val), std::invalid_argument);
  EXPECT_THROW(reg.init_clusters(task.train, past_end), std::invalid_argument);
}

// --------------------------------------------------------------------------
// thread-count invariance of the full shard-train → merge → refine path
// --------------------------------------------------------------------------

TEST(ShardedTrainerTest, ResultsAreIndependentOfThreadCount) {
  // Two thread counts: ShardedTrainConfig::threads sizes the shard fan-out,
  // RegHDConfig::threads the training team of the refine's per-sample epoch
  // (DESIGN §11.7). 2k·D = 65536 is large enough for the real mode's refine
  // to run as a team; the ternary mode's binary query never takes the fused
  // loop, so there only the fan-out varies.
  const EncodedTask task = make_encoded_task(4096);
  for (const Mode mode : {Mode::kReal, Mode::kTernaryBank}) {
    SCOPED_TRACE(mode_name(mode));
    RegHDConfig cfg = make_config(mode);
    cfg.dim = 4096;
    cfg.models = 8;
    std::string reference;
    for (const std::size_t shard_threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      for (const std::size_t team_threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        cfg.threads = team_threads;
        ShardedTrainer trainer(cfg);
        ShardedTrainConfig scfg;
        scfg.shards = 4;
        scfg.refine_epochs = 2;
        scfg.threads = shard_threads;
        trainer.fit(task.train, task.val, scfg);
        const std::string fp = fingerprint(trainer.regressor());
        if (reference.empty()) {
          reference = fp;
        } else {
          EXPECT_EQ(fp, reference) << "shard threads " << shard_threads << ", team threads "
                                   << team_threads << " changed the bits";
        }
      }
    }
  }
}

// --------------------------------------------------------------------------
// refine: keep-best never ships worse than the merge; history is recorded
// --------------------------------------------------------------------------

TEST(ShardedTrainerTest, RefineKeepsBestAndNeverShipsWorseThanMerge) {
  const EncodedTask task = make_encoded_task(256);
  const RegHDConfig cfg = make_config(Mode::kReal);
  ShardedTrainer trainer(cfg);
  ShardedTrainConfig scfg;
  scfg.shards = 4;
  scfg.refine_epochs = 3;
  const ShardedTrainReport report = trainer.fit(task.train, task.val, scfg);

  EXPECT_EQ(report.refine_history.size(), 3u);
  EXPECT_LE(report.final_val_mse, report.merged_val_mse);
  EXPECT_DOUBLE_EQ(trainer.regressor().evaluate_mse(task.val), report.final_val_mse);
}

TEST(ShardedTrainerTest, MergedModelBeatsMeanPredictor) {
  const EncodedTask task = make_encoded_task(256);
  const RegHDConfig cfg = make_config(Mode::kReal);
  ShardedTrainer trainer(cfg);
  ShardedTrainConfig scfg;
  scfg.shards = 4;
  scfg.refine_epochs = 2;
  const ShardedTrainReport report = trainer.fit(task.train, task.val, scfg);

  double mean = 0.0;
  for (std::size_t i = 0; i < task.val.size(); ++i) {
    mean += task.val.target(i);
  }
  mean /= static_cast<double>(task.val.size());
  double mean_mse = 0.0;
  for (std::size_t i = 0; i < task.val.size(); ++i) {
    const double e = task.val.target(i) - mean;
    mean_mse += e * e;
  }
  mean_mse /= static_cast<double>(task.val.size());
  EXPECT_LT(report.final_val_mse, mean_mse)
      << "merged+refined model no better than predicting the mean";
}

// --------------------------------------------------------------------------
// online stream sharding
// --------------------------------------------------------------------------

OnlineConfig online_config() {
  OnlineConfig cfg;
  cfg.reghd.dim = 128;
  cfg.reghd.models = 2;
  cfg.reghd.cluster_mode = ClusterMode::kQuantized;
  cfg.reghd.query_precision = QueryPrecision::kBinary;
  cfg.reghd.model_precision = ModelPrecision::kTernary;
  cfg.requantize_every = 48;
  return cfg;
}

std::string serialize(const OnlineRegHD& learner) {
  std::ostringstream out(std::ios::binary);
  save_online_checkpoint(out, learner);
  return out.str();
}

TEST(OnlineShardMergeTest, SingleReplicaIsAdoptedVerbatim) {
  // 173 updates is NOT a requantize boundary (173 % 48 != 0): snapshots are
  // stale relative to the accumulators, exactly the state a re-derivation
  // would corrupt. Verbatim adoption must preserve it bit for bit.
  const data::Dataset d = data::make_friedman1(256, 9);
  OnlineRegHD learner(online_config(), d.num_features());
  for (std::size_t i = 0; i < 173; ++i) {
    learner.update(d.row(i), d.target(i));
  }
  const OnlineShardReplica replica{0, &learner};
  const OnlineRegHD merged =
      OnlineRegHD::merge_replicas(std::span<const OnlineShardReplica>(&replica, 1));
  EXPECT_EQ(serialize(merged), serialize(learner));
}

TEST(OnlineShardMergeTest, MergeIsOrderInvariant) {
  const data::Dataset d = data::make_friedman1(240, 9);
  const auto parts = ShardedTrainer::partition(d.size(), 3);
  std::vector<OnlineRegHD> replicas;
  for (std::size_t s = 0; s < 3; ++s) {
    OnlineRegHD learner(online_config(), d.num_features());
    for (const std::size_t r : parts[s]) {
      learner.update(d.row(r), d.target(r));
    }
    replicas.push_back(std::move(learner));
  }

  std::vector<std::size_t> perm = {0, 1, 2};
  std::string reference;
  do {
    std::vector<OnlineShardReplica> span_order;
    for (const std::size_t s : perm) {
      span_order.push_back(OnlineShardReplica{s, &replicas[s]});
    }
    const OnlineRegHD merged = OnlineRegHD::merge_replicas(span_order);
    const std::string bytes = serialize(merged);
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "span order " << perm[0] << perm[1] << perm[2]
                                  << " changed the merged stream";
    }
  } while (std::next_permutation(perm.begin(), perm.end()));

  // Accounting: the merge saw every reading and requantized.
  std::vector<OnlineShardReplica> refs;
  for (std::size_t s = 0; s < 3; ++s) {
    refs.push_back(OnlineShardReplica{s, &replicas[s]});
  }
  const OnlineRegHD merged = OnlineRegHD::merge_replicas(refs);
  EXPECT_EQ(merged.samples_seen(), d.size());
  std::size_t since_sum = 0;
  for (const OnlineRegHD& r : replicas) {
    since_sum += r.since_requantize();
  }
  EXPECT_EQ(merged.since_requantize(), since_sum % online_config().requantize_every);
}

TEST(OnlineShardMergeTest, DuplicateShardIdsAreRejected) {
  const data::Dataset d = data::make_friedman1(64, 9);
  OnlineRegHD learner(online_config(), d.num_features());
  for (std::size_t i = 0; i < d.size(); ++i) {
    learner.update(d.row(i), d.target(i));
  }
  const std::vector<OnlineShardReplica> dup = {{0, &learner}, {0, &learner}};
  EXPECT_THROW((void)OnlineRegHD::merge_replicas(dup), std::exception);
  EXPECT_THROW((void)OnlineRegHD::merge_replicas(std::span<const OnlineShardReplica>{}),
               std::exception);
}

TEST(OnlineShardMergeTest, TrainOnlineShardedSingleShardMatchesSequentialStream) {
  const data::Dataset d = data::make_friedman1(200, 9);
  OnlineRegHD sequential(online_config(), d.num_features());
  for (std::size_t i = 0; i < d.size(); ++i) {
    sequential.update(d.row(i), d.target(i));
  }

  ShardedTrainConfig scfg;
  scfg.shards = 1;
  const OnlineRegHD merged = train_online_sharded(
      online_config(), d.features_flat(), d.targets(), d.num_features(), scfg);
  EXPECT_EQ(serialize(merged), serialize(sequential));
}

TEST(OnlineShardMergeTest, TrainOnlineShardedIsThreadCountInvariant) {
  const data::Dataset d = data::make_friedman1(200, 9);
  std::string reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ShardedTrainConfig scfg;
    scfg.shards = 4;
    scfg.threads = threads;
    const OnlineRegHD merged = train_online_sharded(
        online_config(), d.features_flat(), d.targets(), d.num_features(), scfg);
    const std::string bytes = serialize(merged);
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "threads=" << threads << " changed the stream";
    }
  }
}

// --------------------------------------------------------------------------
// pipeline front end
// --------------------------------------------------------------------------

TEST(PipelineShardedFitTest, SingleShardMatchesPlainFit) {
  PipelineConfig pcfg;
  pcfg.reghd.dim = 128;
  pcfg.reghd.models = 2;
  pcfg.reghd.max_epochs = 4;
  const data::Dataset train = data::make_friedman1(150, 5);
  const data::Dataset queries = data::make_friedman1(20, 77);

  RegHDPipeline plain(pcfg);
  plain.fit(train);

  RegHDPipeline sharded(pcfg);
  ShardedTrainConfig scfg;
  scfg.shards = 1;
  sharded.fit_sharded(train, scfg);

  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(sharded.predict(queries.row(i)), plain.predict(queries.row(i)));
  }
  EXPECT_EQ(sharded.report().epochs_run, plain.report().epochs_run);
  EXPECT_EQ(sharded.sharded_report().shards, 1u);
  EXPECT_THROW((void)plain.sharded_report(), std::exception);
}

TEST(PipelineShardedFitTest, ShardedFitProducesUsableModel) {
  PipelineConfig pcfg;
  pcfg.reghd.dim = 256;
  pcfg.reghd.models = 3;
  pcfg.reghd.max_epochs = 6;
  const data::Dataset train = data::make_friedman1(200, 5);

  RegHDPipeline pipeline(pcfg);
  ShardedTrainConfig scfg;
  scfg.shards = 4;
  scfg.refine_epochs = 2;
  const ShardedTrainReport report = pipeline.fit_sharded(train, scfg);

  ASSERT_EQ(report.shards, 4u);
  ASSERT_EQ(report.shard_reports.size(), 4u);
  std::size_t total_rows = 0;
  for (const ShardReport& sr : report.shard_reports) {
    total_rows += sr.rows;
  }
  // The internal validation split holds out 15%; every remaining row landed
  // in exactly one shard.
  EXPECT_EQ(total_rows, static_cast<std::size_t>(200 - 200 * 0.15));
  EXPECT_TRUE(pipeline.fitted());
  EXPECT_EQ(pipeline.report().stop_reason, "sharded merge");
}

}  // namespace
}  // namespace reghd::core
