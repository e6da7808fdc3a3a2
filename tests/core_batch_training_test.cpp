// Deterministic mini-batch training contract:
//
//  * batch_size = 1 must reproduce the sequential online fit() bit for bit —
//    every epoch record, every accumulator component, every snapshot — for
//    both regressors and for quantized configurations with mid-epoch
//    requantization, because a one-sample batch freezes nothing.
//  * For a fixed batch size, results must be identical for any thread count
//    (batch-frozen phase 1 is embarrassingly parallel; the Eq. 7/8 apply
//    phase is ordered per accumulator chain).
//  * OnlineRegHD::update_batch with one-reading blocks must equal update(),
//    and a mid-stream checkpoint taken between blocks must resume
//    bit-identically.
//  * The quantized predict_batch bank scan (dot_rows_ternary) must equal
//    per-row predict(), including at a dim that is not a multiple of 64.
//
// The suite runs on whatever kernel backend is live; CI runs it twice
// (default dispatch and REGHD_KERNEL=scalar).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <tuple>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/encoded.hpp"
#include "core/multi_model.hpp"
#include "core/online.hpp"
#include "core/single_model.hpp"
#include "data/dataset.hpp"
#include "hdc/encoding.hpp"
#include "util/random.hpp"

namespace reghd::core {
namespace {

data::Dataset make_dataset(std::size_t rows, std::size_t features, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> flat(rows * features);
  std::vector<double> targets(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    double sum = 0.0;
    for (std::size_t f = 0; f < features; ++f) {
      const double x = rng.normal(0.0, 1.0);
      flat[i * features + f] = x;
      sum += x * (f % 2 == 0 ? 0.7 : -0.4);
    }
    targets[i] = std::tanh(sum);
  }
  return {"batch-training", features, std::move(flat), std::move(targets)};
}

EncodedDataset encode(const data::Dataset& dataset, std::size_t dim) {
  hdc::EncoderConfig cfg;
  cfg.input_dim = dataset.num_features();
  cfg.dim = dim;
  const auto encoder = hdc::make_encoder(cfg);
  return EncodedDataset::from(*encoder, dataset, 1);
}

template <typename SpanA, typename SpanB>
void expect_spans_eq(SpanA a, SpanB b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t j = 0; j < a.size(); ++j) {
    ASSERT_EQ(a[j], b[j]) << what << " component " << j;
  }
}

void expect_same_state(const MultiModelRegressor& a, const MultiModelRegressor& b) {
  ASSERT_EQ(a.num_models(), b.num_models());
  for (std::size_t i = 0; i < a.num_models(); ++i) {
    const RegressionModel& ma = a.model(i);
    const RegressionModel& mb = b.model(i);
    const std::string tag = "model " + std::to_string(i);
    expect_spans_eq(a.model_accumulator(i), b.model_accumulator(i), tag + " accumulator");
    expect_spans_eq(ma.binary.words(), mb.binary.words(), tag + " binary");
    expect_spans_eq(ma.ternary_mask.words(), mb.ternary_mask.words(), tag + " ternary mask");
    EXPECT_EQ(ma.gamma, mb.gamma) << tag;
    EXPECT_EQ(ma.gamma_ternary, mb.gamma_ternary) << tag;

    const ClusterCenter& ca = a.cluster(i);
    const ClusterCenter& cb = b.cluster(i);
    const std::string ctag = "cluster " + std::to_string(i);
    expect_spans_eq(a.cluster_accumulator(i), b.cluster_accumulator(i), ctag + " accumulator");
    expect_spans_eq(ca.binary.words(), cb.binary.words(), ctag + " binary");
    EXPECT_EQ(ca.norm2, cb.norm2) << ctag;
  }
}

void expect_same_report(const TrainingReport& a, const TrainingReport& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t e = 0; e < a.history.size(); ++e) {
    EXPECT_EQ(a.history[e].train_mse, b.history[e].train_mse) << "epoch " << e;
    EXPECT_EQ(a.history[e].val_mse, b.history[e].val_mse) << "epoch " << e;
  }
  EXPECT_EQ(a.epochs_run, b.epochs_run);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.best_val_mse, b.best_val_mse);
}

// Configurations that exercise every train_batch branch: the full-precision
// bank fast path, the generic quantized/binary phase 1 (with mid-epoch
// requantization and error clipping), and the winner-only apply chains.
std::vector<RegHDConfig> batch_configs() {
  RegHDConfig full;
  full.dim = 256;
  full.models = 4;
  full.max_epochs = 5;

  RegHDConfig quant = full;
  quant.cluster_mode = ClusterMode::kQuantized;
  quant.query_precision = QueryPrecision::kBinary;
  quant.model_precision = ModelPrecision::kBinary;
  quant.requantize_interval = 7;
  quant.error_clip = 0.5;

  RegHDConfig winner = full;
  winner.update_rule = UpdateRule::kWinnerOnly;

  RegHDConfig naive = full;
  naive.cluster_mode = ClusterMode::kNaiveBinary;
  naive.query_precision = QueryPrecision::kBinary;

  // Binary queries whose model updates read the packed sign plane in
  // word-aligned dimension slices: a ragged final word (1000 = 15·64 + 40)
  // and fewer than one 64-component slice per thread (100 < 64·T).
  RegHDConfig ragged = full;
  ragged.dim = 1000;
  ragged.query_precision = QueryPrecision::kBinary;
  RegHDConfig narrow = ragged;
  narrow.dim = 100;

  return {full, quant, winner, naive, ragged, narrow};
}

// ---------------------------------------------------------------------------
// batch_size = 1 vs the sequential online trainer.
// ---------------------------------------------------------------------------

TEST(BatchTrainingTest, MultiModelBatchSizeOneBitIdenticalToSequentialFit) {
  const data::Dataset train_ds = make_dataset(50, 6, 0xB47C1);
  const data::Dataset val_ds = make_dataset(16, 6, 0xB47C2);

  for (const RegHDConfig& base : batch_configs()) {
    const EncodedDataset train = encode(train_ds, base.dim);
    const EncodedDataset val = encode(val_ds, base.dim);

    MultiModelRegressor sequential(base);
    const TrainingReport seq_report = sequential.fit(train, val);

    RegHDConfig batched_cfg = base;
    batched_cfg.batch_size = 1;
    batched_cfg.threads = 3;  // thread count must not matter
    MultiModelRegressor batched(batched_cfg);
    const TrainingReport batch_report = batched.fit(train, val);

    expect_same_report(seq_report, batch_report);
    expect_same_state(sequential, batched);
    for (std::size_t i = 0; i < val.size(); ++i) {
      EXPECT_EQ(sequential.predict(val.sample(i)), batched.predict(val.sample(i)));
    }
  }
}

TEST(BatchTrainingTest, SingleModelBatchSizeOneBitIdenticalToSequentialFit) {
  const data::Dataset train_ds = make_dataset(50, 6, 0x517B1);
  const data::Dataset val_ds = make_dataset(16, 6, 0x517B2);

  RegHDConfig base;
  base.dim = 256;
  base.max_epochs = 5;
  for (const bool binary : {false, true}) {
    RegHDConfig cfg = base;
    if (binary) {
      cfg.query_precision = QueryPrecision::kBinary;
      cfg.model_precision = ModelPrecision::kBinary;
      cfg.error_clip = 0.5;
    }
    const EncodedDataset train = encode(train_ds, cfg.dim);
    const EncodedDataset val = encode(val_ds, cfg.dim);

    SingleModelRegressor sequential(cfg);
    const TrainingReport seq_report = sequential.fit(train, val);

    RegHDConfig batched_cfg = cfg;
    batched_cfg.batch_size = 1;
    batched_cfg.threads = 3;
    SingleModelRegressor batched(batched_cfg);
    const TrainingReport batch_report = batched.fit(train, val);

    expect_same_report(seq_report, batch_report);
    expect_spans_eq(sequential.accumulator(), batched.accumulator(), "accumulator");
    expect_spans_eq(sequential.model().binary.words(), batched.model().binary.words(),
                    "binary snapshot");
    EXPECT_EQ(sequential.model().gamma, batched.model().gamma);
  }
}

// ---------------------------------------------------------------------------
// Thread invariance at a fixed batch size (ragged final batch included).
// ---------------------------------------------------------------------------

TEST(BatchTrainingTest, MultiModelFixedBatchIsThreadInvariant) {
  // 50 samples at B = 16 → batches of 16, 16, 16, 2: the ragged tail is part
  // of the contract.
  const data::Dataset train_ds = make_dataset(50, 6, 0x7F2E1);
  const data::Dataset val_ds = make_dataset(16, 6, 0x7F2E2);

  for (const RegHDConfig& base : batch_configs()) {
    const EncodedDataset train = encode(train_ds, base.dim);
    const EncodedDataset val = encode(val_ds, base.dim);

    RegHDConfig ref_cfg = base;
    ref_cfg.batch_size = 16;
    ref_cfg.threads = 1;
    MultiModelRegressor reference(ref_cfg);
    const TrainingReport ref_report = reference.fit(train, val);

    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      RegHDConfig cfg = base;
      cfg.batch_size = 16;
      cfg.threads = threads;
      MultiModelRegressor candidate(cfg);
      const TrainingReport report = candidate.fit(train, val);
      expect_same_report(ref_report, report);
      expect_same_state(reference, candidate);
    }
  }
}

TEST(BatchTrainingTest, SingleModelFixedBatchIsThreadInvariant) {
  const data::Dataset train_ds = make_dataset(50, 6, 0x9A3F1);
  const data::Dataset val_ds = make_dataset(16, 6, 0x9A3F2);
  RegHDConfig base;
  base.dim = 256;
  base.max_epochs = 4;
  base.batch_size = 16;
  const EncodedDataset train = encode(train_ds, base.dim);
  const EncodedDataset val = encode(val_ds, base.dim);

  RegHDConfig ref_cfg = base;
  ref_cfg.threads = 1;
  SingleModelRegressor reference(ref_cfg);
  const TrainingReport ref_report = reference.fit(train, val);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    RegHDConfig cfg = base;
    cfg.threads = threads;
    SingleModelRegressor candidate(cfg);
    const TrainingReport report = candidate.fit(train, val);
    expect_same_report(ref_report, report);
    expect_spans_eq(reference.accumulator(), candidate.accumulator(), "accumulator");
  }
}

// ---------------------------------------------------------------------------
// The on_batch hook.
// ---------------------------------------------------------------------------

TEST(BatchTrainingTest, OnBatchHookFiresPerAppliedBatch) {
  const data::Dataset train_ds = make_dataset(50, 6, 0x51DE1);
  const data::Dataset val_ds = make_dataset(16, 6, 0x51DE2);
  RegHDConfig cfg;
  cfg.dim = 256;
  cfg.models = 2;
  cfg.max_epochs = 2;
  cfg.batch_size = 20;
  const EncodedDataset train = encode(train_ds, cfg.dim);
  const EncodedDataset val = encode(val_ds, cfg.dim);

  std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> calls;
  TrainingHooks hooks;
  hooks.on_batch = [&](std::size_t epoch, std::size_t batch, std::size_t samples_done) {
    calls.emplace_back(epoch, batch, samples_done);
  };
  MultiModelRegressor model(cfg);
  const TrainingReport report = model.fit(train, val, &hooks);

  // 50 samples at B = 20 → batches finishing 20, 40, 50 samples per epoch.
  ASSERT_EQ(calls.size(), 3 * report.epochs_run);
  for (std::size_t e = 0; e < report.epochs_run; ++e) {
    EXPECT_EQ(calls[3 * e], std::make_tuple(e, std::size_t{0}, std::size_t{20}));
    EXPECT_EQ(calls[3 * e + 1], std::make_tuple(e, std::size_t{1}, std::size_t{40}));
    EXPECT_EQ(calls[3 * e + 2], std::make_tuple(e, std::size_t{2}, std::size_t{50}));
  }

  // The sequential mode never fires it.
  calls.clear();
  RegHDConfig seq_cfg = cfg;
  seq_cfg.batch_size = 0;
  MultiModelRegressor sequential(seq_cfg);
  sequential.fit(train, val, &hooks);
  EXPECT_TRUE(calls.empty());
}

// ---------------------------------------------------------------------------
// train_batch's explicit threads parameter.
// ---------------------------------------------------------------------------

TEST(BatchTrainingTest, TrainBatchThreadsParameterDoesNotChangeResults) {
  const data::Dataset train_ds = make_dataset(40, 6, 0x7EAD5);
  for (const RegHDConfig& base : batch_configs()) {
    const EncodedDataset train = encode(train_ds, base.dim);
    std::vector<std::size_t> order(train.size());
    std::iota(order.begin(), order.end(), 0);
    // Reversed order: the apply phase must follow the list order, not the
    // dataset row order.
    std::reverse(order.begin(), order.end());

    MultiModelRegressor reference(base);
    std::vector<double> ref_preds(order.size());
    reference.train_batch(train, order, ref_preds, 1);

    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      MultiModelRegressor candidate(base);
      std::vector<double> preds(order.size());
      candidate.train_batch(train, order, preds, threads);
      expect_spans_eq(std::span<const double>(ref_preds), std::span<const double>(preds),
                      "batch predictions");
      expect_same_state(reference, candidate);
    }
  }
}

// ---------------------------------------------------------------------------
// OnlineRegHD::update_batch.
// ---------------------------------------------------------------------------

OnlineConfig online_config() {
  OnlineConfig cfg;
  cfg.reghd.dim = 256;
  cfg.reghd.models = 4;
  cfg.reghd.cluster_mode = ClusterMode::kQuantized;
  cfg.reghd.query_precision = QueryPrecision::kBinary;
  cfg.requantize_every = 9;
  cfg.decay = 0.995;
  cfg.warmup = 5;
  return cfg;
}

TEST(BatchTrainingTest, UpdateBatchSingleReadingBlocksBitIdenticalToUpdate) {
  const std::size_t features = 5;
  const data::Dataset stream = make_dataset(40, features, 0x0B5E7);

  OnlineRegHD sequential(online_config(), features);
  OnlineRegHD blocked(online_config(), features);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const double expected = sequential.update(stream.row(i), stream.target(i));
    const std::vector<double> got =
        blocked.update_batch(stream.row(i), std::span<const double>(&stream.targets()[i], 1));
    ASSERT_EQ(got.size(), 1U);
    EXPECT_EQ(got[0], expected) << "reading " << i;
  }
  EXPECT_EQ(sequential.samples_seen(), blocked.samples_seen());
  EXPECT_EQ(sequential.since_requantize(), blocked.since_requantize());
  expect_same_state(sequential.model(), blocked.model());
}

TEST(BatchTrainingTest, UpdateBatchIsThreadInvariantAndCheckpointResumable) {
  const std::size_t features = 5;
  const std::size_t block = 8;
  const data::Dataset stream = make_dataset(64, features, 0xC4EC2);

  const auto run_blocks = [&](OnlineRegHD& learner, std::size_t from, std::size_t to) {
    std::vector<double> preds;
    for (std::size_t b0 = from; b0 < to; b0 += block) {
      const std::size_t bn = std::min(to, b0 + block);
      const std::vector<double> p = learner.update_batch(
          std::span<const double>(stream.row(b0).data(), (bn - b0) * features),
          stream.targets().subspan(b0, bn - b0));
      preds.insert(preds.end(), p.begin(), p.end());
    }
    return preds;
  };

  OnlineConfig cfg1 = online_config();
  cfg1.reghd.threads = 1;
  OnlineConfig cfg8 = online_config();
  cfg8.reghd.threads = 8;

  OnlineRegHD learner1(cfg1, features);
  OnlineRegHD learner8(cfg8, features);
  const std::vector<double> preds1 = run_blocks(learner1, 0, stream.size());
  const std::vector<double> preds8 = run_blocks(learner8, 0, stream.size());
  expect_spans_eq(std::span<const double>(preds1), std::span<const double>(preds8),
                  "blocked predictions across thread counts");
  expect_same_state(learner1.model(), learner8.model());

  // Mid-stream checkpoint between blocks: the resumed learner must finish
  // the stream bit-identically to the uninterrupted one.
  OnlineRegHD original(online_config(), features);
  run_blocks(original, 0, 32);
  std::stringstream bytes(std::ios::in | std::ios::out | std::ios::binary);
  save_online_checkpoint(bytes, original);
  OnlineRegHD resumed = load_online_checkpoint(bytes);
  EXPECT_EQ(resumed.samples_seen(), original.samples_seen());

  const std::vector<double> tail_original = run_blocks(original, 32, stream.size());
  const std::vector<double> tail_resumed = run_blocks(resumed, 32, stream.size());
  expect_spans_eq(std::span<const double>(tail_original),
                  std::span<const double>(tail_resumed), "post-checkpoint predictions");
  expect_same_state(original.model(), resumed.model());
  EXPECT_EQ(original.since_requantize(), resumed.since_requantize());
}

// ---------------------------------------------------------------------------
// Quantized predict_batch bank scan at a padded (non-multiple-of-64) dim.
// ---------------------------------------------------------------------------

TEST(BatchTrainingTest, QuantizedPredictBatchMatchesPerRowAtPaddedDim) {
  const data::Dataset dataset = make_dataset(48, 6, 0xAD001);
  for (const std::size_t dim : {std::size_t{200}, std::size_t{256}}) {
    RegHDConfig cfg;
    cfg.dim = dim;
    cfg.models = 4;
    cfg.cluster_mode = ClusterMode::kQuantized;
    cfg.query_precision = QueryPrecision::kBinary;
    cfg.model_precision = ModelPrecision::kBinary;
    const EncodedDataset enc = encode(dataset, dim);

    MultiModelRegressor multi(cfg);
    RegHDConfig scfg = cfg;
    SingleModelRegressor single(scfg);
    for (std::size_t i = 0; i < enc.size(); ++i) {
      multi.train_step(enc.sample(i), enc.target(i));
      single.train_step(enc.sample(i), enc.target(i));
    }
    multi.requantize();
    single.requantize();

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const std::vector<double> mb = multi.predict_batch(enc, threads);
      const std::vector<double> sb = single.predict_batch(enc, threads);
      for (std::size_t i = 0; i < enc.size(); ++i) {
        EXPECT_EQ(mb[i], multi.predict(enc.sample(i))) << "multi row " << i;
        EXPECT_EQ(sb[i], single.predict(enc.sample(i))) << "single row " << i;
      }
    }
  }
}

}  // namespace
}  // namespace reghd::core
