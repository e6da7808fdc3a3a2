// Tests for model sparsification, accumulator decay, and batch-level
// requantization — the extension features around the core trainer.
#include <gtest/gtest.h>

#include <memory>

#include "core/multi_model.hpp"
#include "data/scaler.hpp"
#include "data/synthetic.hpp"
#include "hdc/encoding.hpp"
#include "util/random.hpp"

namespace reghd::core {
namespace {

struct Trained {
  EncodedDataset train;
  EncodedDataset val;
  EncodedDataset test;
  std::unique_ptr<hdc::Encoder> encoder;
  std::unique_ptr<MultiModelRegressor> model;
};

Trained train_on_friedman(RegHDConfig cfg, std::uint64_t seed = 7) {
  data::Dataset dataset = data::make_friedman1(1200, seed);
  data::StandardScaler fs;
  fs.fit(dataset);
  fs.transform(dataset);
  data::TargetScaler ts;
  ts.fit(dataset);
  ts.transform(dataset);

  util::Rng rng(seed);
  const data::TrainTestSplit outer = data::train_test_split(dataset, 0.25, rng);
  const data::TrainTestSplit inner = data::train_test_split(outer.train, 0.2, rng);

  hdc::EncoderConfig enc;
  enc.input_dim = dataset.num_features();
  enc.dim = cfg.dim;
  enc.seed = seed;

  Trained t;
  t.encoder = hdc::make_encoder(enc);
  t.train = EncodedDataset::from(*t.encoder, inner.train);
  t.val = EncodedDataset::from(*t.encoder, inner.test);
  t.test = EncodedDataset::from(*t.encoder, outer.test);
  t.model = std::make_unique<MultiModelRegressor>(cfg);
  t.model->fit(t.train, t.val);
  return t;
}

RegHDConfig base_config() {
  RegHDConfig cfg;
  cfg.dim = 1024;
  cfg.models = 4;
  cfg.seed = 11;
  cfg.max_epochs = 30;
  return cfg;
}

TEST(SparsifyTest, AchievesRequestedSparsity) {
  Trained t = train_on_friedman(base_config());
  EXPECT_LT(t.model->model_sparsity(), 0.01);  // dense after training
  t.model->sparsify(0.5);
  EXPECT_NEAR(t.model->model_sparsity(), 0.5, 0.02);
  t.model->sparsify(0.9);
  EXPECT_NEAR(t.model->model_sparsity(), 0.9, 0.02);
}

TEST(SparsifyTest, ModerateSparsityBarelyHurtsQuality) {
  // The SparseHD observation: half the components carry almost all the
  // model. 50% pruning must cost well under 50% quality.
  Trained t = train_on_friedman(base_config());
  const double dense_mse = t.model->evaluate_mse(t.test);
  t.model->sparsify(0.5);
  const double sparse_mse = t.model->evaluate_mse(t.test);
  EXPECT_LT(sparse_mse, dense_mse * 1.35);
  EXPECT_LT(sparse_mse, 0.6);  // still far better than the mean predictor
}

TEST(SparsifyTest, ExtremeSparsityDegradesMonotonically) {
  Trained t = train_on_friedman(base_config());
  const double dense = t.model->evaluate_mse(t.test);
  t.model->sparsify(0.5);
  const double half = t.model->evaluate_mse(t.test);
  t.model->sparsify(0.97);
  const double extreme = t.model->evaluate_mse(t.test);
  EXPECT_LE(dense, half * 1.05);
  EXPECT_GT(extreme, half);
}

TEST(SparsifyTest, ZeroFractionIsNoOpAndBoundsChecked) {
  Trained t = train_on_friedman(base_config());
  const double before = t.model->evaluate_mse(t.test);
  t.model->sparsify(0.0);
  EXPECT_DOUBLE_EQ(t.model->evaluate_mse(t.test), before);
  EXPECT_THROW(t.model->sparsify(1.0), std::invalid_argument);
  EXPECT_THROW(t.model->sparsify(-0.1), std::invalid_argument);
}

TEST(SparsifyTest, RefreshesBinarySnapshots) {
  Trained t = train_on_friedman(base_config());
  t.model->sparsify(0.6);
  // γ must equal mean |M_j| of the *sparsified* accumulator.
  for (std::size_t i = 0; i < t.model->num_models(); ++i) {
    const auto& m = t.model->model(i);
    double abs_sum = 0.0;
    for (const double v : t.model->model_accumulator(i)) {
      abs_sum += std::abs(v);
    }
    EXPECT_NEAR(m.gamma, abs_sum / static_cast<double>(t.model->model_accumulator(i).size()),
                1e-12);
  }
}

TEST(SparsifyTest, TernaryQuantizationExcludesPrunedComponents) {
  // sparsify → requantize chain: a pruned component has |M_j| = 0, which is
  // below the ternary threshold 0.6·γ whenever the model is non-trivial, so
  // it must be masked out of the ternary dot — the masked-dot semantics the
  // packed bank scan reproduces.
  auto cfg = base_config();
  cfg.query_precision = QueryPrecision::kBinary;
  cfg.model_precision = ModelPrecision::kTernary;
  Trained t = train_on_friedman(cfg);
  t.model->sparsify(0.6);

  for (std::size_t i = 0; i < t.model->num_models(); ++i) {
    const auto& m = t.model->model(i);
    ASSERT_GT(m.gamma, 0.0) << "model " << i;
    for (std::size_t j = 0; j < t.model->model_accumulator(i).size(); ++j) {
      if (t.model->model_accumulator(i)[j] == 0.0) {
        EXPECT_FALSE(m.ternary_mask.bit(j)) << "model " << i << " component " << j;
      }
    }
  }

  // The rebuilt packed bank (sparsify requantizes and re-packs) must replay
  // the per-sample masked-dot predictions exactly.
  const std::vector<double> batched = t.model->predict_batch(t.test);
  for (std::size_t s = 0; s < t.test.size(); ++s) {
    EXPECT_EQ(batched[s], t.model->predict(t.test.sample(s))) << "sample " << s;
  }
}

TEST(SparsifyTest, AllMaskedEdgeCaseContributesExactlyZero) {
  // Degenerate quantization: a zero accumulator has γ = 0, so the ternary
  // threshold is 0, every component passes the ≥ comparison (full mask) and
  // γ_ternary = 0 — the model term must contribute exactly 0, through both
  // the per-sample path and the packed bank scan.
  auto cfg = base_config();
  cfg.query_precision = QueryPrecision::kBinary;
  cfg.model_precision = ModelPrecision::kTernary;
  Trained t = train_on_friedman(cfg);
  t.model->reset();  // zero model accumulators, fresh random clusters

  for (std::size_t i = 0; i < t.model->num_models(); ++i) {
    const auto& m = t.model->model(i);
    EXPECT_EQ(m.gamma, 0.0);
    EXPECT_EQ(m.gamma_ternary, 0.0);
  }
  const PackedTernaryBank& bank = t.model->packed_bank();
  for (std::size_t i = 0; i < t.model->num_models(); ++i) {
    EXPECT_EQ(bank.scale[t.model->num_models() + i], 0.0) << "model row " << i;
  }

  const std::vector<double> batched = t.model->predict_batch(t.test);
  for (std::size_t s = 0; s < t.test.size(); ++s) {
    EXPECT_EQ(batched[s], 0.0) << "sample " << s;
    EXPECT_EQ(t.model->predict(t.test.sample(s)), 0.0) << "sample " << s;
  }
}

TEST(DecayTest, ScalesAllModelAccumulators) {
  Trained t = train_on_friedman(base_config());
  const double before = t.model->model_accumulator(0)[0];
  t.model->decay_models(0.5);
  EXPECT_DOUBLE_EQ(t.model->model_accumulator(0)[0], 0.5 * before);
  EXPECT_THROW(t.model->decay_models(0.0), std::invalid_argument);
  EXPECT_THROW(t.model->decay_models(1.5), std::invalid_argument);
}

TEST(DecayTest, FactorOneIsNoOp) {
  Trained t = train_on_friedman(base_config());
  const double before = t.model->model_accumulator(0)[0];
  t.model->decay_models(1.0);
  EXPECT_DOUBLE_EQ(t.model->model_accumulator(0)[0], before);
}

TEST(RequantizeIntervalTest, BatchLevelRefreshStillLearns) {
  auto cfg = base_config();
  cfg.cluster_mode = ClusterMode::kQuantized;
  cfg.model_precision = ModelPrecision::kBinary;
  cfg.requantize_interval = 32;  // the paper's "or a batch" option
  Trained batched = train_on_friedman(cfg);

  cfg.requantize_interval = 0;  // per-epoch
  Trained epoch_level = train_on_friedman(cfg);

  const double batched_mse = batched.model->evaluate_mse(batched.test);
  const double epoch_mse = epoch_level.model->evaluate_mse(epoch_level.test);
  EXPECT_LT(batched_mse, 1.0);
  // Fresher snapshots can only help (or tie) the binary prediction path.
  EXPECT_LT(batched_mse, epoch_mse * 1.2);
}

}  // namespace
}  // namespace reghd::core
