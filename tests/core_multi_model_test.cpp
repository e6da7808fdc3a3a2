// Tests for multi-model RegHD (paper §2.4 and §3): clustering behaviour,
// the multi-vs-single advantage on multi-modal tasks (Fig. 3b), quantized
// clustering (Fig. 6), prediction modes (Fig. 7), and update-rule ablation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iomanip>
#include <memory>
#include <set>
#include <sstream>
#include <span>
#include <string>
#include <vector>

#include "core/multi_model.hpp"
#include "core/single_model.hpp"
#include "data/scaler.hpp"
#include "data/synthetic.hpp"
#include "hdc/encoding.hpp"
#include "hdc/random_hv.hpp"
#include "util/random.hpp"

namespace reghd::core {
namespace {

struct EncodedTask {
  EncodedDataset train;
  EncodedDataset val;
  EncodedDataset test;
  std::unique_ptr<hdc::Encoder> encoder;
};

EncodedTask make_task(data::Dataset dataset, std::size_t dim, std::uint64_t seed) {
  data::StandardScaler fs;
  fs.fit(dataset);
  fs.transform(dataset);
  data::TargetScaler ts;
  ts.fit(dataset);
  ts.transform(dataset);

  util::Rng rng(seed);
  const data::TrainTestSplit outer = data::train_test_split(dataset, 0.25, rng);
  const data::TrainTestSplit inner = data::train_test_split(outer.train, 0.2, rng);

  hdc::EncoderConfig cfg;
  cfg.input_dim = dataset.num_features();
  cfg.dim = dim;
  cfg.seed = seed;
  EncodedTask task;
  task.encoder = hdc::make_encoder(cfg);
  task.train = EncodedDataset::from(*task.encoder, inner.train);
  task.val = EncodedDataset::from(*task.encoder, inner.test);
  task.test = EncodedDataset::from(*task.encoder, outer.test);
  return task;
}

RegHDConfig config_k(std::size_t models, std::size_t dim = 2048) {
  RegHDConfig cfg;
  cfg.dim = dim;
  cfg.models = models;
  cfg.seed = 99;
  return cfg;
}

EncodedTask multimodal_task(std::uint64_t seed = 31, std::size_t dim = 2048) {
  return make_task(data::make_multimodal_task(1200, 4, 8, seed, 0.05), dim, seed);
}

TEST(MultiModelTest, BeatsSingleModelOnMultimodalTask) {
  // The paper's central multi-model claim (Fig. 3b): on a task with several
  // distinct regimes, RegHD-8 must clearly beat RegHD-1.
  const EncodedTask task = multimodal_task();
  MultiModelRegressor multi(config_k(8));
  SingleModelRegressor single(config_k(1));
  multi.fit(task.train, task.val);
  single.fit(task.train, task.val);
  const double mse_multi = multi.evaluate_mse(task.test);
  const double mse_single = single.evaluate_mse(task.test);
  EXPECT_LT(mse_multi, 0.6 * mse_single);
}

TEST(MultiModelTest, ClusersSpecializeAcrossRegimes) {
  const EncodedTask task = multimodal_task(37);
  MultiModelRegressor model(config_k(8));
  model.fit(task.train, task.val);
  std::set<std::size_t> used;
  for (std::size_t i = 0; i < task.test.size(); ++i) {
    used.insert(model.assign_cluster(task.test.sample(i)));
  }
  // With 8 regimes and 8 clusters, several distinct clusters must be in use.
  EXPECT_GE(used.size(), 4u);
}

TEST(MultiModelTest, ConfidencesFormADistribution) {
  const EncodedTask task = multimodal_task(41);
  MultiModelRegressor model(config_k(8));
  model.fit(task.train, task.val);
  const PredictionDetail detail = model.predict_detail(task.test.sample(0));
  ASSERT_EQ(detail.confidences.size(), 8u);
  double sum = 0.0;
  for (const double c : detail.confidences) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    sum += c;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(MultiModelTest, PredictDetailIsConsistentWithPredict) {
  const EncodedTask task = multimodal_task(43);
  MultiModelRegressor model(config_k(4));
  model.fit(task.train, task.val);
  for (std::size_t i = 0; i < 5; ++i) {
    const auto& s = task.test.sample(i);
    const PredictionDetail detail = model.predict_detail(s);
    EXPECT_NEAR(detail.prediction, model.predict(s), 1e-12);
    double mix = 0.0;
    for (std::size_t m = 0; m < detail.confidences.size(); ++m) {
      mix += detail.confidences[m] * detail.model_outputs[m];
    }
    EXPECT_NEAR(detail.prediction, mix, 1e-12);
    // best_cluster is the argmax of the similarities.
    const auto sims = model.similarities(s);
    EXPECT_EQ(detail.best_cluster,
              static_cast<std::size_t>(std::distance(
                  sims.begin(), std::max_element(sims.begin(), sims.end()))));
  }
}

TEST(MultiModelTest, SimilaritiesBoundedAndMatchMode) {
  const EncodedTask task = multimodal_task(47);
  auto cfg = config_k(4);
  cfg.cluster_mode = ClusterMode::kQuantized;
  MultiModelRegressor model(cfg);
  model.fit(task.train, task.val);
  const auto sims = model.similarities(task.test.sample(0));
  for (const double s : sims) {
    EXPECT_GE(s, -1.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(MultiModelTest, QuantizedClusteringMatchesFullPrecisionQuality) {
  // Fig. 6: the dual-copy framework must track the integer-cluster quality
  // closely (the paper reports ≤0.3% loss; we allow a loose 25% band to stay
  // robust across seeds), while naive binarization does much worse.
  const EncodedTask task = multimodal_task(53);
  auto full_cfg = config_k(8);
  auto quant_cfg = full_cfg;
  quant_cfg.cluster_mode = ClusterMode::kQuantized;
  auto naive_cfg = full_cfg;
  naive_cfg.cluster_mode = ClusterMode::kNaiveBinary;
  naive_cfg.cluster_init = ClusterInit::kRandom;  // the paper's naive foil

  MultiModelRegressor full(full_cfg);
  MultiModelRegressor quant(quant_cfg);
  MultiModelRegressor naive(naive_cfg);
  full.fit(task.train, task.val);
  quant.fit(task.train, task.val);
  naive.fit(task.train, task.val);

  const double mse_full = full.evaluate_mse(task.test);
  const double mse_quant = quant.evaluate_mse(task.test);
  const double mse_naive = naive.evaluate_mse(task.test);
  EXPECT_LT(mse_quant, mse_full * 1.25);
  EXPECT_GT(mse_naive, mse_quant * 1.3);
}

TEST(MultiModelTest, NaiveBinaryClustersNeverMove) {
  const EncodedTask task = multimodal_task(59);
  auto cfg = config_k(4);
  cfg.cluster_mode = ClusterMode::kNaiveBinary;
  cfg.cluster_init = ClusterInit::kRandom;
  MultiModelRegressor model(cfg);
  model.reset();
  const hdc::BinaryHV before = model.cluster(0).binary;
  model.fit(task.train, task.val);
  EXPECT_EQ(model.cluster(0).binary, before);
}

TEST(MultiModelTest, PredictionModesRankedByPrecision) {
  // Fig. 7 shape: full ≲ binary-query ≲ binary-model variants. We assert the
  // coarse ordering: every quantized mode stays useful (≪ mean predictor)
  // and binary-query/integer-model stays close to full precision.
  const EncodedTask task = multimodal_task(61);
  auto full_cfg = config_k(8);
  auto bq_im = full_cfg;
  bq_im.query_precision = QueryPrecision::kBinary;
  auto bq_bm = bq_im;
  bq_bm.model_precision = ModelPrecision::kBinary;

  MultiModelRegressor full(full_cfg);
  MultiModelRegressor bq(bq_im);
  MultiModelRegressor bb(bq_bm);
  full.fit(task.train, task.val);
  bq.fit(task.train, task.val);
  bb.fit(task.train, task.val);

  const double mse_full = full.evaluate_mse(task.test);
  const double mse_bq = bq.evaluate_mse(task.test);
  const double mse_bb = bb.evaluate_mse(task.test);
  EXPECT_LT(mse_full, 0.5);
  EXPECT_LT(mse_bq, mse_full * 1.5);
  EXPECT_LT(mse_bb, 1.0);           // still far better than predicting the mean
  EXPECT_GT(mse_bb, mse_full);      // but measurably worse than full precision
}

TEST(MultiModelTest, WinnerOnlyUpdateRuleAlsoLearns) {
  const EncodedTask task = multimodal_task(67);
  auto cfg = config_k(8);
  cfg.update_rule = UpdateRule::kWinnerOnly;
  MultiModelRegressor model(cfg);
  model.fit(task.train, task.val);
  EXPECT_LT(model.evaluate_mse(task.test), 0.5);
}

TEST(MultiModelTest, RandomClusterInitStillTrainsButUsesFewerClusters) {
  const EncodedTask task = multimodal_task(71);
  auto cfg = config_k(8);
  cfg.cluster_init = ClusterInit::kRandom;
  MultiModelRegressor random_init(cfg);
  random_init.fit(task.train, task.val);
  EXPECT_LT(random_init.evaluate_mse(task.test), 1.0);

  std::set<std::size_t> used;
  for (std::size_t i = 0; i < task.test.size(); ++i) {
    used.insert(random_init.assign_cluster(task.test.sample(i)));
  }
  MultiModelRegressor fps_init(config_k(8));
  fps_init.fit(task.train, task.val);
  std::set<std::size_t> used_fps;
  for (std::size_t i = 0; i < task.test.size(); ++i) {
    used_fps.insert(fps_init.assign_cluster(task.test.sample(i)));
  }
  EXPECT_LE(used.size(), used_fps.size());
}

TEST(MultiModelTest, DeterministicAcrossRuns) {
  const EncodedTask task = multimodal_task(73);
  MultiModelRegressor m1(config_k(4));
  MultiModelRegressor m2(config_k(4));
  m1.fit(task.train, task.val);
  m2.fit(task.train, task.val);
  for (std::size_t i = 0; i < task.test.size(); ++i) {
    EXPECT_DOUBLE_EQ(m1.predict(task.test.sample(i)), m2.predict(task.test.sample(i)));
  }
}

TEST(MultiModelTest, TrainStepReturnsPreUpdatePrediction) {
  const EncodedTask task = multimodal_task(79);
  MultiModelRegressor model(config_k(4));
  model.reset();
  const auto& s = task.train.sample(0);
  const double predicted_before = model.predict(s);
  const double returned = model.train_step(s, 1.0);
  EXPECT_DOUBLE_EQ(returned, predicted_before);
}

TEST(MultiModelTest, KEqualsOneMatchesSingleModelQuality) {
  const EncodedTask task = make_task(data::make_sine_task(600, 83), 1024, 83);
  MultiModelRegressor multi(config_k(1, 1024));
  SingleModelRegressor single(config_k(1, 1024));
  multi.fit(task.train, task.val);
  single.fit(task.train, task.val);
  const double m = multi.evaluate_mse(task.test);
  const double s = single.evaluate_mse(task.test);
  EXPECT_NEAR(m, s, 0.5 * std::max(m, s));
}

TEST(MultiModelTest, ErrorsOnMisuse) {
  MultiModelRegressor model(config_k(2, 512));
  EXPECT_THROW((void)model.evaluate_mse(EncodedDataset{}), std::invalid_argument);
  const EncodedTask task = make_task(data::make_sine_task(100, 89), 1024, 89);
  EXPECT_THROW((void)model.fit(task.train, task.val), std::invalid_argument);  // dim mismatch
  EXPECT_THROW((void)model.predict(task.test.sample(0)), std::invalid_argument);
}

TEST(MultiModelTest, SimilarityNormalizationSharpensCompressedSimilarities) {
  // With similarities compressed into a narrow band (as Eq. 1 encodings
  // produce), z-scoring must still differentiate the clusters while the raw
  // softmax at the same temperature stays near-uniform.
  util::Rng rng(6);
  hdc::EncodedSample query;
  query.real = hdc::random_bipolar(512, rng).to_real();
  query.binary = query.real.sign_packed();
  query.real_norm2 = 512.0;
  query.real_norm = std::sqrt(512.0);

  auto make = [&](bool normalize) {
    auto cfg = config_k(4, 512);
    cfg.normalize_similarities = normalize;
    MultiModelRegressor model(cfg);
    // Hand-craft clusters: C_i = base + eps_i * query with eps growing
    // slightly, so the four cosine similarities differ by a few hundredths.
    util::Rng base_rng(5);
    const hdc::RealHV base = hdc::random_bipolar(512, base_rng).to_real();
    std::vector<ClusterCenter> clusters(4);
    for (std::size_t i = 0; i < 4; ++i) {
      const std::span<double> acc = model.mutable_cluster_accumulator(i);
      std::copy(base.values().begin(), base.values().end(), acc.begin());
      hdc::add_scaled(acc, query.real, 0.03 * static_cast<double>(i));
      clusters[i].requantize(acc);  // binary snapshot + exact ‖C‖²
    }
    model.set_snapshots(std::move(clusters), model.state().models);
    return model;
  };

  const MultiModelRegressor normalized = make(true);
  const MultiModelRegressor raw = make(false);
  const auto conf_norm = normalized.predict_detail(query).confidences;
  const auto conf_raw = raw.predict_detail(query).confidences;

  const auto max_of = [](const std::vector<double>& v) {
    return *std::max_element(v.begin(), v.end());
  };
  // Raw similarities differ by well under 0.1 -> raw softmax at tau=0.5 is
  // nearly uniform; z-scored confidences must be decisively sharper.
  EXPECT_LT(max_of(conf_raw), 0.32);
  EXPECT_GT(max_of(conf_norm), 0.45);
}

TEST(MultiModelTest, ClusterNormCacheStaysAccurate) {
  // After a full fit the incrementally-maintained ‖C‖² must match the exact
  // value (requantize() recomputes it; train steps maintain it in between).
  const EncodedTask task = multimodal_task(97);
  MultiModelRegressor model(config_k(4));
  model.fit(task.train, task.val);
  // Run extra raw train steps without an epoch-boundary requantize.
  for (std::size_t i = 0; i < 50; ++i) {
    model.train_step(task.train.sample(i), task.train.target(i));
  }
  for (std::size_t c = 0; c < model.num_models(); ++c) {
    double exact = 0.0;
    for (const double v : model.cluster_accumulator(c)) {
      exact += v * v;
    }
    EXPECT_NEAR(model.cluster(c).norm2, exact, 1e-6 * std::max(exact, 1.0));
  }
}

TEST(PackedBankTest, BuiltAfterFitAndMatchesSnapshotGeometry) {
  const EncodedTask task = multimodal_task(101);
  RegHDConfig cfg = config_k(4);
  cfg.query_precision = QueryPrecision::kBinary;
  cfg.model_precision = ModelPrecision::kTernary;
  MultiModelRegressor model(cfg);
  model.fit(task.train, task.val);

  const PackedTernaryBank& bank = model.packed_bank();
  // k cluster rows + k model rows, one sign/mask word-row and one scale each.
  EXPECT_EQ(bank.rows, 2 * model.num_models());
  EXPECT_EQ(bank.words, (cfg.dim + 63) / 64);
  EXPECT_EQ(bank.signs.size(), bank.rows * bank.words);
  EXPECT_EQ(bank.masks.size(), bank.rows * bank.words);
  EXPECT_EQ(bank.scale.size(), bank.rows);
  // Cluster rows ride under a full mask with unit scale; model rows carry the
  // ternary mask and its γ_ternary.
  for (std::size_t c = 0; c < model.num_models(); ++c) {
    EXPECT_EQ(bank.scale[c], 1.0) << "cluster row " << c;
    std::size_t mask_bits = 0;
    for (std::size_t w = 0; w < bank.words; ++w) {
      mask_bits += static_cast<std::size_t>(
          std::popcount(bank.masks[c * bank.words + w]));
    }
    EXPECT_EQ(mask_bits, cfg.dim) << "cluster row " << c;
  }
  for (std::size_t m = 0; m < model.num_models(); ++m) {
    EXPECT_EQ(bank.scale[model.num_models() + m], model.model(m).gamma_ternary);
  }
  // The packed planes are 2 bits per component vs the 8-byte f64 bank row the
  // scan replaces — the ≥4× resident-bytes target with a wide margin.
  EXPECT_LE(bank.resident_bytes() * 4,
            bank.rows * cfg.dim * sizeof(double));
}

TEST(PackedBankTest, PredictBatchMatchesPerSamplePredictExactly) {
  // The bank sweep must replay predict()'s per-sample score arithmetic
  // bit-for-bit, for both quantized model precisions.
  for (const auto precision : {ModelPrecision::kBinary, ModelPrecision::kTernary}) {
    const EncodedTask task = multimodal_task(103);
    RegHDConfig cfg = config_k(4);
    cfg.query_precision = QueryPrecision::kBinary;
    cfg.model_precision = precision;
    MultiModelRegressor model(cfg);
    model.fit(task.train, task.val);

    const std::vector<double> batched = model.predict_batch(task.test);
    ASSERT_EQ(batched.size(), task.test.size());
    for (std::size_t i = 0; i < task.test.size(); ++i) {
      EXPECT_EQ(batched[i], model.predict(task.test.sample(i)))
          << to_string(precision) << " sample " << i;
    }
  }
}

TEST(PackedBankTest, SetSnapshotsRepacksTheBankAndRefusesMismatches) {
  const EncodedTask task = multimodal_task(107);
  RegHDConfig cfg = config_k(4);
  cfg.query_precision = QueryPrecision::kBinary;
  cfg.model_precision = ModelPrecision::kTernary;
  MultiModelRegressor trained(cfg);
  trained.fit(task.train, task.val);
  const MultiModelRegressor::State state = trained.state();

  // A fresh model handed the trained snapshots packs the trained bank.
  MultiModelRegressor model(cfg);
  model.set_snapshots(state.clusters, state.models);
  const auto expect_trained_bank = [&](const char* what) {
    const PackedTernaryBank& got = model.packed_bank();
    const PackedTernaryBank& want = trained.packed_bank();
    EXPECT_EQ(got.rows, want.rows) << what;
    EXPECT_EQ(got.signs, want.signs) << what;
    EXPECT_EQ(got.masks, want.masks) << what;
    EXPECT_EQ(got.scale, want.scale) << what;
  };
  expect_trained_bank("after set_snapshots");

  // A short list or a plane of another dim is refused before anything moves.
  std::vector<RegressionModel> short_models = state.models;
  short_models.pop_back();
  EXPECT_THROW(model.set_snapshots(state.clusters, short_models), std::invalid_argument);
  std::vector<ClusterCenter> wide_clusters = state.clusters;
  wide_clusters[1].binary = hdc::BinaryHV(cfg.dim + 64);
  EXPECT_THROW(model.set_snapshots(wide_clusters, state.models), std::invalid_argument);
  std::vector<RegressionModel> narrow_models = state.models;
  narrow_models[2].ternary_mask = hdc::BinaryHV(cfg.dim - 1);
  EXPECT_THROW(model.set_snapshots(state.clusters, narrow_models), std::invalid_argument);
  expect_trained_bank("after refused set_snapshots");
}

// ---------------------------------------------------------------------------
// k = 1 parity. Eq. 2 (§2.3) is Eqs. 5–8 at k = 1: the one-element softmax
// gives δ' = 1 and Σδ'² = 1, so the Eq. 7 coefficient is Eq. 2's
// α·err·normalizer and Eq. 6 is (1/D)·M·S. The sweep replays every per-step
// path of a k = 1 MultiModelRegressor (what SingleModelRegressor runs)
// against a test-local Eq. 2 learner built from the per-row §3.2 kernels and
// update_accumulator, so a drift of the k = 1 scorer or update path from
// Eq. 2 fails here.
//
// Values are compared with ==, not bit patterns: an untrained snapshot model
// (γ = 0) scores γ·dot/D = −0.0 for a negative dot, which Eq. 2 returns as
// is, while Eq. 6 blends it as 0.0 + 1.0·(−0.0) = +0.0.
// ---------------------------------------------------------------------------

/// Eq. 2: one accumulator M with its snapshots, predicted with the four §3.2
/// kernels (ŷ = (1/D)·M·S, γ-scaled for a snapshot model) and updated by
/// M += α·err·normalizer·S against the integer model.
class Eq2Reference {
 public:
  explicit Eq2Reference(const RegHDConfig& cfg)
      : cfg_(cfg), acc_(cfg.dim, 0.0), model_(cfg.dim) {
    requantize();
  }

  void requantize() { model_.requantize(acc_); }

  [[nodiscard]] double predict(const hdc::EncodedSampleView& q, PredictionMode mode) const {
    const auto d = static_cast<double>(cfg_.dim);
    if (mode.model == ModelPrecision::kReal) {
      return raw_query_dot(acc_, q, mode.query) / d;
    }
    const bool ternary = mode.model == ModelPrecision::kTernary;
    const double scale = ternary ? model_.gamma_ternary : model_.gamma;
    if (mode.query == QueryPrecision::kReal) {
      return scale *
             (ternary ? hdc::masked_dot(q.real, model_.binary, model_.ternary_mask)
                      : hdc::dot(q.real, model_.binary)) /
             d;
    }
    std::int64_t dot = 0;  // the (masked) bipolar dot, one component at a time
    for (std::size_t j = 0; j < cfg_.dim; ++j) {
      if (!ternary || model_.ternary_mask.bit(j)) {
        dot += model_.binary.bipolar(j) * q.binary.bipolar(j);
      }
    }
    return scale * static_cast<double>(dot) / d;
  }

  [[nodiscard]] double predict(const hdc::EncodedSampleView& q) const {
    return predict(q, cfg_.prediction_mode());
  }

  /// Returns the pre-update prediction.
  double train_step(const hdc::EncodedSampleView& q, double target) {
    const double prediction = predict(q, train_mode());
    update(q, target, prediction);
    return prediction;
  }

  /// Every prediction against the entry model, then the updates in list order.
  void train_batch(const EncodedDataset& data, std::span<const std::size_t> indices,
                   std::span<double> predictions) {
    for (std::size_t j = 0; j < indices.size(); ++j) {
      predictions[j] = predict(data.sample(indices[j]), train_mode());
    }
    for (std::size_t j = 0; j < indices.size(); ++j) {
      update(data.sample(indices[j]), data.target(indices[j]), predictions[j]);
    }
  }

  [[nodiscard]] double evaluate_mse(const EncodedDataset& data) const {
    double acc = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i) {
      const double e = predict(data.sample(i)) - data.target(i);
      acc += e * e;
    }
    return acc / static_cast<double>(data.size());
  }

  [[nodiscard]] std::span<const double> accumulator() const { return acc_; }
  [[nodiscard]] const RegressionModel& model() const { return model_; }

 private:
  [[nodiscard]] PredictionMode train_mode() const {
    return {cfg_.query_precision, ModelPrecision::kReal};
  }

  void update(const hdc::EncodedSampleView& q, double target, double prediction) {
    double error = target - prediction;
    if (cfg_.error_clip > 0.0) {
      error = std::clamp(error, -cfg_.error_clip, cfg_.error_clip);
    }
    update_accumulator(acc_, q,
                       cfg_.learning_rate * error * update_normalizer(q, cfg_.query_precision),
                       cfg_.query_precision);
  }

  RegHDConfig cfg_;
  std::vector<double> acc_;
  RegressionModel model_;
};

/// Counts values that differ under ==, remembering the first.
struct ParityLog {
  std::size_t mismatches = 0;
  std::string first;

  void check(double got, double want, const std::string& what) {
    if (got != want && mismatches++ == 0) {
      std::ostringstream os;
      os << std::setprecision(17) << what << ": " << got << " vs " << want;
      first = os.str();
    }
  }
  void check_span(std::span<const double> got, std::span<const double> want,
                  const std::string& what) {
    check(static_cast<double>(got.size()), static_cast<double>(want.size()), what + " size");
    for (std::size_t j = 0; j < std::min(got.size(), want.size()); ++j) {
      check(got[j], want[j], what + "[" + std::to_string(j) + "]");
    }
  }
  void check_model(const RegressionModel& got, const RegressionModel& want,
                   const std::string& what) {
    check(got.gamma, want.gamma, what + " gamma");
    check(got.gamma_ternary, want.gamma_ternary, what + " gamma_ternary");
    check(got.binary == want.binary ? 1.0 : 0.0, 1.0, what + " binary");
    check(got.ternary_mask == want.ternary_mask ? 1.0 : 0.0, 1.0, what + " ternary mask");
  }
};

TEST(MultiModelTest, KEqualsOneReplaysEq2InEveryMode) {
  std::size_t cases = 0;
  for (const std::size_t dim : {std::size_t{256}, std::size_t{1000}}) {
    const EncodedTask task = make_task(data::make_sine_task(120, 97), dim, 97);
    // 37 distinct training rows, out of list order.
    std::vector<std::size_t> batch(37);
    for (std::size_t j = 0; j < batch.size(); ++j) {
      batch[j] = (5 * j + 3) % task.train.size();
    }
    for (const ClusterMode cluster :
         {ClusterMode::kFullPrecision, ClusterMode::kQuantized, ClusterMode::kNaiveBinary}) {
      for (const QueryPrecision query : {QueryPrecision::kReal, QueryPrecision::kBinary}) {
        for (const ModelPrecision model :
             {ModelPrecision::kReal, ModelPrecision::kBinary, ModelPrecision::kTernary}) {
          for (const UpdateRule rule :
               {UpdateRule::kConfidenceWeighted, UpdateRule::kWinnerOnly}) {
            for (const double clip : {0.0, 0.25}) {
              RegHDConfig cfg = config_k(1, dim);
              cfg.cluster_mode = cluster;
              cfg.query_precision = query;
              cfg.model_precision = model;
              cfg.update_rule = rule;
              cfg.error_clip = clip;
              SCOPED_TRACE("D=" + std::to_string(dim) + " cluster=" +
                           std::to_string(static_cast<int>(cluster)) + " " +
                           cfg.prediction_mode().to_string() +
                           " rule=" + std::to_string(static_cast<int>(rule)) +
                           " clip=" + std::to_string(clip));
              ++cases;
              MultiModelRegressor multi(cfg);
              Eq2Reference ref(cfg);
              ParityLog log;
              auto check_state = [&](const std::string& when) {
                log.check_span(multi.model_accumulator(0), ref.accumulator(), when + " M");
                log.check_model(multi.model(0), ref.model(), when + " snapshot");
              };
              auto check_predictions = [&](const std::string& when) {
                for (std::size_t i = 0; i < task.test.size(); ++i) {
                  log.check(multi.predict(task.test.sample(i)), ref.predict(task.test.sample(i)),
                            when + " row " + std::to_string(i));
                }
              };

              check_predictions("untrained");
              for (int epoch = 0; epoch < 2; ++epoch) {
                const std::string when = "epoch " + std::to_string(epoch);
                for (std::size_t i = 0; i < task.train.size(); ++i) {
                  const hdc::EncodedSampleView s = task.train.sample(i);
                  const double y = task.train.target(i);
                  const double want = ref.train_step(s, y);
                  log.check(multi.train_step(s, y), want, when + " step " + std::to_string(i));
                }
                multi.requantize();
                ref.requantize();
                check_state(when);
                check_predictions(when);
              }

              std::vector<double> want(batch.size());
              std::vector<double> got(batch.size());
              ref.train_batch(task.train, batch, want);
              multi.train_batch(task.train, batch, got, 3);
              log.check_span(got, want, "batch predictions");
              multi.requantize();
              ref.requantize();
              check_state("after batch");

              std::vector<double> per_row(task.test.size());
              for (std::size_t i = 0; i < task.test.size(); ++i) {
                per_row[i] = ref.predict(task.test.sample(i));
              }
              for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
                log.check_span(multi.predict_batch(task.test, threads), per_row,
                               "predict_batch T=" + std::to_string(threads));
              }
              log.check(multi.evaluate_mse(task.test), ref.evaluate_mse(task.test),
                        "evaluate_mse");
              EXPECT_EQ(log.mismatches, 0u) << "first: " << log.first;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 144u);
}

}  // namespace
}  // namespace reghd::core
