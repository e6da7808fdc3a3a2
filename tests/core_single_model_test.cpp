// Tests for single-model RegHD (paper §2.3, Eq. 2): learning behaviour,
// iterative convergence, determinism, and the Fig. 3 learning-curve shape.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/encoded.hpp"
#include "core/single_model.hpp"
#include "data/scaler.hpp"
#include "data/synthetic.hpp"
#include "hdc/encoding.hpp"
#include "util/random.hpp"

namespace reghd::core {
namespace {

struct EncodedTask {
  EncodedDataset train;
  EncodedDataset val;
  EncodedDataset test;
  std::unique_ptr<hdc::Encoder> encoder;
};

/// Builds standardized, pre-encoded splits of a dataset.
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

RegHDConfig base_config(std::size_t dim) {
  RegHDConfig cfg;
  cfg.dim = dim;
  cfg.models = 1;
  cfg.seed = 77;
  return cfg;
}

TEST(SingleModelTest, LearnsSineTaskWellBeyondMeanPredictor) {
  // Flake guard: the bound must hold across a split/encoder seed sweep, not
  // at one lucky seed (an earlier bound of 0.4 held only for specific seeds
  // and a failing seed was once swapped for a passing one instead of fixing
  // the bound). Standardized targets put the mean predictor at MSE ≈ 1; the
  // auto RFF bandwidth (tuned for multi-feature data) underfits the
  // frequency-4 sine — see the tuned-bandwidth test below for the tight fit.
  // Measured test MSEs for seeds 1..5: 0.469, 0.227, 0.391, 0.290, 0.440
  // (max 0.469) → bound 0.55 with headroom, still far below the mean
  // predictor.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const EncodedTask task = make_task(data::make_sine_task(600, 5), 2048, seed);
    SingleModelRegressor model(base_config(2048));
    const TrainingReport report = model.fit(task.train, task.val);
    EXPECT_GE(report.epochs_run, 2u);
    EXPECT_LT(model.evaluate_mse(task.test), 0.55);
  }
}

TEST(SingleModelTest, TunedBandwidthFitsSineTightly) {
  data::Dataset dataset = data::make_sine_task(600, 5);
  data::StandardScaler fs;
  fs.fit(dataset);
  fs.transform(dataset);
  data::TargetScaler ts;
  ts.fit(dataset);
  ts.transform(dataset);
  util::Rng rng(5);
  const data::TrainTestSplit outer = data::train_test_split(dataset, 0.25, rng);
  const data::TrainTestSplit inner = data::train_test_split(outer.train, 0.2, rng);
  hdc::EncoderConfig enc;
  enc.input_dim = 1;
  enc.dim = 2048;
  enc.seed = 5;
  enc.projection_stddev = 2.5;  // sharper kernel for the frequency-4 signal
  const auto encoder = hdc::make_encoder(enc);
  SingleModelRegressor model(base_config(2048));
  model.fit(EncodedDataset::from(*encoder, inner.train),
            EncodedDataset::from(*encoder, inner.test));
  EXPECT_LT(model.evaluate_mse(EncodedDataset::from(*encoder, outer.test)), 0.1);
}

TEST(SingleModelTest, IterativeTrainingImprovesOnSinglePass) {
  // Fig. 3a: quality improves over retraining iterations — the best
  // validation MSE must beat the single-pass (first-epoch) one, and the
  // model keeps the best-epoch state.
  const EncodedTask task = make_task(data::make_sine_task(600, 7), 2048, 7);
  SingleModelRegressor model(base_config(2048));
  const TrainingReport report = model.fit(task.train, task.val);
  ASSERT_GE(report.history.size(), 3u);
  EXPECT_LT(report.best_val_mse, report.history.front().val_mse);
  EXPECT_NEAR(model.evaluate_mse(task.val), report.best_val_mse, 1e-9);
}

TEST(SingleModelTest, TrainStepMovesPredictionTowardTarget) {
  const EncodedTask task = make_task(data::make_sine_task(100, 9), 1024, 9);
  auto cfg = base_config(1024);
  SingleModelRegressor model(cfg);
  const auto& s = task.train.sample(0);
  const double y = 2.0;
  const double before = model.predict(s);
  model.train_step(s, y);
  const double after = model.predict(s);
  EXPECT_NEAR(after - before, cfg.learning_rate * (y - before), 1e-9);
}

TEST(SingleModelTest, DeterministicForFixedSeed) {
  const EncodedTask task = make_task(data::make_sine_task(300, 11), 1024, 11);
  SingleModelRegressor m1(base_config(1024));
  SingleModelRegressor m2(base_config(1024));
  m1.fit(task.train, task.val);
  m2.fit(task.train, task.val);
  for (std::size_t i = 0; i < task.test.size(); ++i) {
    EXPECT_DOUBLE_EQ(m1.predict(task.test.sample(i)), m2.predict(task.test.sample(i)));
  }
}

TEST(SingleModelTest, FitIsIdempotent) {
  const EncodedTask task = make_task(data::make_sine_task(300, 13), 1024, 13);
  SingleModelRegressor model(base_config(1024));
  model.fit(task.train, task.val);
  const double first = model.predict(task.test.sample(0));
  model.fit(task.train, task.val);  // resets internally
  EXPECT_DOUBLE_EQ(model.predict(task.test.sample(0)), first);
}

TEST(SingleModelTest, ResetZerosTheModel) {
  const EncodedTask task = make_task(data::make_sine_task(200, 15), 512, 15);
  SingleModelRegressor model(base_config(512));
  model.fit(task.train, task.val);
  model.reset();
  EXPECT_DOUBLE_EQ(model.predict(task.test.sample(0)), 0.0);
}

TEST(SingleModelTest, BinaryQueryModeStillLearns) {
  auto cfg = base_config(2048);
  cfg.query_precision = QueryPrecision::kBinary;
  const EncodedTask task = make_task(data::make_sine_task(600, 17), 2048, 17);
  SingleModelRegressor model(cfg);
  model.fit(task.train, task.val);
  EXPECT_LT(model.evaluate_mse(task.test), 0.3);
}

TEST(SingleModelTest, BinaryModelModeDegradesButRemainsUseful) {
  auto full_cfg = base_config(2048);
  auto bin_cfg = full_cfg;
  bin_cfg.model_precision = ModelPrecision::kBinary;
  const EncodedTask task = make_task(data::make_sine_task(600, 19), 2048, 19);
  SingleModelRegressor full(full_cfg);
  SingleModelRegressor binary(bin_cfg);
  full.fit(task.train, task.val);
  binary.fit(task.train, task.val);
  const double mse_full = full.evaluate_mse(task.test);
  const double mse_bin = binary.evaluate_mse(task.test);
  EXPECT_LT(mse_bin, 1.0);        // far better than the mean predictor
  EXPECT_GE(mse_bin, mse_full * 0.8);  // quantization cannot magically help much
}

TEST(SingleModelTest, CapacityGrowsWithDimensionality) {
  // §2.3: a single hypervector's capacity scales with D. On the same task,
  // a cramped D must leave clearly more residual error than a roomy one.
  data::Dataset task_data = data::make_sine_task(800, 21, 0.02);
  const EncodedTask low_d = make_task(task_data, 128, 21);
  const EncodedTask high_d = make_task(std::move(task_data), 2048, 21);
  auto low_cfg = base_config(128);
  auto high_cfg = base_config(2048);
  SingleModelRegressor low(low_cfg);
  SingleModelRegressor high(high_cfg);
  low.fit(low_d.train, low_d.val);
  high.fit(high_d.train, high_d.val);
  EXPECT_GT(low.evaluate_mse(low_d.test), 1.5 * high.evaluate_mse(high_d.test));
}

TEST(SingleModelTest, ValidationRequiredAndShapesChecked) {
  const EncodedTask task = make_task(data::make_sine_task(100, 23), 512, 23);
  SingleModelRegressor model(base_config(512));
  EXPECT_THROW((void)model.fit(task.train, EncodedDataset{}), std::invalid_argument);
  EXPECT_THROW((void)model.fit(EncodedDataset{}, task.val), std::invalid_argument);

  SingleModelRegressor wrong_dim(base_config(256));
  EXPECT_THROW((void)wrong_dim.fit(task.train, task.val), std::invalid_argument);
  EXPECT_THROW((void)wrong_dim.predict(task.test.sample(0)), std::invalid_argument);
}

TEST(SingleModelTest, TrainBatchRejectsOutOfRangeRowBeforeAnyUpdate) {
  const EncodedTask task = make_task(data::make_sine_task(100, 25), 512, 25);
  SingleModelRegressor model(base_config(512));
  for (std::size_t i = 0; i < task.train.size(); ++i) {
    model.train_step(task.train.sample(i), task.train.target(i));
  }
  model.requantize();
  const std::vector<double> accumulator(model.accumulator().begin(),
                                        model.accumulator().end());
  const RegressionModel snapshot = model.model();

  // Valid rows first: a bad id later in the list must not let them update.
  const std::vector<std::size_t> rows = {0, 1, task.train.size()};
  std::vector<double> predictions(rows.size());
  EXPECT_THROW(model.train_batch(task.train, rows, predictions), std::invalid_argument);
  EXPECT_EQ(std::vector<double>(model.accumulator().begin(), model.accumulator().end()),
            accumulator);
  EXPECT_EQ(model.model().binary, snapshot.binary);
  EXPECT_EQ(model.model().ternary_mask, snapshot.ternary_mask);
  EXPECT_EQ(model.model().gamma, snapshot.gamma);
  EXPECT_EQ(model.model().gamma_ternary, snapshot.gamma_ternary);
}

TEST(SingleModelTest, ConfigValidation) {
  RegHDConfig cfg;
  cfg.dim = 8;  // below the minimum
  EXPECT_THROW(SingleModelRegressor{cfg}, std::invalid_argument);
  cfg = {};
  cfg.learning_rate = 0.0;
  EXPECT_THROW(SingleModelRegressor{cfg}, std::invalid_argument);
  cfg = {};
  cfg.softmax_temperature = -1.0;
  EXPECT_THROW(SingleModelRegressor{cfg}, std::invalid_argument);
}

TEST(SingleModelTest, ReportSummaryMentionsOutcome) {
  const EncodedTask task = make_task(data::make_sine_task(300, 29), 512, 29);
  SingleModelRegressor model(base_config(512));
  const TrainingReport report = model.fit(task.train, task.val);
  const std::string s = report.summary();
  EXPECT_NE(s.find("epochs="), std::string::npos);
  EXPECT_NE(s.find("best_val_mse="), std::string::npos);
}

}  // namespace
}  // namespace reghd::core
