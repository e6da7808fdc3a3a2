// Batched encode/predict paths must be exact row-for-row matches of the
// per-sample paths, for every thread count. These tests pin that property
// across the encoder batch API, the encoded-dataset builder, both
// regressors, and the end-user pipeline override.
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "core/encoded.hpp"
#include "core/multi_model.hpp"
#include "core/pipeline.hpp"
#include "core/single_model.hpp"
#include "data/synthetic.hpp"
#include "hdc/encoding.hpp"

namespace reghd::core {
namespace {

data::Dataset small_task() { return data::make_friedman1(96, 7); }

hdc::EncoderConfig small_encoder_config(std::size_t input_dim) {
  hdc::EncoderConfig cfg;
  cfg.kind = hdc::EncoderKind::kRffProjection;
  cfg.input_dim = input_dim;
  cfg.dim = 512;
  return cfg;
}

RegHDConfig small_reghd_config() {
  RegHDConfig cfg;
  cfg.dim = 512;
  cfg.models = 4;
  cfg.max_epochs = 4;
  return cfg;
}

TEST(EncodeBatchTest, MatchesPerRowEncodeForAnyThreadCount) {
  const data::Dataset data = small_task();
  const auto encoder = hdc::make_encoder(small_encoder_config(data.num_features()));
  for (const std::size_t threads : {1, 2, 8}) {
    const std::vector<hdc::EncodedSample> batch =
        encoder->encode_batch(data.features_flat(), data.size(), threads);
    ASSERT_EQ(batch.size(), data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
      const hdc::EncodedSample one = encoder->encode(data.row(i));
      EXPECT_EQ(batch[i].real, one.real) << "row " << i << ", threads " << threads;
      EXPECT_EQ(batch[i].binary, one.binary) << "row " << i << ", threads " << threads;
    }
  }
}

TEST(EncodeBatchTest, RejectsMismatchedBuffer) {
  const data::Dataset data = small_task();
  const auto encoder = hdc::make_encoder(small_encoder_config(data.num_features()));
  EXPECT_THROW(encoder->encode_batch(data.features_flat(), data.size() + 1, 1),
               std::invalid_argument);
}

TEST(EncodedDatasetTest, FromIsThreadCountInvariant) {
  const data::Dataset data = small_task();
  const auto encoder = hdc::make_encoder(small_encoder_config(data.num_features()));
  const EncodedDataset one = EncodedDataset::from(*encoder, data, 1);
  const EncodedDataset many = EncodedDataset::from(*encoder, data, 8);
  ASSERT_EQ(one.size(), many.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one.sample(i).real, many.sample(i).real) << "row " << i;
    EXPECT_EQ(one.target(i), many.target(i)) << "row " << i;
  }
}

TEST(RegressorBatchTest, SingleModelBatchMatchesPerSamplePredict) {
  const data::Dataset data = small_task();
  const auto encoder = hdc::make_encoder(small_encoder_config(data.num_features()));
  const EncodedDataset enc = EncodedDataset::from(*encoder, data);

  SingleModelRegressor reg(small_reghd_config());
  for (std::size_t i = 0; i < enc.size(); ++i) {
    reg.train_step(enc.sample(i), enc.target(i));
  }
  reg.requantize();

  const std::vector<double> serial = reg.predict_batch(enc, 1);
  const std::vector<double> parallel = reg.predict_batch(enc, 8);
  EXPECT_EQ(serial, parallel);  // bit-identical
  for (std::size_t i = 0; i < enc.size(); ++i) {
    EXPECT_EQ(serial[i], reg.predict(enc.sample(i))) << "row " << i;
  }
}

TEST(RegressorBatchTest, MultiModelBatchMatchesPerSamplePredict) {
  const data::Dataset data = small_task();
  const auto encoder = hdc::make_encoder(small_encoder_config(data.num_features()));
  const EncodedDataset enc = EncodedDataset::from(*encoder, data);

  MultiModelRegressor reg(small_reghd_config());
  for (std::size_t i = 0; i < enc.size(); ++i) {
    reg.train_step(enc.sample(i), enc.target(i));
  }
  reg.requantize();

  const std::vector<double> serial = reg.predict_batch(enc, 1);
  const std::vector<double> parallel = reg.predict_batch(enc, 8);
  EXPECT_EQ(serial, parallel);
  for (std::size_t i = 0; i < enc.size(); ++i) {
    EXPECT_EQ(serial[i], reg.predict(enc.sample(i))) << "row " << i;
  }
}

// The serving runtime's serial, scratch-reusing batch path must be an exact
// replay of predict_batch in every mode combination it can be configured
// with — including after further training invalidates the packed bank (the
// per-call fallback bank) and across scratch reuse/re-preparation.
TEST(RegressorBatchTest, PredictBatchIntoMatchesPredictBatchAcrossModes) {
  struct ModeCase {
    ClusterMode cluster;
    QueryPrecision query;
    ModelPrecision model;
  };
  const ModeCase cases[] = {
      {ClusterMode::kFullPrecision, QueryPrecision::kReal, ModelPrecision::kReal},
      {ClusterMode::kQuantized, QueryPrecision::kBinary, ModelPrecision::kTernary},
      {ClusterMode::kQuantized, QueryPrecision::kBinary, ModelPrecision::kBinary},
      {ClusterMode::kQuantized, QueryPrecision::kBinary, ModelPrecision::kReal},
      {ClusterMode::kNaiveBinary, QueryPrecision::kBinary, ModelPrecision::kBinary},
      // Generic fallback path (no bank fast path for a real query on
      // quantized clusters).
      {ClusterMode::kQuantized, QueryPrecision::kReal, ModelPrecision::kReal},
  };
  const data::Dataset data = small_task();
  const auto encoder = hdc::make_encoder(small_encoder_config(data.num_features()));
  const EncodedDataset enc = EncodedDataset::from(*encoder, data);

  for (const ModeCase& mc : cases) {
    RegHDConfig cfg = small_reghd_config();
    cfg.cluster_mode = mc.cluster;
    cfg.query_precision = mc.query;
    cfg.model_precision = mc.model;
    MultiModelRegressor reg(cfg);
    for (std::size_t i = 0; i < enc.size(); ++i) {
      reg.train_step(enc.sample(i), enc.target(i));
    }
    reg.requantize();

    MultiModelRegressor::PredictScratch scratch;
    reg.prepare_predict_scratch(scratch);
    const std::vector<double> want = reg.predict_batch(enc);
    std::vector<double> got(enc.size(), -1.0);
    reg.predict_batch_into(enc, got, scratch);
    EXPECT_EQ(got, want) << "fresh scratch, cluster mode "
                         << static_cast<int>(mc.cluster);

    // Scratch reuse on a second call must not change anything.
    std::fill(got.begin(), got.end(), -1.0);
    reg.predict_batch_into(enc, got, scratch);
    EXPECT_EQ(got, want) << "reused scratch";

    // Train further without requantizing: the packed bank goes stale, so the
    // re-prepared scratch must carry the fallback bank and still match the
    // (equally fallback-scoring) predict_batch.
    for (std::size_t i = 0; i < 16; ++i) {
      reg.train_step(enc.sample(i), enc.target(i));
    }
    reg.prepare_predict_scratch(scratch);
    const std::vector<double> want2 = reg.predict_batch(enc);
    std::vector<double> got2(enc.size(), -1.0);
    reg.predict_batch_into(enc, got2, scratch);
    EXPECT_EQ(got2, want2) << "stale-bank fallback";
  }
}

TEST(RegressorBatchTest, PredictBatchIntoRejectsShortSpanAndUnpreparedScratch) {
  const data::Dataset data = small_task();
  const auto encoder = hdc::make_encoder(small_encoder_config(data.num_features()));
  const EncodedDataset enc = EncodedDataset::from(*encoder, data);
  const MultiModelRegressor reg(small_reghd_config());
  MultiModelRegressor::PredictScratch scratch;
  std::vector<double> out(enc.size());
  EXPECT_THROW(reg.predict_batch_into(enc, out, scratch), std::exception);
  reg.prepare_predict_scratch(scratch);
  std::vector<double> tiny(enc.size() - 1);
  EXPECT_THROW(reg.predict_batch_into(enc, tiny, scratch), std::exception);
}

// A scratch sized for a smaller model must be refused before the scan writes
// a single score into it (it used to overflow the score buffers), and the
// output must stay untouched.
TEST(RegressorBatchTest, PredictBatchIntoRejectsScratchPreparedForASmallerModel) {
  const data::Dataset data = small_task();
  const auto encoder = hdc::make_encoder(small_encoder_config(data.num_features()));
  const EncodedDataset enc = EncodedDataset::from(*encoder, data);
  for (const ClusterMode mode : {ClusterMode::kFullPrecision, ClusterMode::kQuantized}) {
    RegHDConfig small_cfg = small_reghd_config();
    small_cfg.cluster_mode = mode;
    small_cfg.query_precision =
        mode == ClusterMode::kQuantized ? QueryPrecision::kBinary : QueryPrecision::kReal;
    small_cfg.model_precision =
        mode == ClusterMode::kQuantized ? ModelPrecision::kTernary : ModelPrecision::kReal;
    small_cfg.models = 2;
    RegHDConfig big_cfg = small_cfg;
    big_cfg.models = 8;
    const MultiModelRegressor small(small_cfg);
    const MultiModelRegressor big(big_cfg);
    MultiModelRegressor::PredictScratch scratch;
    small.prepare_predict_scratch(scratch);
    std::vector<double> out(enc.size(), -1.0);
    EXPECT_THROW(big.predict_batch_into(enc, out, scratch), std::invalid_argument)
        << to_string(mode);
    EXPECT_EQ(out, std::vector<double>(enc.size(), -1.0)) << to_string(mode);
  }
}

TEST(EncodedDatasetTest, AssignRowsMatchesFromRowsAndReusesStorage) {
  const data::Dataset data = small_task();
  const auto encoder = hdc::make_encoder(small_encoder_config(data.num_features()));

  EncodedDataset arena;
  // Largest batch first grows capacity; smaller re-assignments then reuse it.
  for (const std::size_t rows : {data.size(), std::size_t{5}, std::size_t{17}}) {
    const auto flat = data.features_flat().subspan(0, rows * data.num_features());
    arena.assign_rows(*encoder, flat, rows, 1);
    const EncodedDataset want = EncodedDataset::from_rows(*encoder, flat, rows, 1);
    ASSERT_EQ(arena.size(), want.size());
    ASSERT_EQ(arena.dim(), want.dim());
    for (std::size_t i = 0; i < rows; ++i) {
      EXPECT_EQ(arena.sample(i).real, want.sample(i).real) << "row " << i;
      EXPECT_EQ(arena.sample(i).real_norm2, want.sample(i).real_norm2);
      EXPECT_EQ(arena.target(i), 0.0);
    }
  }
}

TEST(PipelineBatchTest, PredictBatchMatchesPerRowPredict) {
  const data::Dataset data = small_task();
  PipelineConfig cfg;
  cfg.reghd = small_reghd_config();
  cfg.encoder = small_encoder_config(0);  // input_dim inferred by fit()
  RegHDPipeline pipeline(cfg);
  pipeline.fit(data);

  const std::vector<double> batch = pipeline.predict_batch(data);
  ASSERT_EQ(batch.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(batch[i], pipeline.predict(data.row(i))) << "row " << i;
  }

  // Thread count must not change anything.
  pipeline.set_threads(1);
  const std::vector<double> serial = pipeline.predict_batch(data);
  EXPECT_EQ(batch, serial);
}

}  // namespace
}  // namespace reghd::core
