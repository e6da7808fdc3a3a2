// Batched encode/predict paths must be exact row-for-row matches of the
// per-sample paths, for every thread count. These tests pin that property
// across the encoder batch API, the encoded-dataset builder, both
// regressors, and the end-user pipeline override.
#include <algorithm>
#include <cctype>
#include <cstddef>
#include <numeric>
#include <string>
#include <tuple>
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

    // Train further without requantizing: the accumulators move under the
    // unchanged snapshots, and a scratch re-prepared for the trained model
    // must still match predict_batch.
    for (std::size_t i = 0; i < 16; ++i) {
      reg.train_step(enc.sample(i), enc.target(i));
    }
    reg.prepare_predict_scratch(scratch);
    const std::vector<double> want2 = reg.predict_batch(enc);
    std::vector<double> got2(enc.size(), -1.0);
    reg.predict_batch_into(enc, got2, scratch);
    EXPECT_EQ(got2, want2) << "re-prepared scratch after more training";
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

// The batch scorer sweeps blocks of up to 64 queries through dot_rows_multi
// (register tiles of several queries; the leftover queries of a block run the
// single-query scan) and finishes every row through the one Eq. 5/6 scorer.
// In every cluster × query × model × update-rule mode, at batch sizes on both
// sides of a query tile and of a 64-row block, and at an unaligned and a
// power-of-two dim, each batch path must equal per-row predict() bit for bit.
// k = 3 makes the 2k = 6 real rows one whole 4-row tile plus a leftover pair
// (and the 3-row cluster half a leftover triple).
using ScorerMode = std::tuple<ClusterMode, QueryPrecision, ModelPrecision, UpdateRule>;

class BatchScorerModeTest : public ::testing::TestWithParam<ScorerMode> {};

TEST_P(BatchScorerModeTest, EveryBatchPathMatchesPerRowPredictAtTileAndBlockEdges) {
  const auto [cluster, query, model, rule] = GetParam();
  constexpr std::size_t kBatchSizes[] = {1, 3, 4, 5, 63, 64, 65, 129};
  const data::Dataset data = data::make_friedman1(129, 11);
  for (const std::size_t dim : {std::size_t{1000}, std::size_t{2048}}) {
    hdc::EncoderConfig enc_cfg = small_encoder_config(data.num_features());
    enc_cfg.dim = dim;
    const auto encoder = hdc::make_encoder(enc_cfg);
    const EncodedDataset enc = EncodedDataset::from(*encoder, data);
    RegHDConfig cfg = small_reghd_config();
    cfg.dim = dim;
    cfg.models = 3;
    cfg.cluster_mode = cluster;
    cfg.query_precision = query;
    cfg.model_precision = model;
    cfg.update_rule = rule;
    MultiModelRegressor reg(cfg);
    for (std::size_t i = 0; i < 40; ++i) {
      reg.train_step(enc.sample(i), enc.target(i));
    }
    reg.requantize();
    MultiModelRegressor::PredictScratch scratch;
    reg.prepare_predict_scratch(scratch);

    for (const std::size_t b : kBatchSizes) {
      const std::string what = "dim " + std::to_string(dim) + " batch " + std::to_string(b);
      std::vector<std::size_t> rows(b);
      std::iota(rows.begin(), rows.end(), 0);
      const EncodedDataset batch = enc.subset(rows);
      std::vector<double> want(b);
      double sq = 0.0;
      for (std::size_t i = 0; i < b; ++i) {
        want[i] = reg.predict(batch.sample(i));
        sq += (want[i] - batch.target(i)) * (want[i] - batch.target(i));
      }
      std::vector<double> got(b, -1.0);
      reg.predict_batch_into(batch, got, scratch);
      EXPECT_EQ(got, want) << what << " (predict_batch_into)";
      EXPECT_EQ(reg.predict_batch(batch, 1), want) << what << " (1 thread)";
      EXPECT_EQ(reg.predict_batch(batch, 4), want) << what << " (4 threads)";
      EXPECT_EQ(reg.evaluate_mse(batch), sq / static_cast<double>(b)) << what;

      // train_batch scores against the entry state in the training mode (the
      // integer models): each returned prediction is train_step's pre-update
      // prediction on a copy of the entry state — and so predict() itself
      // when the configured model is the integer one. A contiguous index run
      // goes through the query tiles; the reversed list through single
      // queries.
      std::vector<std::size_t> reversed(rows.rbegin(), rows.rend());
      for (const std::vector<std::size_t>* idx : {&rows, &reversed}) {
        MultiModelRegressor trained = reg;
        std::vector<double> preds(b, -1.0);
        trained.train_batch(enc, *idx, preds);
        for (std::size_t j = 0; j < b; ++j) {
          MultiModelRegressor entry = reg;
          const std::size_t row = (*idx)[j];
          ASSERT_EQ(preds[j], entry.train_step(enc.sample(row), enc.target(row)))
              << what << " train_batch slot " << j;
          if (model == ModelPrecision::kReal) {
            ASSERT_EQ(preds[j], reg.predict(enc.sample(row))) << what << " slot " << j;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, BatchScorerModeTest,
    ::testing::Combine(::testing::Values(ClusterMode::kFullPrecision, ClusterMode::kQuantized,
                                         ClusterMode::kNaiveBinary),
                       ::testing::Values(QueryPrecision::kReal, QueryPrecision::kBinary),
                       ::testing::Values(ModelPrecision::kReal, ModelPrecision::kBinary,
                                         ModelPrecision::kTernary),
                       ::testing::Values(UpdateRule::kConfidenceWeighted,
                                         UpdateRule::kWinnerOnly)),
    [](const ::testing::TestParamInfo<ScorerMode>& mode_info) {
      std::string name = to_string(std::get<0>(mode_info.param)) + "_" +
                         to_string(std::get<1>(mode_info.param)) + "q_" +
                         to_string(std::get<2>(mode_info.param)) + "m_" +
                         to_string(std::get<3>(mode_info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      return name;
    });

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
