// SoA-arena equivalence suite (the contract behind the GEMM batch path):
//
//  * EncodedDataset::from must hand back rows bit-identical to per-row
//    Encoder::encode() for every encoder kind — including the RFF encoder's
//    cache-blocked GEMM projection — at any worker-thread count.
//  * SingleModelRegressor/MultiModelRegressor::predict_batch must equal the
//    per-row predict() for every cluster mode × prediction mode, at any
//    thread count (the full-precision bank fast path claims bit-identity;
//    the remaining modes share the per-row code outright) — also after
//    sparsify, decay, a shard merge and a model-section restore rewrite the
//    accumulator arena the bank scan reads in place.
//  * The committed golden checkpoints must load and predict identically
//    through the new SoA layout.
//
// The whole suite runs on whatever kernel backend is live; CI runs it twice
// (default dispatch and REGHD_KERNEL=scalar), which covers the backend axis.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/encoded.hpp"
#include "core/model_io.hpp"
#include "core/multi_model.hpp"
#include "core/single_model.hpp"
#include "data/dataset.hpp"
#include "hdc/encoding.hpp"
#include "util/atomic_file.hpp"
#include "util/random.hpp"

#ifndef REGHD_GOLDEN_DIR
#error "REGHD_GOLDEN_DIR must be defined by the build"
#endif

namespace reghd::core {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 4};

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
  return {"soa-equivalence", features, std::move(flat), std::move(targets)};
}

// ---------------------------------------------------------------------------
// Arena encoding vs per-row encoding, all encoder kinds.
// ---------------------------------------------------------------------------

class ArenaEncodeTest : public ::testing::TestWithParam<hdc::EncoderKind> {};

TEST_P(ArenaEncodeTest, ArenaRowsBitIdenticalToPerRowEncode) {
  // dim 200 is deliberately not a multiple of 64: the packed plane has
  // padding bits, and the SIMD sign_pack tail path runs.
  for (const std::size_t dim : {static_cast<std::size_t>(200), static_cast<std::size_t>(256)}) {
    hdc::EncoderConfig cfg;
    cfg.kind = GetParam();
    cfg.input_dim = 6;
    cfg.dim = dim;
    const auto encoder = hdc::make_encoder(cfg);
    const data::Dataset dataset = make_dataset(33, cfg.input_dim, 0xA7E0A + dim);

    for (const std::size_t threads : kThreadCounts) {
      const EncodedDataset enc = EncodedDataset::from(*encoder, dataset, threads);
      ASSERT_EQ(enc.size(), dataset.size());
      ASSERT_EQ(enc.dim(), dim);
      for (std::size_t i = 0; i < dataset.size(); ++i) {
        const hdc::EncodedSample expected = encoder->encode(dataset.row(i));
        const hdc::EncodedSampleView got = enc.sample(i);
        EXPECT_TRUE(got.real == hdc::RealHVView(expected.real))
            << "real row " << i << " threads " << threads << " dim " << dim;
        EXPECT_TRUE(got.binary == hdc::BinaryHVView(expected.binary))
            << "binary row " << i;
        // Norms come from the same dot_real_real on identical data: exact.
        EXPECT_EQ(got.real_norm2, expected.real_norm2) << "norm2 row " << i;
        EXPECT_EQ(got.real_norm, expected.real_norm) << "norm row " << i;
        EXPECT_EQ(enc.target(i), dataset.target(i));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEncoders, ArenaEncodeTest,
                         ::testing::Values(hdc::EncoderKind::kNonlinearFeature,
                                           hdc::EncoderKind::kRffProjection,
                                           hdc::EncoderKind::kIdLevel,
                                           hdc::EncoderKind::kTemporal),
                         [](const auto& param_info) { return hdc::to_string(param_info.param); });

// ---------------------------------------------------------------------------
// Batched prediction vs per-row prediction, all mode combinations.
// ---------------------------------------------------------------------------

struct ModeCase {
  ClusterMode cluster;
  QueryPrecision query;
  ModelPrecision model;
};

std::string mode_name(const ::testing::TestParamInfo<ModeCase>& info) {
  std::string name = to_string(info.param.cluster) + "_" + to_string(info.param.query) +
                     "q_" + to_string(info.param.model) + "m";
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return name;
}

std::vector<ModeCase> all_mode_cases() {
  std::vector<ModeCase> cases;
  for (const ClusterMode c : {ClusterMode::kFullPrecision, ClusterMode::kQuantized,
                              ClusterMode::kNaiveBinary}) {
    for (const QueryPrecision q : {QueryPrecision::kReal, QueryPrecision::kBinary}) {
      for (const ModelPrecision m : {ModelPrecision::kReal, ModelPrecision::kTernary,
                                     ModelPrecision::kBinary}) {
        cases.push_back({c, q, m});
      }
    }
  }
  return cases;
}

class BatchPredictModeTest : public ::testing::TestWithParam<ModeCase> {};

TEST_P(BatchPredictModeTest, MultiModelBatchMatchesPerRowPredict) {
  const ModeCase mode = GetParam();
  RegHDConfig cfg;
  cfg.dim = 256;
  cfg.models = 4;
  cfg.cluster_mode = mode.cluster;
  cfg.query_precision = mode.query;
  cfg.model_precision = mode.model;

  hdc::EncoderConfig enc_cfg;
  enc_cfg.input_dim = 6;
  enc_cfg.dim = cfg.dim;
  const auto encoder = hdc::make_encoder(enc_cfg);
  const data::Dataset dataset = make_dataset(48, enc_cfg.input_dim, 0xBA7C4);
  const EncodedDataset enc = EncodedDataset::from(*encoder, dataset, 1);

  MultiModelRegressor model(cfg);
  for (std::size_t i = 0; i < enc.size(); ++i) {
    model.train_step(enc.sample(i), enc.target(i));
  }
  model.requantize();

  for (const std::size_t threads : kThreadCounts) {
    const std::vector<double> batched = model.predict_batch(enc, threads);
    ASSERT_EQ(batched.size(), enc.size());
    for (std::size_t i = 0; i < enc.size(); ++i) {
      EXPECT_DOUBLE_EQ(batched[i], model.predict(enc.sample(i)))
          << "row " << i << " threads " << threads;
    }
  }
}

TEST_P(BatchPredictModeTest, SingleModelBatchMatchesPerRowPredict) {
  const ModeCase mode = GetParam();
  RegHDConfig cfg;
  cfg.dim = 256;
  cfg.models = 1;
  cfg.cluster_mode = mode.cluster;
  cfg.query_precision = mode.query;
  cfg.model_precision = mode.model;

  hdc::EncoderConfig enc_cfg;
  enc_cfg.input_dim = 6;
  enc_cfg.dim = cfg.dim;
  const auto encoder = hdc::make_encoder(enc_cfg);
  const data::Dataset dataset = make_dataset(48, enc_cfg.input_dim, 0x517C1E);
  const EncodedDataset enc = EncodedDataset::from(*encoder, dataset, 1);

  SingleModelRegressor model(cfg);
  for (std::size_t i = 0; i < enc.size(); ++i) {
    model.train_step(enc.sample(i), enc.target(i));
  }

  for (const std::size_t threads : kThreadCounts) {
    const std::vector<double> batched = model.predict_batch(enc, threads);
    ASSERT_EQ(batched.size(), enc.size());
    for (std::size_t i = 0; i < enc.size(); ++i) {
      EXPECT_DOUBLE_EQ(batched[i], model.predict(enc.sample(i)))
          << "row " << i << " threads " << threads;
    }
  }
}

// Both batch paths scan the regressor's accumulator arena (and the packed
// bank) in place, so every operation that rewrites that state must leave
// them equal to per-row predict(): serial predict_batch_into with a freshly
// prepared scratch, and the chunked parallel predict_batch.
void expect_batch_paths_match_predict(const MultiModelRegressor& model,
                                      const EncodedDataset& enc, const std::string& step) {
  MultiModelRegressor::PredictScratch scratch;
  model.prepare_predict_scratch(scratch);
  std::vector<double> into(enc.size());
  model.predict_batch_into(enc, into, scratch);
  for (const std::size_t threads : kThreadCounts) {
    const std::vector<double> batched = model.predict_batch(enc, threads);
    ASSERT_EQ(batched.size(), enc.size()) << step;
    for (std::size_t i = 0; i < enc.size(); ++i) {
      const double want = model.predict(enc.sample(i));
      EXPECT_EQ(batched[i], want) << step << " row " << i << " threads " << threads;
      EXPECT_EQ(into[i], want) << step << " row " << i << " (predict_batch_into)";
    }
  }
}

TEST_P(BatchPredictModeTest, MultiModelBatchPathsTrackInPlaceStateChanges) {
  const ModeCase mode = GetParam();
  RegHDConfig cfg;
  cfg.dim = 200;  // not a multiple of 64: ragged final word and row stride
  cfg.models = 3;
  cfg.cluster_mode = mode.cluster;
  cfg.query_precision = mode.query;
  cfg.model_precision = mode.model;

  hdc::EncoderConfig enc_cfg;
  enc_cfg.input_dim = 6;
  enc_cfg.dim = cfg.dim;
  const auto encoder = hdc::make_encoder(enc_cfg);
  const EncodedDataset enc =
      EncodedDataset::from(*encoder, make_dataset(70, enc_cfg.input_dim, 0x1A9CE), 1);

  const MultiModelRegressor base(cfg);
  MultiModelRegressor model = base;
  for (std::size_t i = 0; i < 40; ++i) {
    model.train_step(enc.sample(i), enc.target(i));
  }
  model.requantize();
  expect_batch_paths_match_predict(model, enc, "trained");

  model.sparsify(0.3);
  expect_batch_paths_match_predict(model, enc, "sparsify");

  model.decay_models(0.5);  // accumulators scaled, snapshots left as they were
  expect_batch_paths_match_predict(model, enc, "decay_models");

  MultiModelRegressor replica = base;
  for (std::size_t i = 40; i < enc.size(); ++i) {
    replica.train_step(enc.sample(i), enc.target(i));
  }
  model.merge_accumulate_delta(replica, base);  // snapshots stale until requantize
  expect_batch_paths_match_predict(model, enc, "merge_accumulate_delta");
  model.requantize();
  expect_batch_paths_match_predict(model, enc, "merge + requantize");

  std::stringstream bytes(std::ios::in | std::ios::out | std::ios::binary);
  io::write_model_section(bytes, model);
  MultiModelRegressor restored(cfg);
  io::read_model_section(bytes, restored);
  restored.requantize();
  expect_batch_paths_match_predict(restored, enc, "read_model_section");
  for (std::size_t i = 0; i < enc.size(); ++i) {
    EXPECT_EQ(restored.predict(enc.sample(i)), model.predict(enc.sample(i))) << "row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, BatchPredictModeTest,
                         ::testing::ValuesIn(all_mode_cases()), mode_name);

// ---------------------------------------------------------------------------
// Golden checkpoints through the SoA layout.
// ---------------------------------------------------------------------------

std::string golden(const std::string& name) {
  return std::string(REGHD_GOLDEN_DIR) + "/" + name;
}

double next_double(std::istream& in) {
  std::string token;
  EXPECT_TRUE(static_cast<bool>(in >> token)) << "golden text file truncated";
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  EXPECT_EQ(end, token.c_str() + token.size()) << "bad token '" << token << "'";
  return value;
}

TEST(GoldenSoaTest, GoldenPipelinesPredictIdenticallyThroughArenaBatchPath) {
  // The golden blobs were written before the SoA arena existed; loading them
  // and batch-predicting through EncodedDataset must reproduce the committed
  // per-row predictions (1e-9 relative, the golden suite's own slack).
  std::ifstream qf(golden("queries.txt"));
  std::ifstream pf(golden("predictions.txt"));
  ASSERT_TRUE(qf.good() && pf.good()) << "golden text files missing";
  std::size_t count = 0;
  std::size_t features = 0;
  qf >> count >> features;
  std::vector<double> flat;
  std::vector<double> pipeline_expected;
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t f = 0; f < features; ++f) {
      flat.push_back(next_double(qf));
    }
    pipeline_expected.push_back(next_double(pf));
    (void)next_double(pf);  // online-model prediction, not used here
  }
  const data::Dataset queries("golden-queries", features, std::move(flat),
                              std::vector<double>(count, 0.0));

  for (const char* blob : {"pipeline_v1.reghd", "pipeline_v2.reghd"}) {
    std::istringstream in(util::read_file_bytes(golden(blob)), std::ios::binary);
    const RegHDPipeline pipeline = load_pipeline(in);
    const std::vector<double> batched = pipeline.predict_batch(queries);
    ASSERT_EQ(batched.size(), count) << blob;
    for (std::size_t i = 0; i < count; ++i) {
      const double per_row = pipeline.predict(queries.row(i));
      EXPECT_NEAR(batched[i], pipeline_expected[i],
                  1e-9 * std::max(1.0, std::abs(pipeline_expected[i])))
          << blob << " query " << i;
      EXPECT_DOUBLE_EQ(batched[i], per_row) << blob << " query " << i;
    }
  }
}

}  // namespace
}  // namespace reghd::core
