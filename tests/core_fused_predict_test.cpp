// Fused single-query predict path (MultiModelRegressor::predict_one) vs the
// materializing predict(encode(features)) expression it claims to replay:
//
//  * bit-identity across the full cluster-mode × query-precision ×
//    model-precision matrix (fused modes replay the predict_batch
//    arithmetic; the rest must fall back to exactly the materializing
//    expression), at dims below and above the 1024-component fused block,
//    for both RFF projection storages;
//  * the encoder's block-encode flag off forces the counted fallback in
//    every mode, with no result change;
//  * set_snapshots (after in-place accumulator writes, as a checkpoint
//    restore does) takes effect on the very next fused call;
//  * concurrent predict_one calls equal the serial results (thread_local
//    scratch contract);
//  * encoders without block support fall back, bit-identically;
//  * OnlineRegHD::predict routes through the fused path (no fallback
//    counted) and equals the materializing predict of the standardized
//    reading.
//
// The suite runs on whatever kernel backend is live; CI runs it under
// default dispatch, REGHD_KERNEL=scalar, and the NEON cross job, which
// covers the backend axis.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/encoded.hpp"
#include "core/multi_model.hpp"
#include "core/online.hpp"
#include "data/dataset.hpp"
#include "hdc/encoding.hpp"
#include "obs/telemetry.hpp"
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
  return {"fused-predict", features, std::move(flat), std::move(targets)};
}

/// The smallest hyperspace dimension whose F×D projection exceeds the
/// rematerialized encoder's storage budget, plus a ragged 100: the encoder
/// then regenerates 16-row weight tiles for each block instead of slicing a
/// stored projection.
std::size_t over_budget_dim(std::size_t input_dim) {
  return hdc::RffProjectionEncoder::kRematCacheBytes / (sizeof(double) * input_dim) +
         100;
}

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

/// A trained regressor + its encoder + the raw feature rows, ready for
/// fused-vs-materializing comparisons.
struct Harness {
  RegHDConfig cfg;
  std::unique_ptr<hdc::Encoder> encoder;
  data::Dataset dataset;
  std::unique_ptr<MultiModelRegressor> model;
};

Harness make_harness(const ModeCase& mode, std::size_t dim,
                     hdc::ProjectionStorage storage) {
  Harness h;
  h.cfg.dim = dim;
  h.cfg.models = 4;
  h.cfg.cluster_mode = mode.cluster;
  h.cfg.query_precision = mode.query;
  h.cfg.model_precision = mode.model;

  hdc::EncoderConfig enc_cfg;
  enc_cfg.kind = hdc::EncoderKind::kRffProjection;
  enc_cfg.input_dim = 6;
  enc_cfg.dim = dim;
  enc_cfg.projection_storage = storage;
  h.encoder = hdc::make_encoder(enc_cfg);
  h.dataset = make_dataset(24, enc_cfg.input_dim, 0xF05ED + dim);
  const EncodedDataset enc = EncodedDataset::from(*h.encoder, h.dataset, 1);

  h.model = std::make_unique<MultiModelRegressor>(h.cfg);
  for (std::size_t i = 0; i < enc.size(); ++i) {
    h.model->train_step(enc.sample(i), enc.target(i));
  }
  h.model->requantize();
  return h;
}

/// `inner` with its block-encode flag off: the same encoding, but
/// supports_block_encode() keeps the base class's false, so predict_one
/// must take the materializing fallback whatever the mode.
class BlockFlagOffEncoder final : public hdc::Encoder {
 public:
  explicit BlockFlagOffEncoder(const hdc::Encoder& inner)
      : Encoder(inner.config()), inner_(inner) {}

 protected:
  void encode_real_into(std::span<const double> features, double* out) const override {
    const hdc::RealHV real = inner_.encode_real(features);
    std::copy(real.values().begin(), real.values().end(), out);
  }

 private:
  const hdc::Encoder& inner_;
};

class FusedPredictModeTest : public ::testing::TestWithParam<ModeCase> {};

TEST_P(FusedPredictModeTest, FusedBitIdenticalToMaterializingPredict) {
  // 200 < one fused block (single ragged call); 1100 > the 1024 block (one
  // full carried block + ragged tail). Neither is a multiple of 64, so the
  // packed planes have padding bits in play. Both projection storages: the
  // slices of the stored projection and, at the over-budget rematerialized
  // dim, the regenerated tiles are distinct encode_real_block code paths.
  for (const std::size_t dim : {static_cast<std::size_t>(200),
                                static_cast<std::size_t>(1100), over_budget_dim(6)}) {
    for (const hdc::ProjectionStorage storage :
         {hdc::ProjectionStorage::kResident, hdc::ProjectionStorage::kRematerialized}) {
      const Harness h = make_harness(GetParam(), dim, storage);
      for (std::size_t i = 0; i < h.dataset.size(); ++i) {
        const double want = h.model->predict(h.encoder->encode(h.dataset.row(i)));
        const double got = h.model->predict_one(*h.encoder, h.dataset.row(i));
        EXPECT_EQ(got, want) << "row " << i << " dim " << dim << " storage "
                             << hdc::to_string(storage);
      }
    }
  }
}

TEST_P(FusedPredictModeTest, FusedPredictFlagOffFallsBackBitIdentically) {
  const Harness h = make_harness(GetParam(), 200, hdc::ProjectionStorage::kResident);
  ASSERT_TRUE(h.encoder->supports_block_encode());
  const BlockFlagOffEncoder flag_off(*h.encoder);
  ASSERT_FALSE(flag_off.supports_block_encode());
  obs::set_enabled(true);
  obs::reset();
  std::vector<double> got(h.dataset.size());
  for (std::size_t i = 0; i < h.dataset.size(); ++i) {
    got[i] = h.model->predict_one(flag_off, h.dataset.row(i));
  }
#ifndef REGHD_NO_TELEMETRY
  // Every flag-off call, fusable mode or not, is one counted fallback.
  EXPECT_EQ(obs::snapshot().counter(obs::Counter::kPredictFusedFallbacks),
            h.dataset.size());
#endif
  obs::set_enabled(false);
  for (std::size_t i = 0; i < h.dataset.size(); ++i) {
    EXPECT_EQ(got[i], h.model->predict(h.encoder->encode(h.dataset.row(i)))) << "row " << i;
    EXPECT_EQ(got[i], h.model->predict_one(*h.encoder, h.dataset.row(i))) << "row " << i;
  }
}

TEST_P(FusedPredictModeTest, ConcurrentCallsMatchSerialResults) {
  // predict_one is const with thread_local scratch: T concurrent callers
  // must reproduce the serial results exactly (T ∈ {1, 4} mirrors the
  // batch-path thread matrix).
  const Harness h = make_harness(GetParam(), 1100, hdc::ProjectionStorage::kResident);
  std::vector<double> want(h.dataset.size());
  for (std::size_t i = 0; i < h.dataset.size(); ++i) {
    want[i] = h.model->predict_one(*h.encoder, h.dataset.row(i));
  }
  for (const std::size_t threads : {static_cast<std::size_t>(1),
                                    static_cast<std::size_t>(4)}) {
    std::vector<std::vector<double>> got(threads,
                                         std::vector<double>(h.dataset.size()));
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (std::size_t i = 0; i < h.dataset.size(); ++i) {
          got[t][i] = h.model->predict_one(*h.encoder, h.dataset.row(i));
        }
      });
    }
    for (auto& w : workers) {
      w.join();
    }
    for (std::size_t t = 0; t < threads; ++t) {
      EXPECT_EQ(got[t], want) << "thread " << t << " of " << threads;
    }
  }
}

TEST_P(FusedPredictModeTest, SetSnapshotsTakesEffectOnTheNextFusedCall) {
  // The checkpoint-restore pattern: accumulator rows written in place, then
  // set_snapshots. The next predict_one on this thread, whose scratch was
  // warmed against the old state, must score the new bank and reproduce the
  // donor model exactly, fused and materializing alike.
  const Harness h = make_harness(GetParam(), 1100, hdc::ProjectionStorage::kResident);
  const Harness donor = make_harness(GetParam(), 1100, hdc::ProjectionStorage::kResident);
  const data::Dataset more = make_dataset(24, h.dataset.num_features(), 0xD0402);
  const EncodedDataset enc = EncodedDataset::from(*donor.encoder, more, 1);
  for (std::size_t i = 0; i < enc.size(); ++i) {
    donor.model->train_step(enc.sample(i), -enc.target(i));
  }
  donor.model->requantize();

  std::vector<double> before(h.dataset.size());
  for (std::size_t i = 0; i < h.dataset.size(); ++i) {
    before[i] = h.model->predict_one(*h.encoder, h.dataset.row(i));
  }
  const MultiModelRegressor::State state = donor.model->state();
  for (std::size_t i = 0; i < h.model->num_models(); ++i) {
    const std::span<const double> c = donor.model->cluster_accumulator(i);
    const std::span<const double> m = donor.model->model_accumulator(i);
    std::copy(c.begin(), c.end(), h.model->mutable_cluster_accumulator(i).begin());
    std::copy(m.begin(), m.end(), h.model->mutable_model_accumulator(i).begin());
  }
  h.model->set_snapshots(state.clusters, state.models);

  EXPECT_EQ(h.model->packed_bank().signs, donor.model->packed_bank().signs);
  EXPECT_EQ(h.model->packed_bank().masks, donor.model->packed_bank().masks);
  EXPECT_EQ(h.model->packed_bank().scale, donor.model->packed_bank().scale);
  std::size_t changed = 0;
  for (std::size_t i = 0; i < h.dataset.size(); ++i) {
    const double got = h.model->predict_one(*h.encoder, h.dataset.row(i));
    EXPECT_EQ(got, donor.model->predict_one(*donor.encoder, h.dataset.row(i))) << "row " << i;
    EXPECT_EQ(got, h.model->predict(h.encoder->encode(h.dataset.row(i)))) << "row " << i;
    changed += got != before[i] ? 1 : 0;
  }
  // The donor's extra training moved the model, so the swap is visible.
  EXPECT_GT(changed, 0U);
}

INSTANTIATE_TEST_SUITE_P(AllModes, FusedPredictModeTest,
                         ::testing::ValuesIn(all_mode_cases()), mode_name);

TEST(FusedPredictTest, BenchShapeSpotCheck) {
  // The benchmark configuration the ≥1.5× latency claim is measured at:
  // D = 4096, F = 10, rematerialized projection, real/real mode (the
  // RegHDConfig default precisions) — and the same encoder over the
  // storage budget, whose fused path regenerates weight tiles.
  for (const std::size_t dim : {static_cast<std::size_t>(4096), over_budget_dim(10)}) {
    RegHDConfig cfg;
    cfg.dim = dim;
    cfg.models = 4;

    hdc::EncoderConfig enc_cfg;
    enc_cfg.kind = hdc::EncoderKind::kRffProjection;
    enc_cfg.input_dim = 10;
    enc_cfg.dim = cfg.dim;
    enc_cfg.projection_storage = hdc::ProjectionStorage::kRematerialized;
    const auto encoder = hdc::make_encoder(enc_cfg);
    const data::Dataset dataset = make_dataset(8, enc_cfg.input_dim, 0xBE7C);
    const EncodedDataset enc = EncodedDataset::from(*encoder, dataset, 1);

    MultiModelRegressor model(cfg);
    for (std::size_t i = 0; i < enc.size(); ++i) {
      model.train_step(enc.sample(i), enc.target(i));
    }
    model.requantize();
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      EXPECT_EQ(model.predict_one(*encoder, dataset.row(i)),
                model.predict(encoder->encode(dataset.row(i))))
          << "dim " << dim << " row " << i;
    }
  }
}

TEST(FusedPredictTest, NonBlockEncoderFallsBackBitIdentically) {
  // The nonlinear encoder has no block support: predict_one must detect
  // that and evaluate the materializing expression verbatim.
  RegHDConfig cfg;
  cfg.dim = 256;
  cfg.models = 4;

  hdc::EncoderConfig enc_cfg;
  enc_cfg.kind = hdc::EncoderKind::kNonlinearFeature;
  enc_cfg.input_dim = 6;
  enc_cfg.dim = cfg.dim;
  const auto encoder = hdc::make_encoder(enc_cfg);
  ASSERT_FALSE(encoder->supports_block_encode());
  const data::Dataset dataset = make_dataset(16, enc_cfg.input_dim, 0xFA11);
  const EncodedDataset enc = EncodedDataset::from(*encoder, dataset, 1);

  MultiModelRegressor model(cfg);
  for (std::size_t i = 0; i < enc.size(); ++i) {
    model.train_step(enc.sample(i), enc.target(i));
  }
  model.requantize();
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    EXPECT_EQ(model.predict_one(*encoder, dataset.row(i)),
              model.predict(encoder->encode(dataset.row(i))))
        << "row " << i;
  }
}

TEST(FusedPredictTest, RffEncodeRealBlockMatchesFullEncodeSlices) {
  // The encoder-level contract underneath the fused path: any block split of
  // encode_real_block equals the same slice of the full encoding, for both
  // projection storages, within and over the storage budget.
  for (const std::size_t dim : {static_cast<std::size_t>(1100), over_budget_dim(7)}) {
    for (const hdc::ProjectionStorage storage :
         {hdc::ProjectionStorage::kResident, hdc::ProjectionStorage::kRematerialized}) {
      hdc::EncoderConfig enc_cfg;
      enc_cfg.kind = hdc::EncoderKind::kRffProjection;
      enc_cfg.input_dim = 7;
      enc_cfg.dim = dim;
      enc_cfg.projection_storage = storage;
      const auto encoder = hdc::make_encoder(enc_cfg);
      ASSERT_TRUE(encoder->supports_block_encode());

      util::Rng rng(0xB10C);
      std::vector<double> features(enc_cfg.input_dim);
      for (double& x : features) {
        x = rng.normal(0.0, 1.0);
      }
      const hdc::RealHV full = encoder->encode_real(features);

      for (const std::size_t block : {static_cast<std::size_t>(64),
                                      static_cast<std::size_t>(1024),
                                      static_cast<std::size_t>(1100)}) {
        std::vector<double> out(block);
        for (std::size_t j0 = 0; j0 < enc_cfg.dim; j0 += block) {
          const std::size_t len = std::min(block, enc_cfg.dim - j0);
          encoder->encode_real_block(features, j0, len, out.data());
          for (std::size_t j = 0; j < len; ++j) {
            ASSERT_EQ(out[j], full[j0 + j])
                << "dim " << dim << " " << hdc::to_string(storage) << " block "
                << block << " j " << j0 + j;
          }
        }
      }
    }
  }
}

TEST(FusedPredictTest, OnlinePredictRoutesThroughFusedPathUnchanged) {
  // OnlineRegHD::predict in a fusable mode, through warmup, cold start and
  // trained operation: equal to the materializing predict(encode(x)) of the
  // standardized reading, and never counted as a fused-path fallback.
  obs::set_enabled(true);
  for (const bool adaptive : {true, false}) {
    OnlineConfig cfg;
    cfg.reghd.dim = 1100;
    cfg.reghd.models = 4;
    cfg.reghd.cluster_mode = ClusterMode::kQuantized;
    cfg.reghd.query_precision = QueryPrecision::kBinary;
    cfg.reghd.model_precision = ModelPrecision::kBinary;
    cfg.adaptive_scaling = adaptive;
    cfg.warmup = 4;

    constexpr std::size_t kFeatures = 6;
    OnlineRegHD learner(cfg, kFeatures);
    const data::Dataset dataset = make_dataset(40, kFeatures, 0x0A71);
    std::vector<double> scaled(kFeatures);
    obs::reset();
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      double want = 0.0;
      if (learner.cold()) {
        want = learner.cold_prediction();
      } else {
        learner.standardize_rows_into(dataset.row(i), 1, scaled);
        want = learner.unscale(learner.model().predict(learner.encoder().encode(scaled)));
      }
      EXPECT_EQ(learner.predict(dataset.row(i)), want)
          << "reading " << i << " adaptive " << adaptive;
      (void)learner.update(dataset.row(i), dataset.target(i));
    }
#ifndef REGHD_NO_TELEMETRY
    const obs::TelemetrySnapshot snap = obs::snapshot();
    EXPECT_GT(snap.counter(obs::Counter::kPredictFused), 0U) << "adaptive " << adaptive;
    EXPECT_EQ(snap.counter(obs::Counter::kPredictFusedFallbacks), 0U)
        << "adaptive " << adaptive;
#endif
  }
  obs::set_enabled(false);
}

}  // namespace
}  // namespace reghd::core
