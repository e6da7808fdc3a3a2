// Property round-trip layer: for EVERY encoder kind × cluster mode ×
// prediction mode, serialize → deserialize must reproduce the model
// exactly — 64 random queries predict bit-identically — in both the v2
// (default) and legacy v1 container. Nothing writes v1 any more: a v1
// stream is the v2 container's section payloads laid end to end after a
// version-1 header, so the v1 cases re-frame the v2 bytes (checked against
// the committed golden pair first).
#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>

#include "core/model_io.hpp"
#include "core/pipeline.hpp"
#include "data/synthetic.hpp"
#include "util/atomic_file.hpp"
#include "util/framing.hpp"
#include "util/random.hpp"
#include "util/serialize.hpp"

#ifndef REGHD_GOLDEN_DIR
#error "REGHD_GOLDEN_DIR must be defined by the build"
#endif

namespace reghd::core {
namespace {

/// The v1 stream holding the same pipeline as the v2 file `v2`: magic,
/// version 1, then the CONF, SCAL (when present) and MODL payloads in file
/// order, with the framing and checksums dropped.
std::string v1_from_v2(const std::string& v2) {
  const util::ParsedFile file = util::parse_sections(std::string_view(v2).substr(8));
  std::ostringstream out(std::ios::binary);
  util::write_header(out, kModelMagic, 1);
  for (const util::Section& section : file.sections) {
    out << section.payload;
  }
  return out.str();
}

std::string golden_bytes(const std::string& name) {
  return util::read_file_bytes(std::string(REGHD_GOLDEN_DIR) + "/" + name);
}

TEST(V1Reframe, GoldenV2ReframesToTheCommittedV1Bytes) {
  EXPECT_EQ(v1_from_v2(golden_bytes("pipeline_v2.reghd")),
            golden_bytes("pipeline_v1.reghd"));
}

using Combo = std::tuple<hdc::EncoderKind, ClusterMode, QueryPrecision, ModelPrecision>;

std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
  const auto [encoder, cluster, query, model] = info.param;
  std::string name = hdc::to_string(encoder);
  name += "_" + to_string(cluster) + "_" + to_string(query) + "q_" + to_string(model) + "m";
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return name;
}

class RoundTripMatrix : public ::testing::TestWithParam<Combo> {
 protected:
  static RegHDPipeline fitted(const Combo& combo) {
    const auto [encoder, cluster, query, model] = combo;
    PipelineConfig cfg;
    cfg.encoder.kind = encoder;
    cfg.reghd.dim = 128;
    cfg.reghd.models = 2;
    cfg.reghd.max_epochs = 3;
    cfg.reghd.cluster_mode = cluster;
    cfg.reghd.query_precision = query;
    cfg.reghd.model_precision = model;
    cfg.reghd.threads = 1;
    cfg.reghd.seed = 77;
    RegHDPipeline pipeline(cfg);
    pipeline.fit(data::make_friedman1(120, 5));
    return pipeline;
  }

  static void expect_identical_predictions(const RegHDPipeline& a, const RegHDPipeline& b) {
    util::Rng rng(321);
    std::vector<double> query(10);
    for (int trial = 0; trial < 64; ++trial) {
      for (double& x : query) {
        x = rng.uniform(-2.0, 2.0);
      }
      const double ya = a.predict(query);
      const double yb = b.predict(query);
      // Bit-identical, not approximately equal: the restored model must BE
      // the saved model.
      EXPECT_EQ(ya, yb) << "trial " << trial;
    }
  }
};

TEST_P(RoundTripMatrix, V2BitIdentical) {
  const RegHDPipeline original = fitted(GetParam());
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  save_pipeline(buffer, original);
  const RegHDPipeline restored = load_pipeline(buffer);
  expect_identical_predictions(original, restored);
}

TEST_P(RoundTripMatrix, V1BitIdentical) {
  const RegHDPipeline original = fitted(GetParam());
  std::ostringstream v2(std::ios::binary);
  save_pipeline(v2, original);
  std::istringstream v1(v1_from_v2(v2.str()), std::ios::binary);
  const RegHDPipeline restored = load_pipeline(v1);
  expect_identical_predictions(original, restored);
}

TEST_P(RoundTripMatrix, V1AndV2DecodeToTheSameModel) {
  const RegHDPipeline original = fitted(GetParam());
  std::ostringstream out(std::ios::binary);
  save_pipeline(out, original);
  std::istringstream v1(v1_from_v2(out.str()), std::ios::binary);
  std::istringstream v2(out.str(), std::ios::binary);
  expect_identical_predictions(load_pipeline(v1), load_pipeline(v2));
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigurations, RoundTripMatrix,
    ::testing::Combine(::testing::Values(hdc::EncoderKind::kNonlinearFeature,
                                         hdc::EncoderKind::kRffProjection,
                                         hdc::EncoderKind::kIdLevel,
                                         hdc::EncoderKind::kTemporal),
                       ::testing::Values(ClusterMode::kFullPrecision, ClusterMode::kQuantized,
                                         ClusterMode::kNaiveBinary),
                       ::testing::Values(QueryPrecision::kReal, QueryPrecision::kBinary),
                       ::testing::Values(ModelPrecision::kReal, ModelPrecision::kBinary,
                                         ModelPrecision::kTernary)),
    combo_name);

}  // namespace
}  // namespace reghd::core
