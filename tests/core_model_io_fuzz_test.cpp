// Corruption robustness of the model file format: a loader facing a
// damaged file must throw a typed exception — never crash, hang, or return
// a silently-wrong model. Both container versions are swept: the legacy v1
// stream (structural validation only; the committed golden blob, since
// nothing writes v1 any more) and the v2 checksummed container (every flip
// detected). Runs under ASan/UBSan in CI, so any out-of-bounds read or
// overflow a corrupt file provokes is fatal.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>

#include "core/model_io.hpp"
#include "data/synthetic.hpp"
#include "util/atomic_file.hpp"
#include "util/framing.hpp"
#include "util/random.hpp"

#ifndef REGHD_GOLDEN_DIR
#error "REGHD_GOLDEN_DIR must be defined by the build"
#endif

namespace reghd::core {
namespace {

std::string serialized_model(std::uint32_t version) {
  if (version == 1) {
    return util::read_file_bytes(std::string(REGHD_GOLDEN_DIR) + "/pipeline_v1.reghd");
  }
  static const RegHDPipeline* pipeline = [] {
    const data::Dataset d = data::make_friedman1(300, 5);
    PipelineConfig cfg;
    cfg.reghd.dim = 512;
    cfg.reghd.models = 2;
    cfg.reghd.max_epochs = 5;
    auto* p = new RegHDPipeline(cfg);
    p->fit(d);
    return p;
  }();
  std::stringstream buf;
  save_pipeline(buf, *pipeline);
  return buf.str();
}

class FormatVersions : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FormatVersions, IntactBytesLoad) {
  std::stringstream in(serialized_model(GetParam()));
  EXPECT_NO_THROW((void)load_pipeline(in));
}

TEST_P(FormatVersions, HeaderCorruptionAlwaysRejected) {
  std::string corrupted = serialized_model(GetParam());
  corrupted[0] = static_cast<char>(corrupted[0] ^ 0x55);  // magic byte
  std::stringstream in(corrupted);
  EXPECT_THROW((void)load_pipeline(in), std::runtime_error);
}

TEST_P(FormatVersions, GiganticLengthPrefixRejected) {
  // Overwrite the early structural region with huge values: the reader
  // must fail on validation or truncated payload, not attempt a huge
  // allocation loop that "succeeds".
  std::string corrupted = serialized_model(GetParam());
  for (std::size_t i = 8; i < 48 && i < corrupted.size(); ++i) {
    corrupted[i] = static_cast<char>(0xFF);
  }
  std::stringstream in(corrupted);
  EXPECT_THROW((void)load_pipeline(in), std::exception);
}

std::string version_name(const ::testing::TestParamInfo<std::uint32_t>& param_info) {
  return "v" + std::to_string(param_info.param);
}

INSTANTIATE_TEST_SUITE_P(Versions, FormatVersions, ::testing::Values(1u, 2u), version_name);

class TruncationSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, double>> {};

TEST_P(TruncationSweep, TruncatedFilesThrow) {
  const auto [version, fraction] = GetParam();
  const std::string full = serialized_model(version);
  const auto keep = static_cast<std::size_t>(fraction * static_cast<double>(full.size()));
  std::stringstream in(full.substr(0, keep));
  EXPECT_THROW((void)load_pipeline(in), std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(
    KeepFractions, TruncationSweep,
    ::testing::Combine(::testing::Values(1u, 2u),
                       ::testing::Values(0.0, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)));

TEST(ModelIoFuzzTest, V1RandomByteFlipsNeverCrash) {
  // v1 predates checksums: flips inside the float payload may load fine
  // (acceptable for the legacy format) but must never crash or hang.
  const std::string full = serialized_model(1);
  util::Rng rng(99);
  std::size_t loaded = 0;
  std::size_t rejected = 0;
  for (int trial = 0; trial < 60; ++trial) {
    std::string corrupted = full;
    // Half the flips target the structural prefix (header/config/lengths) —
    // the payload is megabytes of doubles, so purely uniform positions
    // would almost never exercise the validation paths.
    const auto pos = static_cast<std::size_t>(
        trial % 2 == 0 ? rng.uniform_index(std::min<std::size_t>(120, corrupted.size()))
                       : rng.uniform_index(corrupted.size()));
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ static_cast<char>(1 + rng.uniform_index(255)));
    std::stringstream in(corrupted);
    try {
      const RegHDPipeline p = load_pipeline(in);
      ++loaded;  // payload flip: structurally valid
    } catch (const std::exception&) {
      ++rejected;  // typed failure: the contract
    }
  }
  EXPECT_EQ(loaded + rejected, 60u);
  EXPECT_GT(rejected, 0u);  // at least some flips hit structural fields
}

TEST(ModelIoFuzzTest, V2RandomByteFlipsAlwaysTypedRejection) {
  // v2 is fully checksummed: EVERY single-byte flip must be rejected with a
  // typed FormatError — there is no "harmless payload flip" any more.
  const std::string full = serialized_model(2);
  util::Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::string corrupted = full;
    const auto pos = static_cast<std::size_t>(rng.uniform_index(corrupted.size()));
    const auto mask = static_cast<char>(1 + rng.uniform_index(255));
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ mask);
    std::stringstream in(corrupted);
    EXPECT_THROW((void)load_pipeline(in), util::FormatError)
        << "flip at byte " << pos << " mask " << static_cast<int>(mask);
  }
}

}  // namespace
}  // namespace reghd::core
