// v2 container semantics at the model_io level: typed FormatError per
// byte-position class, wrong-kind detection, and the v1 hostile-length
// regression (a rewritten length prefix must never drive a giant
// allocation).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/checkpoint.hpp"
#include "core/model_io.hpp"
#include "core/online.hpp"
#include "core/pipeline.hpp"
#include "data/synthetic.hpp"
#include "util/atomic_file.hpp"
#include "util/framing.hpp"

#ifndef REGHD_GOLDEN_DIR
#error "REGHD_GOLDEN_DIR must be defined by the build"
#endif

namespace reghd::core {
namespace {

using util::FormatError;
using util::FormatErrorKind;

const RegHDPipeline& fitted_pipeline() {
  static RegHDPipeline* pipeline = [] {
    PipelineConfig cfg;
    cfg.reghd.dim = 256;
    cfg.reghd.models = 2;
    cfg.reghd.max_epochs = 3;
    cfg.reghd.threads = 1;
    auto* p = new RegHDPipeline(cfg);
    p->fit(data::make_friedman1(120, 5));
    return p;
  }();
  return *pipeline;
}

std::string v2_bytes() {
  std::ostringstream out(std::ios::binary);
  save_pipeline(out, fitted_pipeline());
  return out.str();
}

FormatErrorKind load_kind(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  try {
    (void)load_pipeline(in);
  } catch (const FormatError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "corrupted file loaded without a FormatError";
  return FormatErrorKind::kIo;
}

std::string flip(std::string bytes, std::size_t pos, unsigned char mask = 0x5A) {
  bytes.at(pos) = static_cast<char>(bytes[pos] ^ mask);
  return bytes;
}

// --- typed error per byte-position class ---------------------------------

TEST(ModelIoV2Test, MagicCorruptionIsBadMagic) {
  EXPECT_EQ(load_kind(flip(v2_bytes(), 0)), FormatErrorKind::kBadMagic);
  EXPECT_EQ(load_kind(flip(v2_bytes(), 3)), FormatErrorKind::kBadMagic);
}

TEST(ModelIoV2Test, VersionCorruptionIsBadVersion) {
  EXPECT_EQ(load_kind(flip(v2_bytes(), 4)), FormatErrorKind::kBadVersion);
  EXPECT_EQ(load_kind(flip(v2_bytes(), 7)), FormatErrorKind::kBadVersion);
}

TEST(ModelIoV2Test, KindCorruptionIsDetected) {
  // The kind FourCC sits right after the header; it is covered by the file
  // CRC, so either the checksum or the kind check must fire — never a load.
  const FormatErrorKind kind = load_kind(flip(v2_bytes(), 8));
  EXPECT_TRUE(kind == FormatErrorKind::kChecksumMismatch || kind == FormatErrorKind::kBadKind)
      << util::to_string(kind);
}

TEST(ModelIoV2Test, SectionLengthCorruptionIsDetected) {
  // First section header: [tag @12][len @16]. A high-byte rewrite makes the
  // length absurd (bounded, typed), a low-byte rewrite shifts the parse and
  // is caught by checksums.
  const FormatErrorKind high = load_kind(flip(v2_bytes(), 16 + 7, 0x10));
  EXPECT_TRUE(high == FormatErrorKind::kBadSectionLength ||
              high == FormatErrorKind::kTruncated)
      << util::to_string(high);
  const FormatErrorKind low = load_kind(flip(v2_bytes(), 16, 0x01));
  EXPECT_TRUE(low != FormatErrorKind::kBadMagic) << util::to_string(low);
}

TEST(ModelIoV2Test, PayloadCorruptionIsChecksumMismatch) {
  const std::string bytes = v2_bytes();
  EXPECT_EQ(load_kind(flip(bytes, 30)), FormatErrorKind::kChecksumMismatch);
  EXPECT_EQ(load_kind(flip(bytes, bytes.size() / 2)), FormatErrorKind::kChecksumMismatch);
}

TEST(ModelIoV2Test, TrailerCorruptionIsDetected) {
  const std::string bytes = v2_bytes();
  for (std::size_t back = 1; back <= 20; ++back) {
    const FormatErrorKind kind = load_kind(flip(bytes, bytes.size() - back));
    EXPECT_TRUE(kind == FormatErrorKind::kChecksumMismatch ||
                kind == FormatErrorKind::kTruncated ||
                kind == FormatErrorKind::kMissingSection ||
                kind == FormatErrorKind::kBadSectionLength)
        << "byte -" << back << ": " << util::to_string(kind);
  }
}

TEST(ModelIoV2Test, TruncationIsTyped) {
  const std::string bytes = v2_bytes();
  for (const std::size_t keep : {std::size_t{0}, std::size_t{5}, std::size_t{9},
                                 std::size_t{40}, bytes.size() - 1}) {
    std::istringstream in(bytes.substr(0, keep), std::ios::binary);
    EXPECT_THROW((void)load_pipeline(in), FormatError) << "keep=" << keep;
  }
}

TEST(ModelIoV2Test, WrongFileKindIsTyped) {
  // An online checkpoint is a valid v2 file — but not a pipeline.
  OnlineConfig cfg;
  cfg.reghd.dim = 128;
  cfg.reghd.models = 2;
  OnlineRegHD learner(cfg, 4);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  save_online_checkpoint(buf, learner);
  try {
    (void)load_pipeline(buf);
    FAIL() << "pipeline loader accepted an online checkpoint";
  } catch (const FormatError& e) {
    EXPECT_EQ(e.kind(), FormatErrorKind::kBadKind);
  }

  std::stringstream pipe(std::ios::in | std::ios::out | std::ios::binary);
  save_pipeline(pipe, fitted_pipeline());
  try {
    (void)load_online_checkpoint(pipe);
    FAIL() << "checkpoint loader accepted a pipeline model";
  } catch (const FormatError& e) {
    EXPECT_EQ(e.kind(), FormatErrorKind::kBadKind);
  }
}

TEST(ModelIoV2Test, CorruptFilesNeverYieldAModel) {
  // Stronger than "throws": the loader builds the pipeline only after every
  // checksum verified, so no corruption can produce a partially-initialized
  // object. Exercise one flip in every 64-byte window.
  const std::string bytes = v2_bytes();
  for (std::size_t pos = 0; pos < bytes.size(); pos += 64) {
    std::istringstream in(flip(bytes, pos), std::ios::binary);
    EXPECT_THROW((void)load_pipeline(in), FormatError) << "flip at " << pos;
  }
}

// --- v1 hostile length regression ----------------------------------------

/// The committed v1 golden blob (nothing writes v1 any more).
std::string v1_golden_bytes() {
  return util::read_file_bytes(std::string(REGHD_GOLDEN_DIR) + "/pipeline_v1.reghd");
}

/// Offset of the v1 body's first u64 length prefix, the feature-scaler means
/// vector: header, then the config blocks, then the pipeline flags. Computed
/// from the loaded blob's own config through the shared config writers, so
/// this cannot drift from the layout.
std::size_t v1_scaler_length_offset(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  const RegHDPipeline pipeline = load_pipeline(in);
  EXPECT_TRUE(pipeline.config().standardize_features);
  std::ostringstream cfg_bytes(std::ios::binary);
  io::write_encoder_config(cfg_bytes, pipeline.config().encoder);
  io::write_reghd_config(cfg_bytes, pipeline.config().reghd);
  const std::size_t flags_bytes = 1 + 1 + 8;  // standardize flags + validation_fraction
  return 8 + cfg_bytes.str().size() + flags_bytes;
}

TEST(ModelIoV1Test, HostileScalerLengthRejectedWithoutGiantAllocation) {
  std::string bytes = v1_golden_bytes();
  const std::size_t offset = v1_scaler_length_offset(bytes);

  for (std::size_t i = 0; i < 8; ++i) {
    bytes.at(offset + i) = static_cast<char>(0xFF);  // length = 2^64 - 1
  }
  std::istringstream in(bytes, std::ios::binary);
  // Before the bounds fix this attempted a multi-exabyte allocation
  // (overflowing the `n * sizeof(T)` check on the way); now it must throw
  // immediately.
  EXPECT_THROW((void)load_pipeline(in), std::runtime_error);
}

TEST(ModelIoV1Test, ModerateHostileLengthClampedAgainstRemainingBytes) {
  std::string bytes = v1_golden_bytes();
  const std::size_t offset = v1_scaler_length_offset(bytes);

  // 16 million doubles: passes the absolute payload cap but far exceeds the
  // bytes actually present — the remaining-stream clamp must reject it
  // before allocating 128 MB.
  const std::uint64_t hostile = 16u << 20;
  for (std::size_t i = 0; i < 8; ++i) {
    bytes.at(offset + i) = static_cast<char>((hostile >> (8 * i)) & 0xFF);
  }
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW((void)load_pipeline(in), std::runtime_error);
}

}  // namespace
}  // namespace reghd::core
