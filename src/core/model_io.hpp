// Model persistence: save/load a trained RegHDPipeline to a compact binary
// format.
//
// Two format versions exist behind one magic tag ("RGHD"):
//
//  * v1 — the original fixed-layout stream: config, fitted scalers, then the
//    learned accumulators. No integrity checking; a torn write is only
//    caught if it happens to truncate a length field. Kept readable forever
//    but no longer written; the committed tests/golden/pipeline_v1.reghd
//    pins the reader.
//  * v2 — the default. The same logical content wrapped in the util/framing
//    container: a file-kind FourCC, length-prefixed sections each carrying a
//    CRC32C, and a trailer with a file-level CRC32C. Every corruption class
//    (flipped bit, torn write, hostile length, truncation) is detected and
//    raises util::FormatError with a typed kind; a damaged file can never
//    yield a silently-wrong model. See DESIGN.md "Checkpoint format".
//
// The format stores the configuration (from which the deterministic encoder
// is regenerated by seed — base hypervectors and projections are never
// written), the fitted scalers, and the learned state: each cluster
// accumulator and each regression-model accumulator. Binary snapshots and
// calibration scales are re-derived on load, so the file stays minimal and
// the snapshots can never go stale.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/pipeline.hpp"

namespace reghd::core {

inline constexpr std::uint32_t kModelMagic = 0x52474844;  // "RGHD"
inline constexpr std::uint32_t kModelVersionLatest = 2;

/// File-kind FourCC stored in the v2 body: a batch pipeline model vs. an
/// online checkpoint (core/checkpoint). Loading the wrong kind is a typed
/// error, not a garbage model.
inline constexpr std::uint32_t kFileKindPipeline = 0x45504950;  // "PIPE"
inline constexpr std::uint32_t kFileKindOnline = 0x4E4C4E4F;   // "ONLN"

/// Writes a fitted pipeline in the current (v2) format. Throws
/// std::invalid_argument if not fitted.
void save_pipeline(std::ostream& out, const RegHDPipeline& pipeline);

/// Atomic file variant: temp file + fsync + rename (util/atomic_file), so a
/// crash mid-save can never destroy an existing model file.
void save_pipeline_file(const std::string& path, const RegHDPipeline& pipeline);

/// Reads a pipeline saved by either format version. v2 errors are
/// util::FormatError (which derives from std::runtime_error) with a typed
/// FormatErrorKind; v1 errors are std::runtime_error.
[[nodiscard]] RegHDPipeline load_pipeline(std::istream& in);
[[nodiscard]] RegHDPipeline load_pipeline_file(const std::string& path);

/// Shared scalar (de)serializers for the config blocks, reused by the online
/// checkpoint format (core/checkpoint) so the two formats cannot drift.
namespace io {
void write_encoder_config(std::ostream& out, const hdc::EncoderConfig& cfg);
[[nodiscard]] hdc::EncoderConfig read_encoder_config(std::istream& in);
void write_reghd_config(std::ostream& out, const RegHDConfig& cfg);
[[nodiscard]] RegHDConfig read_reghd_config(std::istream& in);

/// Serializes the learned state (k, then per model: cluster accumulator,
/// model accumulator) — the v1 body tail and the v2/checkpoint "MODL"
/// section payload.
void write_model_section(std::ostream& out, const MultiModelRegressor& regressor);

/// Restores accumulators into `regressor` (sizes validated against its
/// config). Snapshots are NOT refreshed — the caller decides (model load
/// requantizes; online checkpoints restore exact snapshots instead).
void read_model_section(std::istream& in, MultiModelRegressor& regressor);
}  // namespace io

}  // namespace reghd::core
