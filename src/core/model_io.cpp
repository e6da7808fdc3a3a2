#include "core/model_io.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/framing.hpp"
#include "util/serialize.hpp"

namespace reghd::core {

namespace {

using util::FormatError;
using util::FormatErrorKind;

// v2 section tags.
constexpr std::uint32_t kSectionConfig = util::fourcc("CONF");
constexpr std::uint32_t kSectionScalers = util::fourcc("SCAL");
constexpr std::uint32_t kSectionModels = util::fourcc("MODL");

/// Reads a byte-backed enum and validates it against its maximum value —
/// a corrupted file must never produce an out-of-range enum (undefined
/// behaviour in downstream switches).
template <typename Enum>
Enum read_enum(std::istream& in, std::uint8_t max_value, const char* what) {
  const auto raw = util::read_scalar<std::uint8_t>(in);
  if (raw > max_value) {
    throw std::runtime_error(std::string("model_io: invalid ") + what + " value " +
                             std::to_string(raw));
  }
  return static_cast<Enum>(raw);
}

/// Scaler + pipeline-flag block shared by both format versions (v1 inlines
/// it; v2 wraps the same bytes in CONF/SCAL sections).
struct PipelineFlags {
  bool standardize_features = false;
  bool standardize_target = false;
  double validation_fraction = 0.15;
};

void write_pipeline_flags(std::ostream& out, const PipelineConfig& cfg) {
  util::write_scalar<std::uint8_t>(out, cfg.standardize_features ? 1 : 0);
  util::write_scalar<std::uint8_t>(out, cfg.standardize_target ? 1 : 0);
  util::write_scalar<double>(out, cfg.validation_fraction);
}

PipelineFlags read_pipeline_flags(std::istream& in) {
  PipelineFlags flags;
  flags.standardize_features = util::read_scalar<std::uint8_t>(in) != 0;
  flags.standardize_target = util::read_scalar<std::uint8_t>(in) != 0;
  flags.validation_fraction = util::read_scalar<double>(in);
  return flags;
}

void write_scalers(std::ostream& out, const RegHDPipeline& pipeline) {
  const PipelineConfig& cfg = pipeline.config();
  if (cfg.standardize_features) {
    util::write_vector<double>(out, pipeline.feature_scaler().means());
    util::write_vector<double>(out, pipeline.feature_scaler().stddevs());
  }
  if (cfg.standardize_target) {
    util::write_scalar<double>(out, pipeline.target_scaler().mean());
    util::write_scalar<double>(out, pipeline.target_scaler().stddev());
  }
}

void read_scalers(std::istream& in, const PipelineConfig& cfg, RegHDPipeline& pipeline) {
  if (cfg.standardize_features) {
    auto means = util::read_vector<double>(in);
    auto stddevs = util::read_vector<double>(in);
    pipeline.mutable_feature_scaler().set_params(std::move(means), std::move(stddevs));
  }
  if (cfg.standardize_target) {
    const double mean = util::read_scalar<double>(in);
    const double stddev = util::read_scalar<double>(in);
    pipeline.mutable_target_scaler().set_params(mean, stddev);
  }
}

/// Parses one section payload with the v1 stream readers; any low-level
/// failure inside a checksum-verified section is a structural defect of the
/// payload and surfaces as a typed FormatError.
template <typename Fn>
auto parse_payload(const util::Section& section, const char* what, Fn&& fn) {
  std::istringstream in(section.payload, std::ios::binary);
  try {
    auto result = fn(in);
    return result;
  } catch (const FormatError&) {
    throw;
  } catch (const std::exception& e) {
    throw FormatError(FormatErrorKind::kBadValue,
                      std::string("model_io: malformed ") + what + " section — " + e.what());
  }
}

RegHDPipeline load_pipeline_v1_body(std::istream& in);
RegHDPipeline load_pipeline_v2_body(std::istream& in);

}  // namespace

namespace io {

void write_encoder_config(std::ostream& out, const hdc::EncoderConfig& cfg) {
  util::write_scalar<std::uint8_t>(out, static_cast<std::uint8_t>(cfg.kind));
  util::write_scalar<std::uint64_t>(out, cfg.input_dim);
  util::write_scalar<std::uint64_t>(out, cfg.dim);
  util::write_scalar<std::uint64_t>(out, cfg.seed);
  util::write_scalar<double>(out, cfg.projection_stddev);
  util::write_scalar<std::uint64_t>(out, cfg.levels);
  util::write_scalar<double>(out, cfg.level_min);
  util::write_scalar<double>(out, cfg.level_max);
}

hdc::EncoderConfig read_encoder_config(std::istream& in) {
  hdc::EncoderConfig cfg;
  cfg.kind = read_enum<hdc::EncoderKind>(in, 3, "encoder kind");
  cfg.input_dim = util::read_scalar<std::uint64_t>(in);
  cfg.dim = util::read_scalar<std::uint64_t>(in);
  cfg.seed = util::read_scalar<std::uint64_t>(in);
  cfg.projection_stddev = util::read_scalar<double>(in);
  cfg.levels = util::read_scalar<std::uint64_t>(in);
  cfg.level_min = util::read_scalar<double>(in);
  cfg.level_max = util::read_scalar<double>(in);
  if (cfg.input_dim > (1ULL << 20) || cfg.dim > (1ULL << 24) ||
      cfg.levels > (1ULL << 20) ||
      static_cast<std::uint64_t>(cfg.input_dim) * cfg.dim > (1ULL << 28)) {
    throw std::runtime_error("model_io: implausible encoder dimensions — corrupt stream");
  }
  return cfg;
}

void write_reghd_config(std::ostream& out, const RegHDConfig& cfg) {
  util::write_scalar<std::uint64_t>(out, cfg.dim);
  util::write_scalar<std::uint64_t>(out, cfg.models);
  util::write_scalar<double>(out, cfg.learning_rate);
  util::write_scalar<std::uint64_t>(out, cfg.max_epochs);
  util::write_scalar<std::uint64_t>(out, cfg.patience);
  util::write_scalar<double>(out, cfg.tolerance);
  util::write_scalar<double>(out, cfg.softmax_temperature);
  util::write_scalar<std::uint8_t>(out, static_cast<std::uint8_t>(cfg.cluster_mode));
  util::write_scalar<std::uint8_t>(out, static_cast<std::uint8_t>(cfg.query_precision));
  util::write_scalar<std::uint8_t>(out, static_cast<std::uint8_t>(cfg.model_precision));
  util::write_scalar<std::uint8_t>(out, static_cast<std::uint8_t>(cfg.update_rule));
  util::write_scalar<std::uint8_t>(out, static_cast<std::uint8_t>(cfg.cluster_init));
  util::write_scalar<std::uint8_t>(out, cfg.normalize_similarities ? 1 : 0);
  util::write_scalar<std::uint64_t>(out, cfg.requantize_interval);
  util::write_scalar<double>(out, cfg.error_clip);
  util::write_scalar<std::uint64_t>(out, cfg.seed);
}

RegHDConfig read_reghd_config(std::istream& in) {
  RegHDConfig cfg;
  cfg.dim = util::read_scalar<std::uint64_t>(in);
  cfg.models = util::read_scalar<std::uint64_t>(in);
  cfg.learning_rate = util::read_scalar<double>(in);
  cfg.max_epochs = util::read_scalar<std::uint64_t>(in);
  cfg.patience = util::read_scalar<std::uint64_t>(in);
  cfg.tolerance = util::read_scalar<double>(in);
  cfg.softmax_temperature = util::read_scalar<double>(in);
  cfg.cluster_mode = read_enum<ClusterMode>(in, 2, "cluster mode");
  cfg.query_precision = read_enum<QueryPrecision>(in, 1, "query precision");
  cfg.model_precision = read_enum<ModelPrecision>(in, 2, "model precision");
  cfg.update_rule = read_enum<UpdateRule>(in, 1, "update rule");
  cfg.cluster_init = read_enum<ClusterInit>(in, 1, "cluster init");
  cfg.normalize_similarities = util::read_scalar<std::uint8_t>(in) != 0;
  cfg.requantize_interval = util::read_scalar<std::uint64_t>(in);
  cfg.error_clip = util::read_scalar<double>(in);
  cfg.seed = util::read_scalar<std::uint64_t>(in);
  // Sanity bounds before any allocation: a corrupted size field must fail
  // here, not inside a multi-gigabyte vector construction.
  if (cfg.dim > (1ULL << 24) || cfg.models > (1ULL << 16)) {
    throw std::runtime_error("model_io: implausible model dimensions — corrupt stream");
  }
  cfg.validate();
  return cfg;
}

void write_model_section(std::ostream& out, const MultiModelRegressor& regressor) {
  util::write_scalar<std::uint64_t>(out, regressor.num_models());
  for (std::size_t i = 0; i < regressor.num_models(); ++i) {
    util::write_vector<double>(out, regressor.cluster_accumulator(i));
    util::write_vector<double>(out, regressor.model_accumulator(i));
  }
}

void read_model_section(std::istream& in, MultiModelRegressor& regressor) {
  const RegHDConfig& cfg = regressor.config();
  const auto k = util::read_scalar<std::uint64_t>(in);
  if (k != cfg.models) {
    throw std::runtime_error("model_io: stored model count does not match configuration");
  }
  for (std::size_t i = 0; i < k; ++i) {
    const auto cluster_values = util::read_vector<double>(in);
    const auto model_values = util::read_vector<double>(in);
    if (cluster_values.size() != cfg.dim || model_values.size() != cfg.dim) {
      throw std::runtime_error("model_io: stored hypervector dimensionality mismatch");
    }
    std::copy(cluster_values.begin(), cluster_values.end(),
              regressor.mutable_cluster_accumulator(i).begin());
    std::copy(model_values.begin(), model_values.end(),
              regressor.mutable_model_accumulator(i).begin());
  }
}

}  // namespace io

void save_pipeline_v1(std::ostream& out, const RegHDPipeline& pipeline) {
  REGHD_CHECK(pipeline.fitted(), "cannot save an unfitted pipeline");
  util::write_header(out, kModelMagic, 1);

  const PipelineConfig& cfg = pipeline.config();
  io::write_encoder_config(out, cfg.encoder);
  io::write_reghd_config(out, cfg.reghd);
  write_pipeline_flags(out, cfg);
  write_scalers(out, pipeline);
  io::write_model_section(out, pipeline.regressor());
  if (!out.good()) {
    throw std::runtime_error("model_io: stream error while saving pipeline");
  }
}

void save_pipeline(std::ostream& out, const RegHDPipeline& pipeline) {
  REGHD_CHECK(pipeline.fitted(), "cannot save an unfitted pipeline");
  util::write_header(out, kModelMagic, kModelVersionLatest);

  const PipelineConfig& cfg = pipeline.config();
  util::SectionWriter writer(out, kFileKindPipeline);

  std::ostringstream conf(std::ios::binary);
  io::write_encoder_config(conf, cfg.encoder);
  io::write_reghd_config(conf, cfg.reghd);
  write_pipeline_flags(conf, cfg);
  writer.add(kSectionConfig, conf.str());

  if (cfg.standardize_features || cfg.standardize_target) {
    std::ostringstream scal(std::ios::binary);
    write_scalers(scal, pipeline);
    writer.add(kSectionScalers, scal.str());
  }

  std::ostringstream modl(std::ios::binary);
  io::write_model_section(modl, pipeline.regressor());
  writer.add(kSectionModels, modl.str());

  writer.finish();
  if (!out.good()) {
    throw std::runtime_error("model_io: stream error while saving pipeline");
  }
}

namespace {

RegHDPipeline load_pipeline_v1_body(std::istream& in) {
  PipelineConfig cfg;
  cfg.encoder = io::read_encoder_config(in);
  cfg.reghd = io::read_reghd_config(in);
  const PipelineFlags flags = read_pipeline_flags(in);
  cfg.standardize_features = flags.standardize_features;
  cfg.standardize_target = flags.standardize_target;
  cfg.validation_fraction = flags.validation_fraction;

  RegHDPipeline pipeline(cfg);
  read_scalers(in, cfg, pipeline);

  auto regressor = std::make_unique<MultiModelRegressor>(cfg.reghd);
  io::read_model_section(in, *regressor);
  // Re-derive binary snapshots, γ scales, and cached norms.
  regressor->requantize();

  pipeline.restore(cfg.encoder, std::move(regressor));
  return pipeline;
}

RegHDPipeline load_pipeline_v2_body(std::istream& in) {
  // Slurp the framed body and verify every checksum before interpreting a
  // single payload byte.
  std::string body;
  {
    std::ostringstream buf(std::ios::binary);
    buf << in.rdbuf();
    body = buf.str();
  }
  const util::ParsedFile file = util::parse_sections(body);
  if (file.kind != kFileKindPipeline) {
    throw FormatError(FormatErrorKind::kBadKind,
                      "model_io: not a pipeline model file (wrong file kind — is this an "
                      "online checkpoint?)");
  }

  PipelineConfig cfg = parse_payload(file.require(kSectionConfig), "config", [](auto& s) {
    PipelineConfig c;
    c.encoder = io::read_encoder_config(s);
    c.reghd = io::read_reghd_config(s);
    const PipelineFlags flags = read_pipeline_flags(s);
    c.standardize_features = flags.standardize_features;
    c.standardize_target = flags.standardize_target;
    c.validation_fraction = flags.validation_fraction;
    return c;
  });

  RegHDPipeline pipeline(cfg);
  if (cfg.standardize_features || cfg.standardize_target) {
    parse_payload(file.require(kSectionScalers), "scaler", [&](auto& s) {
      read_scalers(s, cfg, pipeline);
      return 0;
    });
  }

  auto regressor = std::make_unique<MultiModelRegressor>(cfg.reghd);
  parse_payload(file.require(kSectionModels), "model", [&](auto& s) {
    io::read_model_section(s, *regressor);
    return 0;
  });
  regressor->requantize();

  pipeline.restore(cfg.encoder, std::move(regressor));
  return pipeline;
}

}  // namespace

RegHDPipeline load_pipeline(std::istream& in) {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  try {
    magic = util::read_scalar<std::uint32_t>(in);
    version = util::read_scalar<std::uint32_t>(in);
  } catch (const std::exception&) {
    throw FormatError(FormatErrorKind::kTruncated,
                      "model_io: stream ends inside the file header");
  }
  if (magic != kModelMagic) {
    throw FormatError(FormatErrorKind::kBadMagic,
                      "model_io: bad magic tag — not a RegHD model file");
  }
  if (version == 1) {
    return load_pipeline_v1_body(in);
  }
  if (version == kModelVersionLatest) {
    return load_pipeline_v2_body(in);
  }
  throw FormatError(FormatErrorKind::kBadVersion,
                    "model_io: unsupported format version " + std::to_string(version));
}

void save_pipeline_file(const std::string& path, const RegHDPipeline& pipeline) {
  std::ostringstream out(std::ios::binary);
  save_pipeline(out, pipeline);
  util::atomic_write_file(path, out.str());
}

RegHDPipeline load_pipeline_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("model_io: cannot open '" + path + "' for reading");
  }
  return load_pipeline(in);
}

}  // namespace reghd::core
