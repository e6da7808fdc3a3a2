#include "core/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <sstream>
#include <utility>

#include "obs/telemetry.hpp"
#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/framing.hpp"
#include "util/serialize.hpp"

namespace reghd::core {

namespace {

namespace fs = std::filesystem;
using util::FormatError;
using util::FormatErrorKind;

// Online-checkpoint section tags (alongside model_io's CONF/SCAL/MODL).
constexpr std::uint32_t kSectionOnlineConfig = util::fourcc("OCFG");
constexpr std::uint32_t kSectionOnlineState = util::fourcc("OSTA");
constexpr std::uint32_t kSectionModels = util::fourcc("MODL");
constexpr std::uint32_t kSectionSnapshots = util::fourcc("SNAP");
constexpr std::uint32_t kSectionPackedBank = util::fourcc("PBNK");

constexpr const char* kOnlinePrefix = "ckpt-";
constexpr const char* kPipelinePrefix = "epoch-";
constexpr const char* kExtension = ".reghd";

void write_running_stats(std::ostream& out, const util::RunningStats& stats) {
  util::write_scalar<std::uint64_t>(out, stats.count());
  util::write_scalar<double>(out, stats.mean());
  util::write_scalar<double>(out, stats.m2());
  util::write_scalar<double>(out, stats.min());
  util::write_scalar<double>(out, stats.max());
}

util::RunningStats read_running_stats(std::istream& in) {
  const auto count = util::read_scalar<std::uint64_t>(in);
  const double mean = util::read_scalar<double>(in);
  const double m2 = util::read_scalar<double>(in);
  const double min = util::read_scalar<double>(in);
  const double max = util::read_scalar<double>(in);
  return util::RunningStats::restore(count, mean, m2, min, max);
}

void write_binary_hv(std::ostream& out, const hdc::BinaryHV& hv) {
  util::write_vector<std::uint64_t>(out, hv.words());
}

hdc::BinaryHV read_binary_hv(std::istream& in, std::size_t dim) {
  auto words = util::read_vector<std::uint64_t>(in);
  hdc::BinaryHV hv(dim);
  if (words.size() != hv.word_count()) {
    throw std::runtime_error("checkpoint: stored snapshot word count " +
                             std::to_string(words.size()) + " does not match dimensionality " +
                             std::to_string(dim));
  }
  if (!words.empty() && (dim % 64) != 0) {
    // Keep the padding bits of the final word zero — whole-word popcount
    // kernels rely on it, and a corrupted-but-CRC-valid file must not be
    // able to break that invariant.
    words.back() &= (1ULL << (dim % 64)) - 1ULL;
  }
  std::copy(words.begin(), words.end(), hv.words().begin());
  return hv;
}

std::string checkpoint_filename(const char* prefix, std::uint64_t step) {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%020llu%s", prefix,
                static_cast<unsigned long long>(step), kExtension);
  return name;
}

/// Step number encoded in a checkpoint filename, or nullopt for foreign
/// files (debris, user files) which retention and recovery must ignore.
std::optional<std::uint64_t> parse_step(const std::string& filename, const char* prefix) {
  const std::string pre(prefix);
  if (filename.size() <= pre.size() + std::string(kExtension).size() ||
      filename.compare(0, pre.size(), pre) != 0 ||
      filename.compare(filename.size() - 6, 6, kExtension) != 0) {
    return std::nullopt;
  }
  const std::string digits = filename.substr(pre.size(), filename.size() - pre.size() - 6);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos || digits.size() > 20) {
    return std::nullopt;
  }
  return std::stoull(digits);
}

struct CheckpointEntry {
  std::uint64_t step = 0;
  std::string path;
};

std::vector<CheckpointEntry> list_by_prefix(const std::string& dir, const char* prefix) {
  std::vector<CheckpointEntry> entries;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec)) {
      continue;
    }
    const std::string name = it->path().filename().string();
    if (const auto step = parse_step(name, prefix)) {
      entries.push_back({*step, it->path().string()});
    }
  }
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    return a.step != b.step ? a.step > b.step : a.path > b.path;
  });
  return entries;
}

}  // namespace

void save_online_checkpoint(std::ostream& out, const OnlineRegHD& learner) {
  util::write_header(out, kModelMagic, kModelVersionLatest);
  util::SectionWriter writer(out, kFileKindOnline);
  const OnlineConfig& cfg = learner.config();
  const MultiModelRegressor& model = learner.model();

  std::ostringstream ocfg(std::ios::binary);
  io::write_reghd_config(ocfg, cfg.reghd);
  io::write_encoder_config(ocfg, cfg.encoder);
  util::write_scalar<std::uint64_t>(ocfg, cfg.requantize_every);
  util::write_scalar<double>(ocfg, cfg.decay);
  util::write_scalar<std::uint8_t>(ocfg, cfg.adaptive_scaling ? 1 : 0);
  util::write_scalar<std::uint64_t>(ocfg, cfg.warmup);
  util::write_scalar<std::uint64_t>(ocfg, learner.num_features());
  writer.add(kSectionOnlineConfig, ocfg.str());

  std::ostringstream osta(std::ios::binary);
  util::write_scalar<std::uint64_t>(osta, learner.samples_seen());
  util::write_scalar<std::uint64_t>(osta, learner.since_requantize());
  util::write_scalar<std::uint64_t>(osta, learner.feature_stats().size());
  for (const util::RunningStats& stats : learner.feature_stats()) {
    write_running_stats(osta, stats);
  }
  write_running_stats(osta, learner.target_stats());
  writer.add(kSectionOnlineState, osta.str());

  std::ostringstream modl(std::ios::binary);
  io::write_model_section(modl, model);
  writer.add(kSectionModels, modl.str());

  // Snapshots verbatim: between requantize boundaries they are deliberately
  // stale relative to the accumulators, so re-deriving them on load would
  // break bit-identical resume.
  std::ostringstream snap(std::ios::binary);
  for (std::size_t i = 0; i < model.num_models(); ++i) {
    write_binary_hv(snap, model.cluster(i).binary);
    util::write_scalar<double>(snap, model.cluster(i).norm2);
  }
  for (std::size_t i = 0; i < model.num_models(); ++i) {
    const RegressionModel& m = model.model(i);
    write_binary_hv(snap, m.binary);
    util::write_scalar<double>(snap, m.gamma);
    write_binary_hv(snap, m.ternary_mask);
    util::write_scalar<double>(snap, m.gamma_ternary);
  }
  writer.add(kSectionSnapshots, snap.str());

  // Packed scan bank, saved verbatim like the snapshots: a resumed process
  // must score through exactly the bytes the checkpointed one did. Optional
  // section — readers predating it (and readers of files predating it)
  // rebuild the bank from the snapshots instead.
  const PackedTernaryBank& bank = model.packed_bank();
  if (bank.valid) {
    std::ostringstream pbnk(std::ios::binary);
    util::write_scalar<std::uint64_t>(pbnk, bank.rows);
    util::write_scalar<std::uint64_t>(pbnk, bank.words);
    util::write_vector<std::uint64_t>(pbnk, {bank.signs.data(), bank.signs.size()});
    util::write_vector<std::uint64_t>(pbnk, {bank.masks.data(), bank.masks.size()});
    util::write_vector<double>(pbnk, {bank.scale.data(), bank.scale.size()});
    writer.add(kSectionPackedBank, pbnk.str());
  }

  writer.finish();
  if (!out.good()) {
    throw std::runtime_error("checkpoint: stream error while saving");
  }
}

OnlineRegHD load_online_checkpoint(std::istream& in,
                                   std::optional<hdc::ProjectionStorage> encoder_storage) {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  try {
    magic = util::read_scalar<std::uint32_t>(in);
    version = util::read_scalar<std::uint32_t>(in);
  } catch (const std::exception&) {
    throw FormatError(FormatErrorKind::kTruncated,
                      "checkpoint: stream ends inside the file header");
  }
  if (magic != kModelMagic) {
    throw FormatError(FormatErrorKind::kBadMagic,
                      "checkpoint: bad magic tag — not a RegHD file");
  }
  if (version != kModelVersionLatest) {
    throw FormatError(FormatErrorKind::kBadVersion,
                      "checkpoint: unsupported format version " + std::to_string(version));
  }
  std::string body;
  {
    std::ostringstream buf(std::ios::binary);
    buf << in.rdbuf();
    body = buf.str();
  }
  const util::ParsedFile file = util::parse_sections(body);
  if (file.kind != kFileKindOnline) {
    throw FormatError(FormatErrorKind::kBadKind,
                      "checkpoint: not an online checkpoint (wrong file kind — is this a "
                      "pipeline model?)");
  }

  struct OnlineHeader {
    OnlineConfig config;
    std::uint64_t num_features = 0;
  };
  const OnlineHeader header = util::parse_payload(
      file.require(kSectionOnlineConfig), "checkpoint", "config", [](auto& s) {
        OnlineHeader h;
        h.config.reghd = io::read_reghd_config(s);
        h.config.encoder = io::read_encoder_config(s);
        h.config.requantize_every = util::read_scalar<std::uint64_t>(s);
        h.config.decay = util::read_scalar<double>(s);
        h.config.adaptive_scaling = util::read_scalar<std::uint8_t>(s) != 0;
        h.config.warmup = util::read_scalar<std::uint64_t>(s);
        h.num_features = util::read_scalar<std::uint64_t>(s);
        if (h.num_features == 0 || h.num_features > (1ULL << 20)) {
          throw std::runtime_error("implausible feature count " +
                                   std::to_string(h.num_features));
        }
        if (!(h.config.decay > 0.0 && h.config.decay <= 1.0)) {
          throw std::runtime_error("decay outside (0,1]");
        }
        return h;
      });

  OnlineConfig config = header.config;
  if (encoder_storage.has_value()) {
    // Applied before construction so a rematerialized deployment never pays
    // for (or holds) the resident F×D matrix the serialized config implies.
    config.encoder.projection_storage = *encoder_storage;
  }
  OnlineRegHD learner(config, header.num_features);
  MultiModelRegressor& model = learner.mutable_model();
  const std::size_t dim = model.config().dim;

  util::parse_payload(file.require(kSectionModels), "checkpoint", "model", [&](auto& s) {
    io::read_model_section(s, model);
    return 0;
  });

  util::parse_payload(file.require(kSectionSnapshots), "checkpoint", "snapshot", [&](auto& s) {
    for (std::size_t i = 0; i < model.num_models(); ++i) {
      model.mutable_clusters()[i].binary = read_binary_hv(s, dim);
      model.mutable_clusters()[i].norm2 = util::read_scalar<double>(s);
    }
    for (std::size_t i = 0; i < model.num_models(); ++i) {
      RegressionModel& m = model.mutable_models()[i];
      m.binary = read_binary_hv(s, dim);
      m.gamma = util::read_scalar<double>(s);
      m.ternary_mask = read_binary_hv(s, dim);
      m.gamma_ternary = util::read_scalar<double>(s);
    }
    return 0;
  });

  // Snapshot restore went through the mutable accessors, so the bank is
  // stale; reload the saved one verbatim when present, else (files written
  // before the PBNK section existed) re-pack from the restored snapshots.
  if (const util::Section* pbnk = file.find(kSectionPackedBank)) {
    util::parse_payload(*pbnk, "checkpoint", "packed bank", [&](auto& s) {
      PackedTernaryBank& bank = model.mutable_packed_bank();
      bank.rows = util::read_scalar<std::uint64_t>(s);
      bank.words = util::read_scalar<std::uint64_t>(s);
      const auto signs = util::read_vector<std::uint64_t>(s);
      const auto masks = util::read_vector<std::uint64_t>(s);
      const auto scale = util::read_vector<double>(s);
      if (bank.words != (dim + 63) / 64 || signs.size() != bank.rows * bank.words ||
          masks.size() != signs.size() || scale.size() != bank.rows) {
        throw std::runtime_error("packed bank geometry does not match the model");
      }
      bank.signs.assign(signs.begin(), signs.end());
      bank.masks.assign(masks.begin(), masks.end());
      bank.scale = scale;
      bank.valid = true;
      return 0;
    });
  } else {
    model.rebuild_packed_bank();
  }

  util::parse_payload(file.require(kSectionOnlineState), "checkpoint", "state", [&](auto& s) {
    const auto seen = util::read_scalar<std::uint64_t>(s);
    const auto since_requantize = util::read_scalar<std::uint64_t>(s);
    const auto stat_count = util::read_scalar<std::uint64_t>(s);
    if (stat_count != header.num_features) {
      throw std::runtime_error("feature statistics count mismatch");
    }
    std::vector<util::RunningStats> feature_stats;
    feature_stats.reserve(stat_count);
    for (std::uint64_t i = 0; i < stat_count; ++i) {
      feature_stats.push_back(read_running_stats(s));
    }
    const util::RunningStats target_stats = read_running_stats(s);
    learner.restore_state(std::move(feature_stats), target_stats, seen, since_requantize);
    return 0;
  });

  return learner;
}

CheckpointManager::CheckpointManager(CheckpointConfig config) : config_(std::move(config)) {
  REGHD_CHECK(!config_.dir.empty(), "checkpoint directory must not be empty");
  REGHD_CHECK(config_.keep_last >= 1, "keep_last must be at least 1");
  std::error_code ec;
  fs::create_directories(config_.dir, ec);
  if (ec) {
    throw util::IoError("checkpoint: cannot create directory '" + config_.dir +
                        "': " + ec.message());
  }
}

std::string CheckpointManager::write_checkpoint(const std::string& prefix, std::uint64_t step,
                                                const std::string& bytes) {
  const std::string path =
      (fs::path(config_.dir) / checkpoint_filename(prefix.c_str(), step)).string();
  util::AtomicWriteOptions options;
  options.fsync = config_.fsync;
  options.fault = std::exchange(next_fault_, util::FaultPlan{});
  const obs::StageTimer timer(obs::Histo::kCkptWriteNs);
  try {
    util::atomic_write_file(path, bytes, options);
  } catch (...) {
    obs::count(obs::Counter::kCkptSaveFailures);
    throw;
  }
  obs::count(obs::Counter::kCkptSaves);
  prune();
  return path;
}

std::string CheckpointManager::save(const OnlineRegHD& learner) {
  std::ostringstream out(std::ios::binary);
  save_online_checkpoint(out, learner);
  return write_checkpoint(kOnlinePrefix, learner.samples_seen(), out.str());
}

std::optional<std::string> CheckpointManager::maybe_save(const OnlineRegHD& learner) {
  if (config_.every == 0 || learner.samples_seen() == 0 ||
      learner.samples_seen() % config_.every != 0) {
    return std::nullopt;
  }
  return save(learner);
}

std::string CheckpointManager::save(const RegHDPipeline& pipeline, std::uint64_t step) {
  std::ostringstream out(std::ios::binary);
  save_pipeline(out, pipeline);
  return write_checkpoint(kPipelinePrefix, step, out.str());
}

std::vector<std::string> CheckpointManager::checkpoints() const {
  std::vector<CheckpointEntry> all = list_by_prefix(config_.dir, kOnlinePrefix);
  for (auto& e : list_by_prefix(config_.dir, kPipelinePrefix)) {
    all.push_back(std::move(e));
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.step != b.step ? a.step > b.step : a.path > b.path;
  });
  std::vector<std::string> paths;
  paths.reserve(all.size());
  for (auto& e : all) {
    paths.push_back(std::move(e.path));
  }
  return paths;
}

void CheckpointManager::prune() const {
  for (const char* prefix : {kOnlinePrefix, kPipelinePrefix}) {
    const std::vector<CheckpointEntry> entries = list_by_prefix(config_.dir, prefix);
    for (std::size_t i = config_.keep_last; i < entries.size(); ++i) {
      std::error_code ec;
      fs::remove(entries[i].path, ec);
    }
  }
  // Crash debris: .tmp files are only live for the duration of one
  // atomic_write_file call, so anything still here is an aborted write.
  std::error_code ec;
  for (fs::directory_iterator it(config_.dir, ec), end; !ec && it != end; it.increment(ec)) {
    if (it->path().extension() == ".tmp") {
      std::error_code rm;
      fs::remove(it->path(), rm);
    }
  }
}

std::optional<OnlineRegHD> CheckpointManager::recover() const {
  const obs::StageTimer timer(obs::Histo::kCkptRecoverNs);
  for (const CheckpointEntry& entry : list_by_prefix(config_.dir, kOnlinePrefix)) {
    obs::count(obs::Counter::kCkptRecoverScans);
    try {
      std::istringstream in(util::read_file_bytes(entry.path), std::ios::binary);
      auto learner = load_online_checkpoint(in);
      obs::count(obs::Counter::kCkptRecoveries);
      return learner;
    } catch (const std::exception&) {
      obs::count(obs::Counter::kCkptCorruptions);
      continue;  // corrupt or torn — fall back to the previous checkpoint
    }
  }
  return std::nullopt;
}

std::optional<RegHDPipeline> CheckpointManager::recover_pipeline() const {
  const obs::StageTimer timer(obs::Histo::kCkptRecoverNs);
  for (const CheckpointEntry& entry : list_by_prefix(config_.dir, kPipelinePrefix)) {
    obs::count(obs::Counter::kCkptRecoverScans);
    try {
      std::istringstream in(util::read_file_bytes(entry.path), std::ios::binary);
      auto pipeline = load_pipeline(in);
      obs::count(obs::Counter::kCkptRecoveries);
      return pipeline;
    } catch (const std::exception&) {
      obs::count(obs::Counter::kCkptCorruptions);
      continue;
    }
  }
  return std::nullopt;
}

}  // namespace reghd::core
