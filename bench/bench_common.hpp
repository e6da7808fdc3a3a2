// Shared harness for the paper-reproduction benchmarks.
//
// Every bench binary regenerates one table or figure of the paper's
// evaluation section (see DESIGN.md §4 for the experiment index) and prints
// it with util::Table / util::SeriesChart so bench_output.txt reads like the
// paper. EXPERIMENTS.md records paper-vs-measured for each.
//
// Protocol shared by all benches: synthetic dataset (DESIGN.md §3
// substitution) → deterministic 75/25 train/test split → fit → test MSE.
// Training sets are optionally capped (large CCPP/wine runs) — the cap is
// printed whenever it binds, never silent.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "data/dataset.hpp"
#include "model/regressor.hpp"

namespace reghd::bench {

/// Default hyperspace dimensionality for the quality benches. The paper's
/// Table 2 shows ≤0.3% quality loss at D = 2k vs 4k; 2k halves bench time.
inline constexpr std::size_t kQualityDim = 2048;

/// Upper bound on training samples per dataset in the quality benches.
inline constexpr std::size_t kMaxTrainSamples = 3000;

/// One prepared benchmark workload.
struct Workload {
  std::string name;
  data::Dataset train;
  data::Dataset test;
  std::size_t capped_from = 0;  ///< Original train size if the cap bound, else 0.
};

/// Builds the named paper workload: synthesize, split 75/25, cap training.
[[nodiscard]] Workload make_workload(const std::string& dataset_name, std::uint64_t seed);

/// Builds a workload from an arbitrary dataset (toy tasks).
[[nodiscard]] Workload make_workload(data::Dataset dataset, std::uint64_t seed,
                                     std::size_t max_train = kMaxTrainSamples);

/// Constructs a RegHD pipeline with the bench-standard settings; callers
/// override fields of the returned config before constructing when needed.
[[nodiscard]] core::PipelineConfig reghd_config(std::size_t models,
                                                std::size_t dim = kQualityDim,
                                                std::uint64_t seed = 0xBE7C4);

/// Fits the learner on the workload's training split and returns test MSE.
[[nodiscard]] double fit_and_score(model::Regressor& learner, const Workload& workload);

/// Applies the bench-standard encoder bandwidth: `factor`/√n, smoother than
/// the library's 1/√n auto default. The paper's Eq. 1 encoder is a
/// low-capacity map, and its Table 1 k-trend (more models → better quality)
/// requires per-model capacity to be the binding constraint; a smoother
/// kernel reproduces that regime while keeping RFF's quality. Chosen by grid
/// search over {0.3, 0.5, 1.0}×auto (see bench/ablation_design).
void set_smooth_encoder(core::PipelineConfig& cfg, std::size_t features,
                        double factor = 0.3);

/// Prints the standard bench header (binary name, what it reproduces).
void print_header(const std::string& experiment, const std::string& description);

/// Minimal ordered JSON emitter for machine-readable bench artifacts
/// (BENCH_*.json). Supports the value shapes the benches need — numbers,
/// strings, booleans, and nested objects — preserving insertion order so the
/// files diff cleanly between runs.
class JsonValue {
 public:
  static JsonValue number(double v);
  static JsonValue integer(std::int64_t v);
  static JsonValue string(std::string v);
  static JsonValue boolean(bool v);
  static JsonValue object();

  /// Object member access; creates the key on first use (object kind only).
  JsonValue& operator[](const std::string& key);

  /// Serializes with 2-space indentation.
  [[nodiscard]] std::string str() const;

 private:
  enum class Kind { kNumber, kInteger, kString, kBool, kObject };
  void write(std::string& out, int indent) const;

  Kind kind_ = Kind::kObject;
  double num_ = 0.0;
  std::int64_t int_ = 0;
  bool bool_ = false;
  std::string str_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Writes `value` to `path` (with trailing newline); prints the destination
/// to stdout. Returns false and prints to stderr when the file cannot be
/// opened.
bool write_json_file(const std::string& path, const JsonValue& value);

// ---------------------------------------------------------------------------
// Serving-load harness, shared by tools/load_generator and perfbench.
// ---------------------------------------------------------------------------

/// Zipf(s) sampler over {0, …, n−1}: P(k) ∝ 1/(k+1)^s. s = 0 is uniform;
/// s ≈ 1 is the classic web/tenant skew where a few hot keys dominate.
/// Deterministic for a fixed (n, s, seed). Inverse-CDF lookup on a
/// precomputed table — O(log n) per draw, no allocation after construction.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s, std::uint64_t seed);
  [[nodiscard]] std::size_t next();

 private:
  std::vector<double> cdf_;  ///< cumulative P(0..k), cdf_.back() == 1.
  std::mt19937_64 rng_;
};

/// Open-loop arrival schedule: request i is due at start + i/rate, anchored
/// to absolute time. The pacer never re-anchors when the system falls
/// behind — a stalled server makes wait_until return immediately and the
/// backlog of due arrivals lands as fast as the driver can submit, exactly
/// the pressure a real open-loop client applies. Measuring each latency
/// from scheduled_ns (not from the submit instant) is what makes the
/// recorded tail coordinated-omission-safe.
class OpenLoopPacer {
 public:
  OpenLoopPacer(double rate_per_sec, std::uint64_t start_ns);

  [[nodiscard]] std::uint64_t scheduled_ns(std::uint64_t index) const noexcept;

  /// Blocks until `scheduled` (coarse sleep, then a short spin for sub-ms
  /// accuracy); returns immediately when already past due.
  static void wait_until(std::uint64_t scheduled);

  [[nodiscard]] static std::uint64_t now_ns() noexcept;

 private:
  double interval_ns_;
  std::uint64_t start_ns_;
};

/// Exact-sample latency recorder: stores every observation (no bucketing
/// error in the tail) and answers nearest-rank percentiles. Feed it
/// completion − *scheduled* time from an OpenLoopPacer schedule and the
/// percentiles are coordinated-omission-safe: queries that waited behind a
/// stall carry their full due-time wait.
class LatencyRecorder {
 public:
  explicit LatencyRecorder(std::size_t reserve = 1 << 16);

  void record_ns(std::uint64_t ns);
  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  [[nodiscard]] double mean_ns() const;
  /// Nearest-rank percentile, p in [0, 100]. 0 with no samples.
  [[nodiscard]] double percentile_ns(double p) const;
  [[nodiscard]] double max_ns() const;

  /// {count, mean_ns, p50_ns, p95_ns, p99_ns, max_ns} — the standard block
  /// the serving artifacts embed per load point.
  [[nodiscard]] JsonValue summary() const;

 private:
  mutable std::vector<std::uint64_t> samples_;
  mutable bool sorted_ = true;
};

}  // namespace reghd::bench
