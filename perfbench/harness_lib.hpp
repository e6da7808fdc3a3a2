// Building blocks of the repository benchmark (perfbench/harness.cpp):
// in-memory spans, metric sets with the one-line JSON result, goodput, and
// the host facts every run record carries. Kept apart from the workloads so
// perfbench/tests/unit_test.cpp can pin them on known inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace reghd::perfbench {

/// One timed interval. Spans of one request share `id`; `parent` is the
/// index of the enclosing span in the recorder (kNoParent for a root).
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::size_t parent = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Single-threaded span store. Spans live in memory for the whole run and
/// are written once, at exit (write_jsonl). A disabled recorder reads no
/// clock and stores nothing, so untraced runs pay one branch per call site.
/// Span names are stored by pointer: pass string literals.
class SpanRecorder {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  explicit SpanRecorder(bool enabled = false) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Opens a span starting now; returns its index (kNoParent when disabled).
  std::size_t begin(const char* name, std::uint64_t id, std::size_t parent = kNoParent);
  /// Closes a span opened by begin(); no-op for kNoParent.
  void end(std::size_t index);
  /// Stores a span whose bounds were measured elsewhere (e.g. a request from
  /// its scheduled time to the server's completion stamp).
  std::size_t add(const char* name, std::uint64_t id, std::size_t parent,
                  std::uint64_t start_ns, std::uint64_t end_ns);

  /// Runs `fn` inside a span named `name`.
  template <class Fn>
  void time(const char* name, std::uint64_t id, Fn&& fn) {
    const std::size_t s = begin(name, id);
    fn();
    end(s);
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Durations (end − start) of every span called `name`, in recording order.
  [[nodiscard]] bench::LatencyRecorder durations(const std::string& name) const;

  /// One JSON object per line: name, id, parent (-1 for roots), start_ns,
  /// end_ns. Returns false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// [A-Za-z0-9][A-Za-z0-9_.-]*, at most 64 characters.
[[nodiscard]] bool valid_metric_name(const std::string& name);

/// Ordered metric list; names are validated and must be unique.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Adds <prefix>.p50, <prefix>.p99 (nearest rank, times `scale`) and
  /// <prefix>.n (sample count).
  void add_timing(const std::string& prefix, const bench::LatencyRecorder& samples,
                  double scale, const std::string& unit);

  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept { return metrics_; }
  [[nodiscard]] const Metric* find(const std::string& name) const;

  /// {"name": {"value": v, "unit": u}, ...} with every digit kept.
  [[nodiscard]] std::string json_object() const;

 private:
  std::vector<Metric> metrics_;
};

/// The benchmark's result line: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string result_line(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed, const MetricSet& metrics);

/// How one open-loop request ended.
enum class RequestStatus : std::uint8_t { kOk, kFailed, kRefused };

struct RequestOutcome {
  RequestStatus status = RequestStatus::kOk;
  std::uint64_t latency_ns = 0;  ///< completion − scheduled time (kOk only).
};

/// Requests that completed successfully within `limit_ns`, per second of
/// `seconds`. Failed and refused requests count as misses.
[[nodiscard]] double goodput_per_s(std::span<const RequestOutcome> outcomes,
                                   std::uint64_t limit_ns, double seconds);

/// Median of `values` (mean of the middle pair for even counts); 0 if empty.
[[nodiscard]] double median(std::vector<double> values);

/// CPUs this process may run on (sched_getaffinity), like `nproc`.
[[nodiscard]] std::size_t nproc();

/// Peak resident set of this process so far, MiB (getrusage).
[[nodiscard]] double peak_rss_mib();

/// Escapes `s` as a JSON string literal (quotes included).
[[nodiscard]] std::string json_string(const std::string& s);

/// Shortest decimal that round-trips `v` exactly.
[[nodiscard]] std::string json_number(double v);

}  // namespace reghd::perfbench
