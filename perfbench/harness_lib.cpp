#include "harness_lib.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace reghd::perfbench {

std::size_t SpanRecorder::begin(const char* name, std::uint64_t id, std::size_t parent) {
  if (!enabled_) {
    return kNoParent;
  }
  spans_.push_back({name, id, parent, bench::OpenLoopPacer::now_ns(), 0});
  return spans_.size() - 1;
}

void SpanRecorder::end(std::size_t index) {
  if (index != kNoParent) {
    spans_[index].end_ns = bench::OpenLoopPacer::now_ns();
  }
}

std::size_t SpanRecorder::add(const char* name, std::uint64_t id, std::size_t parent,
                              std::uint64_t start_ns, std::uint64_t end_ns) {
  if (!enabled_) {
    return kNoParent;
  }
  spans_.push_back({name, id, parent, start_ns, std::max(start_ns, end_ns)});
  return spans_.size() - 1;
}

bench::LatencyRecorder SpanRecorder::durations(const std::string& name) const {
  bench::LatencyRecorder out(1024);
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.record_ns(s.end_ns - s.start_ns);
    }
  }
  return out;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id << ",\"parent\":"
        << (s.parent == kNoParent ? std::string("-1") : std::to_string(s.parent))
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) {
    return false;
  }
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void MetricSet::add(const std::string& name, double value, const std::string& unit) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("invalid metric name: " + name);
  }
  if (find(name) != nullptr) {
    throw std::invalid_argument("duplicate metric: " + name);
  }
  metrics_.push_back({name, value, unit});
}

void MetricSet::add_timing(const std::string& prefix, const bench::LatencyRecorder& samples,
                           double scale, const std::string& unit) {
  add(prefix + ".p50", samples.percentile_ns(50.0) * scale, unit);
  add(prefix + ".p99", samples.percentile_ns(99.0) * scale, unit);
  add(prefix + ".n", static_cast<double>(samples.count()), "count");
}

const Metric* MetricSet::find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

std::string MetricSet::json_object() const {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out += (i == 0 ? "" : ", ") + json_string(m.name) + ": {\"value\": " +
           json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const MetricSet& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + metrics.json_object() + "}";
}

double goodput_per_s(std::span<const RequestOutcome> outcomes, std::uint64_t limit_ns,
                     double seconds) {
  if (!(seconds > 0.0)) {
    return 0.0;
  }
  const auto good = std::count_if(outcomes.begin(), outcomes.end(), [&](const RequestOutcome& o) {
    return o.status == RequestStatus::kOk && o.latency_ns <= limit_ns;
  });
  return static_cast<double>(good) / seconds;
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return 1;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace reghd::perfbench
