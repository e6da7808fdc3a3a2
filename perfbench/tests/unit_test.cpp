// Unit tests for the benchmark's own parts: percentiles, goodput, medians,
// metric naming, the result line and spans.
#include <gtest/gtest.h>

#include <vector>

#include "harness_lib.hpp"

namespace reghd::perfbench {
namespace {

TEST(PerfbenchPercentile, NearestRankOnKnownSamples) {
  bench::LatencyRecorder r;
  for (std::uint64_t v = 1; v <= 100; ++v) {
    r.record_ns(101 - v);  // insertion order must not matter
  }
  EXPECT_EQ(r.percentile_ns(50.0), 50.0);
  EXPECT_EQ(r.percentile_ns(99.0), 99.0);
  EXPECT_EQ(r.percentile_ns(100.0), 100.0);
  EXPECT_EQ(r.percentile_ns(0.0), 1.0);

  bench::LatencyRecorder small;
  for (const std::uint64_t v : {30, 10, 20}) {
    small.record_ns(v);
  }
  // Nearest rank: ceil(p/100 · n) → p50 of 3 samples is the 2nd, p99 the 3rd.
  EXPECT_EQ(small.percentile_ns(50.0), 20.0);
  EXPECT_EQ(small.percentile_ns(99.0), 30.0);
}

TEST(PerfbenchGoodput, FailuresAndRefusalsAreMisses) {
  const std::vector<RequestOutcome> outcomes = {
      {RequestStatus::kOk, 100},      {RequestStatus::kOk, 1'000},
      {RequestStatus::kOk, 1'001},    {RequestStatus::kFailed, 0},
      {RequestStatus::kRefused, 0},   {RequestStatus::kOk, 0},
  };
  // Within 1000 ns: the 100, 1000 and 0 latencies → 3 good in 2 s.
  EXPECT_DOUBLE_EQ(goodput_per_s(outcomes, 1'000, 2.0), 1.5);
  EXPECT_DOUBLE_EQ(goodput_per_s(outcomes, 0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(goodput_per_s({}, 1'000, 1.0), 0.0);
}

TEST(PerfbenchMedian, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(PerfbenchMetricNames, PatternAndUniqueness) {
  EXPECT_TRUE(valid_metric_name("hdc.encode_ns_per_row.b16.p50"));
  EXPECT_TRUE(valid_metric_name("setup_s"));
  EXPECT_TRUE(valid_metric_name("9lives-x"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".hidden"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/name"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));

  MetricSet m;
  m.add("a", 1.0, "s");
  EXPECT_THROW(m.add("a", 2.0, "s"), std::invalid_argument);
  EXPECT_THROW(m.add("bad name", 2.0, "s"), std::invalid_argument);
}

TEST(PerfbenchResultLine, KeepsEveryDigit) {
  MetricSet m;
  m.add("latency_ms", 1.2034567890123, "ms");
  bench::LatencyRecorder r;
  r.record_ns(7);
  m.add_timing("x", r, 2.0, "ns");
  EXPECT_EQ(result_line(true, 10, 0, m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": "
            "{\"latency_ms\": {\"value\": 1.2034567890123, \"unit\": \"ms\"}, "
            "\"x.p50\": {\"value\": 14, \"unit\": \"ns\"}, "
            "\"x.p99\": {\"value\": 14, \"unit\": \"ns\"}, "
            "\"x.n\": {\"value\": 1, \"unit\": \"count\"}}}");
}

TEST(PerfbenchSpans, DisabledRecorderStoresNothing) {
  SpanRecorder off(false);
  EXPECT_EQ(off.begin("a", 1), SpanRecorder::kNoParent);
  off.end(SpanRecorder::kNoParent);
  EXPECT_TRUE(off.spans().empty());

  SpanRecorder on(true);
  const std::size_t root = on.add("req", 7, SpanRecorder::kNoParent, 100, 400);
  on.add("req.submit", 7, root, 100, 150);
  on.add("req", 8, SpanRecorder::kNoParent, 500, 450);  // clamped to zero length
  ASSERT_EQ(on.spans().size(), 3U);
  EXPECT_EQ(on.spans()[1].parent, root);
  EXPECT_EQ(on.spans()[1].id, on.spans()[0].id);
  const bench::LatencyRecorder d = on.durations("req");
  EXPECT_EQ(d.count(), 2U);
  EXPECT_EQ(d.percentile_ns(100.0), 300.0);
  EXPECT_EQ(d.percentile_ns(0.0), 0.0);
}

}  // namespace
}  // namespace reghd::perfbench
