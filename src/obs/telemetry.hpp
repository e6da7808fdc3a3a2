// Runtime telemetry: monotonic counters, log-bucketed latency histograms,
// and RAII stage timers for the encode / train / predict / checkpoint hot
// paths.
//
// The paper positions RegHD for real-time learning on embedded and IoT
// streams (§1, §3) and reports efficiency as a first-class result
// (Figs. 8–9); a production deployment of those hot paths needs the
// MLPerf-style per-stage accounting this module provides. Design goals, in
// order:
//
//  1. **Never perturb model math.** Telemetry only ever observes — counts
//     and wall-clock durations around calls. Every bit-identity and
//     equivalence suite passes with telemetry enabled.
//  2. **Contention-free hot path.** Each thread writes to its own shard
//     (resolved once through a thread_local pointer); shards are merged
//     only when a snapshot is taken. Shard slots are relaxed atomics so the
//     merge is race-free (TSan-clean) without any hot-path synchronization.
//  3. **Predictable disabled cost.** Telemetry is off by default. When
//     disabled, every record call is one well-predicted branch on a global
//     atomic flag — no clock reads, no shard lookup (the e2e microbench row
//     `telemetry_overhead` pins the cost; see DESIGN.md §9). Compiling with
//     -DREGHD_NO_TELEMETRY removes the calls entirely.
//  4. **No allocation while recording.** Histograms use fixed power-of-two
//     bucket edges (bucket = bit_width of the nanosecond value), so an
//     observation is two relaxed fetch_adds. Quantiles (p50/p95/p99) are
//     estimated from the bucket counts at snapshot time.
//
// Metric identity is a compile-time enum rather than registered strings:
// the instrumented surface is fixed (encoder, regressors, online stream,
// thread pool, checkpoints), and an enum keeps the record path a bare array
// index. Snapshots export to JSON and Prometheus text exposition via
// obs/export.hpp.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace reghd::obs {

/// Monotonic event counters. Keep kCounterNames in telemetry.cpp in sync.
enum class Counter : std::size_t {
  kEncodeRows = 0,        ///< Rows encoded (per-row and batch paths).
  kEncodeBatches,         ///< encode_batch_into calls.
  kTrainSteps,            ///< Regressor train_step calls.
  kTrainBatches,          ///< Regressor train_batch calls.
  kTrainBatchSamples,     ///< Samples applied through train_batch.
  kPredicts,              ///< Per-sample predict calls (incl. batch fallback rows).
  kPredictBatchRows,      ///< Rows predicted through predict_batch.
  kPredictFused,          ///< predict_one calls served by the fused fast path.
  kPredictFusedFallbacks, ///< predict_one calls that fell back to encode+predict.
  kRequantizes,           ///< Binary-snapshot refreshes (requantize()).
  kClusterUpdates,        ///< Eq. 8 winning-cluster updates applied.
  kOnlineUpdates,         ///< OnlineRegHD readings consumed (update/update_batch).
  kOnlineWarmupSkips,     ///< Readings consumed during warmup (no model update).
  kOnlineColdPredicts,    ///< predict() calls answered by the cold-start mean.
  kOnlineDecays,          ///< Exponential-forgetting applications.
  kOnlineNonfiniteRejects,///< Labelled readings/blocks rejected for NaN or ±Inf.
  kPoolJobs,              ///< ThreadPool jobs dispatched to workers.
  kPoolInlineJobs,        ///< run_blocks calls executed serially inline.
  kPoolBlocks,            ///< Blocks executed across all jobs.
  kPoolWorkerBusyNs,      ///< Nanoseconds participants spent executing blocks
                          ///< (occupancy = busy_ns / (job_ns · thread_count)).
                          ///< Only a thread's outermost participation frame
                          ///< records, so nested run_blocks never double-count
                          ///< and busy_ns ≤ wall · thread_count always holds.
  kCkptSaves,             ///< Checkpoints written successfully.
  kCkptSaveFailures,      ///< Checkpoint writes that threw (incl. injected faults).
  kCkptRecoverScans,      ///< Candidate files examined during recovery.
  kCkptCorruptions,       ///< Candidates rejected as corrupt/torn (CRC or parse).
  kCkptRecoveries,        ///< Successful recoveries.
  kShardFits,             ///< Shard replica fits completed (sharded training).
  kShardMerges,           ///< Shard-merge reductions applied (one per merged model).
  kShardRefineEpochs,     ///< Sequential refine epochs run after a shard merge.
  kServeRequests,         ///< Predict requests admitted by the serving runtime.
  kServeBatches,          ///< Admission batches scored through the bank scan.
  kServeBatchRows,        ///< Requests served through the batched bank-scan path.
  kServeSingleRows,       ///< Requests served through the fused single-query path.
  kServeQueueRejects,     ///< Predict submissions rejected (ingest ring full).
  kServeTrainApplied,     ///< Online updates applied by shard trainers.
  kServeTrainRejects,     ///< Train submissions rejected (train ring full).
  kServeSnapshotPublishes,///< Immutable model snapshots published by trainers.
  kServeSnapshotSwaps,    ///< Predict-worker hot-swaps to a newer snapshot.
  kTenantHits,            ///< Tenant lookups answered by a resident learner.
  kTenantMisses,          ///< Tenant lookups that had to activate state.
  kTenantActivations,     ///< Fresh tenant learners created (first contact).
  kTenantReactivations,   ///< Evicted tenants restored from their checkpoint.
  kTenantEvictions,       ///< Resident tenants serialized out under budget pressure.
  kTenantPromotions,      ///< Tenants re-sized to a larger-D tier.
  kTenantSpillDiscards,   ///< Evicted checkpoints dropped by the spill budget.
  kServeTrainErrors,      ///< Train samples or snapshot publishes that threw.
  kTenantReactivateFailures, ///< Spilled tenants whose blob failed to load.
  kServeNonfiniteRejects, ///< Serve submissions rejected for a NaN or ±Inf value.
  kCount
};

/// Latency histograms (nanosecond observations). Keep kHistoNames in
/// telemetry.cpp in sync.
enum class Histo : std::size_t {
  kEncodeRowNs = 0,   ///< One encode() call.
  kEncodeBatchNs,     ///< One encode_batch_into call (whole block).
  kTrainStepNs,       ///< One train_step.
  kTrainBatchNs,      ///< One train_batch (whole mini-batch).
  kPredictNs,         ///< One predict.
  kPredictBatchNs,    ///< One predict_batch (whole block).
  kPredictOneNs,      ///< One predict_one (fused or fallback, encode included).
  kOnlineUpdateNs,    ///< One prequential update (predict + consume label).
  kOnlineBatchNs,     ///< One update_batch block.
  kPoolJobNs,         ///< One dispatched pool job, dispatch to last block done.
  kCkptWriteNs,       ///< One checkpoint serialization + atomic write.
  kCkptFsyncNs,       ///< One fsync barrier inside an atomic write.
  kCkptRecoverNs,     ///< One recover() walk.
  kShardFitNs,        ///< One shard replica fit (train + re-derived base).
  kShardMergeNs,      ///< One full merge reduction (deltas + requantize).
  kShardRefineNs,     ///< One refine pass (all refine epochs).
  kServeQueueWaitNs,  ///< Per request: ingest-ring enqueue → worker drain.
  kServeAssembleNs,   ///< Per admission batch: drain + staging assembly.
  kServeEncodeNs,     ///< Per admission batch: standardize + arena encode.
  kServeScanNs,       ///< Per admission batch: bank scan + unscale.
  kServePredictNs,    ///< Per request: enqueue → completion store (e2e).
  kServeBatchFill,    ///< Admission batch sizes (a count, not nanoseconds).
  kServePublishNs,    ///< One snapshot publish (learner copy + flip).
  kServeStalenessNs,  ///< Snapshot publish instant → worker swap instant.
  kTenantEvictNs,     ///< One eviction (serialize + spill store).
  kTenantActivateNs,  ///< One activation (fresh construct or checkpoint load).
  kTenantResidentBytes, ///< Resident-model footprint, observed at each eviction
                        ///< (a byte count, not nanoseconds).
  kCount
};

constexpr std::size_t kNumCounters = static_cast<std::size_t>(Counter::kCount);
constexpr std::size_t kNumHistos = static_cast<std::size_t>(Histo::kCount);

/// Histogram buckets: bucket b counts observations with bit_width(ns) == b,
/// i.e. value in [2^(b−1), 2^b). Bucket 0 holds exact zeros. 42 buckets
/// cover ~73 minutes in one nanosecond resolution — beyond any stage this
/// library times; larger values clamp into the last bucket.
constexpr std::size_t kHistoBuckets = 42;

/// Cluster-hit counters are a small fixed family indexed by winning cluster;
/// models beyond the cap aggregate into the last slot (k rarely exceeds 16
/// in the paper's configurations).
constexpr std::size_t kClusterHitSlots = 32;

/// Stable lowercase snake_case metric names (export keys).
[[nodiscard]] std::string_view counter_name(Counter c) noexcept;
[[nodiscard]] std::string_view histo_name(Histo h) noexcept;

#ifndef REGHD_NO_TELEMETRY

namespace detail {

/// Per-thread metric storage. Slots are relaxed atomics: the owning thread
/// is the only writer, snapshot readers only load — no read-modify-write
/// races, no false-sharing-prone global cachelines on the hot path.
struct alignas(64) Shard {
  std::array<std::atomic<std::uint64_t>, kNumCounters> counters{};
  std::array<std::array<std::atomic<std::uint64_t>, kHistoBuckets>, kNumHistos> buckets{};
  std::array<std::atomic<std::uint64_t>, kNumHistos> histo_sum_ns{};
  std::array<std::atomic<std::uint64_t>, kClusterHitSlots> cluster_hits{};
};

/// Global runtime switch. Off by default; the disabled fast path of every
/// record function is a single load + branch on this flag.
extern std::atomic<bool> g_enabled;

/// This thread's shard, registered with the global registry on first use.
/// Shards outlive their threads (they are owned by the registry and never
/// freed) so counts from exited workers stay in the totals.
[[nodiscard]] Shard& local_shard();

[[nodiscard]] inline std::size_t bucket_of(std::uint64_t ns) noexcept {
  const auto w = static_cast<std::size_t>(std::bit_width(ns));
  return w < kHistoBuckets ? w : kHistoBuckets - 1;
}

}  // namespace detail

/// Runtime switch. Enabling is cheap (one atomic store); counts recorded
/// while disabled are simply not taken.
inline void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Adds `n` to a counter.
inline void count(Counter c, std::uint64_t n = 1) noexcept {
  if (!enabled()) {
    return;
  }
  detail::local_shard().counters[static_cast<std::size_t>(c)].fetch_add(
      n, std::memory_order_relaxed);
}

/// Records one latency observation (nanoseconds).
inline void observe_ns(Histo h, std::uint64_t ns) noexcept {
  if (!enabled()) {
    return;
  }
  detail::Shard& shard = detail::local_shard();
  const auto i = static_cast<std::size_t>(h);
  shard.buckets[i][detail::bucket_of(ns)].fetch_add(1, std::memory_order_relaxed);
  shard.histo_sum_ns[i].fetch_add(ns, std::memory_order_relaxed);
}

/// Records a winning-cluster hit (indexes ≥ kClusterHitSlots aggregate into
/// the last slot).
inline void count_cluster_hit(std::size_t cluster) noexcept {
  if (!enabled()) {
    return;
  }
  const std::size_t slot = cluster < kClusterHitSlots ? cluster : kClusterHitSlots - 1;
  detail::local_shard().cluster_hits[slot].fetch_add(1, std::memory_order_relaxed);
}

/// RAII stage timer: reads the clock only when telemetry is enabled at
/// construction, and records the elapsed nanoseconds into `h` on
/// destruction. Disabled cost: one branch, no clock access.
class StageTimer {
 public:
  explicit StageTimer(Histo h) noexcept : histo_(h), armed_(enabled()) {
    if (armed_) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;
  ~StageTimer() {
    if (armed_) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
      observe_ns(histo_, ns > 0 ? static_cast<std::uint64_t>(ns) : 0);
    }
  }

 private:
  Histo histo_;
  bool armed_;
  std::chrono::steady_clock::time_point start_;
};

#else  // REGHD_NO_TELEMETRY: everything compiles to nothing.

inline void set_enabled(bool) noexcept {}
[[nodiscard]] inline bool enabled() noexcept { return false; }
inline void count(Counter, std::uint64_t = 1) noexcept {}
inline void observe_ns(Histo, std::uint64_t) noexcept {}
inline void count_cluster_hit(std::size_t) noexcept {}

class StageTimer {
 public:
  explicit StageTimer(Histo) noexcept {}
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;
};

#endif  // REGHD_NO_TELEMETRY

/// One histogram, merged across shards at snapshot time.
struct HistogramSnapshot {
  std::array<std::uint64_t, kHistoBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;

  [[nodiscard]] double mean_ns() const noexcept {
    return count > 0 ? static_cast<double>(sum_ns) / static_cast<double>(count) : 0.0;
  }
  /// Quantile estimate (q in [0,1]) by geometric interpolation inside the
  /// covering power-of-two bucket. Exact for the bucket, approximate within.
  [[nodiscard]] double quantile_ns(double q) const noexcept;
  [[nodiscard]] double p50_ns() const noexcept { return quantile_ns(0.50); }
  [[nodiscard]] double p95_ns() const noexcept { return quantile_ns(0.95); }
  [[nodiscard]] double p99_ns() const noexcept { return quantile_ns(0.99); }
};

/// A consistent-enough point-in-time merge of all shards. Taken under the
/// registry lock; concurrent recording proceeds (relaxed loads may miss
/// in-flight increments, never tear or double-count a slot).
struct TelemetrySnapshot {
  std::array<std::uint64_t, kNumCounters> counters{};
  std::array<HistogramSnapshot, kNumHistos> histograms{};
  std::array<std::uint64_t, kClusterHitSlots> cluster_hits{};

  [[nodiscard]] std::uint64_t counter(Counter c) const noexcept {
    return counters[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] const HistogramSnapshot& histogram(Histo h) const noexcept {
    return histograms[static_cast<std::size_t>(h)];
  }
};

/// Merges every live and retired shard. Safe to call concurrently with
/// recording from any thread.
[[nodiscard]] TelemetrySnapshot snapshot();

/// Zeroes all shards (tests, per-run CLI accounting). Not atomic with
/// respect to concurrent recorders: call from quiescent points.
void reset();

}  // namespace reghd::obs
