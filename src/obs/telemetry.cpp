#include "obs/telemetry.hpp"

#include <cmath>
#include <deque>
#include <mutex>

namespace reghd::obs {

namespace {

constexpr std::array<std::string_view, kNumCounters> kCounterNames = {
    "encode_rows",
    "encode_batches",
    "train_steps",
    "train_batches",
    "train_batch_samples",
    "predicts",
    "predict_batch_rows",
    "predict_fused",
    "predict_fused_fallbacks",
    "requantizes",
    "cluster_updates",
    "online_updates",
    "online_warmup_skips",
    "online_cold_predicts",
    "online_decays",
    "online_nonfinite_rejects",
    "pool_jobs",
    "pool_inline_jobs",
    "pool_blocks",
    "pool_worker_busy_ns",
    "ckpt_saves",
    "ckpt_save_failures",
    "ckpt_recover_scans",
    "ckpt_corruptions",
    "ckpt_recoveries",
    "shard_fits",
    "shard_merges",
    "shard_refine_epochs",
    "serve_requests",
    "serve_batches",
    "serve_batch_rows",
    "serve_single_rows",
    "serve_queue_rejects",
    "serve_train_applied",
    "serve_train_rejects",
    "serve_snapshot_publishes",
    "serve_snapshot_swaps",
    "tenant_hits",
    "tenant_misses",
    "tenant_activations",
    "tenant_reactivations",
    "tenant_evictions",
    "tenant_promotions",
    "tenant_spill_discards",
    "serve_train_errors",
    "tenant_reactivate_failures",
    "serve_nonfinite_rejects",
};

constexpr std::array<std::string_view, kNumHistos> kHistoNames = {
    "encode_row_ns",
    "encode_batch_ns",
    "train_step_ns",
    "train_batch_ns",
    "predict_ns",
    "predict_batch_ns",
    "predict_one_ns",
    "online_update_ns",
    "online_batch_ns",
    "pool_job_ns",
    "ckpt_write_ns",
    "ckpt_fsync_ns",
    "ckpt_recover_ns",
    "shard_fit_ns",
    "shard_merge_ns",
    "shard_refine_ns",
    "serve_queue_wait_ns",
    "serve_assemble_ns",
    "serve_encode_ns",
    "serve_scan_ns",
    "serve_predict_ns",
    "serve_batch_fill",
    "serve_publish_ns",
    "serve_staleness_ns",
    "tenant_evict_ns",
    "tenant_activate_ns",
    "tenant_resident_bytes",
};

}  // namespace

std::string_view counter_name(Counter c) noexcept {
  return kCounterNames[static_cast<std::size_t>(c)];
}

std::string_view histo_name(Histo h) noexcept {
  return kHistoNames[static_cast<std::size_t>(h)];
}

double HistogramSnapshot::quantile_ns(double q) const noexcept {
  if (count == 0) {
    return 0.0;
  }
  if (q < 0.0) {
    q = 0.0;
  }
  if (q > 1.0) {
    q = 1.0;
  }
  // Rank of the requested quantile (1-based, ceil convention).
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  const std::uint64_t target = rank > 0 ? rank : 1;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kHistoBuckets; ++b) {
    const std::uint64_t in_bucket = buckets[b];
    if (in_bucket == 0) {
      continue;
    }
    if (seen + in_bucket >= target) {
      if (b == 0) {
        return 0.0;  // bucket 0 holds exact zeros
      }
      // Bucket b covers [2^(b−1), 2^b); interpolate geometrically by the
      // fraction of the bucket's population below the target rank.
      const double lo = std::ldexp(1.0, static_cast<int>(b) - 1);
      const double frac =
          static_cast<double>(target - seen) / static_cast<double>(in_bucket);
      return lo * std::pow(2.0, frac);
    }
    seen += in_bucket;
  }
  return std::ldexp(1.0, static_cast<int>(kHistoBuckets) - 1);
}

#ifndef REGHD_NO_TELEMETRY

namespace detail {

std::atomic<bool> g_enabled{false};

namespace {

/// Shard registry. A deque gives stable addresses, so thread_local pointers
/// stay valid as other threads register; shards are never destroyed before
/// process exit, so counts from finished threads survive into snapshots.
struct Registry {
  std::mutex mutex;
  std::deque<Shard> shards;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: shards must outlive all threads
  return *r;
}

}  // namespace

Shard& local_shard() {
  thread_local Shard* shard = [] {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    r.shards.emplace_back();
    return &r.shards.back();
  }();
  return *shard;
}

}  // namespace detail

TelemetrySnapshot snapshot() {
  TelemetrySnapshot out;
  detail::Registry& r = detail::registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  for (const detail::Shard& shard : r.shards) {
    for (std::size_t c = 0; c < kNumCounters; ++c) {
      out.counters[c] += shard.counters[c].load(std::memory_order_relaxed);
    }
    for (std::size_t h = 0; h < kNumHistos; ++h) {
      HistogramSnapshot& hs = out.histograms[h];
      for (std::size_t b = 0; b < kHistoBuckets; ++b) {
        const std::uint64_t n = shard.buckets[h][b].load(std::memory_order_relaxed);
        hs.buckets[b] += n;
        hs.count += n;
      }
      hs.sum_ns += shard.histo_sum_ns[h].load(std::memory_order_relaxed);
    }
    for (std::size_t s = 0; s < kClusterHitSlots; ++s) {
      out.cluster_hits[s] += shard.cluster_hits[s].load(std::memory_order_relaxed);
    }
  }
  return out;
}

void reset() {
  detail::Registry& r = detail::registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  for (detail::Shard& shard : r.shards) {
    for (auto& c : shard.counters) {
      c.store(0, std::memory_order_relaxed);
    }
    for (auto& hist : shard.buckets) {
      for (auto& b : hist) {
        b.store(0, std::memory_order_relaxed);
      }
    }
    for (auto& s : shard.histo_sum_ns) {
      s.store(0, std::memory_order_relaxed);
    }
    for (auto& s : shard.cluster_hits) {
      s.store(0, std::memory_order_relaxed);
    }
  }
}

#else  // REGHD_NO_TELEMETRY

TelemetrySnapshot snapshot() { return {}; }
void reset() {}

#endif  // REGHD_NO_TELEMETRY

}  // namespace reghd::obs
