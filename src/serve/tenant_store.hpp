// Per-tenant model-bank store: a budgeted, LRU-activated table of compact
// OnlineRegHD states, one per tenant key.
//
// HD regression models are uniquely suited to a one-model-per-tenant shape:
// packed ternary they are ~1 KB (PR 6), they bundle additively, and the v2
// checkpoint container round-trips them bit-identically (PR 2). This store
// leans on all three:
//
//  * **Residency budget + LRU.** At most `resident_budget` tenants hold live
//    learners; activating one more serializes the least-recently-used tenant
//    through the checkpoint container into a spill entry (in-memory blob, or
//    an atomic file under `spill_dir`). Reactivation loads the blob back —
//    the tenant resumes bit-identically, as if it had never been evicted.
//    A blob that fails to load fails only that request; it is dropped (a
//    file moves to `<path>.corrupt`) and the key restarts cold.
//
//  * **Tier-sized dimensionality.** The capacity model (paper §2.3,
//    Eqs. 3–4) lower-bounds the dimension D needed to superpose P patterns
//    at a given decision threshold and error; a tenant that has only ever
//    contributed P updates cannot need more capacity than P patterns'
//    worth. Tiers keyed on cumulative update counts therefore give cold
//    tenants small-D models (hdc::min_dimension, rounded to a multiple of
//    64 and clamped to [64, base D]) and promote them to larger D as their
//    traffic grows. Promotion carries the running feature/target statistics
//    and sample count verbatim and restarts the HD accumulators — the
//    statistics transfer exactly, the superposition does not (hypervectors
//    of different D are not convertible), so a promoted tenant relearns its
//    bundle at full statistical speed. Set `tiered_dims = false` for strict
//    lifetime bit-identity across any traffic pattern.
//
//  * **Spill budget.** Millions of cold tenants would otherwise accumulate
//    unbounded spill bytes; `spill_budget_bytes` discards the
//    oldest-evicted blobs (counted — a discarded tenant restarts cold on
//    its next appearance).
//
// Ownership: a TenantStore is single-owner — NOT thread-safe. The serving
// integration gives each shard its own store and drives it from that
// shard's one thread; key→shard hashing already totally orders a tenant's
// traffic, so per-tenant state needs no locks anywhere. The stats counters
// are relaxed atomics purely so other threads may *read* them live.
//
// Hot path: a resident hit is a hash lookup, an intrusive LRU splice and
// predict_reusing against the store-owned scratch — no allocation. Misses
// (activation, eviction, reactivation) allocate and are counted/timed.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/online.hpp"

namespace reghd::serve {

struct TenantStoreConfig {
  /// Maximum tenants holding live learners at once (≥ 1).
  std::size_t resident_budget = 1024;

  /// Capacity-model tier sizing (Eqs. 3–4, queried at decision threshold
  /// T = 0.8 and false-positive probability ε = 0.05). When false every
  /// tenant gets the base configuration's D and residency is the only
  /// compaction.
  bool tiered_dims = true;
  /// Ascending cumulative-update boundaries; tier t covers updates <
  /// tier_updates[t], the final tier (full base D) covers the rest.
  std::vector<std::size_t> tier_updates = {64, 512};

  /// When nonempty, evicted blobs persist as atomic files under this
  /// directory (surviving process restarts); otherwise they stay in memory.
  std::string spill_dir;
  /// Spill byte cap; oldest-evicted blobs are discarded beyond it
  /// (0 = unbounded).
  std::size_t spill_budget_bytes = 256ull << 20;
};

/// Point-in-time stats readout. The event counters (hits … spill_discards,
/// resident_bytes) are relaxed atomics and safe to read from any thread;
/// the structural fields (resident, spilled, spill_bytes) are exact only
/// when read by the owning thread or after it has quiesced.
struct TenantStoreStats {
  std::uint64_t hits = 0;           ///< resident lookups.
  std::uint64_t misses = 0;         ///< lookups that had to activate.
  std::uint64_t activations = 0;    ///< fresh learners constructed.
  std::uint64_t reactivations = 0;  ///< checkpoint-restored returns.
  std::uint64_t evictions = 0;      ///< LRU evictions serialized out.
  std::uint64_t promotions = 0;     ///< tier promotions (D grew).
  std::uint64_t spill_discards = 0; ///< spilled blobs dropped by the budget.
  /// Blobs that failed to load. activations + reactivations +
  /// reactivate_failures = misses, barring a failed eviction.
  std::uint64_t reactivate_failures = 0;
  std::size_t resident = 0;         ///< tenants currently resident.
  std::size_t spilled = 0;          ///< tenants currently spilled.
  std::size_t resident_bytes = 0;   ///< approx. live-learner footprint.
  std::size_t spill_bytes = 0;      ///< serialized blob bytes retained.
};

class TenantStore {
 public:
  /// `online` is the *base* (hot-tier) stream configuration; tiered stores
  /// derive smaller-D variants from it. `num_features` fixes every tenant's
  /// input width.
  TenantStore(TenantStoreConfig config, core::OnlineConfig online,
              std::size_t num_features);

  TenantStore(const TenantStore&) = delete;
  TenantStore& operator=(const TenantStore&) = delete;

  /// Ensures `key` is resident (constructing or reactivating as needed,
  /// evicting the LRU tail when over budget), moves it to the LRU front and
  /// returns its learner. The reference stays valid until the tenant is
  /// evicted — at most until the next activate() of a different key.
  core::OnlineRegHD& activate(std::uint64_t key);

  /// Allocation-free resident-path predict: pair with activate() so the
  /// serving worker can bracket exactly this call with its no-alloc probe.
  [[nodiscard]] double predict_activated(const core::OnlineRegHD& learner,
                                         std::span<const double> features) {
    return learner.predict_reusing(features, predict_scratch_);
  }

  /// activate() + predict_activated() in one call.
  double predict(std::uint64_t key, std::span<const double> features);

  /// Prequential update of `key`'s model (activating it first if needed);
  /// advances the tenant's cumulative update count and applies any due tier
  /// promotion. Returns the pre-label prediction.
  double update(std::uint64_t key, std::span<const double> features, double target);

  /// Evicts every resident tenant through the spill path (with `spill_dir`
  /// set this is the persistence flush: all state lands on disk).
  void flush();

  [[nodiscard]] bool is_resident(std::uint64_t key) const {
    return resident_index_.contains(key);
  }
  [[nodiscard]] std::size_t resident_count() const noexcept {
    return resident_index_.size();
  }
  [[nodiscard]] TenantStoreStats stats() const;

  /// Dimension assigned to tier `t` (ascending, last = base D).
  [[nodiscard]] const std::vector<std::size_t>& tier_dims() const noexcept {
    return tier_dims_;
  }
  /// Tier covering a cumulative update count.
  [[nodiscard]] std::size_t tier_of(std::uint64_t updates) const noexcept;

  [[nodiscard]] const TenantStoreConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t num_features() const noexcept { return nf_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffU;

  struct Entry {
    std::uint64_t key = 0;
    std::unique_ptr<core::OnlineRegHD> learner;
    std::uint64_t updates = 0;  ///< cumulative across residencies.
    std::size_t tier = 0;
    std::uint32_t prev = kNil;  ///< LRU list toward the front (hotter).
    std::uint32_t next = kNil;  ///< LRU list toward the tail (colder).
  };

  /// One evicted tenant: its serialized checkpoint (empty when it lives on
  /// disk instead) plus the metadata needed to re-tier it without parsing.
  struct Spilled {
    std::string blob;
    std::uint64_t updates = 0;
    std::size_t tier = 0;
    std::size_t bytes = 0;
    std::uint64_t seq = 0;  ///< eviction order, for budget discards.
  };

  [[nodiscard]] std::unique_ptr<core::OnlineRegHD> make_learner(std::size_t tier) const;
  [[nodiscard]] std::string spill_path(std::uint64_t key) const;
  [[nodiscard]] std::size_t approx_learner_bytes(std::size_t tier) const;

  Entry& entry_of(std::uint64_t key);  ///< activate + LRU-front, the miss path.
  void lru_unlink(std::uint32_t slot);
  void lru_push_front(std::uint32_t slot);
  void evict_lru_tail();
  void enforce_spill_budget();
  void maybe_promote(Entry& entry);

  TenantStoreConfig config_;
  core::OnlineConfig online_;
  std::size_t nf_;
  std::vector<std::size_t> tier_dims_;

  std::vector<Entry> entries_;       ///< slot storage (stable learner addresses).
  std::vector<std::uint32_t> free_;  ///< unused slots.
  std::unordered_map<std::uint64_t, std::uint32_t> resident_index_;
  std::uint32_t lru_head_ = kNil;
  std::uint32_t lru_tail_ = kNil;

  std::unordered_map<std::uint64_t, Spilled> spilled_;
  std::deque<std::pair<std::uint64_t, std::uint64_t>> spill_fifo_;  ///< (seq, key).
  std::uint64_t spill_seq_ = 0;
  std::size_t spill_bytes_ = 0;

  std::vector<double> predict_scratch_;

  // Observable from other threads (bench/ops readers); written relaxed by
  // the owner only.
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> activations_{0};
  std::atomic<std::uint64_t> reactivations_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> promotions_{0};
  std::atomic<std::uint64_t> spill_discards_{0};
  std::atomic<std::uint64_t> reactivate_failures_{0};
  std::atomic<std::uint64_t> resident_bytes_{0};
};

}  // namespace reghd::serve
