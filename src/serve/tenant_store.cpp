#include "serve/tenant_store.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <utility>

#include "core/checkpoint.hpp"
#include "hdc/capacity.hpp"
#include "obs/telemetry.hpp"
#include "util/atomic_file.hpp"
#include "util/check.hpp"

namespace reghd::serve {

namespace {

/// Spilled blobs are whole v2 checkpoint containers; anything past this is
/// damaged metadata, not a tenant model.
constexpr std::size_t kMaxSpillFileBytes = 1ull << 30;

/// The capacity query behind the tier dims (Eqs. 3–4): normalized decision
/// threshold T and tolerated false-positive probability ε.
constexpr double kCapacityThreshold = 0.8;
constexpr double kCapacityMaxError = 0.05;

[[nodiscard]] std::size_t round_up_64(std::size_t d) noexcept {
  return (d + 63) / 64 * 64;
}

}  // namespace

TenantStore::TenantStore(TenantStoreConfig config, core::OnlineConfig online,
                         std::size_t num_features)
    : config_(std::move(config)), online_(std::move(online)), nf_(num_features) {
  REGHD_CHECK(config_.resident_budget >= 1,
              "tenant store requires a resident budget of at least 1");
  REGHD_CHECK(num_features > 0, "tenant store requires at least one feature");
  online_.reghd.validate();

  // Tier table: tier t serves tenants with cumulative updates below
  // tier_updates[t]; its dimension is the capacity-model lower bound for
  // that many superposed patterns (Eqs. 3–4), rounded to a multiple of 64
  // and clamped into [64, base D]. The final tier is always the base
  // configuration. Boundaries must ascend; dims are made monotone so a
  // promotion never shrinks a model.
  const std::size_t base_dim = online_.reghd.dim;
  if (config_.tiered_dims) {
    std::size_t prev_bound = 0;
    std::size_t prev_dim = 64;
    for (const std::size_t bound : config_.tier_updates) {
      REGHD_CHECK(bound > prev_bound, "tier update boundaries must strictly ascend");
      prev_bound = bound;
      std::size_t d =
          round_up_64(hdc::min_dimension(bound, kCapacityThreshold, kCapacityMaxError));
      d = std::clamp<std::size_t>(d, prev_dim, base_dim);
      tier_dims_.push_back(d);
      prev_dim = d;
    }
  }
  tier_dims_.push_back(base_dim);

  if (!config_.spill_dir.empty()) {
    std::filesystem::create_directories(config_.spill_dir);
  }
  entries_.resize(config_.resident_budget);
  free_.reserve(config_.resident_budget);
  for (std::size_t i = config_.resident_budget; i-- > 0;) {
    free_.push_back(static_cast<std::uint32_t>(i));
  }
  resident_index_.reserve(config_.resident_budget * 2);
  predict_scratch_.resize(nf_);
}

std::size_t TenantStore::tier_of(std::uint64_t updates) const noexcept {
  if (!config_.tiered_dims) {
    return tier_dims_.size() - 1;
  }
  for (std::size_t t = 0; t < config_.tier_updates.size(); ++t) {
    if (updates < config_.tier_updates[t]) {
      return t;
    }
  }
  return tier_dims_.size() - 1;
}

std::unique_ptr<core::OnlineRegHD> TenantStore::make_learner(std::size_t tier) const {
  core::OnlineConfig cfg = online_;
  cfg.reghd.dim = tier_dims_[tier];  // the ctor re-derives encoder.dim from this
  return std::make_unique<core::OnlineRegHD>(cfg, nf_);
}

std::string TenantStore::spill_path(std::uint64_t key) const {
  return config_.spill_dir + "/tenant_" + std::to_string(key) + ".reghd";
}

std::size_t TenantStore::approx_learner_bytes(std::size_t tier) const {
  // The planes that scale with D, per model: the cluster and model
  // accumulator rows (8 B/dim each); three packed BinaryHV planes — the
  // model's sign and ternary-mask snapshots and the cluster's sign
  // snapshot — of ⌈D/64⌉ words each; and the packed bank's sign + mask
  // planes for the cluster row, plus the model row when the models are
  // binary or ternary. Then the Welford statistics and fixed overhead. With
  // rematerialized projections nothing else scales with D.
  const std::size_t d = tier_dims_[tier];
  const std::size_t plane = (d + 63) / 64 * sizeof(std::uint64_t);
  const core::ModelPrecision models = online_.reghd.model_precision;
  const std::size_t bank_rows =
      models == core::ModelPrecision::kBinary || models == core::ModelPrecision::kTernary
          ? 2
          : 1;
  const std::size_t per_model = 2 * d * sizeof(double) + (3 + 2 * bank_rows) * plane;
  return online_.reghd.models * per_model + nf_ * 24 + 512;
}

void TenantStore::lru_unlink(std::uint32_t slot) {
  Entry& e = entries_[slot];
  if (e.prev != kNil) {
    entries_[e.prev].next = e.next;
  } else {
    lru_head_ = e.next;
  }
  if (e.next != kNil) {
    entries_[e.next].prev = e.prev;
  } else {
    lru_tail_ = e.prev;
  }
  e.prev = kNil;
  e.next = kNil;
}

void TenantStore::lru_push_front(std::uint32_t slot) {
  Entry& e = entries_[slot];
  e.prev = kNil;
  e.next = lru_head_;
  if (lru_head_ != kNil) {
    entries_[lru_head_].prev = slot;
  }
  lru_head_ = slot;
  if (lru_tail_ == kNil) {
    lru_tail_ = slot;
  }
}

void TenantStore::evict_lru_tail() {
  REGHD_CHECK(lru_tail_ != kNil, "tenant eviction requested on an empty store");
  const obs::StageTimer timer(obs::Histo::kTenantEvictNs);
  const std::uint32_t slot = lru_tail_;
  Entry& e = entries_[slot];

  // Serialize the complete online state through the v2 container — the
  // bit-identical-resume guarantee is exactly the checkpoint suite's.
  std::ostringstream buf(std::ios::binary);
  core::save_online_checkpoint(buf, *e.learner);
  std::string blob = std::move(buf).str();

  Spilled sp;
  sp.updates = e.updates;
  sp.tier = e.tier;
  sp.bytes = blob.size();
  sp.seq = ++spill_seq_;
  if (config_.spill_dir.empty()) {
    sp.blob = std::move(blob);
  } else {
    util::atomic_write_file(spill_path(e.key), blob);
  }
  spill_bytes_ += sp.bytes;
  spill_fifo_.emplace_back(sp.seq, e.key);
  spilled_[e.key] = std::move(sp);

  resident_bytes_.fetch_sub(approx_learner_bytes(e.tier), std::memory_order_relaxed);
  obs::observe_ns(obs::Histo::kTenantResidentBytes,
                  resident_bytes_.load(std::memory_order_relaxed));
  lru_unlink(slot);
  resident_index_.erase(e.key);
  e.learner.reset();
  e.updates = 0;
  free_.push_back(slot);

  evictions_.fetch_add(1, std::memory_order_relaxed);
  obs::count(obs::Counter::kTenantEvictions);
  enforce_spill_budget();
}

void TenantStore::enforce_spill_budget() {
  if (config_.spill_budget_bytes == 0) {
    return;
  }
  // The fifo uses lazy deletion: reactivation erases the map entry but
  // leaves its (seq, key) pair behind, so a pair only names a discardable
  // blob when the map still holds that exact eviction generation.
  while (spill_bytes_ > config_.spill_budget_bytes && !spill_fifo_.empty()) {
    const auto [seq, key] = spill_fifo_.front();
    spill_fifo_.pop_front();
    const auto it = spilled_.find(key);
    if (it == spilled_.end() || it->second.seq != seq) {
      continue;  // stale pair: the tenant came back (and maybe left again)
    }
    spill_bytes_ -= it->second.bytes;
    if (!config_.spill_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove(spill_path(key), ec);  // best effort
    }
    spilled_.erase(it);
    spill_discards_.fetch_add(1, std::memory_order_relaxed);
    obs::count(obs::Counter::kTenantSpillDiscards);
  }
}

TenantStore::Entry& TenantStore::entry_of(std::uint64_t key) {
  if (const auto it = resident_index_.find(key); it != resident_index_.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    obs::count(obs::Counter::kTenantHits);
    const std::uint32_t slot = it->second;
    if (lru_head_ != slot) {
      lru_unlink(slot);
      lru_push_front(slot);
    }
    return entries_[slot];
  }

  misses_.fetch_add(1, std::memory_order_relaxed);
  obs::count(obs::Counter::kTenantMisses);
  const obs::StageTimer timer(obs::Histo::kTenantActivateNs);
  if (free_.empty()) {
    evict_lru_tail();
  }
  // The slot leaves free_ only once its learner exists: a blob that fails to
  // load fails this one request and never leaks a slot.
  const std::uint32_t slot = free_.back();
  Entry& e = entries_[slot];
  e.key = key;

  const bool on_disk = !config_.spill_dir.empty();
  const auto sp = spilled_.find(key);
  const bool indexed = sp != spilled_.end();
  if (indexed || (on_disk && std::filesystem::exists(spill_path(key)))) {
    // Reactivation: load the exact serialized state back — the tenant
    // resumes bit-identically to one that was never evicted. An unindexed
    // file was flushed by an earlier store instance (e.g. before a restart).
    std::string blob;
    if (indexed) {
      blob = std::move(sp->second.blob);
      e.updates = sp->second.updates;
      e.tier = sp->second.tier;
      spill_bytes_ -= sp->second.bytes;
      spilled_.erase(sp);
    }
    try {
      if (on_disk) {
        blob = util::read_file_bytes(spill_path(key), kMaxSpillFileBytes);
      }
      std::istringstream in(std::move(blob), std::ios::binary);
      e.learner = std::make_unique<core::OnlineRegHD>(
          core::load_online_checkpoint(in, online_.encoder.projection_storage));
    } catch (...) {
      // Unloadable blob: its index entry is already gone and a file moves
      // aside, so the key restarts cold on its next request.
      if (on_disk) {
        std::error_code ec;
        std::filesystem::rename(spill_path(key), spill_path(key) + ".corrupt", ec);
      }
      reactivate_failures_.fetch_add(1, std::memory_order_relaxed);
      obs::count(obs::Counter::kTenantReactivateFailures);
      throw;
    }
    if (!indexed) {
      // Recover the sidecar metadata from the checkpoint: samples_seen counts
      // this tenant's updates and the serialized D names its tier (the clamp
      // can collapse neighbouring tiers to one D, so D wins a disagreement).
      e.updates = e.learner->samples_seen();
      e.tier = tier_of(e.updates);
      const std::size_t loaded_dim = e.learner->config().reghd.dim;
      if (tier_dims_[e.tier] != loaded_dim) {
        const auto t = std::find(tier_dims_.begin(), tier_dims_.end(), loaded_dim);
        if (t != tier_dims_.end()) {
          e.tier = static_cast<std::size_t>(t - tier_dims_.begin());
        }
      }
    }
    if (on_disk) {
      std::error_code ec;
      std::filesystem::remove(spill_path(key), ec);
    }
    reactivations_.fetch_add(1, std::memory_order_relaxed);
    obs::count(obs::Counter::kTenantReactivations);
  } else {
    // First contact (or a budget-discarded tenant returning): fresh cold
    // learner in the lowest tier its (zero) history warrants.
    e.tier = tier_of(0);
    e.learner = make_learner(e.tier);
    e.updates = 0;
    activations_.fetch_add(1, std::memory_order_relaxed);
    obs::count(obs::Counter::kTenantActivations);
  }
  free_.pop_back();
  resident_bytes_.fetch_add(approx_learner_bytes(e.tier), std::memory_order_relaxed);
  resident_index_.emplace(key, slot);
  lru_push_front(slot);
  return e;
}

core::OnlineRegHD& TenantStore::activate(std::uint64_t key) {
  return *entry_of(key).learner;
}

double TenantStore::predict(std::uint64_t key, std::span<const double> features) {
  return predict_activated(activate(key), features);
}

void TenantStore::maybe_promote(Entry& entry) {
  if (!config_.tiered_dims) {
    return;
  }
  const std::size_t t = tier_of(entry.updates);
  if (t <= entry.tier) {
    return;
  }
  if (tier_dims_[t] == tier_dims_[entry.tier]) {
    entry.tier = t;  // boundary crossed but the clamp collapsed the dims
    return;
  }
  // Rebuild at the larger D: the running statistics and sample count carry
  // verbatim (restore_state), the HD accumulators restart — hypervectors of
  // different D are not convertible (see the header's tier note).
  std::unique_ptr<core::OnlineRegHD> bigger = make_learner(t);
  bigger->restore_state(entry.learner->feature_stats(), entry.learner->target_stats(),
                        entry.learner->samples_seen(), 0);
  resident_bytes_.fetch_add(
      approx_learner_bytes(t) - approx_learner_bytes(entry.tier),
      std::memory_order_relaxed);
  entry.learner = std::move(bigger);
  entry.tier = t;
  promotions_.fetch_add(1, std::memory_order_relaxed);
  obs::count(obs::Counter::kTenantPromotions);
}

double TenantStore::update(std::uint64_t key, std::span<const double> features,
                           double target) {
  Entry& e = entry_of(key);
  const double prediction = e.learner->update(features, target);
  ++e.updates;
  maybe_promote(e);
  return prediction;
}

void TenantStore::flush() {
  while (lru_tail_ != kNil) {
    evict_lru_tail();
  }
}

TenantStoreStats TenantStore::stats() const {
  TenantStoreStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.activations = activations_.load(std::memory_order_relaxed);
  s.reactivations = reactivations_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.promotions = promotions_.load(std::memory_order_relaxed);
  s.spill_discards = spill_discards_.load(std::memory_order_relaxed);
  s.reactivate_failures = reactivate_failures_.load(std::memory_order_relaxed);
  s.resident = resident_index_.size();
  s.spilled = spilled_.size();
  s.resident_bytes =
      static_cast<std::size_t>(resident_bytes_.load(std::memory_order_relaxed));
  s.spill_bytes = spill_bytes_;
  return s;
}

}  // namespace reghd::serve
