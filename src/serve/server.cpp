#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "core/checkpoint.hpp"
#include "obs/telemetry.hpp"
#include "serve/alloc_probe.hpp"
#include "serve/cadence.hpp"
#include "util/check.hpp"

namespace reghd::serve {

namespace {

/// Entries per ingest ring (each shard has a predict and a train ring).
constexpr std::size_t kQueueCapacity = 4096;
/// An idle consumer spin-yields this long before sleeping on the doorbell.
constexpr std::uint64_t kIdleSpinNs = 50'000;
/// Per-shard checkpoints kept under ServeConfig::checkpoint_dir.
constexpr std::size_t kCheckpointKeepLast = 2;

[[nodiscard]] std::uint64_t steady_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64 finalizer: full-avalanche key → shard mixing, so sequential
/// tenant/key ids spread evenly instead of striping.
[[nodiscard]] std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

[[nodiscard]] core::CheckpointConfig shard_checkpoint(const ServeConfig& config,
                                                      std::size_t shard) {
  core::CheckpointConfig ck;
  ck.dir = config.checkpoint_dir + "/shard_" + std::to_string(shard);
  ck.keep_last = kCheckpointKeepLast;
  return ck;
}

[[nodiscard]] bool all_finite(std::span<const double> values) noexcept {
  return std::all_of(values.begin(), values.end(), [](double v) { return std::isfinite(v); });
}

/// Admission gate for NaN / ±Inf inputs: counts the rejection, then throws
/// std::invalid_argument like a wrong feature count, before anything is
/// enqueued or any tenant activated.
void check_finite(bool finite, const char* what) {
  if (!finite) {
    obs::count(obs::Counter::kServeNonfiniteRejects);
  }
  REGHD_CHECK(finite, what << " has a NaN or ±Inf value");
}

}  // namespace

Server::Shard::Shard(const core::OnlineConfig& online, std::size_t num_features)
    : predict_ring(kQueueCapacity, num_features),
      train_ring(kQueueCapacity, num_features),
      learner(online, num_features) {}

Server::Server(ServeConfig config, core::OnlineConfig online, std::size_t num_features)
    : config_(std::move(config)), online_config_(std::move(online)), nf_(num_features) {
  REGHD_CHECK(config_.shards > 0, "server requires at least one shard");
  REGHD_CHECK(config_.max_batch > 0, "max_batch must be at least 1");
  REGHD_CHECK(config_.batch_threshold > 0, "batch_threshold must be at least 1");
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(online_config_, nf_));
    if (config_.tenant) {
      TenantStoreConfig tc = *config_.tenant;
      if (!tc.spill_dir.empty()) {
        // Spill state is per shard: one tenant only ever hashes to one
        // shard, so per-shard directories keep the stores fully disjoint.
        tc.spill_dir += "/shard_" + std::to_string(i);
      }
      shards_.back()->tenants =
          std::make_unique<TenantStore>(std::move(tc), online_config_, nf_);
    }
  }
}

Server::~Server() { stop(); }

void Server::bootstrap(std::size_t shard, const core::OnlineRegHD& learner) {
  REGHD_CHECK(!started_, "bootstrap must happen before start()");
  REGHD_CHECK(shard < shards_.size(), "bootstrap shard " << shard << " out of range");
  adopt(*shards_[shard], learner);
}

void Server::adopt(Shard& shard, core::OnlineRegHD learner) {
  REGHD_CHECK(learner.num_features() == nf_,
              "adopted learner has " << learner.num_features()
                                     << " features, server expects " << nf_);
  // A bootstrapped copy shares only the immutable encoder with its source,
  // and a recovered checkpoint loads resident; either way the shard then
  // runs in the server's projection storage.
  shard.learner = std::move(learner);
  shard.learner.set_projection_storage(online_config_.encoder.projection_storage);
}

void Server::start() {
  REGHD_CHECK(!started_, "server already started");
  if (!tenant_mode() && !config_.checkpoint_dir.empty()) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const core::CheckpointManager mgr(shard_checkpoint(config_, i));
      if (std::optional<core::OnlineRegHD> recovered = mgr.recover()) {
        adopt(*shards_[i], std::move(*recovered));
      }
    }
  }
  draining_.store(false, std::memory_order_seq_cst);
  // Initial publication happens on this thread, before any worker exists:
  // every worker observes a snapshot from its very first query. Tenant mode
  // publishes nothing: one combined thread per shard owns its TenantStore
  // and both rings.
  if (!tenant_mode()) {
    for (auto& shard : shards_) {
      publish_snapshot(*shard);
    }
  }
  accepting_.store(true, std::memory_order_seq_cst);
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    if (tenant_mode()) {
      s->worker = std::thread([this, s] { tenant_loop(*s); });
    } else {
      s->worker = std::thread([this, s] { worker_loop(*s); });
      s->trainer = std::thread([this, s] { trainer_loop(*s); });
    }
  }
  started_ = true;
}

void Server::stop() {
  if (!started_) {
    return;
  }
  // 1) Close admission and wait out every submitter that had already passed
  //    the accepting_ gate — after this, ring contents are final.
  accepting_.store(false, std::memory_order_seq_cst);
  while (in_flight_.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
  // 2) Raise draining and wake sleepers; consumers drain to empty and exit.
  draining_.store(true, std::memory_order_seq_cst);
  for (auto& shard : shards_) {
    ring_doorbell(*shard);
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) {
      shard->worker.join();
    }
    if (shard->trainer.joinable()) {
      shard->trainer.join();
    }
  }
  started_ = false;
  // Final persistence. stop() also runs from ~Server(), so nothing below may
  // throw — a full disk or a bad directory during the last save would
  // otherwise fly out of a destructor straight into std::terminate. Each
  // catch counts ckpt_save_failures (write-layer failures also count
  // themselves inside write_checkpoint, so one failed save may register
  // twice — acceptable for a failure signal) and teardown continues: losing
  // the final checkpoint falls back to the previous one, exactly the
  // recovery model.
  const util::FaultPlan fault = persist_fault_;
  persist_fault_ = {};
  if (tenant_mode()) {
    for (auto& shard : shards_) {
      if (shard->tenants->config().spill_dir.empty()) {
        continue;  // in-memory spill: nothing outlives the store
      }
      try {
        shard->tenants->flush();  // every tenant lands on disk, atomically
      } catch (...) {
        obs::count(obs::Counter::kCkptSaveFailures);
      }
    }
    return;
  }
  if (!config_.checkpoint_dir.empty()) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      try {
        core::CheckpointManager mgr(shard_checkpoint(config_, i));
        if (fault.mode != util::FaultMode::kNone) {
          mgr.set_fault_plan(fault);
        }
        mgr.save(shards_[i]->learner);
      } catch (...) {
        obs::count(obs::Counter::kCkptSaveFailures);
      }
    }
  }
}

std::size_t Server::shard_of(std::uint64_t key) const noexcept {
  return static_cast<std::size_t>(mix64(key) % shards_.size());
}

void Server::ring_doorbell(Shard& shard) {
  // Release so a sleeper that reads the new ticket count (acquire) also sees
  // the pushed entry; seq_cst load pairs with the sleeper's seq_cst announce
  // to close the lost-wakeup window.
  shard.tickets.fetch_add(1, std::memory_order_release);
  if (shard.sleeping.load(std::memory_order_seq_cst)) {
    shard.tickets.notify_all();
  }
}

bool Server::try_predict(std::uint64_t key, std::span<const double> features,
                         RequestSlot* slot) {
  REGHD_CHECK(slot != nullptr, "try_predict requires a completion slot");
  REGHD_CHECK(features.size() == nf_,
              "query has " << features.size() << " features, server expects " << nf_);
  check_finite(all_finite(features), "query");
  in_flight_.fetch_add(1, std::memory_order_seq_cst);
  bool ok = false;
  if (accepting_.load(std::memory_order_seq_cst)) {
    Shard& shard = *shards_[shard_of(key)];
    slot->reset();
    const PredictHeader header{steady_ns(), key, slot};
    ok = shard.predict_ring.try_push(header, features);
    if (ok) {
      obs::count(obs::Counter::kServeRequests);
      ring_doorbell(shard);
    } else {
      obs::count(obs::Counter::kServeQueueRejects);
    }
  }
  in_flight_.fetch_sub(1, std::memory_order_release);
  return ok;
}

double Server::predict(std::uint64_t key, std::span<const double> features) {
  RequestSlot slot;
  while (!try_predict(key, features, &slot)) {
    REGHD_CHECK(running(), "server is not accepting requests");
    std::this_thread::yield();  // ring full: wait for the worker to drain
  }
  slot.wait();
  REGHD_CHECK(slot.error == 0, "serve predict failed (worker error " << slot.error << ")");
  return slot.result;
}

bool Server::try_train(std::uint64_t key, std::span<const double> features,
                       double target) {
  REGHD_CHECK(features.size() == nf_,
              "sample has " << features.size() << " features, server expects " << nf_);
  check_finite(all_finite(features) && std::isfinite(target), "sample");
  in_flight_.fetch_add(1, std::memory_order_seq_cst);
  bool ok = false;
  if (accepting_.load(std::memory_order_seq_cst)) {
    Shard& shard = *shards_[shard_of(key)];
    const TrainHeader header{steady_ns(), key, target};
    ok = shard.train_ring.try_push(header, features);
    if (ok) {
      if (tenant_mode()) {
        // The combined tenant thread sleeps on the predict doorbell; train
        // arrivals must ring it too (the classic trainer polls instead).
        ring_doorbell(shard);
      }
    } else {
      obs::count(obs::Counter::kServeTrainRejects);
    }
  }
  in_flight_.fetch_sub(1, std::memory_order_release);
  return ok;
}

std::uint64_t Server::snapshot_epoch(std::size_t shard) const {
  REGHD_CHECK(shard < shards_.size(), "shard " << shard << " out of range");
  return shards_[shard]->cell.epoch_hint();
}

std::uint64_t Server::train_applied(std::size_t shard) const {
  REGHD_CHECK(shard < shards_.size(), "shard " << shard << " out of range");
  return shards_[shard]->train_applied.load(std::memory_order_acquire);
}

std::shared_ptr<const ModelSnapshot> Server::snapshot(std::size_t shard) const {
  REGHD_CHECK(shard < shards_.size(), "shard " << shard << " out of range");
  return shards_[shard]->cell.acquire();
}

TenantStoreStats Server::tenant_stats(std::size_t shard) const {
  REGHD_CHECK(shard < shards_.size(), "shard " << shard << " out of range");
  REGHD_CHECK(shards_[shard]->tenants != nullptr, "server is not in tenant mode");
  return shards_[shard]->tenants->stats();
}

TenantStore& Server::tenant_store(std::size_t shard) const {
  REGHD_CHECK(shard < shards_.size(), "shard " << shard << " out of range");
  REGHD_CHECK(shards_[shard]->tenants != nullptr, "server is not in tenant mode");
  return *shards_[shard]->tenants;
}

void Server::publish_snapshot(Shard& shard) {
  const obs::StageTimer timer(obs::Histo::kServePublishNs);
  // A value copy: bit-identical to the trainer's state, sharing only the
  // immutable encoder (so it already runs in the server's storage mode).
  auto snap = std::make_shared<ModelSnapshot>(shard.learner);
  const std::uint64_t epoch = ++shard.epoch_counter;
  snap->epoch = epoch;
  snap->epoch_check = epoch;
  snap->published_ns = steady_ns();
  snap->trained_updates = shard.learner.samples_seen();
  shard.cell.publish(std::move(snap));
  obs::count(obs::Counter::kServeSnapshotPublishes);
}

void Server::worker_loop(Shard& shard) {
  const std::size_t nf = nf_;
  const std::size_t cap = config_.max_batch;

  // All worker state is preallocated here, before the first query (and
  // before any no-alloc probe can be armed around real traffic): admission
  // staging, the per-shard encode arena, the snapshot's prepared bank
  // scratch, and the single-path standardization buffer.
  std::vector<PredictHeader> headers(cap);
  util::AlignedVector<double> raw(cap * nf, 0.0);
  util::AlignedVector<double> scaled(cap * nf, 0.0);
  std::vector<double> out(cap, 0.0);
  std::vector<double> single_scratch(nf, 0.0);
  core::EncodedDataset arena;
  core::MultiModelRegressor::PredictScratch scratch;
  std::shared_ptr<const ModelSnapshot> snap;
  std::uint64_t seen_epoch = 0;

  const auto maybe_swap = [&] {
    if (snap && shard.cell.epoch_hint() == seen_epoch) {
      return;  // steady state: one relaxed load, nothing else
    }
    std::shared_ptr<const ModelSnapshot> fresh = shard.cell.acquire();
    if (!fresh || (snap && fresh->epoch == seen_epoch)) {
      return;
    }
    snap = std::move(fresh);
    seen_epoch = snap->epoch;
    // Size the scorer's buffers for the new model, off the per-query path.
    // Capacities are retained across swaps, so steady-state re-preparation
    // allocates nothing.
    snap->learner.model().prepare_predict_scratch(scratch);
    obs::count(obs::Counter::kServeSnapshotSwaps);
    const std::uint64_t now = steady_ns();
    obs::observe_ns(obs::Histo::kServeStalenessNs,
                    now > snap->published_ns ? now - snap->published_ns : 0);
  };

  maybe_swap();  // the initial snapshot was published before this thread ran
  obs::count(obs::Counter::kServeRequests, 0);  // register this thread's shard
  if (snap) {
    // Grow every lazily-sized buffer to steady-state capacity before the
    // first query (and before the no-alloc probe arms): one full-size batch
    // through the encode + bank-scan path and one fused single query
    // (predict_one's thread_local scratch) on an all-zero reading.
    snap->learner.standardize_rows_into({raw.data(), cap * nf}, cap,
                                        {scaled.data(), cap * nf});
    arena.assign_rows(snap->learner.encoder(), {scaled.data(), cap * nf}, cap, 1);
    snap->learner.model().predict_batch_into(arena, {out.data(), cap}, scratch);
    (void)snap->learner.model().predict_one(snap->learner.encoder(),
                                            {scaled.data(), nf});
    (void)snap->learner.predict_reusing({raw.data(), nf}, single_scratch);
  }

  for (;;) {
    maybe_swap();
    const std::size_t n = drain_predicts(shard, headers, raw.data());
    if (n == 0) {
      if (draining_.load(std::memory_order_acquire) && !shard.predict_ring.can_pop()) {
        return;  // admission closed, producers gone, ring verified empty
      }
      idle_wait(shard);
      continue;
    }

    const PredictPathProbe probe = predict_path_probe();
    if (probe != nullptr) {
      probe(true);
    }
    bool failed = false;
    try {
      if (n < config_.batch_threshold) {
        // Low load: fused single-query path per entry (identical semantics
        // to OnlineRegHD::predict, scratch reused).
        for (std::size_t i = 0; i < n; ++i) {
          out[i] = snap->learner.predict_reusing(
              {raw.data() + i * nf, nf}, single_scratch);
        }
        obs::count(obs::Counter::kServeSingleRows, n);
      } else {
        obs::count(obs::Counter::kServeBatches);
        obs::count(obs::Counter::kServeBatchRows, n);
        if (snap->learner.cold()) {
          // Cold-start gate, batch form: same fallback predict() takes.
          const double y = snap->learner.cold_prediction();
          std::fill_n(out.begin(), n, y);
          obs::count(obs::Counter::kOnlineColdPredicts, n);
        } else {
          {
            const obs::StageTimer encode_timer(obs::Histo::kServeEncodeNs);
            snap->learner.standardize_rows_into({raw.data(), n * nf}, n,
                                                {scaled.data(), n * nf});
            arena.assign_rows(snap->learner.encoder(), {scaled.data(), n * nf}, n,
                              1);
          }
          {
            const obs::StageTimer scan_timer(obs::Histo::kServeScanNs);
            snap->learner.model().predict_batch_into(arena, {out.data(), n},
                                                     scratch);
            for (std::size_t i = 0; i < n; ++i) {
              out[i] = snap->learner.unscale(out[i]);
            }
          }
        }
      }
    } catch (...) {
      failed = true;  // complete the group with an error instead of dying
    }
    if (probe != nullptr) {
      probe(false);
    }

    const std::uint64_t done = steady_ns();
    for (std::size_t i = 0; i < n; ++i) {
      complete(headers[i], out[i], failed, done);
    }
  }
}

void Server::trainer_loop(Shard& shard) {
  core::OnlineRegHD& learner = shard.learner;
  std::vector<double> row(nf_, 0.0);
  PublishCadence cadence;
  cadence.every = config_.publish_every_updates;
  cadence.interval_ns = static_cast<std::uint64_t>(
      std::max(0.0, config_.publish_interval_ms) * 1e6);
  cadence.last_ns = steady_ns();

  // A failed publish is counted and skipped like a failed update: the shard
  // keeps serving from its last snapshot.
  const auto publish = [&] {
    try {
      publish_snapshot(shard);
    } catch (...) {
      obs::count(obs::Counter::kServeTrainErrors);
    }
  };

  // The worker's warm-up, for update()'s two encodes: one fused query and
  // one arena row of an all-zero reading grow this thread's thread_local
  // scratch (the weight-tile scratch included, when a rematerialized
  // projection is over the encoder's storage budget) before the first
  // drain, outside the no-alloc brackets. The learner's state is untouched.
  (void)learner.model().predict_one(learner.encoder(), row);
  core::EncodedDataset warm;
  warm.assign_rows(learner.encoder(), row, 1, 1);

  for (;;) {
    // The drain is bracketed by the no-alloc probe: update() runs once per
    // sample right here, so its steady state must stay off the allocator
    // just like the predict paths (publishes happen outside the brackets —
    // the snapshot copy allocates by design).
    const PredictPathProbe probe = predict_path_probe();
    if (probe != nullptr) {
      probe(true);
    }
    const std::size_t popped =
        drain_train(shard, row, [&](const TrainHeader& header, std::span<const double> x) {
          learner.update(x, header.target);
          cadence.applied(1);
        });
    if (probe != nullptr) {
      probe(false);
    }
    if (cadence.due(steady_ns())) {
      publish();
      // Re-stamp from the clock AFTER the publish returned: anchoring the
      // interval at the pre-publish reading made the timer fire
      // systematically early under load (see cadence.hpp).
      cadence.published(steady_ns());
    }
    if (popped == 0) {
      if (draining_.load(std::memory_order_acquire) && !shard.train_ring.can_pop()) {
        break;
      }
      // The trainer needs timed wakeups for the publish interval anyway, so
      // it polls instead of sleeping on a doorbell.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  if (cadence.dirty > 0) {
    publish();  // final state visible to late readers
  }
}

void Server::tenant_loop(Shard& shard) {
  TenantStore& store = *shard.tenants;
  const std::size_t nf = nf_;
  const std::size_t cap = config_.max_batch;

  std::vector<PredictHeader> headers(cap);
  util::AlignedVector<double> raw(cap * nf, 0.0);
  std::vector<double> train_row(nf, 0.0);

  obs::count(obs::Counter::kServeRequests, 0);  // register this thread's shard
  // Grow the fused path's thread_local scratch to the *base* (largest)
  // dimension before any probe can arm: tiered tenants step D upward, and
  // the first full-D tenant on this thread would otherwise regrow it.
  (void)shard.learner.model().predict_one(shard.learner.encoder(),
                                          {train_row.data(), nf});

  for (;;) {
    // Predicts first — they are latency-sensitive; training is deferrable.
    const std::size_t n = drain_predicts(shard, headers, raw.data());
    if (n > 0) {
      const PredictPathProbe probe = predict_path_probe();
      for (std::size_t i = 0; i < n; ++i) {
        bool failed = false;
        double result = 0.0;
        try {
          // Activation (hash probe, LRU splice; construct/reactivate on a
          // miss) runs outside the probe bracket — the miss path allocates
          // by design. The resident predict inside the bracket must not.
          core::OnlineRegHD& learner = store.activate(headers[i].key);
          if (probe != nullptr) {
            probe(true);
          }
          result = store.predict_activated(learner, {raw.data() + i * nf, nf});
          if (probe != nullptr) {
            probe(false);
          }
        } catch (...) {
          if (probe != nullptr) {
            probe(false);  // idempotent: re-asserts the not-in-path state
          }
          failed = true;
        }
        complete(headers[i], result, failed, steady_ns());
      }
      obs::count(obs::Counter::kServeSingleRows, n);
    }

    const std::size_t popped = drain_train(
        shard, train_row, [&](const TrainHeader& header, std::span<const double> x) {
          (void)store.update(header.key, x, header.target);
        });
    if (n == 0 && popped == 0) {
      if (draining_.load(std::memory_order_acquire) && !shard.predict_ring.can_pop() &&
          !shard.train_ring.can_pop()) {
        return;  // admission closed, producers gone, both rings verified empty
      }
      idle_wait(shard);
    }
  }
}

template <typename Apply>
std::size_t Server::drain_train(Shard& shard, std::vector<double>& row, Apply apply) {
  constexpr std::size_t kTrainQuantum = 256;
  TrainHeader header;
  std::size_t popped = 0;
  std::size_t applied = 0;
  while (popped < kTrainQuantum && shard.train_ring.try_pop(header, row.data())) {
    ++popped;
    try {
      apply(header, std::span<const double>(row));
      ++applied;
    } catch (...) {
      // E.g. an activation whose eviction could not write its spill file:
      // count it and move on, the thread keeps serving.
      obs::count(obs::Counter::kServeTrainErrors);
    }
  }
  if (applied > 0) {
    obs::count(obs::Counter::kServeTrainApplied, applied);
    shard.train_applied.fetch_add(applied, std::memory_order_release);
  }
  return popped;
}

std::size_t Server::drain_predicts(Shard& shard, std::span<PredictHeader> headers,
                                   double* raw) {
  const std::uint64_t drain_start = steady_ns();
  std::size_t n = 0;
  while (n < headers.size() && shard.predict_ring.try_pop(headers[n], raw + n * nf_)) {
    ++n;
  }
  if (n == 0) {
    return 0;
  }
  const std::uint64_t assembled = steady_ns();
  obs::observe_ns(obs::Histo::kServeAssembleNs, assembled - drain_start);
  for (std::size_t i = 0; i < n; ++i) {
    obs::observe_ns(obs::Histo::kServeQueueWaitNs,
                    assembled > headers[i].enqueue_ns ? assembled - headers[i].enqueue_ns
                                                      : 0);
  }
  obs::observe_ns(obs::Histo::kServeBatchFill, n);  // admission occupancy
  return n;
}

void Server::complete(const PredictHeader& header, double result, bool failed,
                      std::uint64_t done) {
  RequestSlot* slot = header.slot;
  slot->result = failed ? 0.0 : result;
  slot->error = failed ? 1U : 0U;
  obs::observe_ns(obs::Histo::kServePredictNs,
                  done > header.enqueue_ns ? done - header.enqueue_ns : 0);
  if (slot->done_ns.exchange(done, std::memory_order_acq_rel) == RequestSlot::kWaiting) {
    slot->done_ns.notify_all();  // a client is parked in wait()
  }
}

void Server::idle_wait(Shard& shard) {
  // Tenant mode's combined thread also consumes the train ring, so train
  // arrivals must wake it; the snapshot worker watches predicts only.
  const bool watch_train = tenant_mode();
  const auto has_work = [&](std::memory_order order) {
    return shard.predict_ring.can_pop() || (watch_train && shard.train_ring.can_pop()) ||
           draining_.load(order);
  };
  const std::uint64_t deadline = steady_ns() + kIdleSpinNs;
  while (steady_ns() < deadline) {
    if (has_work(std::memory_order_acquire)) {
      return;
    }
    std::this_thread::yield();
  }
  // Eventcount sleep: announce, re-check the rings, then wait on the ticket
  // counter. A producer that missed the announcement raised the ticket
  // first, so wait(seen) returns immediately; one that saw it notifies.
  const std::uint64_t seen = shard.tickets.load(std::memory_order_acquire);
  shard.sleeping.store(true, std::memory_order_seq_cst);
  if (has_work(std::memory_order_seq_cst)) {
    shard.sleeping.store(false, std::memory_order_relaxed);
    return;
  }
  shard.tickets.wait(seen, std::memory_order_acquire);
  shard.sleeping.store(false, std::memory_order_relaxed);
}

}  // namespace reghd::serve
