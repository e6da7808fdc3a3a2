// Shard-per-core serving runtime for OnlineRegHD streams.
//
// Shared-nothing layout: each shard owns its ingest rings, its snapshot
// cell, its trainer-owned learner and two threads —
//
//   predict worker   drains the predict ring in admission groups. When the
//                    queued depth reaches batch_threshold the group runs
//                    through the contiguous bank scan (standardize →
//                    encode_batch_into arena → predict_batch_into), which
//                    amortizes the RFF projection GEMM and the (k_c+k_m)×D
//                    bank traffic across the whole group; below the
//                    threshold each query takes the fused single-query path
//                    (predict_reusing → predict_one). Both paths produce
//                    bit-identical results. Steady state the worker holds no
//                    lock and touches no allocator (see alloc_probe.hpp).
//
//   trainer          drains the train ring, applies OnlineRegHD::update on
//                    the shard's only mutable learner, and periodically
//                    publishes an immutable snapshot (a value copy sharing
//                    the learner's immutable encoder) through the shard's
//                    SnapshotCell. Workers hot-swap by polling the cell's
//                    epoch hint — one relaxed load per drain group, an
//                    acquire only when it moved. Failed updates and
//                    publishes are counted (serve_train_errors), not fatal.
//
// Keys route to shards by a splitmix64 hash, so one tenant/key always lands
// on the same shard (its updates and reads are totally ordered by that
// shard's rings). Completion is per-request: the caller owns a RequestSlot
// and blocks (or polls) on its done_ns word; the worker never blocks on the
// caller.
//
// Tenant mode (ServeConfig::tenant engaged): instead of one learner per
// shard, each shard owns a TenantStore — a budgeted LRU table of per-tenant
// models keyed by the request key — and runs ONE combined thread that
// drains both rings. The single-thread-per-shard shape is what lets the
// store hold millions of lock-free tenant states: the key→shard hash
// already totally orders each tenant's traffic. Snapshot cells stay empty
// in this mode (there is no one model to publish); resident-tenant
// predictions remain allocation-free.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/online.hpp"
#include "serve/ring.hpp"
#include "serve/snapshot.hpp"
#include "serve/tenant_store.hpp"
#include "util/fault_injection.hpp"

namespace reghd::serve {

struct ServeConfig {
  std::size_t shards = 1;           ///< shard (≈ core) count.

  /// Admission batching: a drain group of at least this many queued queries
  /// runs the contiguous bank-scan batch path; smaller groups fall through
  /// to the fused single-query path. 1 forces always-batch, SIZE_MAX forces
  /// always-single.
  std::size_t batch_threshold = 4;
  std::size_t max_batch = 64;  ///< drain-group cap (arena/staging size).

  /// Snapshot publication cadence: after this many applied updates…
  std::size_t publish_every_updates = 256;
  /// …or this many milliseconds with at least one update pending, whichever
  /// comes first. 0 disables the timer.
  double publish_interval_ms = 100.0;

  /// When nonempty: recover each shard from `<dir>/shard_<i>` at start()
  /// and persist its final state there at stop() through the checkpoint
  /// container, keeping the newest two. (Ignored in tenant mode, whose
  /// persistence is the store's spill_dir.)
  std::string checkpoint_dir;

  /// Engages per-tenant model-bank mode (see the header comment and
  /// tenant_store.hpp): every request key is a tenant id with its own
  /// budgeted, LRU-activated model.
  std::optional<TenantStoreConfig> tenant;
};

/// Caller-owned completion slot for one in-flight predict. Reusable after
/// each completion. done_ns doubles as the ready flag (0 = pending) and the
/// steady-clock completion timestamp — the coordinated-omission-safe
/// latency recorders subtract their own scheduled time from it.
struct RequestSlot {
  /// done_ns while a client is blocked in wait() and no completion has
  /// landed. The worker completes with one exchange and pays the futex-wake
  /// syscall only when it replaced this marker; a polling client (the common
  /// closed-loop harvest pattern) may reuse the slot the instant done_ns
  /// turns nonzero, so the worker must not touch the slot after that store.
  static constexpr std::uint64_t kWaiting = ~std::uint64_t{0};

  std::atomic<std::uint64_t> done_ns{0};
  double result = 0.0;
  std::uint32_t error = 0;  ///< 0 = ok; nonzero = worker-side failure.

  void reset() noexcept {
    result = 0.0;
    error = 0;
    done_ns.store(0, std::memory_order_relaxed);
  }
  [[nodiscard]] bool ready() const noexcept {
    const std::uint64_t v = done_ns.load(std::memory_order_acquire);
    return v != 0 && v != kWaiting;
  }
  /// Blocks until completion (futex wait on done_ns).
  void wait() noexcept {
    // Announce the waiter in the completion word itself (0 → kWaiting), so
    // the announcement and the worker's exchange are ordered on one atomic.
    // A failed exchange loads the completion that already landed.
    std::uint64_t v = 0;
    if (done_ns.compare_exchange_strong(v, kWaiting, std::memory_order_acquire)) {
      v = kWaiting;
    }
    while (v == kWaiting) {
      done_ns.wait(kWaiting, std::memory_order_acquire);
      v = done_ns.load(std::memory_order_acquire);
    }
  }
};

class Server {
 public:
  /// Every shard starts with a fresh OnlineRegHD(online, num_features)
  /// (identical seeds — shards are partitions of one stream configuration).
  Server(ServeConfig config, core::OnlineConfig online, std::size_t num_features);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Replaces shard `shard`'s learner with a copy of `learner` (e.g. one
  /// pre-trained offline) in the server's projection storage. Only before
  /// start().
  void bootstrap(std::size_t shard, const core::OnlineRegHD& learner);

  /// Recovers checkpoints (if configured), publishes every shard's initial
  /// snapshot synchronously, then spawns the per-shard worker+trainer
  /// threads and opens admission.
  void start();

  /// Closes admission, waits out in-flight submitters, drains both rings of
  /// every shard, publishes/persists final state and joins all threads.
  /// Idempotent; also run by the destructor.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return accepting_.load(std::memory_order_acquire);
  }

  /// Shard owning `key` (splitmix64 mix, stable for the server's lifetime).
  [[nodiscard]] std::size_t shard_of(std::uint64_t key) const noexcept;

  /// Enqueues one predict. Returns false (without touching `slot`'s
  /// pending state machinery beyond reset) when the ring is full or the
  /// server is not accepting — the caller retries or sheds. On true, the
  /// worker will complete `slot` exactly once; `slot` and `features` must
  /// stay valid until then (features are copied at enqueue, the slot is
  /// written at completion). Wait-free for producers, no allocation.
  /// Throws std::invalid_argument, enqueuing nothing, on a wrong feature
  /// count or a NaN / ±Inf feature (the latter counted in
  /// serve_nonfinite_rejects).
  bool try_predict(std::uint64_t key, std::span<const double> features,
                   RequestSlot* slot);

  /// Blocking convenience wrapper: submit (retrying on a full ring), wait,
  /// return the prediction. Throws if the server stops first or the worker
  /// reports an error.
  double predict(std::uint64_t key, std::span<const double> features);

  /// Fire-and-forget online training sample. False when the train ring is
  /// full (the sample is dropped and counted) or admission is closed.
  /// Throws std::invalid_argument on a wrong feature count or a NaN / ±Inf
  /// feature or target — counted in serve_nonfinite_rejects, before anything
  /// is enqueued or any tenant is activated.
  bool try_train(std::uint64_t key, std::span<const double> features, double target);

  [[nodiscard]] const ServeConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t num_features() const noexcept { return nf_; }

  /// Latest published epoch of a shard (0 before start(); always 0 in
  /// tenant mode, which publishes no snapshots).
  [[nodiscard]] std::uint64_t snapshot_epoch(std::size_t shard) const;
  /// Updates applied by a shard's trainer so far (tests poll this to await
  /// training quiescence).
  [[nodiscard]] std::uint64_t train_applied(std::size_t shard) const;
  /// The shard's current snapshot (what its worker is serving from; null in
  /// tenant mode).
  [[nodiscard]] std::shared_ptr<const ModelSnapshot> snapshot(std::size_t shard) const;

  [[nodiscard]] bool tenant_mode() const noexcept { return config_.tenant.has_value(); }
  /// Tenant-mode stats readout for a shard (see TenantStoreStats for which
  /// fields are safe to read while the shard thread runs).
  [[nodiscard]] TenantStoreStats tenant_stats(std::size_t shard) const;
  /// The shard's store, for post-stop inspection (tests, benches). Do not
  /// mutate while the server runs — the shard thread is the owner.
  [[nodiscard]] TenantStore& tenant_store(std::size_t shard) const;

  /// Fault-injection seam for the crash-safety tests: arms `plan` on every
  /// per-shard CheckpointManager the NEXT stop()-time persistence pass
  /// constructs, then disarms. A failed final save must never escape
  /// ~Server (stop() catches, counts ckpt_save_failures, finishes teardown).
  void set_persist_fault_plan(util::FaultPlan plan) noexcept { persist_fault_ = plan; }

 private:
  struct PredictHeader {
    std::uint64_t enqueue_ns = 0;
    std::uint64_t key = 0;  ///< tenant id in tenant mode.
    RequestSlot* slot = nullptr;
  };
  struct TrainHeader {
    std::uint64_t enqueue_ns = 0;
    std::uint64_t key = 0;  ///< tenant id in tenant mode.
    double target = 0.0;
  };

  struct Shard {
    Shard(const core::OnlineConfig& online, std::size_t num_features);

    IngestRing<PredictHeader> predict_ring;
    IngestRing<TrainHeader> train_ring;
    SnapshotCell cell;
    core::OnlineRegHD learner;             ///< trainer-owned after start.
    std::unique_ptr<TenantStore> tenants;  ///< tenant mode only; shard-thread-owned.
    std::uint64_t epoch_counter = 0;       ///< trainer-only.
    std::atomic<std::uint64_t> train_applied{0};

    // Predict-ring doorbell (eventcount): producers bump tickets and wake
    // the worker only when it announced it sleeps; the worker re-checks the
    // ring between announcing and waiting, closing the lost-wakeup race.
    std::atomic<std::uint64_t> tickets{0};
    std::atomic<bool> sleeping{false};

    std::thread worker;
    std::thread trainer;
  };

  void worker_loop(Shard& shard);
  void trainer_loop(Shard& shard);
  void tenant_loop(Shard& shard);  ///< combined drain loop, tenant mode.

  // The drain/complete/idle skeleton the loops share.
  /// Pops up to one quantum of train samples and applies each through
  /// `apply(header, row)`; throws count as serve_train_errors. Returns pops.
  template <typename Apply>
  std::size_t drain_train(Shard& shard, std::vector<double>& row, Apply apply);
  /// Pops up to headers.size() predicts (rows into `raw`), observing assemble,
  /// queue wait and batch fill. Returns the count.
  std::size_t drain_predicts(Shard& shard, std::span<PredictHeader> headers, double* raw);
  /// Writes one request's outcome into its slot and wakes a parked waiter.
  static void complete(const PredictHeader& header, double result, bool failed,
                       std::uint64_t done);
  /// Spins, then sleeps on the shard's eventcount until there is work.
  void idle_wait(Shard& shard);

  void publish_snapshot(Shard& shard);
  /// Installs `learner` as the shard's learner in the server's storage mode.
  void adopt(Shard& shard, core::OnlineRegHD learner);
  void ring_doorbell(Shard& shard);

  ServeConfig config_;
  core::OnlineConfig online_config_;
  std::size_t nf_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Admission / shutdown protocol: submitters increment in_flight_ before
  // checking accepting_ and decrement after the push; stop() clears
  // accepting_, spins until in_flight_ hits zero (no producer can still be
  // mid-push), then raises draining_ — from that point ring contents are
  // final and the consumers drain to empty and exit.
  std::atomic<bool> accepting_{false};
  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> in_flight_{0};
  bool started_ = false;
  util::FaultPlan persist_fault_{};  ///< armed for the next stop()-time persistence.
};

}  // namespace reghd::serve
