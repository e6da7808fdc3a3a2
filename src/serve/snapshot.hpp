// Immutable model snapshots and the lock-free publication cell.
//
// The serving split: the trainer owns the only mutable OnlineRegHD and
// periodically publishes an immutable copy; predict workers score every
// query against the snapshot they last acquired and pick up new epochs by
// polling a relaxed epoch hint — the steady-state predict path takes no
// lock and copies no model state. Publication swaps a shared_ptr under a
// mutex that only publishers and epoch-changing acquires take (plus the hint
// bump); retirement is automatic when the last worker drops its reference.
//
// The snapshot is a plain value copy of the trainer's OnlineRegHD: every
// mutable array is duplicated, so it is bit-identical to the trainer's state
// at publish and never changes afterwards, while the immutable encoder is
// shared (encoding is const, so worker and trainer use it concurrently).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "core/online.hpp"

namespace reghd::serve {

/// One published model state. Immutable after publish; workers hold it via
/// shared_ptr<const ModelSnapshot> and the trainer never touches it again.
struct ModelSnapshot {
  std::uint64_t epoch = 0;
  /// Mirrors `epoch`. A reader that ever observes epoch != epoch_check got a
  /// torn snapshot — the TSan hot-swap suite asserts the pair on every
  /// acquire, turning "no torn reads" into a checkable property.
  std::uint64_t epoch_check = 0;
  std::uint64_t published_ns = 0;     ///< steady-clock ns at publish.
  std::uint64_t trained_updates = 0;  ///< learner.samples_seen() at publish.
  core::OnlineRegHD learner;

  explicit ModelSnapshot(core::OnlineRegHD l) : learner(std::move(l)) {}
};

/// Single-writer / multi-reader publication slot.
///
/// publish() swaps the pointer under the mutex and then bumps the epoch hint
/// (release), so a reader that sees the new hint and acquires is guaranteed
/// the fully constructed snapshot. Readers poll epoch_hint() — one relaxed
/// load — per query and only pay the acquire (a lock and a reference-count
/// bump) when the hint moved. Epochs are published in increasing order by
/// the single trainer, so every reader observes a non-decreasing epoch
/// sequence. A mutex rather than std::atomic<shared_ptr>: libstdc++ locks
/// inside that type too, with a pointer-bit spinlock ThreadSanitizer cannot
/// see.
class SnapshotCell {
 public:
  void publish(std::shared_ptr<const ModelSnapshot> snap) {
    const std::uint64_t epoch = snap->epoch;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      slot_.swap(snap);  // the previous snapshot is released after unlocking
    }
    epoch_.store(epoch, std::memory_order_release);
  }

  [[nodiscard]] std::shared_ptr<const ModelSnapshot> acquire() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return slot_;
  }

  /// Latest published epoch (0 before the first publish). Relaxed: the cheap
  /// per-query poll; acquire() synchronizes when the hint moved.
  [[nodiscard]] std::uint64_t epoch_hint() const noexcept {
    return epoch_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const ModelSnapshot> slot_;  ///< guarded by mu_.
  std::atomic<std::uint64_t> epoch_{0};
};

}  // namespace reghd::serve
