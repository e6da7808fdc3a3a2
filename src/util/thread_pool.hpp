// Persistent worker pool behind util::parallel_for.
//
// The seed implementation spawned and joined fresh std::threads on every
// parallel_for call — tens of microseconds of overhead per batch, paid once
// per epoch per dataset. This pool starts its workers lazily on first use
// and keeps them parked on a condition variable between jobs, so a batch
// dispatch costs one notify + one atomic counter.
//
// Work is dispatched as an indexed set of blocks. Block boundaries are fixed
// by the caller (parallel_for keeps the seed's deterministic contiguous
// ranges), and blocks are claimed dynamically via an atomic cursor — which
// OS thread executes a block never affects results because blocks write
// disjoint state.
//
// Thread count: REGHD_THREADS environment variable when set (≥ 1), else
// std::thread::hardware_concurrency. The pool serializes concurrent
// run_blocks() callers; a call from inside a worker (nested parallelism)
// runs serially inline rather than deadlocking.
//
// run_team() is the second entry: T members, the caller and T − 1 workers,
// which step together through a TeamSteps. It refuses rather than wait or
// nest, so a caller always has a serial fallback.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace reghd::util {

/// Target logical thread count for data-parallel work: REGHD_THREADS when
/// set to a positive integer, else hardware concurrency (min 1). Resolved
/// once and cached.
[[nodiscard]] std::size_t default_thread_count();

class ThreadPool {
 public:
  /// Starts `threads − 1` workers (the calling thread participates in every
  /// job, so `threads` is the total parallelism).
  explicit ThreadPool(std::size_t threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  /// Total parallelism: workers + the calling thread.
  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size() + 1; }

  /// Executes block(0) … block(num_blocks−1), distributing blocks over the
  /// workers and the calling thread; returns when every block has finished.
  /// `block` must not throw (parallel_for wraps exceptions upstream). More
  /// blocks than threads is fine — blocks are claimed from an atomic cursor.
  /// Reentrant calls from a pool worker run serially inline.
  void run_blocks(std::size_t num_blocks, const std::function<void(std::size_t)>& block);

  /// Runs member(0) … member(members−1) as one team and returns true once
  /// all have finished: member(0) on the calling thread, the others on pool
  /// workers, which take them up at once. A busy host may still start one
  /// late — even after member(0) has returned — so members step through a
  /// TeamSteps, whose leader never waits for a share nobody has claimed.
  /// Returns false without running anything, the caller's cue to run
  /// serially, when the team cannot have threads of its own: a call from
  /// inside a block the pool dispatched (a run_blocks / parallel_for block
  /// or another team's member), members > thread_count(), or the pool
  /// already running another caller's job. The pool is held for the whole
  /// call, so run_blocks callers on other threads wait for it. `member` must
  /// not throw.
  [[nodiscard]] bool run_team(std::size_t members,
                              const std::function<void(std::size_t)>& member);

  /// The process-wide pool, lazily constructed with default_thread_count().
  [[nodiscard]] static ThreadPool& global();

 private:
  void worker_loop();

  /// Posts block(0) … block(num_blocks−1) to the workers and joins in; with
  /// `caller_first` the calling thread runs block 0 itself before claiming.
  /// The caller holds job_mutex_.
  void run_job(std::size_t num_blocks, const std::function<void(std::size_t)>& block,
               bool caller_first);

  std::vector<std::thread> workers_;

  // Serializes concurrent run_blocks callers so one job is in flight at a time.
  std::mutex job_mutex_;

  // Protects the job slot + generation; workers park on cv_work_.
  std::mutex m_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t job_blocks_ = 0;
  std::size_t active_ = 0;  // workers that have not finished the current generation
  std::uint64_t generation_ = 0;
  bool stop_ = false;

  // Block cursor, claimed lock-free while a job runs.
  std::atomic<std::size_t> cursor_{0};
};

/// The per-step rendezvous of a run_team team led by member 0, built so the
/// leader never waits for a member that is not running. Each step the
/// leader publishes work with release() and does its own share; every other
/// member's share goes to whichever side claims it first — the member, in
/// claim(), or the leader, in steal() once its own share is done. A share
/// its member claimed, the leader waits out in wait_done(). On an idle host
/// every member claims its share as soon as the step is released; on an
/// oversubscribed one (ctest -j, a sanitizer, other processes) a member that
/// lost its core costs the leader only that share's time, and a late member
/// rejoins at the step in progress rather than replaying the ones it missed.
///
/// Release, claim, steal and done are acquire/release pairs: the leader's
/// writes before release() are visible to the step's shares, and a share's
/// writes to the leader after wait_done() (or to the member that sweeps the
/// same rows in a later step, which first waits for that step's release).
/// Waits spin for a few microseconds, then block until notified, so a
/// waiting member hands its core over instead of burning it. stop() ends
/// the team: every pending and later wait_release returns kStopped.
class TeamSteps {
 public:
  static constexpr std::uint64_t kStopped = ~std::uint64_t{0};

  explicit TeamSteps(std::size_t members) : shares_(members) {}

  TeamSteps(const TeamSteps&) = delete;
  TeamSteps& operator=(const TeamSteps&) = delete;

  /// Leader: publishes the next step (the first call publishes step 0).
  void release() noexcept;
  /// Leader: takes member `member`'s share of the step last released; false
  /// when the member claimed it first.
  [[nodiscard]] bool steal(std::size_t member) noexcept;
  /// Leader: waits until member `member` has finished the share it claimed
  /// in the step last released.
  void wait_done(std::size_t member) noexcept;
  /// Leader: wakes every member for good, e.g. when its own step threw.
  void stop() noexcept;

  /// Member: waits until step `step` or a later one is released; returns the
  /// latest released step, or kStopped.
  [[nodiscard]] std::uint64_t wait_release(std::uint64_t step) noexcept;
  /// Member: claims its share of `step`; false when the leader took it.
  [[nodiscard]] bool claim(std::size_t member, std::uint64_t step) noexcept;
  /// Member: reports its claimed share of `step` finished.
  void done(std::size_t member, std::uint64_t step) noexcept;

 private:
  // One cache line per member: its claim and done marks, written by the
  // member (and the claim by a stealing leader), read by the leader. Each
  // holds one past the last step claimed / finished.
  struct alignas(64) Share {
    std::atomic<std::uint64_t> claimed{0};
    std::atomic<std::uint64_t> done{0};
  };

  alignas(64) std::atomic<std::uint64_t> released_{0};  // steps released so far
  std::vector<Share> shares_;
};

}  // namespace reghd::util
