#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "obs/telemetry.hpp"

namespace reghd::util {

namespace {

// Set while a thread is executing pool work; nested run_blocks calls from
// inside a block run serially instead of deadlocking on job_mutex_, and
// nested run_team calls refuse.
thread_local bool tls_in_pool_job = false;

// Participation frames currently on this thread's stack (worker claim loop,
// caller claim loop, or inline execution). Busy-ns occupancy must count each
// thread's wall time at most once, so only the outermost frame records —
// a nested run_blocks (e.g. the inline-nested loops of the sharded trainer)
// is already inside its enclosing frame's clock window, and recording it
// again would double-count the nanoseconds and push occupancy past 100%.
thread_local std::uint32_t tls_busy_frames = 0;

// RAII busy-ns frame: times the enclosed block execution and records it into
// kPoolWorkerBusyNs iff this is the thread's outermost frame. The depth
// counter makes single-counting a structural invariant rather than a
// property of which call paths happen to be instrumented.
class BusyFrame {
 public:
  BusyFrame() noexcept
      : outermost_(tls_busy_frames++ == 0), armed_(outermost_ && obs::enabled()) {
    if (armed_) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  BusyFrame(const BusyFrame&) = delete;
  BusyFrame& operator=(const BusyFrame&) = delete;
  ~BusyFrame() {
    --tls_busy_frames;
    if (armed_) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
      obs::count(obs::Counter::kPoolWorkerBusyNs,
                 ns > 0 ? static_cast<std::uint64_t>(ns) : 0);
    }
  }

 private:
  bool outermost_;
  bool armed_;
  std::chrono::steady_clock::time_point start_;
};

std::size_t resolve_default_thread_count() {
  if (const char* env = std::getenv("REGHD_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) {
      return static_cast<std::size_t>(parsed);
    }
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace

std::size_t default_thread_count() {
  static const std::size_t count = resolve_default_thread_count();
  return count;
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t workers = threads > 1 ? threads - 1 : 0;
  workers_.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(std::size_t)>* job = nullptr;
    std::size_t blocks = 0;
    {
      std::unique_lock<std::mutex> lk(m_);
      cv_work_.wait(lk, [&] { return stop_ || generation_ != seen_generation; });
      if (stop_) {
        return;
      }
      seen_generation = generation_;
      job = job_;
      blocks = job_blocks_;
    }
    // Busy-time accounting (worker occupancy) only reads the clock when
    // telemetry is enabled; the model math inside the blocks is untouched.
    {
      const BusyFrame busy;
      tls_in_pool_job = true;
      for (;;) {
        const std::size_t b = cursor_.fetch_add(1, std::memory_order_relaxed);
        if (b >= blocks) {
          break;
        }
        (*job)(b);
      }
      tls_in_pool_job = false;
    }
    {
      const std::lock_guard<std::mutex> lk(m_);
      if (--active_ == 0) {
        cv_done_.notify_all();
      }
    }
  }
}

void ThreadPool::run_blocks(std::size_t num_blocks,
                            const std::function<void(std::size_t)>& block) {
  if (num_blocks == 0) {
    return;
  }
  if (num_blocks == 1 || workers_.empty() || tls_in_pool_job) {
    obs::count(obs::Counter::kPoolInlineJobs);
    obs::count(obs::Counter::kPoolBlocks, num_blocks);
    // The inline frame participates in occupancy too, but only at the root:
    // when this call is nested inside a worker or caller frame (the sharded
    // trainer's inline-nested path), the depth guard keeps it silent — the
    // enclosing frame's window already covers this time.
    const BusyFrame busy;
    for (std::size_t b = 0; b < num_blocks; ++b) {
      block(b);
    }
    return;
  }

  obs::count(obs::Counter::kPoolJobs);
  obs::count(obs::Counter::kPoolBlocks, num_blocks);
  // Job latency spans queueing behind other run_blocks callers through the
  // last finished block.
  const obs::StageTimer job_timer(obs::Histo::kPoolJobNs);
  const std::lock_guard<std::mutex> job_lk(job_mutex_);
  run_job(num_blocks, block, false);
}

bool ThreadPool::run_team(std::size_t members,
                          const std::function<void(std::size_t)>& member) {
  if (tls_in_pool_job || members > thread_count()) {
    return false;
  }
  if (members <= 1) {
    if (members == 1) {
      member(0);
    }
    return true;
  }
  // Never queue: a team holds its workers until its last step, so waiting
  // here could stall this caller behind another team's whole run — and
  // a team nested in pool work would only oversubscribe the cores.
  const std::unique_lock<std::mutex> job_lk(job_mutex_, std::try_to_lock);
  if (!job_lk.owns_lock()) {
    return false;
  }
  obs::count(obs::Counter::kPoolJobs);
  obs::count(obs::Counter::kPoolBlocks, members);
  const obs::StageTimer job_timer(obs::Histo::kPoolJobNs);
  // Member 0 runs on this thread; the woken workers claim members 1 … T−1.
  run_job(members, member, true);
  return true;
}

void ThreadPool::run_job(std::size_t num_blocks, const std::function<void(std::size_t)>& block,
                         bool caller_first) {
  {
    const std::lock_guard<std::mutex> lk(m_);
    job_ = &block;
    job_blocks_ = num_blocks;
    cursor_.store(caller_first ? 1 : 0, std::memory_order_relaxed);
    active_ = workers_.size();
    ++generation_;
  }
  cv_work_.notify_all();

  // The caller participates instead of idling on the done latch. The TLS
  // guard also covers the caller: a nested parallel_for inside a block runs
  // serially rather than re-entering job_mutex_.
  {
    const BusyFrame busy;
    tls_in_pool_job = true;
    if (caller_first) {
      block(0);
    }
    for (;;) {
      const std::size_t b = cursor_.fetch_add(1, std::memory_order_relaxed);
      if (b >= num_blocks) {
        break;
      }
      block(b);
    }
    tls_in_pool_job = false;
  }

  std::unique_lock<std::mutex> lk(m_);
  cv_done_.wait(lk, [&] { return active_ == 0; });
  job_ = nullptr;
}

namespace {

// How long a TeamSteps wait spins before it blocks. On an idle host a wait
// lasts about as long as the leader's serial part of a training step, a
// microsecond or two; a longer one means the awaited thread is likely off
// its core, and blocking hands the core back (to it or to another process)
// instead of burning it. A member that blocks only costs its share of the
// next step, which the leader then sweeps itself.
constexpr std::chrono::microseconds kTeamSpin{3};

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Waits until `a` holds at least `target` and returns what it holds: spins
/// for kTeamSpin, then blocks in std::atomic::wait (every writer notifies).
std::uint64_t wait_at_least(const std::atomic<std::uint64_t>& a,
                            std::uint64_t target) noexcept {
  std::uint64_t seen = a.load(std::memory_order_acquire);
  // The clock is read every 64 spins, so the common wait ends without one.
  std::chrono::steady_clock::time_point deadline{};
  for (std::uint32_t spins = 1; seen < target; ++spins) {
    cpu_relax();
    seen = a.load(std::memory_order_acquire);
    if (spins % 64 != 0) {
      continue;
    }
    const auto now = std::chrono::steady_clock::now();
    if (deadline == std::chrono::steady_clock::time_point{}) {
      deadline = now + kTeamSpin;
    } else if (now >= deadline) {
      while (seen < target) {
        a.wait(seen, std::memory_order_acquire);
        seen = a.load(std::memory_order_acquire);
      }
    }
  }
  return seen;
}

}  // namespace

void TeamSteps::release() noexcept {
  released_.fetch_add(1, std::memory_order_release);
  released_.notify_all();
}

bool TeamSteps::steal(std::size_t member) noexcept {
  return claim(member, released_.load(std::memory_order_relaxed) - 1);
}

void TeamSteps::wait_done(std::size_t member) noexcept {
  (void)wait_at_least(shares_[member].done, released_.load(std::memory_order_relaxed));
}

void TeamSteps::stop() noexcept {
  released_.store(kStopped, std::memory_order_release);
  released_.notify_all();
}

std::uint64_t TeamSteps::wait_release(std::uint64_t step) noexcept {
  const std::uint64_t released = wait_at_least(released_, step + 1);
  return released == kStopped ? kStopped : released - 1;
}

bool TeamSteps::claim(std::size_t member, std::uint64_t step) noexcept {
  return shares_[member].claimed.compare_exchange_strong(step, step + 1,
                                                         std::memory_order_acq_rel);
}

void TeamSteps::done(std::size_t member, std::uint64_t step) noexcept {
  shares_[member].done.store(step + 1, std::memory_order_release);
  shares_[member].done.notify_all();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(default_thread_count());
  return pool;
}

}  // namespace reghd::util
