// Tests for the data-parallel helper.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/telemetry.hpp"
#include "util/parallel.hpp"

namespace reghd::util {
namespace {

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> visits(kN);
  parallel_for(kN, [&](std::size_t i) { visits[i].fetch_add(1); }, 4);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, ResultsMatchSerialExecution) {
  constexpr std::size_t kN = 5000;
  std::vector<double> serial(kN);
  std::vector<double> parallel(kN);
  const auto work = [](std::size_t i) {
    double acc = 0.0;
    for (int j = 0; j < 50; ++j) {
      acc += std::sin(static_cast<double>(i) + j);
    }
    return acc;
  };
  for (std::size_t i = 0; i < kN; ++i) {
    serial[i] = work(i);
  }
  parallel_for(kN, [&](std::size_t i) { parallel[i] = work(i); }, 8);
  EXPECT_EQ(parallel, serial);  // bit-identical, not just approximately equal
}

TEST(ParallelForTest, HandlesEdgeCounts) {
  std::atomic<int> calls{0};
  parallel_for(0, [&](std::size_t) { calls.fetch_add(1); }, 4);
  EXPECT_EQ(calls.load(), 0);
  parallel_for(1, [&](std::size_t) { calls.fetch_add(1); }, 4);
  EXPECT_EQ(calls.load(), 1);
  // More threads than items.
  calls = 0;
  parallel_for(3, [&](std::size_t) { calls.fetch_add(1); }, 16);
  EXPECT_EQ(calls.load(), 3);
}

TEST(ParallelForTest, SingleThreadPathIsSerial) {
  std::vector<std::size_t> order;
  parallel_for(100, [&](std::size_t i) { order.push_back(i); }, 1);
  std::vector<std::size_t> expected(100);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ParallelForTest, WorkerExceptionsPropagate) {
  EXPECT_THROW(
      parallel_for(
          1000,
          [](std::size_t i) {
            if (i == 777) {
              throw std::runtime_error("boom");
            }
          },
          4),
      std::runtime_error);
}

TEST(ParallelForTest, ZeroThreadsMeansHardwareConcurrency) {
  std::vector<std::atomic<int>> visits(256);
  parallel_for(256, [&](std::size_t i) { visits[i].fetch_add(1); }, 0);
  for (auto& v : visits) {
    EXPECT_EQ(v.load(), 1);
  }
}

TEST(ParallelForTest, ResultsIdenticalAcrossThreadCounts) {
  // The load-bearing determinism property: 1, 2, and 8 threads must produce
  // bit-identical output because block boundaries, not scheduling, decide
  // who computes what.
  constexpr std::size_t kN = 4097;  // deliberately not a multiple of any count
  const auto work = [](std::size_t i) {
    return std::sin(static_cast<double>(i) * 0.37) / (static_cast<double>(i) + 1.0);
  };
  std::vector<std::vector<double>> results;
  for (const std::size_t threads : {1, 2, 8}) {
    std::vector<double> out(kN);
    parallel_for(kN, [&](std::size_t i) { out[i] = work(i); }, threads);
    results.push_back(std::move(out));
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(ParallelForTest, FirstExceptionByBlockOrderWins) {
  // Two blocks throw; the one owning the lower block index must be the one
  // rethrown, regardless of which finishes first.
  constexpr std::size_t kN = 1000;
  try {
    parallel_for(
        kN,
        [](std::size_t i) {
          if (i == 10 || i == 990) {
            throw std::runtime_error("boom at " + std::to_string(i));
          }
        },
        4);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 10");
  }
}

TEST(ParallelForTest, NestedCallsRunSeriallyWithoutDeadlock) {
  // A parallel_for inside a parallel_for must complete (the pool runs the
  // inner one inline) and still visit every index of both loops.
  std::vector<std::atomic<int>> visits(64 * 16);
  parallel_for(
      64,
      [&](std::size_t outer) {
        parallel_for(
            16, [&](std::size_t inner) { visits[outer * 16 + inner].fetch_add(1); }, 4);
      },
      4);
  for (std::size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "slot " << i;
  }
}

TEST(ParallelForTest, PoolSurvivesManyDispatches) {
  // The persistent pool is reused across calls; hammer it to shake out
  // generation-counter bugs (a worker straddling two jobs, a lost wakeup).
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 200; ++round) {
    parallel_for(64, [&](std::size_t) { total.fetch_add(1); }, 4);
  }
  EXPECT_EQ(total.load(), 200u * 64u);
}

TEST(ThreadPoolTest, ThreadCountMatchesConstruction) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  std::vector<std::atomic<int>> visits(10);
  pool.run_blocks(10, [&](std::size_t b) { visits[b].fetch_add(1); });
  for (auto& v : visits) {
    EXPECT_EQ(v.load(), 1);
  }
}

#ifndef REGHD_NO_TELEMETRY
TEST(ThreadPoolTest, NestedRunBlocksBusyTimeCountsEachThreadOnce) {
  // Occupancy regression guard: pool_worker_busy_ns must count each thread's
  // wall time at most once. A nested run_blocks executes inline inside an
  // enclosing participation frame whose clock window already covers it — if
  // the nested frame recorded too, busy time would double and occupancy
  // (busy / (wall × threads)) would read past 100%.
  obs::reset();
  obs::set_enabled(true);
  ThreadPool pool(4);
  const auto t0 = std::chrono::steady_clock::now();
  pool.run_blocks(8, [&](std::size_t) {
    // Nested dispatch: runs inline on whichever participant claimed the
    // outer block (worker threads and the calling thread alike).
    pool.run_blocks(8, [](std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });
  });
  const auto wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  const obs::TelemetrySnapshot snap = obs::snapshot();
  const auto busy_ns =
      static_cast<double>(snap.counter(obs::Counter::kPoolWorkerBusyNs));
  obs::set_enabled(false);
  obs::reset();
  EXPECT_GT(busy_ns, 0.0);
  // 4 participants (3 workers + the caller), each busy for at most the whole
  // call window; 10% slack for clock-read jitter. Double-counting the nested
  // frames would land near 2× the single-count value and trip this bound.
  EXPECT_LE(busy_ns, wall_ns * 4.0 * 1.10)
      << "busy " << busy_ns << " ns vs wall " << wall_ns << " ns × 4 threads";
}
#endif

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<std::size_t> order;
  pool.run_blocks(8, [&](std::size_t b) { order.push_back(b); });
  std::vector<std::size_t> expected(8);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

/// A run_team team over TeamSteps as a training epoch drives it: member 0
/// publishes an input per step, every share of the step computes input + w
/// into its own cache line, and the leader checks all of them once the step
/// is complete. `by_member[w]` / `by_leader[w]` count who ran share w.
struct TeamRecord {
  std::uint64_t wrong = 0;
  std::vector<std::uint64_t> by_member;
  std::vector<std::uint64_t> by_leader;
  std::vector<std::thread::id> ids;
};

TeamRecord run_steps(ThreadPool& pool, std::size_t members, std::uint64_t steps,
                     const std::function<void(std::size_t)>& before_member = {}) {
  TeamRecord rec;
  rec.by_member.assign(members, 0);
  rec.by_leader.assign(members, 0);
  rec.ids.resize(members);
  TeamSteps team(members);
  std::uint64_t input = 0;
  std::vector<std::uint64_t> answer(members * 8, 0);  // one cache line per share
  const bool ran = pool.run_team(members, [&](std::size_t w) {
    rec.ids[w] = std::this_thread::get_id();
    if (w == 0) {
      for (std::uint64_t step = 0; step < steps; ++step) {
        input = step * 7 + 1;
        team.release();
        answer[0] = input;
        for (std::size_t m = 1; m < members; ++m) {
          if (team.steal(m)) {
            answer[m * 8] = input + m;
            ++rec.by_leader[m];
          } else {
            team.wait_done(m);
          }
        }
        for (std::size_t m = 0; m < members; ++m) {
          rec.wrong += answer[m * 8] != input + m ? 1 : 0;
        }
      }
      return;
    }
    if (before_member) {
      before_member(w);
    }
    for (std::uint64_t next = 0; next < steps;) {
      const std::uint64_t step = team.wait_release(next);
      if (step == TeamSteps::kStopped) {
        return;
      }
      if (team.claim(w, step)) {
        answer[w * 8] = input + w;
        ++rec.by_member[w];
        team.done(w, step);
      }
      next = step + 1;
    }
  });
  EXPECT_TRUE(ran);
  return rec;
}

TEST(ThreadPoolTest, TeamRunsEveryShareOfEveryStepExactlyOnce) {
  // Both directions must be visible (the leader's input to the shares, the
  // shares' answers to the leader), every share of every step must run
  // exactly once — by its member or by the leader — and member 0 must run
  // on the caller.
  constexpr std::size_t kMembers = 4;
  constexpr std::uint64_t kSteps = 2000;
  ThreadPool pool(kMembers);
  const TeamRecord rec = run_steps(pool, kMembers, kSteps);
  EXPECT_EQ(rec.wrong, 0u);
  for (std::size_t w = 1; w < kMembers; ++w) {
    EXPECT_EQ(rec.by_member[w] + rec.by_leader[w], kSteps) << "share " << w;
  }
  EXPECT_EQ(rec.ids[0], std::this_thread::get_id()) << "member 0 runs on the caller";
}

TEST(ThreadPoolTest, TeamLeaderNeverWaitsForAnAbsentMember) {
  // A member that has not started (here: asleep, as if descheduled on an
  // oversubscribed host) must not stall the steps: the leader runs its
  // shares, and the member joins at whatever step is current when it wakes.
  constexpr std::size_t kMembers = 3;
  constexpr std::uint64_t kSteps = 500;
  ThreadPool pool(kMembers);
  const TeamRecord rec = run_steps(pool, kMembers, kSteps, [](std::size_t w) {
    if (w == 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
  });
  EXPECT_EQ(rec.wrong, 0u);
  for (std::size_t w = 1; w < kMembers; ++w) {
    EXPECT_EQ(rec.by_member[w] + rec.by_leader[w], kSteps) << "share " << w;
  }
  EXPECT_GT(rec.by_leader[2], 0u) << "the leader waited for the sleeping member";
}

TEST(ThreadPoolTest, StoppedTeamReleasesEveryMember) {
  // The leader's error path: stop() instead of the next release must let
  // every member leave its wait, so run_team still returns.
  constexpr std::size_t kMembers = 3;
  ThreadPool pool(kMembers);
  TeamSteps team(kMembers);
  std::atomic<int> members_out{0};
  const bool ran = pool.run_team(kMembers, [&](std::size_t w) {
    if (w == 0) {
      for (int step = 0; step < 5; ++step) {
        team.release();
        for (std::size_t m = 1; m < kMembers; ++m) {
          if (!team.steal(m)) {
            team.wait_done(m);
          }
        }
      }
      team.stop();
      return;
    }
    for (std::uint64_t next = 0;;) {
      const std::uint64_t step = team.wait_release(next);
      if (step == TeamSteps::kStopped) {
        members_out.fetch_add(1);
        return;
      }
      if (team.claim(w, step)) {
        team.done(w, step);
      }
      next = step + 1;
    }
  });
  ASSERT_TRUE(ran);
  EXPECT_EQ(members_out.load(), 2);
}

TEST(ThreadPoolTest, TeamRefusesInsidePoolWork) {
  // A team asked for from inside a dispatched block could wait for a worker
  // that is busy running the very block that waits: it must refuse (and run
  // nothing), so the caller falls back to serial.
  std::atomic<int> refused{0};
  std::atomic<int> member_calls{0};
  parallel_for(
      4,
      [&](std::size_t) {
        if (!ThreadPool::global().run_team(2, [&](std::size_t) { member_calls.fetch_add(1); })) {
          refused.fetch_add(1);
        }
      },
      4);
  EXPECT_EQ(refused.load(), 4);
  EXPECT_EQ(member_calls.load(), 0);

  ThreadPool pool(4);
  pool.run_blocks(4, [&](std::size_t) {
    if (!pool.run_team(2, [&](std::size_t) { member_calls.fetch_add(1); })) {
      refused.fetch_add(1);
    }
  });
  EXPECT_EQ(refused.load(), 8);
  EXPECT_EQ(member_calls.load(), 0);
}

TEST(ThreadPoolTest, TeamRefusesMoreMembersThanThreads) {
  ThreadPool pool(3);
  std::atomic<int> member_calls{0};
  EXPECT_FALSE(pool.run_team(4, [&](std::size_t) { member_calls.fetch_add(1); }));
  EXPECT_EQ(member_calls.load(), 0);
  EXPECT_TRUE(pool.run_team(3, [&](std::size_t) { member_calls.fetch_add(1); }));
  EXPECT_EQ(member_calls.load(), 3);

  ThreadPool single(1);
  EXPECT_FALSE(single.run_team(2, [&](std::size_t) { member_calls.fetch_add(1); }));
  EXPECT_TRUE(single.run_team(1, [&](std::size_t w) { member_calls.fetch_add(w == 0 ? 1 : 100); }));
  EXPECT_EQ(member_calls.load(), 4);
}

}  // namespace
}  // namespace reghd::util
