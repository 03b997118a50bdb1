#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace dtn::util {
namespace {

TEST(ThreadPool, ZeroRequestsHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> visits(64);
  ThreadPool::shared().parallel_for(
      64, 4, [&](std::size_t, std::size_t i) { visits[i].fetch_add(1); });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelFor, ZeroIterationsNoop) {
  ThreadPool::shared().parallel_for(
      0, 2, [](std::size_t, std::size_t) { FAIL() << "must not run"; });
}

TEST(ParallelFor, ResultsMatchSerial) {
  std::vector<double> out(100, 0.0);
  ThreadPool::shared().parallel_for(out.size(), 3, [&](std::size_t, std::size_t i) {
    out[i] = static_cast<double>(i) * i;
  });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], static_cast<double>(i) * i);
  }
}

TEST(ParallelFor, ChunkedDispatchCoversLargeRangeExactlyOnce) {
  // Large n forces chunk sizes > 1; every index must still be visited
  // exactly once across all participants.
  constexpr std::size_t kN = 200000;
  std::vector<std::uint8_t> visits(kN, 0);
  std::atomic<std::size_t> total{0};
  ThreadPool::shared().parallel_for(kN, 8, [&](std::size_t, std::size_t i) {
    ++visits[i];  // distinct index per call: no data race
    total.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), kN);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[i], 1u) << "index " << i;
  }
}

TEST(ParallelFor, ExceptionPropagatesToCaller) {
  std::atomic<int> ran{0};
  EXPECT_THROW(
      ThreadPool::shared().parallel_for(64, 4,
                                        [&](std::size_t, std::size_t i) {
                                          ran.fetch_add(1);
                                          if (i == 7) throw std::runtime_error("boom");
                                        }),
      std::runtime_error);
  // The failing index ran; unclaimed chunks after the failure may be
  // cancelled, so at most every index ran.
  EXPECT_GE(ran.load(), 1);
  EXPECT_LE(ran.load(), 64);
}

TEST(ParallelFor, ExceptionPropagatesFromInlineSmallN) {
  EXPECT_THROW(ThreadPool::shared().parallel_for(
                   1, 8, [](std::size_t, std::size_t) { throw std::runtime_error("tiny"); }),
               std::runtime_error);
}

TEST(ParallelFor, WorkerSlotsAreDenseAndBounded) {
  constexpr std::size_t kWorkers = 3;
  std::vector<std::atomic<int>> slot_hits(kWorkers);
  ThreadPool::shared().parallel_for(256, kWorkers, [&](std::size_t worker, std::size_t) {
    ASSERT_LT(worker, kWorkers);
    slot_hits[worker].fetch_add(1);
  });
  int total = 0;
  for (const auto& h : slot_hits) total += h.load();
  EXPECT_EQ(total, 256);
  // (Which slots claimed chunks is scheduling-dependent — the caller may
  // legitimately get zero when pool workers drain the range first.)
}

TEST(ParallelFor, BackToBackJobsOnSharedPool) {
  // Generation bookkeeping: workers must re-join every new job.
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    ThreadPool::shared().parallel_for(
        17, 4, [&](std::size_t, std::size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 17) << "round " << round;
  }
}

TEST(ParallelFor, ContentionStressManyTinyTasks) {
  // Tiny per-index work maximizes pressure on the atomic cursor and the
  // join/leave bookkeeping.
  ThreadPool& pool = ThreadPool::shared();
  std::atomic<std::uint64_t> sum{0};
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::uint64_t> local{0};
    pool.parallel_for(5000, 8, [&](std::size_t, std::size_t i) {
      local.fetch_add(i, std::memory_order_relaxed);
    });
    ASSERT_EQ(local.load(), 5000ull * 4999ull / 2ull) << "round " << round;
    sum.fetch_add(local.load());
  }
  EXPECT_EQ(sum.load(), 20ull * (5000ull * 4999ull / 2ull));
}

TEST(ParallelFor, NestedCallsOnSamePoolRunInline) {
  // A body that parallelizes on the same pool must not deadlock on the
  // dispatch lock — nested calls run inline on the calling participant
  // (the throwaway-pool-per-call era supported nesting; so must this).
  std::atomic<int> inner_total{0};
  ThreadPool::shared().parallel_for(16, 4, [&](std::size_t, std::size_t) {
    ThreadPool::shared().parallel_for(
        8, 4, [&](std::size_t, std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 16 * 8);
  std::atomic<int> second_total{0};
  ThreadPool::shared().parallel_for(9, 3, [&](std::size_t, std::size_t) {
    ThreadPool::shared().parallel_for(
        5, 3, [&](std::size_t, std::size_t) { second_total.fetch_add(1); });
  });
  EXPECT_EQ(second_total.load(), 9 * 5);
}

TEST(ParallelFor, ConcurrentCallsFromMultipleThreadsSerialize) {
  // Two user threads race whole parallel_for calls on the shared pool; the
  // dispatch mutex must keep each job's accounting intact.
  std::atomic<int> a{0};
  std::atomic<int> b{0};
  std::thread other([&] {
    ThreadPool::shared().parallel_for(
        300, 4, [&](std::size_t, std::size_t) { b.fetch_add(1); });
  });
  ThreadPool::shared().parallel_for(300, 4,
                                    [&](std::size_t, std::size_t) { a.fetch_add(1); });
  other.join();
  EXPECT_EQ(a.load(), 300);
  EXPECT_EQ(b.load(), 300);
}

}  // namespace
}  // namespace dtn::util
