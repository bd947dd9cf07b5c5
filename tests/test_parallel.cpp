// The fork-join's contracts: full coverage of the index space,
// deterministic chunk geometry, dense worker slots, nested-call safety,
// exception propagation, concurrent submitters, and no thread left behind.
#include "ccg/parallel/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <vector>

#include "ccg/common/expect.hpp"
#include "ccg/obs/metrics.hpp"

namespace ccg {
namespace {

/// Restores the configured thread count when a test exits.
struct ThreadCountGuard {
  ~ThreadCountGuard() { parallel::set_thread_count(0); }
};

TEST(ParallelPool, ThreadCountOverride) {
  ThreadCountGuard guard;
  parallel::set_thread_count(3);
  EXPECT_EQ(parallel::thread_count(), 3);
  EXPECT_EQ(parallel::max_workers(), 3u);
  parallel::set_thread_count(0);
  EXPECT_GE(parallel::thread_count(), 1);
  EXPECT_LE(parallel::thread_count(), parallel::kMaxThreads);
  parallel::set_thread_count(parallel::kMaxThreads);
  EXPECT_EQ(parallel::thread_count(), parallel::kMaxThreads);
  EXPECT_THROW(parallel::set_thread_count(parallel::kMaxThreads + 1),
               ContractViolation);
  EXPECT_EQ(parallel::thread_count(), parallel::kMaxThreads);
}

TEST(ParallelPool, ChunkLayoutGeometry) {
  const auto layout = parallel::chunk_layout(100, 16);
  EXPECT_EQ(layout.count, 7u);  // ceil(100/16)
  EXPECT_EQ(layout.grain, 16u);
  EXPECT_EQ(layout.begin(0), 0u);
  EXPECT_EQ(layout.end(0, 100), 16u);
  EXPECT_EQ(layout.begin(6), 96u);
  EXPECT_EQ(layout.end(6, 100), 100u);  // short tail chunk

  EXPECT_EQ(parallel::chunk_layout(0, 8).count, 0u);
  EXPECT_EQ(parallel::chunk_layout(5, 8).count, 1u);
  EXPECT_EQ(parallel::chunk_layout(5, 0).grain, 1u);  // grain clamped to 1
}

TEST(ParallelPool, ForCoversEveryIndexExactlyOnce) {
  ThreadCountGuard guard;
  for (const int threads : {1, 2, 4}) {
    parallel::set_thread_count(threads);
    constexpr std::size_t kN = 1237;
    std::vector<std::atomic<int>> hits(kN);
    parallel::parallel_for(kN, 7, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at " << threads
                                   << " threads";
    }
  }
}

TEST(ParallelPool, ForZeroItemsIsANoop) {
  bool called = false;
  parallel::parallel_for(0, 8, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelPool, WorkerSlotsAreDense) {
  ThreadCountGuard guard;
  parallel::set_thread_count(4);
  std::vector<std::atomic<int>> slot_hits(parallel::max_workers());
  parallel::parallel_for_worker(
      1000, 1, [&](std::size_t, std::size_t, std::size_t worker) {
        ASSERT_LT(worker, slot_hits.size());
        slot_hits[worker].fetch_add(1, std::memory_order_relaxed);
      });
  int total = 0;
  for (auto& h : slot_hits) total += h.load();
  EXPECT_EQ(total, 1000);
}

TEST(ParallelPool, NestedCallsRunInlineWithoutDeadlock) {
  ThreadCountGuard guard;
  parallel::set_thread_count(4);
  std::atomic<int> inner_total{0};
  parallel::parallel_for(8, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      parallel::parallel_for(10, 2, [&](std::size_t b, std::size_t e) {
        inner_total.fetch_add(static_cast<int>(e - b),
                              std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 80);
}

TEST(ParallelPool, BodyExceptionPropagatesToCaller) {
  ThreadCountGuard guard;
  for (const int threads : {1, 4}) {
    parallel::set_thread_count(threads);
    EXPECT_THROW(
        parallel::parallel_for(100, 4,
                               [&](std::size_t begin, std::size_t) {
                                 if (begin >= 48) {
                                   throw std::runtime_error("boom");
                                 }
                               }),
        std::runtime_error)
        << "threads=" << threads;
    // parallel_for must stay usable after a failed job.
    std::atomic<int> count{0};
    parallel::parallel_for(10, 1, [&](std::size_t, std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), 10);
  }
}

TEST(ParallelPool, ConcurrentSubmittersSerializeSafely) {
  ThreadCountGuard guard;
  parallel::set_thread_count(3);
  // External threads submitting jobs at once must not corrupt each other:
  // each job's sum is still exact.
  std::vector<std::thread> submitters;
  std::vector<std::atomic<std::uint64_t>> sums(4);
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      parallel::parallel_for(5000, 16, [&](std::size_t begin, std::size_t end) {
        std::uint64_t part = 0;
        for (std::size_t i = begin; i < end; ++i) part += i;
        sums[t].fetch_add(part, std::memory_order_relaxed);
      });
    });
  }
  for (auto& s : submitters) s.join();
  for (const auto& sum : sums) EXPECT_EQ(sum.load(), 5000ull * 4999ull / 2);
}

/// Entries in /proc/self/task, one per live thread; -1 when unreadable.
long live_threads() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  long count = 0;
  for (; !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++count;
  }
  return ec ? -1 : count;
}

/// live_threads(), polled for up to a second until it reads `want`: a
/// joined thread's entry can linger until the kernel reaps it.
long live_threads_settling_at(long want) {
  long count = live_threads();
  for (int i = 0; i < 200 && count != want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    count = live_threads();
  }
  return count;
}

TEST(ParallelPool, NoThreadOutlivesTheJob) {
  // ThreadSanitizer starts a background thread of its own at the first
  // thread creation; start one first so that thread is counted in `before`.
  std::thread([] {}).join();
  const long before = live_threads();
  if (before < 0) GTEST_SKIP() << "/proc/self/task is not readable";
  ThreadCountGuard guard;
  parallel::set_thread_count(4);
  obs::Counter& jobs = obs::Registry::global().counter("ccg.parallel.jobs");
  const std::uint64_t jobs_before = jobs.value();

  std::atomic<int> chunks{0};
  parallel::parallel_for(64, 1, [&](std::size_t, std::size_t) {
    chunks.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(chunks.load(), 64);
  EXPECT_EQ(live_threads_settling_at(before), before) << "after a job";

  EXPECT_THROW(parallel::parallel_for(64, 1,
                                      [](std::size_t begin, std::size_t) {
                                        if (begin == 7) {
                                          throw std::runtime_error("boom");
                                        }
                                      }),
               std::runtime_error);
  EXPECT_EQ(live_threads_settling_at(before), before)
      << "after a job whose body threw";
  EXPECT_EQ(jobs.value(), jobs_before + 2) << "both jobs forked";
}

}  // namespace
}  // namespace ccg
