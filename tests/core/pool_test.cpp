#include "core/pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace scperf {
namespace {

TEST(ThreadPool, ParallelForFillsEverySlotByIndex) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 257;
  std::vector<std::size_t> out(kN, 0);
  pool.parallel_for(kN, [&](std::size_t i) { out[i] = i * i + 1; });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(out[i], i * i + 1) << "slot " << i;
  }
}

TEST(ThreadPool, ParallelForResultIndependentOfThreadCount) {
  constexpr std::size_t kN = 100;
  std::vector<std::size_t> reference(kN);
  {
    ThreadPool pool(1);
    pool.parallel_for(kN, [&](std::size_t i) { reference[i] = 31 * i + 7; });
  }
  for (const std::size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    std::vector<std::size_t> out(kN, 0);
    pool.parallel_for(kN, [&](std::size_t i) { out[i] = 31 * i + 7; });
    EXPECT_EQ(out, reference) << threads << " threads";
  }
}

TEST(ThreadPool, SparseParallelForRunsExactlyTheGivenIndices) {
  // The resume path hands the pool the holes left by a journal: arbitrary,
  // non-contiguous indices. Each must run exactly once; nothing else may.
  ThreadPool pool(4);
  const std::vector<std::size_t> indices = {1, 3, 4, 9, 17, 40};
  std::vector<std::atomic<int>> hits(41);
  pool.parallel_for(indices, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    const bool wanted =
        std::find(indices.begin(), indices.end(), i) != indices.end();
    EXPECT_EQ(hits[i].load(), wanted ? 1 : 0) << "index " << i;
  }
  // Empty index sets are a no-op, like the dense n == 0 case.
  bool ran = false;
  pool.parallel_for(std::vector<std::size_t>{},
                    [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ZeroTasksReturnsImmediately) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
  pool.wait_idle();  // also a no-op on an idle pool
}

TEST(ThreadPool, SingleWorkerAndZeroRequestedWorkersStillRun) {
  // The constructor floors the worker count at 1; the calling thread also
  // drives parallel_for, so even pathological sizes make progress.
  for (const std::size_t threads : {0u, 1u}) {
    ThreadPool pool(threads);
    EXPECT_GE(pool.size(), 1u);
    std::vector<int> out(10, 0);
    pool.parallel_for(10, [&](std::size_t i) { out[i] = 1; });
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 10);
  }
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(50,
                        [&](std::size_t i) {
                          if (i == 7) throw std::runtime_error("slot 7 died");
                          ++completed;
                        }),
      std::runtime_error);
  // Unclaimed work after the throw is skipped, claimed work completed.
  EXPECT_LT(completed.load(), 50);
  // The pool stays usable after an exception.
  std::atomic<int> again{0};
  pool.parallel_for(10, [&](std::size_t) { ++again; });
  EXPECT_EQ(again.load(), 10);
}

TEST(ThreadPool, SubmitExceptionSurfacesInWaitIdle) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("bad task"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The stored exception is consumed: the next wait is clean.
  pool.submit([] {});
  pool.wait_idle();
}

TEST(ThreadPool, DestructionDrainsQueuedTasksWithoutDeadlock) {
  auto counter = std::make_shared<std::atomic<int>>(0);
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.submit([counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++*counter;
      });
    }
    // Destructor runs here with most tasks still queued.
  }
  EXPECT_EQ(counter->load(), 64);
}

TEST(ThreadPool, SubmitAfterTeardownThrows) {
  // stop_ is only observable mid-destruction from another thread; emulate
  // the window by submitting from a task racing the destructor instead.
  auto threw = std::make_shared<std::atomic<bool>>(false);
  auto pool = std::make_unique<ThreadPool>(1);
  ThreadPool* raw = pool.get();
  pool->submit([raw, threw] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    try {
      raw->submit([] {});
    } catch (const std::runtime_error&) {
      *threw = true;
    }
  });
  pool.reset();  // begins teardown while the task sleeps
  EXPECT_TRUE(threw->load());
}

TEST(ThreadPool, ManyConcurrentParallelForCallers) {
  ThreadPool pool(4);
  std::vector<std::vector<int>> outs(3, std::vector<int>(40, 0));
  std::vector<std::thread> callers;
  for (int c = 0; c < 3; ++c) {
    callers.emplace_back([&pool, &outs, c] {
      pool.parallel_for(40, [&outs, c](std::size_t i) {
        outs[static_cast<std::size_t>(c)][i] = c + 1;
      });
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(std::accumulate(outs[static_cast<std::size_t>(c)].begin(),
                              outs[static_cast<std::size_t>(c)].end(), 0),
              40 * (c + 1));
  }
}

TEST(ThreadPool, DefaultThreadsIsPositive) {
  EXPECT_GE(ThreadPool::default_threads(), 1u);
}

}  // namespace
}  // namespace scperf
