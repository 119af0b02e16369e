#include "core/pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace scperf {
namespace {

std::vector<std::size_t> iota_indices(std::size_t n) {
  std::vector<std::size_t> v(n);
  std::iota(v.begin(), v.end(), std::size_t{0});
  return v;
}

TEST(ParallelFor, FillsEverySlotByIndex) {
  constexpr std::size_t kN = 257;
  std::vector<std::size_t> out(kN, 0);
  parallel_for(4, iota_indices(kN),
               [&](std::size_t i) { out[i] = i * i + 1; });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(out[i], i * i + 1) << "slot " << i;
  }
}

TEST(ParallelFor, ResultIndependentOfThreadCount) {
  constexpr std::size_t kN = 100;
  std::vector<std::size_t> reference(kN);
  parallel_for(1, iota_indices(kN),
               [&](std::size_t i) { reference[i] = 31 * i + 7; });
  for (const std::size_t threads : {2u, 8u}) {
    std::vector<std::size_t> out(kN, 0);
    parallel_for(threads, iota_indices(kN),
                 [&](std::size_t i) { out[i] = 31 * i + 7; });
    EXPECT_EQ(out, reference) << threads << " threads";
  }
}

TEST(ParallelFor, RunsExactlyTheGivenIndices) {
  // The resume path hands over the holes left by a journal: arbitrary,
  // non-contiguous indices. Each must run exactly once; nothing else may.
  const std::vector<std::size_t> indices = {1, 3, 4, 9, 17, 40};
  std::vector<std::atomic<int>> hits(41);
  parallel_for(4, indices, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    const bool wanted =
        std::find(indices.begin(), indices.end(), i) != indices.end();
    EXPECT_EQ(hits[i].load(), wanted ? 1 : 0) << "index " << i;
  }
  // An empty index set is a no-op at any thread count.
  for (const std::size_t threads : {0u, 1u, 8u}) {
    bool ran = false;
    parallel_for(threads, {}, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran) << threads << " threads";
  }
}

TEST(ParallelFor, ZeroOrOneThreadRunsOnTheCallingThread) {
  // threads <= 1 runs every index on the calling thread and starts none.
  const std::thread::id caller = std::this_thread::get_id();
  for (const std::size_t threads : {0u, 1u}) {
    std::vector<int> out(10, 0);
    parallel_for(threads, iota_indices(10), [&](std::size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      out[i] = 1;
    });
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 10);
  }
}

TEST(ParallelFor, PropagatesFirstException) {
  std::atomic<int> completed{0};
  EXPECT_THROW(parallel_for(4, iota_indices(50),
                            [&](std::size_t i) {
                              if (i == 7) {
                                throw std::runtime_error("slot 7 died");
                              }
                              ++completed;
                            }),
               std::runtime_error);
  // Unclaimed work after the throw is skipped, claimed work completed.
  EXPECT_LT(completed.load(), 50);
  // Nothing outlives the call: the next one starts from scratch.
  std::atomic<int> again{0};
  parallel_for(4, iota_indices(10), [&](std::size_t) { ++again; });
  EXPECT_EQ(again.load(), 10);
}

TEST(ParallelFor, ManyConcurrentCallers) {
  std::vector<std::vector<int>> outs(3, std::vector<int>(40, 0));
  const std::vector<std::size_t> indices = iota_indices(40);
  std::vector<std::thread> callers;
  for (int c = 0; c < 3; ++c) {
    callers.emplace_back([&outs, &indices, c] {
      parallel_for(4, indices, [&outs, c](std::size_t i) {
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

}  // namespace
}  // namespace scperf
