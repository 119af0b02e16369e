// Stress and property tests of the minisc kernel: conservation of data
// through channel networks, monotonicity of simulated time, determinism of
// repeated runs, and teardown hygiene at scale.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "kernel/channels.hpp"
#include "kernel/simulator.hpp"

namespace minisc {
namespace {

/// Mirror of workloads::Lcg for deterministic pseudo-random delays.
class Rng {
 public:
  explicit Rng(std::uint32_t seed) : s_(seed) {}
  std::uint32_t next() {
    s_ = s_ * 1664525u + 1013904223u;
    return s_;
  }
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }

 private:
  std::uint32_t s_;
};

TEST(Stress, FanInConservesEveryToken) {
  // 8 producers with random delays into one FIFO; the consumer must see
  // exactly the multiset of produced values.
  Simulator sim;
  Fifo<int> ch("ch", 3);
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 50;
  long produced_sum = 0;
  for (int p = 0; p < kProducers; ++p) {
    sim.spawn("prod" + std::to_string(p), [&, p] {
      Rng rng(static_cast<std::uint32_t>(p + 1));
      for (int i = 0; i < kPerProducer; ++i) {
        wait(Time::ns(rng.range(1, 20)));
        const int v = p * 1000 + i;
        ch.write(v);
      }
    });
    for (int i = 0; i < kPerProducer; ++i) produced_sum += p * 1000 + i;
  }
  long consumed_sum = 0;
  int consumed = 0;
  sim.spawn("consumer", [&] {
    for (int i = 0; i < kProducers * kPerProducer; ++i) {
      consumed_sum += ch.read();
      ++consumed;
    }
  });
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_EQ(consumed, kProducers * kPerProducer);
  EXPECT_EQ(consumed_sum, produced_sum);
}

TEST(Stress, PipelineChainDeliversInOrder) {
  // A 6-stage FIFO chain with random per-stage delays preserves order.
  Simulator sim;
  constexpr int kStages = 6;
  constexpr int kItems = 100;
  std::vector<std::unique_ptr<Fifo<int>>> links;
  for (int i = 0; i <= kStages; ++i) {
    links.push_back(
        std::make_unique<Fifo<int>>("link" + std::to_string(i), 2));
  }
  sim.spawn("source", [&] {
    for (int i = 0; i < kItems; ++i) links[0]->write(i);
  });
  for (int s = 0; s < kStages; ++s) {
    sim.spawn("stage" + std::to_string(s), [&, s] {
      Rng rng(static_cast<std::uint32_t>(100 + s));
      for (int i = 0; i < kItems; ++i) {
        const int v = links[static_cast<std::size_t>(s)]->read();
        wait(Time::ns(rng.range(0, 5)));
        links[static_cast<std::size_t>(s + 1)]->write(v);
      }
    });
  }
  std::vector<int> got;
  sim.spawn("sink", [&] {
    for (int i = 0; i < kItems; ++i) {
      got.push_back(links[kStages]->read());
    }
  });
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  std::vector<int> want(kItems);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(got, want);
}

TEST(Stress, ExecTraceTimesAreMonotone) {
  Simulator sim;
  sim.enable_exec_trace(true);
  for (int p = 0; p < 10; ++p) {
    sim.spawn(std::string("p").append(std::to_string(p)), [p] {
      Rng rng(static_cast<std::uint32_t>(31 * p + 7));
      for (int i = 0; i < 30; ++i) {
        wait(Time::ns(rng.range(1, 100)));
      }
    });
  }
  sim.run();
  const auto& trace = sim.exec_trace();
  ASSERT_FALSE(trace.empty());
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i - 1].time, trace[i].time) << "at record " << i;
  }
}

TEST(Stress, RepeatedRunsAreDeterministic) {
  const auto run_once = [] {
    Simulator sim;
    Fifo<int> ch("ch", 2);
    std::vector<int> order;
    sim.spawn("a", [&] {
      Rng rng(5);
      for (int i = 0; i < 40; ++i) {
        wait(Time::ns(rng.range(1, 9)));
        ch.write(i);
      }
    });
    sim.spawn("b", [&] {
      Rng rng(6);
      for (int i = 0; i < 40; ++i) {
        wait(Time::ns(rng.range(1, 9)));
        ch.write(100 + i);
      }
    });
    sim.spawn("c", [&] {
      for (int i = 0; i < 80; ++i) order.push_back(ch.read());
    });
    sim.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Stress, ManySimulatorsSequentially) {
  // Create/destroy cycles must not leak or corrupt thread-local state.
  for (int round = 0; round < 50; ++round) {
    Simulator sim;
    Event never("never");
    int done = 0;
    sim.spawn("worker", [&] {
      wait(Time::ns(5));
      ++done;
    });
    sim.spawn("stuck", [&] { wait(never); });  // unwound by the destructor
    EXPECT_EQ(sim.run(), StopReason::kDeadlock);
    EXPECT_EQ(done, 1);
  }
}

TEST(Stress, RendezvousManyWritersManyReaders) {
  Simulator sim;
  Rendezvous<int> rv("rv");
  constexpr int kWriters = 5;
  constexpr int kPerWriter = 20;
  long sum_in = 0;
  for (int w = 0; w < kWriters; ++w) {
    sim.spawn(std::string("w").append(std::to_string(w)), [&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        rv.write(w * 100 + i);
      }
    });
    for (int i = 0; i < kPerWriter; ++i) sum_in += w * 100 + i;
  }
  long sum_out = 0;
  for (int r = 0; r < 2; ++r) {
    sim.spawn(std::string("r").append(std::to_string(r)), [&, r] {
      const int n = kWriters * kPerWriter / 2;
      for (int i = 0; i < n; ++i) sum_out += rv.read();
    });
  }
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_EQ(sum_out, sum_in);
}

TEST(Stress, DeepRecursionOnCoroutineStack) {
  // The 256 KiB default stack must comfortably hold a deep call chain.
  Simulator sim;
  int depth_reached = 0;
  std::function<void(int)> recurse = [&](int d) {
    volatile char frame[128] = {};  // force real stack consumption
    (void)frame;
    depth_reached = d;
    if (d < 800) recurse(d + 1);
  };
  sim.spawn("deep", [&] { recurse(0); });
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_EQ(depth_reached, 800);
}

TEST(Stress, LargeStackOptionSupportsDeeperRecursion) {
  Simulator sim;
  int depth_reached = 0;
  std::function<void(int)> recurse = [&](int d) {
    volatile char frame[256] = {};
    (void)frame;
    depth_reached = d;
    if (d < 4000) recurse(d + 1);
  };
  sim.spawn("deeper", [&] { recurse(0); }, 4 * 1024 * 1024);
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_EQ(depth_reached, 4000);
}

}  // namespace
}  // namespace minisc
