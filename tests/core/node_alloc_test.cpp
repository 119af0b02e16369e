// A node allocates nothing in steady state. This binary replaces the global
// operator new with one that counts calls, lets each scenario warm up for
// kWarmup iterations (first-sight interning, segment table growth, buffer
// capacities), then counts the allocations of the next kIterations:
//
//  - a SW-mapped Fifo ping-pong on two CPUs, with a FaultInjector whose
//    pulses are all still pending, so every node runs the pulse drain, the
//    segment close, the contention set and the back-annotation waits;
//  - a HW process recording its DFG between two Fifos fed by an unmapped
//    testbench;
//  - two immediate-notify ping-pongs inside one evaluate phase (no watchdog),
//    whose runnable queue never drains, so it must stay bounded.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/scperf.hpp"
#include "fault/injector.hpp"
#include "kernel/channels.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_alloc(std::size_t size, std::align_val_t align) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(a, (size + a - 1) / a * a);
}

template <typename... Align>
void* counted_alloc_or_throw(std::size_t size, Align... align) {
  if (void* p = counted_alloc(size, align...)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every replaceable allocation form is replaced, so that nothing this binary
// frees with std::free comes from another allocator (ASan checks the pair).
void* operator new(std::size_t size) { return counted_alloc_or_throw(size); }
void* operator new[](std::size_t size) { return counted_alloc_or_throw(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_or_throw(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_or_throw(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using minisc::Time;

constexpr int kWarmup = 1000;
constexpr int kIterations = 10000;

std::size_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// Charges `n` additions into the running process's segment.
void burn_adds(int n) {
  scperf::gint a(scperf::detail::RawTag{}, 0);
  for (int i = 0; i < n; ++i) {
    scperf::gint r = a + 1;
    (void)r;
  }
}

scperf::CostTable add_only_table() {
  scperf::CostTable t;
  t.set(scperf::Op::kAdd, 1.0);
  return t;
}

TEST(NodeAlloc, SwMappedRoundTripWithPendingPulses) {
  scfault::ScenarioConfig cfg;
  cfg.horizon = Time::sec(1000);
  cfg.pulses.push_back({"cpu0", 4, 10.0, 20.0});
  cfg.pulses.push_back({"cpu1", 4, 10.0, 20.0});
  const scfault::FaultScenario scenario(cfg, 7);

  minisc::Simulator sim;
  scperf::Estimator est(sim);
  est.map("client", est.add_sw_resource("cpu0", 50.0, add_only_table(),
                                        {.rtos_cycles_per_switch = 20}));
  est.map("server", est.add_sw_resource("cpu1", 50.0, add_only_table(),
                                        {.rtos_cycles_per_switch = 20}));
  scfault::FaultInjector inj(sim, est, scenario);
  minisc::Fifo<long> request("request", 1);
  minisc::Fifo<long> response("response", 1);
  std::size_t counted = 0;
  sim.spawn("server", [&] {
    for (long v = request.read(); v >= 0; v = request.read()) {
      burn_adds(10);
      response.write(v + 1);
    }
  });
  sim.spawn("client", [&] {
    std::size_t before = 0;
    for (int i = 0; i < kWarmup + kIterations; ++i) {
      if (i == kWarmup) before = allocations();
      burn_adds(10);
      request.write(i);
      if (response.read() != i + 1) std::abort();
    }
    counted = allocations() - before;
    request.write(-1);
  });
  ASSERT_EQ(sim.run(), minisc::StopReason::kFinished);
  // Every pulse is still ahead of the simulated end: each node drained none.
  ASSERT_EQ(inj.pulses_injected(), 0u);
  ASSERT_GT(scenario.pulses().front().at, sim.now());
  EXPECT_EQ(counted, 0u) << static_cast<double>(counted) / kIterations
                         << " allocations per round trip";
}

TEST(NodeAlloc, HwSampleWithDfgRecording) {
  minisc::Simulator sim;
  scperf::Estimator est(sim);
  scperf::CostTable table = add_only_table();
  table.set(scperf::Op::kMul, 2.0);
  est.map("hw", est.add_hw_resource("asic", 100.0, table,
                                    {.k = 0.5, .record_dfg = true}));
  minisc::Fifo<int> in("in", 4);
  minisc::Fifo<int> out("out", 4);
  std::size_t counted = 0;
  sim.spawn("tb", [&] {
    std::size_t before = 0;
    for (int i = 0; i < kWarmup + kIterations; ++i) {
      if (i == kWarmup) before = allocations();
      in.write(i);
      (void)out.read();
    }
    counted = allocations() - before;
    in.write(-1);
  });
  sim.spawn("hw", [&] {
    for (int x = in.read(); x >= 0; x = in.read()) {
      // A small multiply-accumulate: a DFG of a few dozen nodes.
      scperf::gint acc(scperf::detail::RawTag{}, 0);
      const scperf::gint sample(scperf::detail::RawTag{}, x);
      for (int tap = 0; tap < 8; ++tap) acc = acc + sample * (tap + 1);
      out.write(acc.value());
    }
  });
  ASSERT_EQ(sim.run(), minisc::StopReason::kFinished);
  ASSERT_FALSE(est.segment_dfg("hw", "in:r->out:w").empty());
  EXPECT_EQ(counted, 0u) << static_cast<double>(counted) / kIterations
                         << " allocations per sample";
}

TEST(NodeAlloc, ImmediateNotifyLivelockStaysBounded) {
  // Two pairs hand turns to each other through immediate notification.
  // Each dispatch queues the partner while the other pair's player is
  // still queued, so the evaluate phase never empties its runnable queue.
  minisc::Simulator sim;
  minisc::Event ping_a("ping_a"), pong_a("pong_a");
  minisc::Event ping_b("ping_b"), pong_b("pong_b");
  // One iteration is a turn of each of the four players.
  constexpr int kWarmupTurns = 4 * kWarmup;
  constexpr int kTurns = 4 * (kWarmup + kIterations);
  int turns = 0;
  std::size_t before = 0;
  std::size_t after = 0;
  auto player = [&](minisc::Event& mine, minisc::Event& other) {
    while (turns < kTurns) {
      if (++turns == kWarmupTurns) before = allocations();
      if (turns == kTurns) after = allocations();
      other.notify();
      minisc::wait(mine);
    }
    other.notify();
  };
  // The waiters are spawned first: an immediate notify nobody waits on is
  // lost.
  sim.spawn("a2", [&] {
    minisc::wait(pong_a);
    player(pong_a, ping_a);
  });
  sim.spawn("b2", [&] {
    minisc::wait(pong_b);
    player(pong_b, ping_b);
  });
  sim.spawn("a1", [&] { player(ping_a, pong_a); });
  sim.spawn("b1", [&] { player(ping_b, pong_b); });
  ASSERT_EQ(sim.run(), minisc::StopReason::kFinished);
  EXPECT_EQ(sim.delta_count(), 1u);  // one evaluate phase throughout
  EXPECT_EQ(after - before, 0u)
      << after - before << " allocations over "
      << kTurns - kWarmupTurns << " dispatches";
}

}  // namespace
