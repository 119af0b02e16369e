#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/scperf.hpp"

namespace scperf {
namespace {

constexpr double kMhz = 100.0;
minisc::Time cyc(double c) { return minisc::Time::from_ns(c * 10.0); }

CostTable add_only_table() {
  CostTable t;
  t.set(Op::kAdd, 1.0);
  return t;
}

void burn_adds(int n) {
  gint a(detail::RawTag{}, 0);
  for (int i = 0; i < n; ++i) {
    gint r = a + 1;
    (void)r;
  }
}

/// Releases three processes simultaneously at t = 0 on one CPU and records
/// the order in which their segments complete.
std::vector<std::string> completion_order(SwResource::Options opts,
                                          double prio_a, double prio_b,
                                          double prio_c) {
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table(), opts);
  est.map("a", cpu, prio_a);
  est.map("b", cpu, prio_b);
  est.map("c", cpu, prio_c);
  std::vector<std::string> order;
  for (const char* name : {"a", "b", "c"}) {
    sim.spawn(name, [&order, name] {
      burn_adds(50);
      minisc::wait(minisc::Time::zero());
      order.push_back(name);
    });
  }
  sim.run();
  return order;
}

TEST(Scheduling, FifoServesInArrivalOrder) {
  // All three reach their node in spawn order within the same delta.
  const auto order =
      completion_order({.policy = SchedulingPolicy::kFifo}, 0, 0, 0);
  const std::vector<std::string> want{"a", "b", "c"};
  EXPECT_EQ(order, want);
}

TEST(Scheduling, PriorityOverridesArrivalOrder) {
  const auto order = completion_order(
      {.policy = SchedulingPolicy::kPriority}, /*a=*/1.0, /*b=*/3.0,
      /*c=*/2.0);
  const std::vector<std::string> want{"b", "c", "a"};
  EXPECT_EQ(order, want);
}

TEST(Scheduling, EqualPrioritiesFallBackToArrival) {
  const auto order = completion_order(
      {.policy = SchedulingPolicy::kPriority}, 5.0, 5.0, 5.0);
  const std::vector<std::string> want{"a", "b", "c"};
  EXPECT_EQ(order, want);
}

TEST(Scheduling, PriorityDoesNotPreemptRunningSegment) {
  // A low-priority segment that already occupies the CPU completes before a
  // later-arriving high-priority one (non-preemptive, §4 granularity).
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu = est.add_sw_resource(
      "cpu", kMhz, add_only_table(),
      {.policy = SchedulingPolicy::kPriority});
  est.map("low", cpu, 1.0);
  est.map("high", cpu, 9.0);
  minisc::Time low_end, high_end;
  sim.spawn("low", [&] {
    burn_adds(100);
    minisc::wait(minisc::Time::zero());
    low_end = minisc::now();
  });
  sim.spawn("high", [&] {
    minisc::wait(minisc::Time::ns(200));  // arrives while low occupies [0,1000)
    burn_adds(100);
    minisc::wait(minisc::Time::zero());
    high_end = minisc::now();
  });
  sim.run();
  EXPECT_EQ(low_end, cyc(100));
  EXPECT_EQ(high_end, cyc(200));  // runs right after low completes
}

TEST(Scheduling, MakespanIndependentOfPolicyWhenLoadIsSerial) {
  // Policy changes ordering, not total work: same makespan either way.
  const auto run = [](SchedulingPolicy p) {
    minisc::Simulator sim;
    Estimator est(sim);
    auto& cpu =
        est.add_sw_resource("cpu", kMhz, add_only_table(), {.policy = p});
    est.map("a", cpu, 1.0);
    est.map("b", cpu, 2.0);
    sim.spawn("a", [] { burn_adds(70); });
    sim.spawn("b", [] { burn_adds(30); });
    sim.run();
    return sim.now();
  };
  EXPECT_EQ(run(SchedulingPolicy::kFifo), run(SchedulingPolicy::kPriority));
  EXPECT_EQ(run(SchedulingPolicy::kFifo), cyc(100));
}

TEST(Scheduling, ContentionSetBookkeeping) {
  minisc::Simulator sim;  // needed by Resource time conversions? not here,
                          // but keeps the environment uniform
  SwResource cpu("cpu", kMhz, add_only_table(),
                 {.policy = SchedulingPolicy::kPriority});
  const auto t1 = cpu.enter_contention(1.0);
  const auto t2 = cpu.enter_contention(5.0);
  EXPECT_FALSE(cpu.is_next(t1));
  EXPECT_TRUE(cpu.is_next(t2));
  cpu.leave_contention(t2);
  EXPECT_TRUE(cpu.is_next(t1));
  cpu.leave_contention(t1);
}

TEST(Scheduling, PolicyNamesRender) {
  EXPECT_STREQ(to_string(SchedulingPolicy::kFifo), "fifo");
  EXPECT_STREQ(to_string(SchedulingPolicy::kPriority), "priority");
  EXPECT_STREQ(to_string(SchedulingPolicy::kPreemptivePriority),
               "preemptive-priority");
}

}  // namespace
}  // namespace scperf
