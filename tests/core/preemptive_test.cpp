// Tests of the preemptive fixed-priority extension: a higher-priority
// segment released mid-occupation preempts the processor; the preempted
// segment resumes afterwards with its remaining time intact.

#include <gtest/gtest.h>

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

SwResource::Options preemptive_opts(double rtos = 0.0) {
  return {.rtos_cycles_per_switch = rtos,
          .policy = SchedulingPolicy::kPreemptivePriority};
}

TEST(Preemptive, SingleProcessBehavesLikeNonPreemptive) {
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table(),
                                  preemptive_opts());
  est.map("p", cpu, 1.0);
  sim.spawn("p", [] { burn_adds(50); });
  EXPECT_EQ(sim.run(), minisc::StopReason::kFinished);
  EXPECT_EQ(sim.now(), cyc(50));
  EXPECT_EQ(cpu.busy_time(), cyc(50));
}

TEST(Preemptive, HighPriorityPreemptsRunningSegment) {
  // low occupies [0, 1000ns); high arrives at 200ns and must NOT wait for
  // low to finish (the defining difference from the non-preemptive model).
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table(),
                                  preemptive_opts());
  est.map("low", cpu, 1.0);
  est.map("high", cpu, 9.0);
  minisc::Time low_end, high_end;
  sim.spawn("low", [&] {
    burn_adds(100);
    minisc::wait(minisc::Time::zero());
    low_end = minisc::now();
  });
  sim.spawn("high", [&] {
    minisc::wait(minisc::Time::ns(200));
    burn_adds(30);
    minisc::wait(minisc::Time::zero());
    high_end = minisc::now();
  });
  sim.run();
  // high: released 200, runs [200, 500) -> ends at 500 ns.
  EXPECT_EQ(high_end, cyc(50));
  // low: ran [0,200), preempted [200,500), resumes [500,1300).
  EXPECT_EQ(low_end, cyc(130));
  EXPECT_EQ(cpu.busy_time(), cyc(130));
}

TEST(Preemptive, NonPreemptiveComparisonBlocksHighPriority) {
  // Same scenario without preemption: high must wait for low's segment.
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu = est.add_sw_resource(
      "cpu", kMhz, add_only_table(),
      {.policy = SchedulingPolicy::kPriority});
  est.map("low", cpu, 1.0);
  est.map("high", cpu, 9.0);
  minisc::Time high_end;
  sim.spawn("low", [&] { burn_adds(100); });
  sim.spawn("high", [&] {
    minisc::wait(minisc::Time::ns(200));
    burn_adds(30);
    minisc::wait(minisc::Time::zero());
    high_end = minisc::now();
  });
  sim.run();
  EXPECT_EQ(high_end, cyc(130));  // 1000 (low) + 300 (high)
}

TEST(Preemptive, NestedPreemption) {
  // Three priorities: mid preempts low, high preempts mid.
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table(),
                                  preemptive_opts());
  est.map("low", cpu, 1.0);
  est.map("mid", cpu, 2.0);
  est.map("high", cpu, 3.0);
  minisc::Time low_end, mid_end, high_end;
  sim.spawn("low", [&] {
    burn_adds(100);  // wants [0, 1000)
    minisc::wait(minisc::Time::zero());
    low_end = minisc::now();
  });
  sim.spawn("mid", [&] {
    minisc::wait(minisc::Time::ns(100));
    burn_adds(50);  // wants 500ns from t=100
    minisc::wait(minisc::Time::zero());
    mid_end = minisc::now();
  });
  sim.spawn("high", [&] {
    minisc::wait(minisc::Time::ns(300));
    burn_adds(20);  // wants 200ns from t=300
    minisc::wait(minisc::Time::zero());
    high_end = minisc::now();
  });
  sim.run();
  // Timeline: low [0,100), mid [100,300), high [300,500), mid [500,800),
  // low [800,1700).
  EXPECT_EQ(high_end, cyc(50));
  EXPECT_EQ(mid_end, cyc(80));
  EXPECT_EQ(low_end, cyc(170));
  EXPECT_EQ(cpu.busy_time(), cyc(170));
}

TEST(Preemptive, RtosChargedPerDispatchAndResumption) {
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table(),
                                  preemptive_opts(/*rtos=*/10.0));
  est.map("low", cpu, 1.0);
  est.map("high", cpu, 9.0);
  sim.spawn("low", [&] { burn_adds(100); });
  sim.spawn("high", [&] {
    minisc::wait(minisc::Time::ns(200));
    burn_adds(30);
  });
  sim.run();
  // Invariant: every dispatch (initial or resumption) costs one RTOS switch,
  // so accumulated RTOS time is exactly switches * per-switch cost. (The
  // release mechanics add empty segments, so the absolute count is not
  // asserted here — SwitchCountTracksDispatches covers the scenario shape.)
  EXPECT_EQ(cpu.rtos_time(),
            cyc(10.0 * static_cast<double>(cpu.preempt_switches())));
  // Busy time is the pure computation, independent of switching.
  EXPECT_EQ(cpu.busy_time(), cyc(130));
  EXPECT_GE(sim.now(), cpu.busy_time() + cpu.rtos_time() -
                           minisc::Time::ns(2000));  // high's wait overlaps
}

TEST(Preemptive, EqualPrioritiesDoNotThrash) {
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table(),
                                  preemptive_opts());
  est.map("a", cpu, 5.0);
  est.map("b", cpu, 5.0);
  minisc::Time a_end, b_end;
  sim.spawn("a", [&] {
    burn_adds(40);
    minisc::wait(minisc::Time::zero());
    a_end = minisc::now();
  });
  sim.spawn("b", [&] {
    burn_adds(40);
    minisc::wait(minisc::Time::zero());
    b_end = minisc::now();
  });
  sim.run();
  // No preemption among equals: strictly serial.
  EXPECT_EQ(a_end, cyc(40));
  EXPECT_EQ(b_end, cyc(80));
}

TEST(Preemptive, ChecksumInvariantUnderPreemption) {
  // Functional results must not depend on the scheduling model.
  const auto run = [](bool preemptive) {
    minisc::Simulator sim;
    Estimator est(sim);
    auto& cpu = est.add_sw_resource(
        "cpu", kMhz, add_only_table(),
        {.policy = preemptive ? SchedulingPolicy::kPreemptivePriority
                              : SchedulingPolicy::kPriority});
    est.map("prod", cpu, 1.0);
    est.map("cons", cpu, 2.0);
    minisc::Fifo<int> ch("ch", 4);
    long sum = 0;
    sim.spawn("prod", [&] {
      for (int i = 0; i < 20; ++i) {
        burn_adds(25);
        ch.write(i * 7);
      }
    });
    sim.spawn("cons", [&] {
      for (int i = 0; i < 20; ++i) {
        sum += ch.read();
        burn_adds(10);
      }
    });
    EXPECT_EQ(sim.run(), minisc::StopReason::kFinished);
    return sum;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(Preemptive, SwitchCountTracksDispatches) {
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table(),
                                  preemptive_opts());
  est.map("low", cpu, 1.0);
  est.map("high", cpu, 9.0);
  sim.spawn("low", [&] { burn_adds(100); });
  sim.spawn("high", [&] {
    minisc::wait(minisc::Time::ns(200));
    burn_adds(30);
  });
  sim.run();
  // At least: low dispatched, high dispatched (preempting), low
  // redispatched. The empty release segments of `high` add further
  // dispatches, so this is a lower bound.
  EXPECT_GE(cpu.preempt_switches(), 3u);
  EXPECT_LE(cpu.preempt_switches(), 7u);
}

}  // namespace
}  // namespace scperf
