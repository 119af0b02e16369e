#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "kernel/error.hpp"
#include "kernel/simulator.hpp"

namespace minisc {
namespace {

// A specification stuck in a notify_delta ping-pong never advances time; the
// delta budget converts the hang into a structured error naming the culprits.
TEST(Watchdog, DeltaStormTripsBudgetWithDiagnostics) {
  Simulator sim;
  Watchdog w;
  w.max_deltas_per_instant = 500;
  sim.set_watchdog(w);
  Event ping("ping");
  Event pong("pong");
  sim.spawn("storm_a", [&] {
    while (true) {
      pong.notify_delta();
      wait(ping);
    }
  });
  sim.spawn("storm_b", [&] {
    while (true) {
      ping.notify_delta();
      wait(pong);
    }
  });
  try {
    sim.run();
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kDeltaStorm);
    EXPECT_EQ(e.sim_time(), Time::zero());
    ASSERT_EQ(e.processes().size(), 2u);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("storm_a"), std::string::npos) << msg;
    EXPECT_NE(msg.find("storm_b"), std::string::npos) << msg;
  }
}

// Immediate-notify ping-pong livelocks WITHIN one evaluate phase: no delta
// cycle ever completes, so only the dispatch budget can catch it.
TEST(Watchdog, DispatchStormTripsBudget) {
  Simulator sim;
  Watchdog w;
  w.max_dispatches_per_instant = 2000;
  sim.set_watchdog(w);
  Event ping("ping");
  Event pong("pong");
  sim.spawn("live_a", [&] {
    while (true) {
      pong.notify();
      wait(ping);
    }
  });
  sim.spawn("live_b", [&] {
    while (true) {
      ping.notify();
      wait(pong);
    }
  });
  try {
    sim.run();
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kDispatchStorm);
    EXPECT_FALSE(e.processes().empty());
  }
}

TEST(Watchdog, WallClockBudgetConvertsHangIntoError) {
  Simulator sim;
  Watchdog w;
  w.wall_clock_ms = 20;  // keep the test fast; the storm spins until tripped
  sim.set_watchdog(w);
  Event ping("ping");
  Event pong("pong");
  sim.spawn("hang_a", [&] {
    while (true) {
      pong.notify();
      wait(ping);
    }
  });
  sim.spawn("hang_b", [&] {
    while (true) {
      ping.notify();
      wait(pong);
    }
  });
  try {
    sim.run();
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kWallClockBudget);
  }
}

// The ambient per-run budget reaches Simulators the campaign never sees:
// ones constructed inside the user's run function, with no Watchdog set.
TEST(Watchdog, RunBudgetScopeTripsSimulatorsWithoutTheirOwnWatchdog) {
  ASSERT_FALSE(RunBudgetScope::active());
  RunBudgetScope budget(50);
  ASSERT_TRUE(RunBudgetScope::active());
  EXPECT_EQ(RunBudgetScope::budget_ms(), 50u);
  Simulator sim;  // note: no set_watchdog
  sim.spawn("spin", [] {
    while (true) wait(Time::ps(1));
  });
  try {
    sim.run();
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kWallClockBudget);
    EXPECT_NE(std::string(e.what()).find("per-run wall-clock budget"),
              std::string::npos)
        << e.what();
  }
}

// The Watchdog's budget is one more RunBudgetScope that run() opens: inside
// a looser ambient scope it still trips at its own budget, and every run()
// starts it afresh.
TEST(Watchdog, WallClockBudgetNestsInALooserScopeAndRestartsPerRun) {
  using Clock = std::chrono::steady_clock;
  const RunBudgetScope loose(60000);
  Watchdog w;
  w.wall_clock_ms = 500;
  {
    Simulator sim;
    sim.set_watchdog(w);
    // Spins through simulated picoseconds (one dispatch each, so the
    // amortised check runs) for `host` of wall time.
    const auto spin = [](std::chrono::milliseconds host) {
      const auto until = Clock::now() + host;
      while (Clock::now() < until) wait(Time::ps(1));
    };
    sim.spawn("two_phases", [&] {
      spin(std::chrono::milliseconds(300));
      wait(Time::sec(1));  // past the first run's horizon
      spin(std::chrono::milliseconds(300));
    });
    // 600 ms of spinning in all, but at most 300 ms in either run().
    EXPECT_EQ(sim.run(Time::ms(1)), StopReason::kTimeLimit);
    EXPECT_EQ(sim.run(), StopReason::kFinished);
  }

  Simulator hung;
  hung.set_watchdog(w);
  hung.spawn("spin", [] {
    while (true) wait(Time::ps(1));
  });
  const auto start = Clock::now();
  try {
    hung.run();
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kWallClockBudget);
    EXPECT_NE(std::string(e.what()).find("budget of 500 ms"),
              std::string::npos)
        << e.what();
  }
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(30));
  EXPECT_EQ(RunBudgetScope::budget_ms(), 60000u);  // run() restored it
}

TEST(Watchdog, RunBudgetScopeRestoresOnExitAndZeroIsInactive) {
  {
    RunBudgetScope off(0);  // budget 0 = unlimited: installs nothing
    EXPECT_FALSE(RunBudgetScope::active());
  }
  {
    RunBudgetScope outer(10000);
    {
      // The tighter deadline wins; the looser nested scope is a no-op.
      RunBudgetScope inner(50);
      EXPECT_EQ(RunBudgetScope::budget_ms(), 50u);
    }
    EXPECT_EQ(RunBudgetScope::budget_ms(), 10000u);
    EXPECT_FALSE(RunBudgetScope::expired());
    // A generous budget does not disturb a well-behaved simulation.
    Simulator sim;
    int laps = 0;
    sim.spawn("worker", [&] {
      for (int i = 0; i < 50; ++i) {
        wait(Time::ns(10));
        ++laps;
      }
    });
    EXPECT_EQ(sim.run(), StopReason::kFinished);
    EXPECT_EQ(laps, 50);
  }
  EXPECT_FALSE(RunBudgetScope::active());
}

TEST(Watchdog, SimTimeBudgetIsAnErrorNotAPause) {
  Simulator sim;
  Watchdog w;
  w.sim_time_budget = Time::us(1);
  sim.set_watchdog(w);
  sim.spawn("ticker", [&] {
    while (true) wait(Time::ns(100));
  });
  try {
    sim.run();
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kSimTimeBudget);
    EXPECT_GT(e.sim_time(), Time::us(1));
  }
}

// run(limit) pausing at the horizon is NOT a budget violation.
TEST(Watchdog, RunLimitDoesNotTripSimTimeBudget) {
  Simulator sim;
  Watchdog w;
  w.sim_time_budget = Time::us(10);
  sim.set_watchdog(w);
  sim.spawn("ticker", [&] {
    for (int i = 0; i < 5; ++i) wait(Time::ns(100));
  });
  EXPECT_EQ(sim.run(Time::us(1)), StopReason::kFinished);
}

TEST(Watchdog, WellBehavedSpecRunsUnderTightBudgets) {
  Simulator sim;
  Watchdog w;
  w.max_deltas_per_instant = 64;
  w.max_dispatches_per_instant = 1024;
  w.wall_clock_ms = 5000;
  w.sim_time_budget = Time::sec(1);
  sim.set_watchdog(w);
  int laps = 0;
  sim.spawn("worker", [&] {
    for (int i = 0; i < 100; ++i) {
      wait(Time::ns(10));
      ++laps;
    }
  });
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_EQ(laps, 100);
}

TEST(Diagnostics, DeadlockedProcessesReportWhatTheyBlockOn) {
  Simulator sim;
  Event never("never_notified");
  sim.spawn("waiter", [&] { wait(never); });
  sim.spawn("sleeper", [&] { wait(Time::ms(1)); });
  EXPECT_EQ(sim.run(), StopReason::kDeadlock);
  const auto diags = sim.process_diagnostics();
  ASSERT_EQ(diags.size(), 1u);  // sleeper finished; waiter remains
  EXPECT_EQ(diags[0].name, "waiter");
  EXPECT_NE(diags[0].blocked_on.find("never_notified"), std::string::npos)
      << diags[0].str();
}

TEST(Diagnostics, TimerWaitReportsDeadline) {
  Simulator sim;
  Watchdog w;
  w.sim_time_budget = Time::ns(50);
  sim.set_watchdog(w);
  sim.spawn("late", [&] { wait(Time::us(1)); });
  try {
    sim.run();
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    ASSERT_EQ(e.processes().size(), 1u);
    EXPECT_NE(e.processes()[0].blocked_on.find("timer"), std::string::npos)
        << e.processes()[0].str();
  }
}

TEST(Errors, CurrentOutsideAnySimulatorThrowsStructured) {
  // No Simulator instance exists in this test.
  try {
    Simulator::current();
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kNoSimulator);
  }
}

TEST(Errors, CurrentProcessOutsideProcessContextThrows) {
  Simulator sim;
  try {
    sim.current_process();
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kNoProcessContext);
  }
}

}  // namespace
}  // namespace minisc
