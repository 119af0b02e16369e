#include "kernel/simulator.hpp"

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace minisc {
namespace {

TEST(Simulator, EmptyRunFinishesAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_EQ(sim.now(), Time::zero());
}

TEST(Simulator, SingleProcessRunsToCompletion) {
  Simulator sim;
  bool ran = false;
  sim.spawn("p", [&] { ran = true; });
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_TRUE(ran);
}

TEST(Simulator, TimedWaitAdvancesTime) {
  Simulator sim;
  Time seen;
  sim.spawn("p", [&] {
    wait(Time::ns(25));
    seen = now();
  });
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_EQ(seen, Time::ns(25));
  EXPECT_EQ(sim.now(), Time::ns(25));
}

TEST(Simulator, SequentialWaitsAccumulate) {
  Simulator sim;
  sim.spawn("p", [&] {
    wait(Time::ns(10));
    wait(Time::us(1));
    wait(Time::ns(5));
  });
  sim.run();
  EXPECT_EQ(sim.now(), Time::ns(1015));
}

TEST(Simulator, TwoProcessesInterleaveByTime) {
  Simulator sim;
  std::vector<std::string> order;
  sim.spawn("a", [&] {
    wait(Time::ns(10));
    order.push_back("a@10");
    wait(Time::ns(20));
    order.push_back("a@30");
  });
  sim.spawn("b", [&] {
    wait(Time::ns(15));
    order.push_back("b@15");
  });
  sim.run();
  const std::vector<std::string> want{"a@10", "b@15", "a@30"};
  EXPECT_EQ(order, want);
}

TEST(Simulator, SameInstantWakesFifoOrder) {
  Simulator sim;
  std::vector<std::string> order;
  for (const char* n : {"p0", "p1", "p2"}) {
    sim.spawn(n, [&order, n] {
      wait(Time::ns(10));
      order.push_back(n);
    });
  }
  sim.run();
  const std::vector<std::string> want{"p0", "p1", "p2"};
  EXPECT_EQ(order, want);
}

TEST(Simulator, TimeLimitStopsRun) {
  Simulator sim;
  int laps = 0;
  sim.spawn("p", [&] {
    while (true) {
      wait(Time::ns(10));
      ++laps;
    }
  });
  EXPECT_EQ(sim.run(Time::ns(55)), StopReason::kTimeLimit);
  EXPECT_EQ(laps, 5);
  EXPECT_EQ(sim.now(), Time::ns(55));
}

TEST(Simulator, RunCanContinueAfterTimeLimit) {
  Simulator sim;
  int laps = 0;
  sim.spawn("p", [&] {
    while (true) {
      wait(Time::ns(10));
      ++laps;
    }
  });
  sim.run(Time::ns(35));
  EXPECT_EQ(laps, 3);
  EXPECT_EQ(sim.run(Time::ns(100)), StopReason::kTimeLimit);
  EXPECT_EQ(laps, 10);
}

TEST(Simulator, StopRequestHonoured) {
  Simulator sim;
  sim.spawn("p", [&] {
    wait(Time::ns(10));
    Simulator::current().stop();
    wait(Time::ns(10));  // never completes within this run
  });
  EXPECT_EQ(sim.run(), StopReason::kStopped);
  EXPECT_EQ(sim.now(), Time::ns(10));
}

TEST(Simulator, EventImmediateNotifyWakesWaiter) {
  Simulator sim;
  Event ev("ev");
  bool woke = false;
  sim.spawn("waiter", [&] {
    wait(ev);
    woke = true;
  });
  sim.spawn("notifier", [&] {
    wait(Time::ns(5));
    ev.notify();
  });
  sim.run();
  EXPECT_TRUE(woke);
  EXPECT_EQ(sim.now(), Time::ns(5));
}

TEST(Simulator, EventTimedNotify) {
  Simulator sim;
  Event ev("ev");
  Time woke_at;
  sim.spawn("waiter", [&] {
    wait(ev);
    woke_at = now();
  });
  sim.spawn("notifier", [&] { ev.notify(Time::ns(42)); });
  sim.run();
  EXPECT_EQ(woke_at, Time::ns(42));
}

TEST(Simulator, EarlierTimedNotifyOverridesLater) {
  Simulator sim;
  Event ev("ev");
  Time woke_at;
  int wakes = 0;
  sim.spawn("waiter", [&] {
    wait(ev);
    woke_at = now();
    ++wakes;
  });
  sim.spawn("notifier", [&] {
    ev.notify(Time::ns(100));
    ev.notify(Time::ns(30));  // earlier: replaces the pending one
  });
  sim.run();
  EXPECT_EQ(woke_at, Time::ns(30));
  EXPECT_EQ(wakes, 1);
}

TEST(Simulator, LaterTimedNotifyIsDiscarded) {
  Simulator sim;
  Event ev("ev");
  Time woke_at;
  sim.spawn("waiter", [&] {
    wait(ev);
    woke_at = now();
  });
  sim.spawn("notifier", [&] {
    ev.notify(Time::ns(30));
    ev.notify(Time::ns(100));  // later: ignored
  });
  sim.run();
  EXPECT_EQ(woke_at, Time::ns(30));
}

TEST(Simulator, CancelPreventsNotification) {
  Simulator sim;
  Event ev("ev");
  bool woke = false;
  sim.spawn("waiter", [&] {
    wait(ev);
    woke = true;
  });
  sim.spawn("notifier", [&] {
    ev.notify(Time::ns(30));
    wait(Time::ns(10));
    ev.cancel();
  });
  EXPECT_EQ(sim.run(), StopReason::kDeadlock);
  EXPECT_FALSE(woke);
}

TEST(Simulator, DeltaNotifyWakesInSameInstant) {
  Simulator sim;
  Event ev("ev");
  Time woke_at = Time::max();
  std::uint64_t delta_at_wake = 0;
  sim.spawn("waiter", [&] {
    wait(ev);
    woke_at = now();
    delta_at_wake = Simulator::current().delta_count();
  });
  sim.spawn("notifier", [&] { ev.notify_delta(); });
  sim.run();
  EXPECT_EQ(woke_at, Time::zero());
  EXPECT_GE(delta_at_wake, 1u);  // woken in a later delta, same instant
}

TEST(Simulator, WaitWithTimeoutEventFirst) {
  Simulator sim;
  Event ev("ev");
  bool got_event = false;
  sim.spawn("waiter", [&] { got_event = wait(ev, Time::ns(100)); });
  sim.spawn("notifier", [&] {
    wait(Time::ns(20));
    ev.notify();
  });
  sim.run();
  EXPECT_TRUE(got_event);
  EXPECT_EQ(sim.now(), Time::ns(20));
}

TEST(Simulator, WaitWithTimeoutExpires) {
  Simulator sim;
  Event ev("ev");
  bool got_event = true;
  sim.spawn("waiter", [&] { got_event = wait(ev, Time::ns(100)); });
  sim.run();
  EXPECT_FALSE(got_event);
  EXPECT_EQ(sim.now(), Time::ns(100));
}

TEST(Simulator, DeadlockDetected) {
  Simulator sim;
  Event never("never");
  sim.spawn("stuck", [&] { wait(never); });
  EXPECT_EQ(sim.run(), StopReason::kDeadlock);
  const auto blocked = sim.blocked_process_names();
  ASSERT_EQ(blocked.size(), 1u);
  EXPECT_EQ(blocked[0], "stuck");
}

TEST(Simulator, DeadlockAmongSeveralReportsAll) {
  Simulator sim;
  Event never("never");
  sim.spawn("a", [&] { wait(never); });
  sim.spawn("b", [&] { wait(never); });
  sim.spawn("done", [] {});
  EXPECT_EQ(sim.run(), StopReason::kDeadlock);
  EXPECT_EQ(sim.blocked_process_names().size(), 2u);
}

TEST(Simulator, DynamicSpawnFromProcess) {
  Simulator sim;
  std::vector<std::string> order;
  sim.spawn("parent", [&] {
    order.push_back("parent");
    Simulator::current().spawn("child", [&] {
      order.push_back("child");
      wait(Time::ns(5));
      order.push_back("child@5");
    });
    wait(Time::ns(1));
    order.push_back("parent@1");
  });
  sim.run();
  const std::vector<std::string> want{"parent", "child", "parent@1",
                                      "child@5"};
  EXPECT_EQ(order, want);
}

TEST(Simulator, ProcessExceptionPropagatesToRun) {
  Simulator sim;
  sim.spawn("boom", [] { throw std::runtime_error("bang"); });
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Simulator, TeardownUnwindsBlockedProcessStacks) {
  // A blocked process holds an RAII object on its coroutine stack; simulator
  // destruction must run its destructor via stack unwinding.
  bool destroyed = false;
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  {
    Simulator sim;
    Event never("never");
    sim.spawn("holder", [&] {
      Sentinel s{&destroyed};
      wait(never);
    });
    sim.run();  // deadlock; process still holds the sentinel
    EXPECT_FALSE(destroyed);
  }
  EXPECT_TRUE(destroyed);
}

TEST(Simulator, OnlyOneSimulatorPerThread) {
  Simulator sim;
  EXPECT_THROW(Simulator second, std::logic_error);
}

TEST(Simulator, CurrentReflectsLiveSimulator) {
  EXPECT_EQ(Simulator::current_or_null(), nullptr);
  {
    Simulator sim;
    EXPECT_EQ(Simulator::current_or_null(), &sim);
    EXPECT_EQ(&Simulator::current(), &sim);
  }
  EXPECT_EQ(Simulator::current_or_null(), nullptr);
}

TEST(Simulator, ExecTraceRecordsResumes) {
  Simulator sim;
  sim.enable_exec_trace(true);
  sim.spawn("p", [&] {
    wait(Time::ns(10));
    wait(Time::ns(10));
  });
  sim.run();
  const auto& trace = sim.exec_trace();
  ASSERT_EQ(trace.size(), 3u);  // initial resume + two wake-ups
  EXPECT_EQ(trace[0].time, Time::zero());
  EXPECT_EQ(trace[1].time, Time::ns(10));
  EXPECT_EQ(trace[2].time, Time::ns(20));
  EXPECT_EQ(trace[2].process, "p");
}

TEST(Simulator, ZeroWaitBehavesLikeDeltaWait) {
  Simulator sim;
  int step = 0;
  sim.spawn("p", [&] {
    wait(Time::zero());
    step = 1;
  });
  sim.run();
  EXPECT_EQ(step, 1);
  EXPECT_EQ(sim.now(), Time::zero());
}

TEST(Simulator, ManyProcessesManyWaits) {
  Simulator sim;
  constexpr int kProcs = 50;
  constexpr int kLaps = 100;
  int total = 0;
  for (int i = 0; i < kProcs; ++i) {
    sim.spawn(std::string("p").append(std::to_string(i)), [&, i] {
      for (int lap = 0; lap < kLaps; ++lap) {
        wait(Time::ns(static_cast<std::uint64_t>(1 + i)));
        ++total;
      }
    });
  }
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_EQ(total, kProcs * kLaps);
  EXPECT_EQ(sim.now(), Time::ns(kProcs * kLaps));
}

TEST(Simulator, RenotifyAfterCancelWorks) {
  Simulator sim;
  Event ev("ev");
  Time woke_at;
  sim.spawn("waiter", [&] {
    wait(ev);
    woke_at = now();
  });
  sim.spawn("driver", [&] {
    ev.notify(Time::ns(30));
    ev.cancel();
    ev.notify(Time::ns(60));  // the cancel must not kill this one
  });
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_EQ(woke_at, Time::ns(60));
}

TEST(Simulator, ImmediateNotifyCancelsPendingTimed) {
  Simulator sim;
  Event ev("ev");
  int wakes = 0;
  sim.spawn("waiter", [&] {
    wait(ev);
    ++wakes;
    // A second wait must NOT be satisfied by the stale timed notification.
    const bool fired = wait(ev, Time::ns(500));
    EXPECT_FALSE(fired);
  });
  sim.spawn("driver", [&] {
    ev.notify(Time::ns(100));
    ev.notify();  // immediate: fires now and cancels the timed one
  });
  sim.run();
  EXPECT_EQ(wakes, 1);
}

TEST(Simulator, NotifyWithNoWaitersIsLost) {
  // SystemC semantics: events are not latched.
  Simulator sim;
  Event ev("ev");
  bool woke = false;
  sim.spawn("driver", [&] { ev.notify(); });
  sim.spawn("late_waiter", [&] {
    wait(Time::ns(10));
    wait(ev);  // the earlier notification is gone
    woke = true;
  });
  EXPECT_EQ(sim.run(), StopReason::kDeadlock);
  EXPECT_FALSE(woke);
}

TEST(Simulator, TwoWaitersBothWoken) {
  Simulator sim;
  Event ev("ev");
  int woken = 0;
  for (const char* n : {"w1", "w2"}) {
    sim.spawn(n, [&] {
      wait(ev);
      ++woken;
    });
  }
  sim.spawn("driver", [&] {
    wait(Time::ns(5));
    ev.notify();
  });
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_EQ(woken, 2);
}

// Hook instrumentation: verify node callbacks fire around timed waits.
class RecordingHook : public KernelHook {
 public:
  std::vector<std::string> log;

  void process_started(Process& p) override {
    log.push_back("start:" + p.name());
  }
  void process_finished(Process& p) override {
    log.push_back("finish:" + p.name());
  }
  void node_reached(Process& p, NodeKind kind, const char* label) override {
    log.push_back("reach:" + p.name() + ":" + to_string(kind) + ":" + label);
  }
  void node_done(Process& p, NodeKind kind, const char* label) override {
    log.push_back("done:" + p.name() + ":" + to_string(kind) + ":" + label);
  }
};

TEST(Simulator, HookSeesProcessLifecycleAndTimedWaitNodes) {
  Simulator sim;
  RecordingHook hook;
  sim.set_hook(&hook);
  sim.spawn("p", [&] { wait(Time::ns(1)); });
  sim.run();
  const std::vector<std::string> want{
      "start:p", "reach:p:wait:wait", "done:p:wait:wait", "finish:p"};
  EXPECT_EQ(hook.log, want);
}

TEST(Simulator, RawWaitBypassesHooks) {
  Simulator sim;
  RecordingHook hook;
  sim.set_hook(&hook);
  sim.spawn("p", [&] { Simulator::current().raw_wait(Time::ns(1)); });
  sim.run();
  const std::vector<std::string> want{"start:p", "finish:p"};
  EXPECT_EQ(hook.log, want);
}

// Offset from 16-byte alignment of a 16-byte-aligned local. The address goes
// through an empty asm, so the compiler cannot fold the modulo to the 0 its
// own alignment promise implies: the probe reads where the frame really is.
std::uintptr_t aligned_local_misalignment() {
  alignas(16) char probe[16] = {};
  void* addr = probe;
  __asm__ volatile("" : "+r"(addr));
  return reinterpret_cast<std::uintptr_t>(addr) % 16;
}

TEST(Simulator, ProcessFramesKeepAbiStackAlignment) {
  // A process stack entered one slot off the ABI's rsp ≡ 8 (mod 16) shifts
  // every frame on it, and movaps on a spilled vector then faults.
  Simulator sim;
  std::vector<std::pair<std::string, std::uintptr_t>> seen;
  int entries = 0;
  Process* p = nullptr;
  p = &sim.spawn("p", [&] {
    const std::string run = entries++ == 0 ? "first" : "restarted";
    seen.emplace_back(run + " entry", aligned_local_misalignment());
    wait(Time::ns(10));
    seen.emplace_back(run + " after wait", aligned_local_misalignment());
    if (run == "first") {
      sim.spawn("child", [&] {
        seen.emplace_back("spawned from a process",
                          aligned_local_misalignment());
        sim.kill_and_restart(*p, Time::ns(5));
      });
      wait(Time::ns(100));
    }
  });
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_EQ(p->restart_count(), 1u);
  ASSERT_EQ(seen.size(), 5u);
  for (const auto& [where, misalignment] : seen) {
    EXPECT_EQ(misalignment, 0u) << where;
  }
}

TEST(Simulator, RoundingModeStaysWithItsProcess) {
  // The floating-point control state is callee-saved in the ABI, so a
  // switch carries each process's rounding mode with it.
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  int up_after = -1;
  int down_start = -1;
  int down_after = -1;
  {
    Simulator sim;
    sim.spawn("up", [&] {
      std::fesetround(FE_UPWARD);
      wait(Time::ns(10));
      up_after = std::fegetround();
    });
    sim.spawn("down", [&] {
      down_start = std::fegetround();
      std::fesetround(FE_DOWNWARD);
      wait(Time::ns(10));
      down_after = std::fegetround();
    });
    EXPECT_EQ(sim.run(), StopReason::kFinished);
  }
  const int caller_after = std::fegetround();
  std::fesetround(FE_TONEAREST);  // keep a failure from leaking into others
  EXPECT_EQ(down_start, FE_TONEAREST);
  EXPECT_EQ(up_after, FE_UPWARD);
  EXPECT_EQ(down_after, FE_DOWNWARD);
  EXPECT_EQ(caller_after, FE_TONEAREST);
}

}  // namespace
}  // namespace minisc
