#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kernel/channels.hpp"
#include "kernel/retry.hpp"
#include "kernel/simulator.hpp"

namespace minisc {
namespace {

// A crash must unwind the victim's coroutine stack so RAII cleanup runs —
// the property the estimator's contention guards rely on.
TEST(Crash, KillUnwindsStackRunningDestructors) {
  Simulator sim;
  bool destroyed = false;
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  sim.spawn("victim", [&] {
    Sentinel s{&destroyed};
    wait(Time::sec(1));
  });
  sim.spawn("killer", [&] {
    wait(Time::ns(10));
    Simulator& s = Simulator::current();
    Process* victim = s.find_process("victim");
    ASSERT_NE(victim, nullptr);
    s.kill(*victim);
  });
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_TRUE(destroyed);
  EXPECT_LT(sim.now(), Time::sec(1));  // the 1 s wait never completed
}

TEST(Crash, KillAndRestartRerunsBodyFromTheTop) {
  Simulator sim;
  int entries = 0;
  bool completed = false;
  std::vector<Time> entry_times;
  sim.spawn("task", [&] {
    ++entries;
    entry_times.push_back(now());
    wait(Time::us(1));
    completed = true;
  });
  sim.spawn("fault", [&] {
    wait(Time::ns(100));
    Simulator& s = Simulator::current();
    s.kill_and_restart(*s.find_process("task"), Time::ns(50));
  });
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_EQ(entries, 2);
  EXPECT_TRUE(completed);
  ASSERT_EQ(entry_times.size(), 2u);
  EXPECT_EQ(entry_times[0], Time::zero());
  EXPECT_EQ(entry_times[1], Time::ns(150));  // crash at 100 + restart 50
  EXPECT_EQ(sim.now(), Time::ns(150) + Time::us(1));
  EXPECT_EQ(sim.find_process("task"), nullptr);  // terminated after finishing
}

TEST(Crash, RestartCountTracksEachCrash) {
  Simulator sim;
  int entries = 0;
  Process* task = &sim.spawn("task", [&] {
    ++entries;
    wait(Time::us(10));
  });
  sim.spawn("fault", [&] {
    Simulator& s = Simulator::current();
    for (int i = 0; i < 3; ++i) {
      wait(Time::us(1));
      Process* p = s.find_process("task");
      if (p != nullptr) s.kill_and_restart(*p, Time::ns(1));
    }
  });
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_EQ(entries, 4);  // initial + 3 restarts
  EXPECT_EQ(task->restart_count(), 3u);
}

TEST(Crash, SelfKillUnwindsImmediately) {
  Simulator sim;
  bool after_kill = false;
  sim.spawn("suicidal", [&] {
    Simulator& s = Simulator::current();
    wait(Time::ns(5));
    s.kill(s.current_process());
    after_kill = true;  // must never execute
  });
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_FALSE(after_kill);
}

// A process blocked on a channel can be crash-restarted: the stale waiter
// registration must not resurrect it or corrupt the channel.
TEST(Crash, RestartWhileBlockedOnChannelIsClean) {
  Simulator sim;
  Fifo<int> ch("ch", 4);
  int entries = 0;
  std::vector<int> got;
  sim.spawn("reader", [&] {
    ++entries;
    while (true) got.push_back(ch.read());
  });
  sim.spawn("driver", [&] {
    Simulator& s = Simulator::current();
    wait(Time::ns(100));
    s.kill_and_restart(*s.find_process("reader"), Time::ns(10));
    wait(Time::ns(100));
    ch.write(7);
    wait(Time::ns(100));
    ch.write(8);
  });
  sim.run(Time::us(1));
  EXPECT_EQ(entries, 2);
  EXPECT_EQ(got, (std::vector<int>{7, 8}));
}

TEST(ChannelTimeout, FifoReadForTimesOutAtDeadline) {
  Simulator sim;
  Fifo<int> ch("ch");
  bool timed_out = false;
  Time at;
  sim.spawn("reader", [&] {
    auto v = ch.read_for(Time::ns(50));
    timed_out = !v.has_value();
    at = now();
  });
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(at, Time::ns(50));
}

TEST(ChannelTimeout, FifoReadForReturnsValueArrivingInTime) {
  Simulator sim;
  Fifo<int> ch("ch");
  std::optional<int> got;
  sim.spawn("reader", [&] { got = ch.read_for(Time::ns(50)); });
  sim.spawn("writer", [&] {
    wait(Time::ns(20));
    ch.write(42);
  });
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 42);
}

TEST(ChannelTimeout, RendezvousReadForBothOutcomes) {
  Simulator sim;
  Rendezvous<int> late("late");
  Rendezvous<int> ontime("ontime");
  std::optional<int> miss, hit;
  sim.spawn("reader", [&] {
    miss = late.read_for(Time::ns(10));
    hit = ontime.read_for(Time::ns(100));
  });
  sim.spawn("writer", [&] {
    wait(Time::ns(30));
    ontime.write(9);
  });
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_FALSE(miss.has_value());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 9);
}

TEST(Retry, BackoffRetriesUntilSuccessSpendingSimTime) {
  Simulator sim;
  bool ok = false;
  Time elapsed;
  sim.spawn("p", [&] {
    int calls = 0;
    BackoffPolicy policy;
    policy.initial = Time::us(1);
    policy.factor = 2.0;
    policy.max_delay = Time::ms(1);
    ok = retry_with_backoff([&] { return ++calls == 4; }, policy);
    elapsed = now();
  });
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_TRUE(ok);
  // Three failed attempts waited 1 + 2 + 4 us before the fourth succeeded.
  EXPECT_EQ(elapsed, Time::us(7));
}

TEST(Retry, BackoffGivesUpAfterMaxAttempts) {
  Simulator sim;
  bool ok = true;
  int calls = 0;
  sim.spawn("p", [&] {
    BackoffPolicy policy;
    policy.max_attempts = 3;
    ok = retry_with_backoff([&] { ++calls; return false; }, policy);
  });
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_FALSE(ok);
  EXPECT_EQ(calls, 3);
}

TEST(Retry, JitterIsDeterministicFromTheSeed) {
  // Jittered backoff must stay reproducible: the same jitter_seed yields the
  // same waits on every run, a different seed (almost surely) different ones.
  const auto elapsed_with_seed = [](std::uint64_t seed) {
    Simulator sim;
    Time elapsed;
    sim.spawn("p", [&] {
      int calls = 0;
      BackoffPolicy policy;
      policy.initial = Time::us(1);
      policy.factor = 2.0;
      policy.max_delay = Time::ms(1);
      policy.jitter = 0.25;
      policy.jitter_seed = seed;
      retry_with_backoff([&] { return ++calls == 4; }, policy);
      elapsed = now();
    });
    sim.run();
    return elapsed;
  };
  const Time a = elapsed_with_seed(42);
  EXPECT_EQ(a, elapsed_with_seed(42));
  EXPECT_NE(a, elapsed_with_seed(43));
  // jitter = 0.25 bounds each wait to [0.75, 1.25) of nominal; the nominal
  // total is 7 us (1 + 2 + 4).
  EXPECT_GE(a, Time::ns(5250));   // 7 us * 0.75
  EXPECT_LT(a, Time::ns(8750));   // 7 us * 1.25
}

TEST(Retry, ZeroJitterKeepsWaitsExact) {
  Simulator sim;
  Time elapsed;
  sim.spawn("p", [&] {
    int calls = 0;
    BackoffPolicy policy;
    policy.initial = Time::us(1);
    policy.factor = 2.0;
    policy.max_delay = Time::ms(1);
    policy.jitter_seed = 99;  // ignored while jitter == 0
    retry_with_backoff([&] { return ++calls == 3; }, policy);
    elapsed = now();
  });
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_EQ(elapsed, Time::us(3));  // exactly 1 + 2
}

TEST(Errors, ZeroCapacityFifoIsRejectedLoudly) {
  Simulator sim;  // channels need a live simulator for their events
  try {
    Fifo<int> bad("bad", 0);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kBadConfig);
    EXPECT_NE(std::string(e.what()).find("bad"), std::string::npos);
  }
}

TEST(Errors, UndersizedProcessStackIsRejectedLoudly) {
  // The switch writes its entry frame at the top of the stack when the
  // process is built, so an undersized stack must never get that far.
  bool woke = false;
  bool unwound = false;
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  {
    Event never("never");
    Simulator sim;
    for (const std::size_t bytes : {std::size_t{0}, std::size_t{64}}) {
      try {
        sim.spawn("tiny", [] {}, bytes);
        FAIL() << "expected SimError for " << bytes << " bytes";
      } catch (const SimError& e) {
        EXPECT_EQ(e.kind(), SimError::Kind::kBadConfig);
        const std::string what = e.what();
        EXPECT_NE(what.find("'tiny'"), std::string::npos) << what;
        EXPECT_NE(what.find(" " + std::to_string(bytes) + " bytes"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find(std::to_string(Simulator::kMinStackBytes)),
                  std::string::npos)
            << what;
      }
    }
    EXPECT_EQ(sim.find_process("tiny"), nullptr);
    // The smallest accepted stack holds a body that waits, and the unwinder
    // when teardown throws through that body.
    sim.spawn(
        "smallest",
        [&] {
          wait(Time::ns(1));
          woke = true;
          Sentinel s{&unwound};
          wait(never);
        },
        Simulator::kMinStackBytes);
    EXPECT_EQ(sim.run(), StopReason::kDeadlock);
  }
  EXPECT_TRUE(woke);
  EXPECT_TRUE(unwound);
}

}  // namespace
}  // namespace minisc
