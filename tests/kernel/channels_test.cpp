#include "kernel/channels.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "kernel/simulator.hpp"

namespace minisc {
namespace {

// ------------------------------------------------------------------ Fifo ---

TEST(Fifo, SingleElementRoundTrip) {
  Simulator sim;
  Fifo<int> ch("ch", 4);
  int got = 0;
  sim.spawn("producer", [&] { ch.write(42); });
  sim.spawn("consumer", [&] { got = ch.read(); });
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_EQ(got, 42);
}

TEST(Fifo, PreservesOrder) {
  Simulator sim;
  Fifo<int> ch("ch", 4);
  std::vector<int> got;
  sim.spawn("producer", [&] {
    for (int i = 0; i < 100; ++i) ch.write(i);
  });
  sim.spawn("consumer", [&] {
    for (int i = 0; i < 100; ++i) got.push_back(ch.read());
  });
  sim.run();
  std::vector<int> want(100);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(got, want);
}

TEST(Fifo, WriterBlocksWhenFull) {
  Simulator sim;
  Fifo<int> ch("ch", 2);
  Time writer_done;
  sim.spawn("producer", [&] {
    ch.write(1);
    ch.write(2);
    ch.write(3);  // blocks until the consumer reads at t=50
    writer_done = now();
  });
  sim.spawn("consumer", [&] {
    wait(Time::ns(50));
    (void)ch.read();
  });
  sim.run();
  EXPECT_EQ(writer_done, Time::ns(50));
}

TEST(Fifo, ReaderBlocksWhenEmpty) {
  Simulator sim;
  Fifo<int> ch("ch", 2);
  Time read_done;
  sim.spawn("consumer", [&] {
    (void)ch.read();
    read_done = now();
  });
  sim.spawn("producer", [&] {
    wait(Time::ns(30));
    ch.write(7);
  });
  sim.run();
  EXPECT_EQ(read_done, Time::ns(30));
}

TEST(Fifo, SameDeltaWriteInvisibleUntilNextDelta) {
  // sc_fifo semantics: data published in the update phase.
  Simulator sim;
  Fifo<int> ch("ch", 4);
  std::size_t avail_same_delta = 99;
  sim.spawn("producer", [&] {
    ch.write(1);
    avail_same_delta = ch.num_available();  // still the pre-update view
  });
  sim.run();
  EXPECT_EQ(avail_same_delta, 0u);
  EXPECT_EQ(ch.num_available(), 1u);  // visible after the update phase
}

TEST(Fifo, NbReadOnEmptyFails) {
  Simulator sim;
  Fifo<int> ch("ch", 2);
  bool ok = true;
  int v = 0;
  sim.spawn("p", [&] { ok = ch.nb_read(v); });
  sim.run();
  EXPECT_FALSE(ok);
}

TEST(Fifo, NbWriteOnFullFails) {
  Simulator sim;
  Fifo<int> ch("ch", 1);
  bool first = false, second = true;
  sim.spawn("p", [&] {
    first = ch.nb_write(1);
    second = ch.nb_write(2);  // capacity 1: must fail in the same delta
  });
  sim.run();
  EXPECT_TRUE(first);
  EXPECT_FALSE(second);
}

TEST(Fifo, NumFreeAccountsPendingWrites) {
  Simulator sim;
  Fifo<int> ch("ch", 3);
  std::size_t free_mid = 99;
  sim.spawn("p", [&] {
    ch.write(1);
    ch.write(2);
    free_mid = ch.num_free();
  });
  sim.run();
  EXPECT_EQ(free_mid, 1u);
}

TEST(Fifo, TwoProducersOneConsumerCompletes) {
  Simulator sim;
  Fifo<int> ch("ch", 2);
  int sum = 0;
  sim.spawn("p1", [&] {
    for (int i = 0; i < 50; ++i) ch.write(1);
  });
  sim.spawn("p2", [&] {
    for (int i = 0; i < 50; ++i) ch.write(2);
  });
  sim.spawn("consumer", [&] {
    for (int i = 0; i < 100; ++i) sum += ch.read();
  });
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_EQ(sum, 150);
}

TEST(Fifo, MoveOnlyPayload) {
  Simulator sim;
  Fifo<std::unique_ptr<int>> ch("ch", 2);
  int got = 0;
  sim.spawn("producer", [&] { ch.write(std::make_unique<int>(9)); });
  sim.spawn("consumer", [&] { got = *ch.read(); });
  sim.run();
  EXPECT_EQ(got, 9);
}

TEST(Fifo, DeadlockWhenNoProducer) {
  Simulator sim;
  Fifo<int> ch("ch", 2);
  sim.spawn("consumer", [&] { (void)ch.read(); });
  EXPECT_EQ(sim.run(), StopReason::kDeadlock);
}

// ------------------------------------------------------------ Rendezvous ---

TEST(Rendezvous, TransfersValue) {
  Simulator sim;
  Rendezvous<int> ch("rv");
  int got = 0;
  sim.spawn("writer", [&] { ch.write(5); });
  sim.spawn("reader", [&] { got = ch.read(); });
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_EQ(got, 5);
}

TEST(Rendezvous, WriterBlocksUntilReaderArrives) {
  Simulator sim;
  Rendezvous<int> ch("rv");
  Time writer_done;
  sim.spawn("writer", [&] {
    ch.write(1);
    writer_done = now();
  });
  sim.spawn("reader", [&] {
    wait(Time::ns(40));
    (void)ch.read();
  });
  sim.run();
  EXPECT_EQ(writer_done, Time::ns(40));
}

TEST(Rendezvous, ReaderBlocksUntilWriterArrives) {
  Simulator sim;
  Rendezvous<int> ch("rv");
  Time reader_done;
  sim.spawn("reader", [&] {
    (void)ch.read();
    reader_done = now();
  });
  sim.spawn("writer", [&] {
    wait(Time::ns(25));
    ch.write(1);
  });
  sim.run();
  EXPECT_EQ(reader_done, Time::ns(25));
}

TEST(Rendezvous, ManyMessagesInOrder) {
  Simulator sim;
  Rendezvous<int> ch("rv");
  std::vector<int> got;
  sim.spawn("writer", [&] {
    for (int i = 0; i < 64; ++i) ch.write(i);
  });
  sim.spawn("reader", [&] {
    for (int i = 0; i < 64; ++i) got.push_back(ch.read());
  });
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  ASSERT_EQ(got.size(), 64u);
  EXPECT_EQ(got.front(), 0);
  EXPECT_EQ(got.back(), 63);
}

TEST(Rendezvous, TwoWritersBothComplete) {
  Simulator sim;
  Rendezvous<int> ch("rv");
  int sum = 0;
  sim.spawn("w1", [&] { ch.write(10); });
  sim.spawn("w2", [&] { ch.write(20); });
  sim.spawn("reader", [&] {
    sum += ch.read();
    sum += ch.read();
  });
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_EQ(sum, 30);
}

TEST(Rendezvous, UnmatchedWriteDeadlocks) {
  Simulator sim;
  Rendezvous<int> ch("rv");
  sim.spawn("writer", [&] { ch.write(1); });
  EXPECT_EQ(sim.run(), StopReason::kDeadlock);
}

// ---------------------------------------------------------------- Signal ---

TEST(Signal, InitialValueReadable) {
  Simulator sim;
  Signal<int> s("s", 7);
  int got = 0;
  sim.spawn("p", [&] { got = s.read(); });
  sim.run();
  EXPECT_EQ(got, 7);
}

TEST(Signal, WriteVisibleNextDelta) {
  Simulator sim;
  Signal<int> s("s", 0);
  int same_delta = -1, next_delta = -1;
  sim.spawn("p", [&] {
    s.write(5);
    same_delta = s.read();  // update not yet applied
    wait(Time::zero());     // cross a delta boundary
    next_delta = s.read();
  });
  sim.run();
  EXPECT_EQ(same_delta, 0);
  EXPECT_EQ(next_delta, 5);
}

TEST(Signal, AwaitChangeWakesOnNewValue) {
  Simulator sim;
  Signal<int> s("s", 0);
  int seen = -1;
  Time at;
  sim.spawn("watcher", [&] {
    seen = s.await_change();
    at = now();
  });
  sim.spawn("driver", [&] {
    wait(Time::ns(15));
    s.write(3);
  });
  sim.run();
  EXPECT_EQ(seen, 3);
  EXPECT_EQ(at, Time::ns(15));
}

TEST(Signal, SameValueWriteDoesNotFireChange) {
  Simulator sim;
  Signal<int> s("s", 4);
  bool woke = false;
  sim.spawn("watcher", [&] {
    (void)s.await_change();
    woke = true;
  });
  sim.spawn("driver", [&] { s.write(4); });
  EXPECT_EQ(sim.run(), StopReason::kDeadlock);
  EXPECT_FALSE(woke);
}

TEST(Signal, LastWriteInDeltaWins) {
  Simulator sim;
  Signal<int> s("s", 0);
  sim.spawn("driver", [&] {
    s.write(1);
    s.write(2);
    s.write(3);
  });
  sim.run();
  EXPECT_EQ(s.read(), 3);
}

// -------------------------------------------------------- hook integration -

class NodeCountingHook : public KernelHook {
 public:
  int reads = 0, writes = 0, waits = 0, done = 0;
  void process_started(Process&) override {}
  void process_finished(Process&) override {}
  void node_reached(Process&, NodeKind kind, const char*) override {
    switch (kind) {
      case NodeKind::kChannelRead:
        ++reads;
        break;
      case NodeKind::kChannelWrite:
        ++writes;
        break;
      case NodeKind::kTimedWait:
        ++waits;
        break;
    }
  }
  void node_done(Process&, NodeKind, const char*) override { ++done; }
};

TEST(ChannelHooks, FifoAccessesReportNodes) {
  Simulator sim;
  NodeCountingHook hook;
  sim.set_hook(&hook);
  Fifo<int> ch("ch", 4);
  sim.spawn("producer", [&] {
    ch.write(1);
    ch.write(2);
    wait(Time::ns(1));
  });
  sim.spawn("consumer", [&] {
    (void)ch.read();
    (void)ch.read();
  });
  sim.run();
  EXPECT_EQ(hook.writes, 2);
  EXPECT_EQ(hook.reads, 2);
  EXPECT_EQ(hook.waits, 1);
}

// A reader still blocked when run() returns is unwound by ~Simulator. Its
// read never completed, so it reports no node_done: a hook declared after
// the Simulator is already destroyed by then.
TEST(ChannelHooks, ReadUnwoundAtTeardownReportsNoNodeDone) {
  NodeCountingHook hook;  // outlives the Simulator
  {
    Simulator sim;
    sim.set_hook(&hook);
    Fifo<int> ch("ch", 4);
    sim.spawn("reader", [&] { (void)ch.read(); });
    EXPECT_EQ(sim.run(), StopReason::kDeadlock);
    EXPECT_EQ(hook.reads, 1);
  }
  EXPECT_EQ(hook.done, 0);
}

TEST(ChannelHooks, NoHookInstalledIsFine) {
  Simulator sim;
  Fifo<int> ch("ch", 4);
  int got = 0;
  sim.spawn("producer", [&] { ch.write(11); });
  sim.spawn("consumer", [&] { got = ch.read(); });
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  EXPECT_EQ(got, 11);
}

// -------------------------------------------- parameterised capacity sweep -

class FifoCapacity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FifoCapacity, AllDataDeliveredInOrderAtAnyCapacity) {
  Simulator sim;
  Fifo<int> ch("ch", GetParam());
  constexpr int kCount = 200;
  std::vector<int> got;
  sim.spawn("producer", [&] {
    for (int i = 0; i < kCount; ++i) ch.write(i);
  });
  sim.spawn("consumer", [&] {
    for (int i = 0; i < kCount; ++i) got.push_back(ch.read());
  });
  EXPECT_EQ(sim.run(), StopReason::kFinished);
  std::vector<int> want(kCount);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(Capacities, FifoCapacity,
                         ::testing::Values(1, 2, 3, 7, 16, 64, 1024));

}  // namespace
}  // namespace minisc
