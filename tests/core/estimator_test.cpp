#include "core/estimator.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <vector>

#include "core/scperf.hpp"

namespace scperf {
namespace {

/// 100 MHz => 10 ns per cycle: keeps expected times easy to read.
constexpr double kMhz = 100.0;
minisc::Time cyc(double c) { return minisc::Time::from_ns(c * 10.0); }

/// Burns exactly `n` cycles under CostTable::uniform-like tables where
/// kAdd = 1 and everything else relevant is 0.
CostTable add_only_table() {
  CostTable t;  // all zero
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

TEST(Estimator, SingleSwProcessAdvancesTimeByEstimate) {
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table());
  est.map("p", cpu);
  sim.spawn("p", [] { burn_adds(50); });
  EXPECT_EQ(sim.run(), minisc::StopReason::kFinished);
  EXPECT_EQ(sim.now(), cyc(50));
  EXPECT_EQ(est.process_time("p"), cyc(50));
  EXPECT_DOUBLE_EQ(est.process_cycles("p"), 50.0);
}

TEST(Estimator, UnmappedProcessRunsUntimed) {
  minisc::Simulator sim;
  Estimator est(sim);
  sim.spawn("tb", [] { burn_adds(1000); });
  sim.run();
  EXPECT_EQ(sim.now(), minisc::Time::zero());
  EXPECT_EQ(est.process_time("tb"), minisc::Time::zero());
}

TEST(Estimator, EnvMappedProcessRunsUntimed) {
  minisc::Simulator sim;
  Estimator est(sim);
  auto& env = est.add_env_resource("testbench");
  est.map("tb", env);
  sim.spawn("tb", [] { burn_adds(1000); });
  sim.run();
  EXPECT_EQ(sim.now(), minisc::Time::zero());
}

TEST(Estimator, WaitSplitsSegments) {
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table());
  est.map("p", cpu);
  sim.spawn("p", [] {
    burn_adds(10);
    minisc::wait(minisc::Time::ns(1000));  // 100 cycles of pure waiting
    burn_adds(20);
  });
  sim.run();
  // Segment 1 back-annotates 10 cycles, the explicit wait adds 1000 ns, the
  // exit segment 20 cycles.
  EXPECT_EQ(sim.now(), cyc(10) + minisc::Time::ns(1000) + cyc(20));

  const auto segs = est.segment_stats("p");
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].id(), "entry->wait");
  EXPECT_EQ(segs[1].id(), "wait->exit");
  EXPECT_DOUBLE_EQ(segs[0].mean(), 10.0);
  EXPECT_DOUBLE_EQ(segs[1].mean(), 20.0);
}

TEST(Estimator, LoopSegmentsAccumulateStats) {
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table());
  est.map("p", cpu);
  sim.spawn("p", [] {
    for (int i = 0; i < 5; ++i) {
      burn_adds(7);
      minisc::wait(minisc::Time::ns(10));
    }
  });
  sim.run();
  const auto segs = est.segment_stats("p");
  // entry->wait (1x), wait->wait (4x), wait->exit (1x, empty)
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0].id(), "entry->wait");
  EXPECT_EQ(segs[0].count, 1u);
  EXPECT_EQ(segs[1].id(), "wait->wait");
  EXPECT_EQ(segs[1].count, 4u);
  EXPECT_DOUBLE_EQ(segs[1].mean(), 7.0);
  EXPECT_EQ(segs[2].id(), "wait->exit");
  EXPECT_DOUBLE_EQ(segs[2].mean(), 0.0);
}

// ---- Figure 5 semantics: SW serialisation vs HW parallelism ----------------

TEST(Estimator, SameCpuProcessesSerialise) {
  // P2 and P3 execute in the same delta cycle but are mapped to the same
  // sequential resource: their segments must be scheduled one after the
  // other (paper Fig. 5, signals s2/s3).
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table());
  est.map("p2", cpu);
  est.map("p3", cpu);
  minisc::Time end2, end3;
  sim.spawn("p2", [&] {
    burn_adds(40);
    minisc::wait(minisc::Time::zero());
    end2 = minisc::now();
  });
  sim.spawn("p3", [&] {
    burn_adds(40);
    minisc::wait(minisc::Time::zero());
    end3 = minisc::now();
  });
  sim.run();
  EXPECT_EQ(end2, cyc(40));
  EXPECT_EQ(end3, cyc(80));  // had to wait for the processor
  EXPECT_EQ(cpu.busy_time(), cyc(80));
}

TEST(Estimator, DifferentResourcesRunInParallel) {
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu0 = est.add_sw_resource("cpu0", kMhz, add_only_table());
  auto& cpu1 = est.add_sw_resource("cpu1", kMhz, add_only_table());
  est.map("p2", cpu0);
  est.map("p3", cpu1);
  minisc::Time end2, end3;
  sim.spawn("p2", [&] {
    burn_adds(40);
    minisc::wait(minisc::Time::zero());
    end2 = minisc::now();
  });
  sim.spawn("p3", [&] {
    burn_adds(40);
    minisc::wait(minisc::Time::zero());
    end3 = minisc::now();
  });
  sim.run();
  EXPECT_EQ(end2, cyc(40));
  EXPECT_EQ(end3, cyc(40));  // truly parallel
}

TEST(Estimator, HwProcessesOverlap) {
  minisc::Simulator sim;
  Estimator est(sim);
  CostTable t = add_only_table();
  auto& hw = est.add_hw_resource("asic", kMhz, t, {.k = 1.0});
  est.map("p1", hw);
  est.map("p2", hw);
  minisc::Time e1, e2;
  sim.spawn("p1", [&] {
    burn_adds(30);
    minisc::wait(minisc::Time::zero());
    e1 = minisc::now();
  });
  sim.spawn("p2", [&] {
    burn_adds(30);
    minisc::wait(minisc::Time::zero());
    e2 = minisc::now();
  });
  sim.run();
  // Parallel resource: no arbitration, both finish together.
  EXPECT_EQ(e1, cyc(30));
  EXPECT_EQ(e2, cyc(30));
}

TEST(Estimator, RtosOverheadChargedPerNode) {
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu =
      est.add_sw_resource("cpu", kMhz, add_only_table(),
                          {.rtos_cycles_per_switch = 15.0});
  est.map("p", cpu);
  sim.spawn("p", [] {
    burn_adds(10);
    minisc::wait(minisc::Time::zero());
    burn_adds(10);
  });
  sim.run();
  // Two nodes (wait + exit): 2 * 15 RTOS cycles on top of 20 compute cycles.
  EXPECT_EQ(sim.now(), cyc(10 + 15 + 10 + 15));
  EXPECT_EQ(cpu.rtos_time(), cyc(30));
  EXPECT_EQ(cpu.busy_time(), cyc(20));
}

TEST(Estimator, RtosOverheadAlsoSerialises) {
  // The RTOS occupies the processor: a second process must wait for it.
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table(),
                                  {.rtos_cycles_per_switch = 5.0});
  est.map("a", cpu);
  est.map("b", cpu);
  minisc::Time end_b;
  sim.spawn("a", [&] { burn_adds(10); });
  sim.spawn("b", [&] {
    burn_adds(10);
    minisc::wait(minisc::Time::zero());
    end_b = minisc::now();
  });
  sim.run();
  // a occupies [0, 15) (10 + rtos 5); b then occupies [15, 30).
  EXPECT_EQ(end_b, cyc(30));
}

// ---- HW best/worst case weighting (§3) --------------------------------------

void balanced_tree_segment() {
  // 4 independent adds then 2 then 1: sum = 7 adds, critical path = 3.
  gint a(detail::RawTag{}, 1), b(detail::RawTag{}, 2), c(detail::RawTag{}, 3),
      d(detail::RawTag{}, 4), e(detail::RawTag{}, 5), f(detail::RawTag{}, 6),
      g(detail::RawTag{}, 7), h(detail::RawTag{}, 8);
  gint r = ((a + b) + (c + d)) + ((e + f) + (g + h));
  (void)r;
}

class HwWeighting : public ::testing::TestWithParam<double> {};

TEST_P(HwWeighting, WeightedMeanBetweenExtremes) {
  const double k = GetParam();
  minisc::Simulator sim;
  Estimator est(sim);
  auto& hw = est.add_hw_resource("asic", kMhz, add_only_table(), {.k = k});
  est.map("p", hw);
  sim.spawn("p", [] { balanced_tree_segment(); });
  sim.run();
  const double bc = 3.0, wc = 7.0;
  const double expected = bc + (wc - bc) * k;
  EXPECT_EQ(sim.now(), cyc(expected));
}

INSTANTIATE_TEST_SUITE_P(KSweep, HwWeighting,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));

TEST(Estimator, HwSegmentStatsRecordBothExtremes) {
  minisc::Simulator sim;
  Estimator est(sim);
  auto& hw = est.add_hw_resource("asic", kMhz, add_only_table(), {.k = 0.5});
  est.map("p", hw);
  sim.spawn("p", [] { balanced_tree_segment(); });
  sim.run();
  const auto segs = est.segment_stats("p");
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_DOUBLE_EQ(segs[0].bc_cycles_sum, 3.0);
  EXPECT_DOUBLE_EQ(segs[0].wc_cycles_sum, 7.0);
  EXPECT_DOUBLE_EQ(segs[0].mean(), 5.0);
}

TEST(Estimator, InvalidKRejected) {
  minisc::Simulator sim;
  Estimator est(sim);
  EXPECT_THROW(
      est.add_hw_resource("a", kMhz, add_only_table(), {.k = 1.5}),
      std::invalid_argument);
  EXPECT_THROW(
      est.add_hw_resource("b", kMhz, add_only_table(), {.k = -0.1}),
      std::invalid_argument);
}

TEST(Estimator, DfgRecordedForHwSegments) {
  minisc::Simulator sim;
  Estimator est(sim);
  auto& hw = est.add_hw_resource("asic", kMhz, add_only_table(),
                                 {.k = 0.0, .record_dfg = true});
  est.map("p", hw);
  sim.spawn("p", [] { balanced_tree_segment(); });
  sim.run();
  const Dfg& dfg = est.segment_dfg("p", "entry->exit");
  EXPECT_EQ(dfg.size(), 7u);  // seven adds
}

TEST(Estimator, SegmentDfgIsTheLastOneRecorded) {
  minisc::Simulator sim;
  Estimator est(sim);
  auto& hw = est.add_hw_resource("asic", kMhz, add_only_table(),
                                 {.k = 0.0, .record_dfg = true});
  est.map("p", hw);
  sim.spawn("p", [] {
    for (int adds : {3, 5, 2}) {
      burn_adds(adds);
      minisc::wait(minisc::Time::ns(10));
    }
  });
  sim.run();
  EXPECT_EQ(est.segment_dfg("p", "entry->wait").size(), 3u);
  // wait->wait ran with 5 adds, then with 2: the second graph replaces the
  // first, and the buffer it was recorded into does not keep the first's.
  EXPECT_EQ(est.segment_dfg("p", "wait->wait").size(), 2u);
  EXPECT_TRUE(est.segment_dfg("p", "wait->exit").empty());
}

TEST(Estimator, HwResourceKeepingNoGraphEstimatesTheSameBits) {
  // Every HW op appends its DFG node; record_dfg only decides whether the
  // close keeps the graph. So it moves no estimate, by bit pattern.
  struct Run {
    std::vector<SegmentStats> stats;
    double cycles = 0.0;
    minisc::Time end;
    bool kept_a_graph = false;
  };
  const auto run = [](bool record_dfg) {
    minisc::Simulator sim;
    Estimator est(sim);
    auto& hw = est.add_hw_resource("asic", kMhz, asic_hw_cost_table(),
                                   {.k = 0.25, .record_dfg = record_dfg});
    est.map("p", hw);
    sim.spawn("p", [] {
      for (int n : {3, 17, 5}) {
        gint x(detail::RawTag{}, 3), y(detail::RawTag{}, 1);
        gint z(detail::RawTag{}, 0);
        for (int i = 0; i < n; ++i) {
          y = y * x + i;
          z = z - i;
        }
        minisc::wait(minisc::Time::ns(10));
      }
    });
    sim.run();
    Run r{est.segment_stats("p"), est.process_cycles("p"), sim.now()};
    for (const SegmentStats& st : r.stats) {
      r.kept_a_graph |= !est.segment_dfg("p", st.id()).empty();
    }
    return r;
  };
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const Run kept = run(true);
  const Run dropped = run(false);
  EXPECT_TRUE(kept.kept_a_graph);
  EXPECT_FALSE(dropped.kept_a_graph);
  ASSERT_EQ(kept.stats.size(), dropped.stats.size());
  for (std::size_t i = 0; i < kept.stats.size(); ++i) {
    SCOPED_TRACE(kept.stats[i].id());
    EXPECT_EQ(bits(kept.stats[i].bc_cycles_sum),
              bits(dropped.stats[i].bc_cycles_sum));
    EXPECT_EQ(bits(kept.stats[i].wc_cycles_sum),
              bits(dropped.stats[i].wc_cycles_sum));
    EXPECT_EQ(bits(kept.stats[i].cycles_sum),
              bits(dropped.stats[i].cycles_sum));
  }
  EXPECT_EQ(bits(kept.cycles), bits(dropped.cycles));
  EXPECT_EQ(kept.end, dropped.end);
}

// ---- channels drive segmentation --------------------------------------------

TEST(Estimator, PipelineOverFifoProducesExpectedMakespan) {
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu0 = est.add_sw_resource("cpu0", kMhz, add_only_table());
  auto& cpu1 = est.add_sw_resource("cpu1", kMhz, add_only_table());
  est.map("producer", cpu0);
  est.map("consumer", cpu1);
  minisc::Fifo<int> ch("ch", 4);
  constexpr int kItems = 8;
  sim.spawn("producer", [&] {
    for (int i = 0; i < kItems; ++i) {
      burn_adds(10);  // compute an item: 10 cycles
      ch.write(i);
    }
  });
  sim.spawn("consumer", [&] {
    for (int i = 0; i < kItems; ++i) {
      const int v = ch.read();
      (void)v;
      burn_adds(10);  // consume: 10 cycles
    }
  });
  EXPECT_EQ(sim.run(), minisc::StopReason::kFinished);
  // Steady-state pipeline: first item ready at 10 cycles, afterwards the
  // consumer is never starved, so the makespan is 10 (fill) + 8*10 (drain).
  EXPECT_EQ(sim.now(), cyc(10 * (kItems + 1)));
  EXPECT_EQ(cpu0.busy_time(), cyc(10 * kItems));
  EXPECT_EQ(cpu1.busy_time(), cyc(10 * kItems));
}

TEST(Estimator, SegmentsNamedAfterChannels) {
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table());
  est.map("producer", cpu);
  minisc::Fifo<int> ch("ch1", 4);
  sim.spawn("producer", [&] {
    burn_adds(5);
    ch.write(1);
    burn_adds(5);
    ch.write(2);
  });
  sim.spawn("consumer", [&] {
    (void)ch.read();
    (void)ch.read();
  });
  sim.run();
  const auto segs = est.segment_stats("producer");
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0].id(), "entry->ch1:w");
  EXPECT_EQ(segs[1].id(), "ch1:w->ch1:w");
  EXPECT_EQ(segs[2].id(), "ch1:w->exit");
}

TEST(Estimator, RendezvousAccessesAreNodes) {
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table());
  est.map("writer", cpu);
  minisc::Rendezvous<int> rv("rv1");
  sim.spawn("writer", [&] {
    burn_adds(12);
    rv.write(1);
    burn_adds(8);
  });
  sim.spawn("reader", [&] { (void)rv.read(); });
  sim.run();
  const auto segs = est.segment_stats("writer");
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].id(), "entry->rv1:w");
  EXPECT_DOUBLE_EQ(segs[0].mean(), 12.0);
  EXPECT_EQ(segs[1].id(), "rv1:w->exit");
  EXPECT_DOUBLE_EQ(segs[1].mean(), 8.0);
}

TEST(Estimator, SignalAccessesAreNodes) {
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table());
  est.map("driver", cpu);
  minisc::Signal<int> s("sig");
  sim.spawn("driver", [&] {
    burn_adds(6);
    s.write(3);
    burn_adds(4);
  });
  sim.run();
  const auto segs = est.segment_stats("driver");
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].id(), "entry->sig:w");
  EXPECT_DOUBLE_EQ(segs[0].mean(), 6.0);
}

TEST(Estimator, ChannelsSharingALabelAreOneNode) {
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table());
  est.map("producer", cpu);
  minisc::Fifo<int> a("link", 4);
  minisc::Fifo<int> b("link", 4);
  sim.spawn("producer", [&] {
    burn_adds(3);
    a.write(1);
    burn_adds(5);
    b.write(2);
    burn_adds(7);
    a.write(3);
  });
  sim.run();
  const auto segs = est.segment_stats("producer");
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0].id(), "entry->link:w");
  EXPECT_EQ(segs[1].id(), "link:w->link:w");
  EXPECT_EQ(segs[1].count, 2u);
  EXPECT_DOUBLE_EQ(segs[1].cycles_sum, 12.0);
  EXPECT_EQ(segs[2].id(), "link:w->exit");
}

TEST(Estimator, ReadAndWriteOfOneChannelAreTwoNodes) {
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table());
  est.map("p", cpu);
  minisc::Fifo<int> loop("loop", 4);
  sim.spawn("p", [&] {
    for (int adds : {2, 4, 6, 8}) {
      burn_adds(adds);
      if (adds % 4 == 2) {
        loop.write(adds);
      } else {
        (void)loop.read();
      }
    }
  });
  sim.run();
  const auto segs = est.segment_stats("p");
  ASSERT_EQ(segs.size(), 4u);
  EXPECT_EQ(segs[0].id(), "entry->loop:w");
  EXPECT_EQ(segs[1].id(), "loop:w->loop:r");
  EXPECT_EQ(segs[1].count, 2u);
  EXPECT_DOUBLE_EQ(segs[1].cycles_sum, 12.0);
  EXPECT_EQ(segs[2].id(), "loop:r->loop:w");
  EXPECT_DOUBLE_EQ(segs[2].cycles_sum, 6.0);
  EXPECT_EQ(segs[3].id(), "loop:r->exit");
}

TEST(Estimator, RestartedProcessReentersAtEntry) {
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table());
  est.map("p", cpu);
  sim.spawn("p", [] {
    burn_adds(3);
    minisc::wait(minisc::Time::ns(100));
    burn_adds(4);
    minisc::wait(minisc::Time::ns(100));
  });
  // p sits in its first wait (30 ns of segment, then 100 ns) at 50 ns.
  sim.spawn("killer", [&] {
    minisc::wait(minisc::Time::ns(50));
    sim.kill_and_restart(*sim.find_process("p"), minisc::Time::ns(10));
  });
  EXPECT_EQ(sim.run(), minisc::StopReason::kFinished);
  const auto segs = est.segment_stats("p");
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0].id(), "entry->wait");
  EXPECT_EQ(segs[0].count, 2u);  // once per start
  EXPECT_EQ(segs[1].id(), "wait->wait");
  EXPECT_EQ(segs[1].count, 1u);
  EXPECT_EQ(segs[2].id(), "wait->exit");
}

// ---- report ------------------------------------------------------------------

TEST(Estimator, ReportContainsAllSections) {
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table(),
                                  {.rtos_cycles_per_switch = 2.0});
  est.map("p", cpu);
  sim.spawn("p", [] {
    burn_adds(10);
    minisc::wait(minisc::Time::ns(50));
    burn_adds(5);
  });
  sim.run();
  const Report rep = est.report();
  ASSERT_EQ(rep.processes.size(), 1u);
  EXPECT_EQ(rep.processes[0].process, "p");
  EXPECT_EQ(rep.processes[0].resource, "cpu");
  EXPECT_DOUBLE_EQ(rep.processes[0].total_cycles, 15.0);
  ASSERT_EQ(rep.resources.size(), 1u);
  EXPECT_EQ(rep.resources[0].kind, "SW");
  EXPECT_GT(rep.resources[0].utilization, 0.0);
  EXPECT_LE(rep.resources[0].utilization, 1.0);
  EXPECT_EQ(rep.segments.size(), 2u);

  std::ostringstream txt;
  rep.print(txt);
  EXPECT_NE(txt.str().find("cpu"), std::string::npos);
  EXPECT_NE(txt.str().find("entry->wait"), std::string::npos);

  std::ostringstream csv;
  rep.write_csv(csv);
  EXPECT_NE(csv.str().find("p,entry->wait,1,10"), std::string::npos);
}

TEST(Estimator, ProcessAndResourceCsvExports) {
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table(),
                                  {.rtos_cycles_per_switch = 5.0});
  est.map("p", cpu);
  sim.spawn("p", [] {
    burn_adds(10);
    minisc::wait(minisc::Time::ns(1));
  });
  sim.run();
  const Report rep = est.report();

  std::ostringstream pcsv;
  rep.write_process_csv(pcsv);
  EXPECT_NE(pcsv.str().find(
                "process,resource,total_cycles,total_time_ns,segments,ops"),
            std::string::npos);
  EXPECT_NE(pcsv.str().find("p,cpu,10,100,"), std::string::npos);

  std::ostringstream rcsv;
  rep.write_resource_csv(rcsv);
  EXPECT_NE(rcsv.str().find("resource,kind,busy_ns,rtos_ns,utilization"),
            std::string::npos);
  EXPECT_NE(rcsv.str().find("cpu,SW,100,100,"), std::string::npos);
}

TEST(Estimator, RefusesSecondHook) {
  minisc::Simulator sim;
  Estimator est(sim);
  EXPECT_THROW(Estimator second(sim), std::logic_error);
}

TEST(Estimator, InstantaneousSegmentValuesRecordedWhenRequested) {
  // §4: "All instantaneous segment values of execution time parameters can
  // be provided if required."
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table());
  est.map("p", cpu);
  est.record_instantaneous("p");
  sim.spawn("p", [] {
    for (int i = 1; i <= 3; ++i) {
      burn_adds(10 * i);  // 10, 20, 30 cycles
      minisc::wait(minisc::Time::ns(1));
    }
  });
  sim.run();
  const auto& ex = est.instantaneous("p");
  ASSERT_EQ(ex.size(), 4u);  // three loop segments + empty exit segment
  EXPECT_EQ(ex[0].segment, "entry->wait");
  EXPECT_DOUBLE_EQ(ex[0].cycles, 10.0);
  EXPECT_EQ(ex[1].segment, "wait->wait");
  EXPECT_DOUBLE_EQ(ex[1].cycles, 20.0);
  EXPECT_DOUBLE_EQ(ex[2].cycles, 30.0);
  EXPECT_EQ(ex[3].segment, "wait->exit");
  // Timestamps are the segment END times, strictly increasing here.
  EXPECT_LT(ex[0].at, ex[1].at);
  EXPECT_LT(ex[1].at, ex[2].at);
}

TEST(Estimator, InstantaneousOffByDefault) {
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table());
  est.map("p", cpu);
  sim.spawn("p", [] { burn_adds(5); });
  sim.run();
  EXPECT_TRUE(est.instantaneous("p").empty());
  EXPECT_TRUE(est.instantaneous("unknown").empty());
}

TEST(Estimator, SegmentVarianceAndConfidenceInterval) {
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table());
  est.map("p", cpu);
  sim.spawn("p", [] {
    for (int i = 0; i < 4; ++i) {
      burn_adds(10 + 2 * i);  // 10, 12, 14, 16 cycles
      minisc::wait(minisc::Time::ns(1));
    }
  });
  sim.run();
  const auto segs = est.segment_stats("p");
  const SegmentStats* loop = nullptr;
  for (const auto& s : segs) {
    if (s.id() == "wait->wait") loop = &s;
  }
  ASSERT_NE(loop, nullptr);
  EXPECT_EQ(loop->count, 3u);  // 12, 14, 16 (first iteration is entry->wait)
  EXPECT_DOUBLE_EQ(loop->mean(), 14.0);
  EXPECT_DOUBLE_EQ(loop->cycles_min, 12.0);
  EXPECT_DOUBLE_EQ(loop->cycles_max, 16.0);
  EXPECT_NEAR(loop->variance(), 4.0, 1e-9);
  EXPECT_GT(loop->ci95_halfwidth(), 0.0);
}

TEST(Estimator, ConstantSegmentHasZeroVarianceAndCi95) {
  // Every wait->wait execution is one op at 4972514.26 cycles. A raw sum of
  // squares cancels catastrophically on such a segment (variance ~0.008 at
  // nine executions); its spread must be exactly zero.
  minisc::Simulator sim;
  Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, CostTable::uniform(4972514.26));
  est.map("p", cpu);
  sim.spawn("p", [] {
    for (int i = 0; i < 10; ++i) {
      burn_adds(1);
      minisc::wait(minisc::Time::ns(1));
    }
  });
  sim.run();
  const SegmentStats* loop = nullptr;
  const auto segs = est.segment_stats("p");
  for (const auto& s : segs) {
    if (s.id() == "wait->wait") loop = &s;
  }
  ASSERT_NE(loop, nullptr);
  EXPECT_EQ(loop->count, 9u);
  EXPECT_EQ(loop->cycles_min, loop->cycles_max);
  EXPECT_EQ(loop->variance(), 0.0);
  EXPECT_EQ(loop->ci95_halfwidth(), 0.0);
}

}  // namespace
}  // namespace scperf
