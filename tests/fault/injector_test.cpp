#include "fault/injector.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/capture.hpp"
#include "core/scperf.hpp"
#include "fault/channels.hpp"

namespace scfault {
namespace {

using minisc::Time;

constexpr double kMhz = 100.0;  // 10 ns per cycle

scperf::CostTable add_only_table() {
  scperf::CostTable t;
  t.set(scperf::Op::kAdd, 1.0);
  return t;
}

void burn_adds(int n) {
  scperf::gint a(scperf::detail::RawTag{}, 0);
  for (int i = 0; i < n; ++i) {
    scperf::gint r = a + 1;
    (void)r;
  }
}

TEST(Injector, PulsesChargeDrawnCyclesIntoMappedProcess) {
  ScenarioConfig cfg;
  cfg.horizon = Time::us(1);
  cfg.pulses.push_back({"cpu", 5, 10.0, 20.0});
  FaultScenario sc(cfg, 42);
  double expected = 0.0;
  for (const Pulse& p : sc.pulses()) expected += p.extra_cycles;

  minisc::Simulator sim;
  scperf::Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table());
  est.map("p", cpu);
  FaultInjector inj(sim, est, sc);
  // 200 x 10 ns of node activity comfortably outlives the 1 us horizon, so
  // every drawn pulse finds a segment boundary to land on.
  sim.spawn("p", [&] {
    for (int i = 0; i < 200; ++i) minisc::wait(Time::ns(10));
  });
  EXPECT_EQ(sim.run(), minisc::StopReason::kFinished);
  EXPECT_EQ(inj.pulses_injected(), 5u);
  EXPECT_NEAR(inj.extra_cycles_injected(), expected, 1e-9);
  EXPECT_NEAR(est.process_cycles("p"), expected, 1e-9);
  // The injected cycles occupy the processor like real work.
  EXPECT_GE(cpu.busy_time(), minisc::Time::from_ns(expected * 10.0) -
                                 Time::ns(1));
}

TEST(Injector, NoScenarioMeansNoEffect) {
  ScenarioConfig cfg;
  cfg.horizon = Time::us(1);
  FaultScenario sc(cfg, 42);

  minisc::Simulator sim;
  scperf::Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table());
  est.map("p", cpu);
  FaultInjector inj(sim, est, sc);
  sim.spawn("p", [&] {
    for (int i = 0; i < 10; ++i) {
      burn_adds(10);
      minisc::wait(Time::ns(1));
    }
  });
  EXPECT_EQ(sim.run(), minisc::StopReason::kFinished);
  EXPECT_EQ(inj.pulses_injected(), 0u);
  EXPECT_DOUBLE_EQ(est.process_cycles("p"), 100.0);
  EXPECT_EQ(sim.now(), Time::ns(10 * (100 + 1)));
}

TEST(Injector, OutageStallsSubsequentOccupations) {
  auto run_once = [](bool with_outage) {
    ScenarioConfig cfg;
    cfg.horizon = Time::us(1);
    if (with_outage) {
      cfg.outages.push_back({"cpu", 1, Time::us(50), Time::us(50)});
    }
    FaultScenario sc(cfg, 7);
    minisc::Simulator sim;
    scperf::Estimator est(sim);
    auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table());
    est.map("p", cpu);
    FaultInjector inj(sim, est, sc);
    sim.spawn("p", [&] {
      for (int i = 0; i < 100; ++i) {
        burn_adds(10);
        minisc::wait(Time::ns(1));
      }
    });
    EXPECT_EQ(sim.run(), minisc::StopReason::kFinished);
    if (with_outage) {
      EXPECT_EQ(inj.outages_applied(), 1u);
    }
    return sim.now();
  };
  const Time clean = run_once(false);
  const Time faulted = run_once(true);
  // The 50 us outage starts inside [0, 1 us): the workload (~10 us clean)
  // stalls at its next claim and finishes after the window.
  EXPECT_GT(faulted, clean);
  EXPECT_GE(faulted, Time::us(50));
}

TEST(Injector, RefusesSwOutagesOnAPreemptiveResource) {
  // A SW outage works by pinning busy_until, which preemptive scheduling
  // never reads, so it would be charged without moving simulated time.
  const scperf::SwResource::Options priority{
      .policy = scperf::SchedulingPolicy::kPriority};
  const scperf::SwResource::Options preemptive{
      .policy = scperf::SchedulingPolicy::kPreemptivePriority};
  ScenarioConfig outage;
  outage.horizon = Time::us(2);
  outage.outages.push_back({"cpu", 1, Time::us(10), Time::us(10)});
  ScenarioConfig storm;
  storm.horizon = Time::us(2);
  storm.storms.push_back(
      {"cpu", 1, 0.5, 4, Time::us(1), Time::us(1), Time::us(2)});
  for (const ScenarioConfig& cfg : {outage, storm}) {
    FaultScenario sc(cfg, 7);
    {
      minisc::Simulator sim;
      scperf::Estimator est(sim);
      est.add_sw_resource("cpu", kMhz, add_only_table(), priority);
      FaultInjector inj(sim, est, sc);  // non-preemptive: accepted
    }
    minisc::Simulator sim;
    scperf::Estimator est(sim);
    est.add_sw_resource("cpu", kMhz, add_only_table(), preemptive);
    minisc::KernelHook* const hook = sim.hook();
    try {
      FaultInjector inj(sim, est, sc);
      ADD_FAILURE() << "an outage on a preemptive resource was accepted";
    } catch (const minisc::SimError& e) {
      EXPECT_EQ(e.kind(), minisc::SimError::Kind::kBadConfig);
      EXPECT_NE(std::string(e.what()).find("'cpu'"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(sim.hook(), hook);  // nothing left installed
  }
}

TEST(Injector, CrashDriverKillsAndRestartsVictim) {
  ScenarioConfig cfg;
  cfg.horizon = Time::us(100);
  cfg.crashes.push_back({"task", Time::us(1), Time::ns(100)});
  FaultScenario sc(cfg, 3);

  minisc::Simulator sim;
  scperf::Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table());
  est.map("task", cpu);
  FaultInjector inj(sim, est, sc);
  int entries = 0;
  minisc::Process& task = sim.spawn("task", [&] {
    ++entries;
    for (int i = 0; i < 1000; ++i) minisc::wait(Time::ns(10));
  });
  EXPECT_EQ(sim.run(), minisc::StopReason::kFinished);
  EXPECT_EQ(inj.crashes_applied(), 1u);
  EXPECT_EQ(entries, 2);
  EXPECT_EQ(task.restart_count(), 1u);
  // Crash at 1 us + restart delay 100 ns + full 10 us re-run.
  EXPECT_EQ(sim.now(), Time::us(1) + Time::ns(100) + Time::us(10));
}

// ---- HW / ENV fault injection -------------------------------------------

TEST(Injector, HwOutageStretchesOverlappingSegmentByTheWindow) {
  // The outage start is drawn in [0, 1 us) with a fixed 3 us length, so the
  // whole window sits inside the 10 us HW segment that begins at t = 0: the
  // back-annotated finish must move out by exactly the window, independent
  // of where in [0, 1 us) the start landed.
  auto run_once = [](bool with_outage) {
    ScenarioConfig cfg;
    cfg.horizon = Time::us(1);
    if (with_outage) {
      cfg.outages.push_back({"acc", 1, Time::us(3), Time::us(3)});
    }
    FaultScenario sc(cfg, 13);
    minisc::Simulator sim;
    scperf::Estimator est(sim);
    auto& acc = est.add_hw_resource("acc", kMhz, add_only_table(), {.k = 1.0});
    est.map("hw", acc);
    FaultInjector inj(sim, est, sc);
    sim.spawn("hw", [&] {
      burn_adds(1000);  // 1000 cycles = 10 us at k = 1
      minisc::wait(Time::ns(1));
    });
    EXPECT_EQ(sim.run(), minisc::StopReason::kFinished);
    if (with_outage) {
      EXPECT_EQ(inj.outages_applied(), 1u);
      EXPECT_EQ(est.find_resource("acc")->stalled_time(), Time::us(3));
    }
    return sim.now();
  };
  const Time clean = run_once(false);
  const Time faulted = run_once(true);
  EXPECT_EQ(clean, Time::us(10) + Time::ns(1));
  EXPECT_EQ(faulted, clean + Time::us(3));
}

TEST(Injector, HwOutageOutsideSegmentCostsNothing) {
  ScenarioConfig cfg;
  cfg.horizon = Time::us(1);
  cfg.outages.push_back({"acc", 1, Time::us(3), Time::us(3)});
  FaultScenario sc(cfg, 13);
  minisc::Simulator sim;
  scperf::Estimator est(sim);
  auto& acc = est.add_hw_resource("acc", kMhz, add_only_table(), {.k = 1.0});
  est.map("hw", acc);
  FaultInjector inj(sim, est, sc);
  sim.spawn("hw", [&] {
    // Idle past the whole window (start < 1 us, length 3 us), then work:
    // the segment overlaps no downtime and must not stretch.
    minisc::wait(Time::us(10));
    burn_adds(100);
    minisc::wait(Time::ns(1));
  });
  EXPECT_EQ(sim.run(), minisc::StopReason::kFinished);
  EXPECT_EQ(sim.now(), Time::us(10) + Time::us(1) + Time::ns(1));
  EXPECT_EQ(est.find_resource("acc")->stalled_time(), Time::zero());
}

TEST(Injector, HwPulseStretchesEstimateIndependentOfK) {
  // SegmentAccum::charge_pulse charges the pulse into both Tmax (sum) and
  // Tmin (critical path), so T = Tmin + (Tmax - Tmin) * k grows by exactly the pulse for
  // every k.
  auto run_once = [](double k, bool with_pulse) {
    ScenarioConfig cfg;
    cfg.horizon = Time::ns(1);  // due by the second node for any k
    if (with_pulse) cfg.pulses.push_back({"acc", 1, 500.0, 500.0});
    FaultScenario sc(cfg, 17);
    minisc::Simulator sim;
    scperf::Estimator est(sim);
    auto& acc = est.add_hw_resource("acc", kMhz, add_only_table(), {.k = k});
    est.map("hw", acc);
    FaultInjector inj(sim, est, sc);
    sim.spawn("hw", [&] {
      burn_adds(1000);
      minisc::wait(Time::ns(1));
      burn_adds(1000);  // the pulse lands in this segment
      minisc::wait(Time::ns(1));
    });
    EXPECT_EQ(sim.run(), minisc::StopReason::kFinished);
    if (with_pulse) {
      EXPECT_EQ(inj.pulses_injected(), 1u);
    }
    return sim.now();
  };
  for (const double k : {0.0, 0.5, 1.0}) {
    const Time clean = run_once(k, false);
    const Time faulted = run_once(k, true);
    // 500 extra cycles at 10 ns / cycle, whatever the k weighting.
    EXPECT_EQ(faulted, clean + Time::us(5)) << "k = " << k;
  }
}

TEST(Injector, TwoPulsesInOneHwSegmentArePinned) {
  // Both pulses fall due inside the middle segment and are charged one at a
  // time into its sequential sum and its critical path. Seed 18 draws two
  // whose critical-path sum rounds differently when added in another order,
  // so the bit patterns pin the order as well as the values.
  ScenarioConfig cfg;
  cfg.horizon = Time::ns(1);
  cfg.pulses.push_back({"acc", 2, 0.1, 700.3});
  FaultScenario sc(cfg, 18);
  scperf::CostTable table;
  table.set(scperf::Op::kAdd, 0.3).set(scperf::Op::kMul, 1.7);
  minisc::Simulator sim;
  scperf::Estimator est(sim);
  auto& acc = est.add_hw_resource("acc", kMhz, table, {.k = 0.5});
  est.map("hw", acc);
  FaultInjector inj(sim, est, sc);
  sim.spawn("hw", [] {
    minisc::wait(Time::ns(1));
    // Two independent chains: the critical path is the longer one.
    scperf::gint x(scperf::detail::RawTag{}, 3);
    scperf::gint y(scperf::detail::RawTag{}, 0);
    scperf::gint z(scperf::detail::RawTag{}, 0);
    for (int i = 0; i < 7; ++i) {
      y = y * x + i;
      z = z + i;
    }
    minisc::wait(Time::ns(1));
  });
  sim.run();
  EXPECT_EQ(inj.pulses_injected(), 2u);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const scperf::SegmentStats& st : est.segment_stats("hw")) {
    if (st.id() != "wait->wait") continue;
    EXPECT_EQ(bits(st.bc_cycles_sum), 0x40806bc0dfe89df3ull);
    EXPECT_EQ(bits(st.wc_cycles_sum), 0x40807c8dacb56ac0ull);
    EXPECT_EQ(bits(st.cycles_sum), 0x40807427464f045aull);
  }
}

TEST(Injector, EnvPulseStallsTheProcessAtItsClock) {
  ScenarioConfig cfg;
  cfg.horizon = Time::us(1);
  cfg.pulses.push_back({"tb", 1, 3.0, 3.0});  // 3 cycles at 1 MHz = 3 us
  FaultScenario sc(cfg, 23);
  minisc::Simulator sim;
  scperf::Estimator est(sim);
  auto& tb = est.add_env_resource("tb");
  est.map("env", tb);
  FaultInjector inj(sim, est, sc);
  sim.spawn("env", [&] {
    for (int i = 0; i < 10; ++i) minisc::wait(Time::ns(200));
  });
  EXPECT_EQ(sim.run(), minisc::StopReason::kFinished);
  EXPECT_EQ(inj.pulses_injected(), 1u);
  // 10 x 200 ns of testbench activity plus one 3-cycle stall.
  EXPECT_EQ(sim.now(), Time::us(2) + Time::us(3));
  EXPECT_DOUBLE_EQ(tb.fault_cycles(), 3.0);
}

TEST(Injector, EnvOutageParksTheProcessUntilTheWindowCloses) {
  ScenarioConfig cfg;
  cfg.horizon = Time::us(1);
  cfg.outages.push_back({"tb", 1, Time::us(3), Time::us(3)});
  FaultScenario sc(cfg, 29);
  minisc::Simulator sim;
  scperf::Estimator est(sim);
  auto& tb = est.add_env_resource("tb");
  est.map("env", tb);
  FaultInjector inj(sim, est, sc);
  sim.spawn("env", [&] {
    for (int i = 0; i < 10; ++i) minisc::wait(Time::ns(200));
  });
  EXPECT_EQ(sim.run(), minisc::StopReason::kFinished);
  EXPECT_EQ(inj.outages_applied(), 1u);
  // The first node inside [start, start + 3 us) stalls to the window end;
  // the waits not yet taken at that node follow after it.
  ASSERT_EQ(sc.outages().size(), 1u);
  const Time start = sc.outages()[0].start;
  const std::uint64_t step = Time::ns(200).to_ps();
  const std::uint64_t k = (start.to_ps() + step - 1) / step;  // waits done
  const Time expected =
      start + Time::us(3) + Time::ns(200) * (10 - k);
  EXPECT_EQ(sim.now(), expected);
  EXPECT_GT(tb.stalled_time(), Time::zero());
}

// ---- fault energy accounting ---------------------------------------------

TEST(Injector, PulseCyclesAreChargedAsProcessFaultEnergy) {
  ScenarioConfig cfg;
  cfg.horizon = Time::ns(1);
  cfg.pulses.push_back({"cpu", 1, 100.0, 100.0});
  FaultScenario sc(cfg, 31);
  minisc::Simulator sim;
  scperf::Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table());
  cpu.set_fault_energy_per_cycle_pj(2.0);
  est.map("p", cpu);
  FaultInjector inj(sim, est, sc);
  sim.spawn("p", [&] {
    for (int i = 0; i < 5; ++i) {
      burn_adds(10);
      minisc::wait(Time::ns(10));
    }
  });
  EXPECT_EQ(sim.run(), minisc::StopReason::kFinished);
  EXPECT_EQ(inj.pulses_injected(), 1u);
  EXPECT_DOUBLE_EQ(est.process_fault_energy_pj("p"), 100.0 * 2.0);
  EXPECT_DOUBLE_EQ(est.fault_energy_pj(), 200.0);
  // With no per-op energy table the fault share IS the process energy.
  EXPECT_DOUBLE_EQ(est.process_energy_pj("p"), 200.0);
}

TEST(Injector, OutageLockupCyclesAreChargedAsResourceFaultEnergy) {
  ScenarioConfig cfg;
  cfg.horizon = Time::us(1);
  cfg.outages.push_back({"acc", 1, Time::us(3), Time::us(3)});
  FaultScenario sc(cfg, 37);
  minisc::Simulator sim;
  scperf::Estimator est(sim);
  auto& acc = est.add_hw_resource("acc", kMhz, add_only_table());
  acc.set_fault_energy_per_cycle_pj(0.5);
  est.map("hw", acc);
  FaultInjector inj(sim, est, sc);
  sim.spawn("hw", [&] {
    burn_adds(1000);
    minisc::wait(Time::ns(1));
  });
  EXPECT_EQ(sim.run(), minisc::StopReason::kFinished);
  // 3 us of lockup at 10 ns / cycle = 300 cycles at 0.5 pJ each.
  EXPECT_DOUBLE_EQ(acc.fault_cycles(), 300.0);
  EXPECT_DOUBLE_EQ(est.fault_energy_pj(), 150.0);
  EXPECT_DOUBLE_EQ(est.total_energy_pj(), 150.0);  // no energy tables set
}

TEST(Injector, ZeroFaultEnergyRateKeepsEnergyBooksUntouched) {
  ScenarioConfig cfg;
  cfg.horizon = Time::ns(1);
  cfg.pulses.push_back({"cpu", 2, 50.0, 50.0});
  FaultScenario sc(cfg, 41);
  minisc::Simulator sim;
  scperf::Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table());
  est.map("p", cpu);
  FaultInjector inj(sim, est, sc);
  sim.spawn("p", [&] {
    for (int i = 0; i < 5; ++i) {
      burn_adds(10);
      minisc::wait(Time::ns(10));
    }
  });
  EXPECT_EQ(sim.run(), minisc::StopReason::kFinished);
  EXPECT_EQ(inj.pulses_injected(), 2u);
  EXPECT_DOUBLE_EQ(est.process_fault_energy_pj("p"), 0.0);
  EXPECT_DOUBLE_EQ(est.fault_energy_pj(), 0.0);
}

TEST(FaultyChannels, DropAllLosesEveryMessageSilently) {
  ScenarioConfig cfg;
  cfg.horizon = Time::us(1);
  cfg.channel_faults.push_back(
      {"ch", 1.0, 0.0, 0.0, Time::zero(), Time::zero(), {}});
  FaultScenario sc(cfg, 1);

  minisc::Simulator sim;
  FaultyFifo<int> ch("ch", 32);
  ch.attach(sc);
  int received = 0;
  sim.spawn("writer", [&] {
    for (int i = 0; i < 10; ++i) ch.write(i);
  });
  sim.spawn("reader", [&] {
    while (ch.read_for(Time::ns(100)).has_value()) ++received;
  });
  EXPECT_EQ(sim.run(), minisc::StopReason::kFinished);
  EXPECT_EQ(received, 0);
  EXPECT_EQ(ch.dropped(), 10u);
}

TEST(FaultyChannels, DuplicateAllDeliversEveryMessageTwice) {
  ScenarioConfig cfg;
  cfg.horizon = Time::us(1);
  cfg.channel_faults.push_back(
      {"ch", 0.0, 1.0, 0.0, Time::zero(), Time::zero(), {}});
  FaultScenario sc(cfg, 1);

  minisc::Simulator sim;
  FaultyFifo<int> ch("ch", 64);
  ch.attach(sc);
  std::vector<int> got;
  sim.spawn("writer", [&] {
    for (int i = 0; i < 5; ++i) ch.write(i);
  });
  sim.spawn("reader", [&] {
    while (auto v = ch.read_for(Time::ns(100))) got.push_back(*v);
  });
  EXPECT_EQ(sim.run(), minisc::StopReason::kFinished);
  EXPECT_EQ(got, (std::vector<int>{0, 0, 1, 1, 2, 2, 3, 3, 4, 4}));
  EXPECT_EQ(ch.duplicated(), 5u);
}

TEST(FaultyChannels, DelayAllHoldsTheWriter) {
  ScenarioConfig cfg;
  cfg.horizon = Time::us(1);
  cfg.channel_faults.push_back(
      {"ch", 0.0, 0.0, 1.0, Time::ns(100), Time::ns(100), {}});
  FaultScenario sc(cfg, 1);

  minisc::Simulator sim;
  FaultyFifo<int> ch("ch", 8);
  ch.attach(sc);
  Time arrival;
  sim.spawn("writer", [&] { ch.write(1); });
  sim.spawn("reader", [&] {
    auto v = ch.read_for(Time::us(1));
    ASSERT_TRUE(v.has_value());
    arrival = minisc::now();
  });
  EXPECT_EQ(sim.run(), minisc::StopReason::kFinished);
  EXPECT_GE(arrival, Time::ns(100));
  EXPECT_EQ(ch.delayed(), 1u);
}

TEST(FaultyChannels, UnattachedChannelIsTransparent) {
  minisc::Simulator sim;
  FaultyFifo<int> ch("ch", 4);
  std::vector<int> got;
  sim.spawn("writer", [&] {
    for (int i = 0; i < 8; ++i) ch.write(i);
  });
  sim.spawn("reader", [&] {
    for (int i = 0; i < 8; ++i) got.push_back(ch.read());
  });
  EXPECT_EQ(sim.run(), minisc::StopReason::kFinished);
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(ch.dropped() + ch.duplicated() + ch.delayed(), 0u);
}

TEST(FaultyChannels, RendezvousDropUnblocksNoReader) {
  ScenarioConfig cfg;
  cfg.horizon = Time::us(1);
  cfg.channel_faults.push_back(
      {"rv", 1.0, 0.0, 0.0, Time::zero(), Time::zero(), {}});
  FaultScenario sc(cfg, 1);

  minisc::Simulator sim;
  FaultyRendezvous<int> rv("rv");
  rv.attach(sc);
  bool got = false;
  sim.spawn("writer", [&] { rv.write(5); });
  sim.spawn("reader", [&] { got = rv.read_for(Time::ns(500)).has_value(); });
  EXPECT_EQ(sim.run(), minisc::StopReason::kFinished);
  EXPECT_FALSE(got);
  EXPECT_EQ(rv.dropped(), 1u);
}

// End-to-end determinism: the acceptance criterion for campaigns. The same
// seed must reproduce the exact value sequence (capture hash); the fault
// machinery must not smuggle in any host nondeterminism.
std::uint64_t lossy_pipeline_hash(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.horizon = Time::us(10);
  cfg.pulses.push_back({"cpu", 3, 5.0, 15.0});
  cfg.channel_faults.push_back(
      {"*", 0.2, 0.1, 0.2, Time::ns(50), Time::ns(200), {}});
  FaultScenario sc(cfg, seed);

  minisc::Simulator sim;
  scperf::Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kMhz, add_only_table());
  est.map("prod", cpu);
  est.map("cons", cpu);
  FaultInjector inj(sim, est, sc);
  FaultyFifo<int> ch("ch", 64);
  ch.attach(sc);
  scperf::CaptureRegistry reg;
  scperf::CapturePoint got("got", reg);
  sim.spawn("prod", [&] {
    for (int i = 0; i < 50; ++i) {
      burn_adds(2);
      ch.write(i);
    }
  });
  sim.spawn("cons", [&] {
    while (auto v = ch.read_for(Time::us(1))) got.record(*v);
  });
  sim.run(Time::ms(1));
  return reg.value_sequence_hash();
}

TEST(Determinism, SameSeedSameCaptureHash) {
  EXPECT_EQ(lossy_pipeline_hash(7), lossy_pipeline_hash(7));
  EXPECT_EQ(lossy_pipeline_hash(8), lossy_pipeline_hash(8));
}

}  // namespace
}  // namespace scfault
