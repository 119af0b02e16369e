// Bit-exact determinism of threaded campaign execution: the same seeds
// through the same run function must produce byte-identical CSV output and
// identical report fields for threads ∈ {1, 2, 8} and the legacy sequential
// path — including campaigns where runs throw SimError
// mid-way and importance-sampled campaigns whose weights, ESS and
// rule-of-three bounds feed the report. The run function follows the
// DESIGN.md §7 contract: one Simulator / Estimator / scenario /
// CaptureRegistry per run, nothing shared.

#include "trace/campaign.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/scperf.hpp"
#include "fault/channels.hpp"
#include "fault/scenario.hpp"
#include "kernel/error.hpp"

namespace sctrace {
namespace {

using minisc::Time;

scperf::CostTable add_only_table() {
  scperf::CostTable t;
  t.set(scperf::Op::kAdd, 1.0);
  return t;
}

scperf::EnergyTable add_energy_table() {
  scperf::EnergyTable t;
  t.set(scperf::Op::kAdd, 5.0);
  return t;
}

void burn(int n) {
  scperf::gint a(scperf::detail::RawTag{}, 0);
  for (int i = 0; i < n; ++i) {
    scperf::gint r = a + 1;
    (void)r;
  }
}

constexpr int kFrames = 12;
constexpr double kNominalDrop = 0.05;
constexpr double kBiasedDrop = 0.30;

scfault::ChannelFaultSpec drop_spec(double p) {
  return {"link", p, 0.0, 0.0, Time::zero(), Time::zero(), {}};
}

/// One seeded source -> lossy link -> sink simulation. Everything the run
/// touches is built inside this function — the thread-safety contract the
/// parallel executor relies on. `drop_p` selects the simulated channel;
/// `weighted` additionally fills in the likelihood ratio against the
/// nominal 5% channel (importance sampling).
CampaignRunResult run_mini(std::uint64_t seed, double drop_p, bool weighted) {
  scfault::ScenarioConfig cfg;
  cfg.horizon = Time::us(200);
  cfg.channel_faults.push_back(drop_spec(drop_p));
  scfault::FaultScenario scenario(cfg, seed);

  minisc::Simulator sim;
  scperf::Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu0", 100.0, add_only_table(),
                                  {.rtos_cycles_per_switch = 10});
  cpu.set_energy_table(add_energy_table());
  est.map("source", cpu);
  est.map("sink", cpu);

  scfault::FaultyFifo<int> link("link", 16);
  link.attach(scenario);

  scperf::CaptureRegistry reg;
  scperf::CapturePoint delivered("delivered", reg);

  int received = 0;
  bool source_done = false;
  Time last_arrival = Time::zero();

  sim.spawn("source", [&] {
    for (int id = 0; id < kFrames; ++id) {
      burn(50);
      link.write(id);
      minisc::wait(Time::us(2));
    }
    source_done = true;
  });
  sim.spawn("sink", [&] {
    while (true) {
      auto v = link.read_for(Time::us(6));
      if (!v.has_value()) {
        if (source_done) break;
        continue;
      }
      burn(50);
      delivered.record(*v);
      ++received;
      last_arrival = minisc::now();
    }
  });
  sim.run(Time::ms(1));

  CampaignRunResult r;
  r.seed = seed;
  r.deadline_total = kFrames;
  r.deadline_missed = static_cast<std::uint64_t>(kFrames - received);
  r.makespan = last_arrival;
  r.faults_injected = link.dropped();
  r.energy_pj = est.total_energy_pj();
  r.fault_energy_pj = est.fault_energy_pj();
  if (weighted) {
    r.log_weight = scfault::channel_log_lr(
        drop_spec(kNominalDrop), drop_spec(drop_p), link.fault_counts());
  }
  r.value_hash = reg.value_sequence_hash();
  return r;
}

FaultCampaign::RunFn plain_fn() {
  return [](std::uint64_t seed) {
    return run_mini(seed, kNominalDrop, /*weighted=*/false);
  };
}

/// Importance-sampled variant: simulates the 6x-inflated channel, weights
/// against the nominal one.
FaultCampaign::RunFn weighted_fn() {
  return [](std::uint64_t seed) {
    return run_mini(seed, kBiasedDrop, /*weighted=*/true);
  };
}

/// Variant that dies with SimError on a deterministic subset of seeds.
FaultCampaign::RunFn faulty_fn() {
  return [](std::uint64_t seed) -> CampaignRunResult {
    if (seed % 5 == 3) {
      throw minisc::SimError(minisc::SimError::Kind::kWallClockBudget,
                             "seed " + std::to_string(seed) + " hung");
    }
    return run_mini(seed, kNominalDrop, /*weighted=*/false);
  };
}

/// Options that run the seeds on `threads` threads.
CampaignOptions threaded(std::size_t threads) {
  CampaignOptions o;
  o.threads = threads;
  return o;
}

std::string csv_of(const FaultCampaign& c) {
  std::ostringstream os;
  c.write_csv(os);
  return os.str();
}

std::string printed_report(const CampaignReport& rep) {
  std::ostringstream os;
  rep.print(os);
  return os.str();
}

/// Runs the same campaign sequentially and with every thread count under
/// test; every variant must emit the sequential CSV byte-for-byte and print
/// the identical report.
void expect_thread_count_invariant(const FaultCampaign::RunFn& fn,
                                   std::uint64_t base_seed, std::size_t n) {
  FaultCampaign sequential(fn);
  sequential.run(base_seed, n);  // legacy path: no options at all
  const std::string want_csv = csv_of(sequential);
  const std::string want_report = printed_report(sequential.report());

  for (const std::size_t threads : {1u, 2u, 8u}) {
    FaultCampaign parallel(fn);
    parallel.run(base_seed, n, threaded(threads));
    EXPECT_EQ(csv_of(parallel), want_csv) << threads << " threads";
    EXPECT_EQ(printed_report(parallel.report()), want_report)
        << threads << " threads";
  }
}

TEST(CampaignParallel, CsvAndReportByteIdenticalAcrossThreadCounts) {
  expect_thread_count_invariant(plain_fn(), 100, 12);
}

TEST(CampaignParallel, SimErrorMidCampaignIsThreadCountInvariant) {
  expect_thread_count_invariant(faulty_fn(), 0, 15);

  FaultCampaign c(faulty_fn());
  c.run(0, 15, threaded(8));
  const CampaignReport rep = c.report();
  EXPECT_EQ(rep.runs, 15u);
  EXPECT_EQ(rep.failed_runs, 3u);  // seeds 3, 8, 13
  EXPECT_FALSE(c.results()[3].completed);
  EXPECT_NE(c.results()[8].error.find("seed 8 hung"), std::string::npos);
}

TEST(CampaignParallel, ImportanceSampledFieldsMatchExactly) {
  expect_thread_count_invariant(weighted_fn(), 7, 10);

  FaultCampaign seq(weighted_fn());
  seq.run(7, 10);
  FaultCampaign par(weighted_fn());
  par.run(7, 10, threaded(8));
  const CampaignReport a = seq.report();
  const CampaignReport b = par.report();
  ASSERT_TRUE(a.importance_sampled);
  ASSERT_TRUE(b.importance_sampled);
  // Bit-exact, not approximately equal: the slots aggregate in the same
  // order, so even floating-point rounding must agree.
  EXPECT_EQ(a.weighted_miss_rate, b.weighted_miss_rate);
  EXPECT_EQ(a.weighted_miss_rate_ci95, b.weighted_miss_rate_ci95);
  EXPECT_EQ(a.effective_sample_size, b.effective_sample_size);
  EXPECT_EQ(a.mean_weight, b.mean_weight);
  EXPECT_EQ(a.miss_rate_ci95, b.miss_rate_ci95);
}

TEST(CampaignParallel, RuleOfThreeBoundSurvivesParallelism) {
  // A run function with zero misses: the 0/N degenerate case must take the
  // rule-of-three branch (3/N) identically in both modes.
  const FaultCampaign::RunFn fn = [](std::uint64_t seed) {
    CampaignRunResult r;
    r.seed = seed;
    r.deadline_total = 4;
    r.deadline_missed = 0;
    r.makespan = Time::us(10);
    return r;
  };
  FaultCampaign seq(fn);
  seq.run(0, 25);
  FaultCampaign par(fn);
  par.run(0, 25, threaded(8));
  EXPECT_EQ(seq.report().miss_rate_ci95, 3.0 / 100.0);
  EXPECT_EQ(par.report().miss_rate_ci95, seq.report().miss_rate_ci95);
  EXPECT_EQ(csv_of(par), csv_of(seq));
}

TEST(CampaignParallel, AppendingRunsKeepsSlotOrder) {
  // run() may be called repeatedly; parallel slots must land after the
  // existing results exactly like the sequential append.
  FaultCampaign seq(plain_fn());
  seq.run(0, 4);
  seq.run(50, 4);
  FaultCampaign par(plain_fn());
  par.run(0, 4, threaded(2));
  par.run(50, 4, threaded(8));
  EXPECT_EQ(csv_of(par), csv_of(seq));
  ASSERT_EQ(par.results().size(), 8u);
  EXPECT_EQ(par.results()[4].seed, 50u);
}

TEST(CampaignParallel, SweepGridIsThreadCountInvariant) {
  const CampaignSweep::Factory factory = [](const std::string& mapping,
                                            const std::string& scenario) {
    const double drop = scenario == "lossy" ? kBiasedDrop : kNominalDrop;
    const int extra = mapping == "slow" ? 1 : 0;
    return [drop, extra](std::uint64_t seed) {
      CampaignRunResult r = run_mini(seed, drop, /*weighted=*/false);
      r.deadline_missed += static_cast<std::uint64_t>(extra);
      return r;
    };
  };
  CampaignSweep seq({"fast", "slow"}, {"clean", "lossy"}, factory);
  seq.run(1, 6);
  CampaignSweep par({"fast", "slow"}, {"clean", "lossy"}, factory);
  par.run(1, 6, threaded(8));

  std::ostringstream seq_csv, par_csv, seq_grid, par_grid;
  seq.write_csv(seq_csv);
  par.write_csv(par_csv);
  seq.print(seq_grid);
  par.print(par_grid);
  EXPECT_EQ(par_csv.str(), seq_csv.str());
  EXPECT_EQ(par_grid.str(), seq_grid.str());
}

// ---- seed-stability regression -------------------------------------------
//
// Pinned CaptureRegistry::value_sequence_hash values for a fixed seed set.
// These constants were recorded from the sequential path at the time this
// test was written; both execution modes must keep reproducing them. If a
// parallel run ever shares RNG state across threads (or the splitmix64
// sub-stream discipline regresses), the drawn fault pattern changes and
// this fails loudly instead of silently biasing campaign statistics.

// The 30% channel guarantees every seed loses a different frame subset, so
// the four hashes are distinct capture-value sequences, not the trivial
// all-delivered hash.
struct PinnedHash {
  std::uint64_t seed;
  std::uint64_t hash;
};
constexpr PinnedHash kPinned[4] = {
    {11, 0x46f91ecd03f2a6c2ull},
    {12, 0x448dad8d41f6a5e3ull},
    {13, 0x106217aa0006d7aaull},
    {14, 0x31a8938562ab9443ull},
};

TEST(CampaignParallel, SeedStabilityHashesPinnedInBothModes) {
  FaultCampaign seq(weighted_fn());
  seq.run(11, 4);
  FaultCampaign par(weighted_fn());
  par.run(11, 4, threaded(8));

  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(seq.results()[i].value_hash, kPinned[i].hash)
        << "seed " << kPinned[i].seed
        << ": sequential run no longer reproduces the pinned fault pattern";
    EXPECT_EQ(par.results()[i].seed, kPinned[i].seed);
    EXPECT_EQ(par.results()[i].value_hash, kPinned[i].hash)
        << "seed " << kPinned[i].seed
        << ": parallel run drew a different fault pattern (cross-thread RNG "
           "sharing?)";
  }
}

}  // namespace
}  // namespace sctrace
