// Golden regression locks: exact checksums and ISS cycle counts for every
// Table-1 benchmark and the vocoder, whose ISS stage cycles (GoldenIss) are
// Table 3's reference column. These values define the calibration baseline
// of the shipped cost table — any change to the assembly, the ISS cycle
// model, or the data generators shows up here first, signalling that the
// calibration (and EXPERIMENTS.md) must be redone.
//
// The GoldenEstimate tests lock the library's own outputs by bit pattern:
// the Table 1 (and Matrix) cycle sums, op counts and per-kind op histograms,
// the Table 3/4 per-process cycles and energies, the simulated end time and
// report CSV, and the CSV of one seeded fault campaign. Each annotated op
// only counts into SegmentAccum's histogram, and the segment is priced at
// its close by a dot product with the cost table in fixed op order, so the
// sums do not depend on the op order; these constants pin that pricing
// exactly, and a change that means to move them re-pins them in one place.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/scperf.hpp"
#include "fault/injector.hpp"
#include "fault/scenario.hpp"
#include "kernel/hash.hpp"
#include "trace/campaign.hpp"
#include "workloads/table1.hpp"
#include "workloads/vocoder/frames.hpp"
#include "workloads/vocoder/kernels_asm.hpp"
#include "workloads/vocoder/pipeline.hpp"

namespace workloads {
namespace {

struct Golden {
  const char* name;
  long checksum;
  std::uint64_t iss_cycles;
};

// Values produced by the calibration run recorded in EXPERIMENTS.md.
constexpr Golden kGolden[] = {
    {"FIR", -2201, 66568u},
    {"Compress", 822550, 14246u},
    {"Quick sort", 88149101, 120559u},
    {"Bubble", 5338283, 132103u},
    {"Fibonacci", 2584, 133765u},
    {"Array", 2179176, 5896u},
};

TEST(Golden, Table1ChecksumsAndCycles) {
  const auto& suite = table1_suite();
  ASSERT_EQ(suite.size(), std::size(kGolden));
  for (std::size_t i = 0; i < suite.size(); ++i) {
    EXPECT_EQ(suite[i].name, kGolden[i].name);
    EXPECT_EQ(suite[i].reference(), kGolden[i].checksum) << suite[i].name;
    const IssResult r = suite[i].iss({});
    EXPECT_EQ(r.cycles, kGolden[i].iss_cycles) << suite[i].name;
  }
}

TEST(Golden, VocoderChecksum) {
  EXPECT_EQ(vocoder::run_reference(10), 22072);
}

TEST(Golden, FibonacciOfEighteen) {
  // An independent arithmetic fact, not just self-consistency.
  EXPECT_EQ(table1_suite()[4].reference(), 2584);  // fib(18)
}

// ---- the Table 3 ISS reference ----------------------------------------------

TEST(GoldenIss, VocoderStageCycles) {
  // The memory-heavy program of Table 3's host:ISS column (frames 0..19), on
  // the block path and per instruction.
  for (const bool on : {true, false}) {
    SCOPED_TRACE(on ? "block path" : "per instruction");
    vocoder::IssVocoder vc({.enabled = on});
    long checksum = 0;
    for (int f = 0; f < 20; ++f) {
      checksum += vc.process_frame(vocoder::synth_frame(f));
    }
    const vocoder::StageCycles& c = vc.cycles();
    EXPECT_EQ(c.lsp, 703937u);
    EXPECT_EQ(c.lpc_int, 21960u);
    EXPECT_EQ(c.acb, 4730082u);
    EXPECT_EQ(c.icb, 470293u);
    EXPECT_EQ(c.post, 978589u);
    EXPECT_EQ(vc.machine().stats().instructions, 4705611u);
    EXPECT_EQ(checksum, 95750);
    // Chaining runs the same blocks as running one block at a time.
    const iss::BlockCacheStats s = vc.machine().block_cache_stats();
    EXPECT_EQ(s.hits, on ? 409015u : 0u);
    EXPECT_EQ(s.misses, on ? 86u : 0u);
    EXPECT_EQ(s.bypassed, 0u);
  }
}

// ---- estimator outputs, by bit pattern --------------------------------------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

struct Table1Estimate {
  std::uint64_t sum_cycles_bits;
  std::uint64_t op_count;
  /// FNV-1a of the 25 per-kind op counts, space-separated in Op order: a
  /// charge moved between two kinds with compensating costs moves it.
  std::uint64_t histogram_fnv1a;
};

/// The Table 1 suite in row order, then the out-of-sample Matrix.
constexpr Table1Estimate kTable1Estimate[] = {
    {0x40ef03f2e147ae14ull, 44036u, 0xc171938a44891fe2ull},   // FIR
    {0x40ccbab1eb851eb8ull, 10869u, 0xb52f6d893b8e6a91ull},   // Compress
    {0x40fd41ef5c28f5c2ull, 89954u, 0xf2b14cf66287eb1full},   // Quick sort
    {0x4100e3750a3d70a4ull, 114865u, 0x54dba60c42184ff2ull},  // Bubble
    {0x4100933451eb851eull, 50165u, 0xc03704144c9c3383ull},   // Fibonacci
    {0x40b66f7851eb851full, 4100u, 0x222fc58a04b0d681ull},    // Array
    {0x410dca68a3d70a3eull, 177607u, 0x5a765e002dd33b11ull},  // Matrix
};

TEST(GoldenEstimate, Table1CycleSumsAndOpCounts) {
  std::vector<Benchmark> benches = table1_suite();
  benches.push_back(make_matrix());
  ASSERT_EQ(benches.size(), std::size(kTable1Estimate));
  const scperf::CostTable table = scperf::orsim_sw_cost_table();
  for (std::size_t i = 0; i < benches.size(); ++i) {
    scperf::SegmentAccum acc;
    acc.table = &table;
    scperf::tl_accum = &acc;
    (void)benches[i].annotated();
    scperf::tl_accum = nullptr;
    std::string counts;
    for (const std::uint64_t n : acc.op_histogram) {
      counts += std::to_string(n) + " ";
    }
    const Table1Estimate& want = kTable1Estimate[i];
    EXPECT_EQ(bits(acc.sum_cycles()), want.sum_cycles_bits)
        << benches[i].name << ": " << acc.sum_cycles();
    EXPECT_EQ(acc.op_count(), want.op_count) << benches[i].name;
    EXPECT_EQ(minisc::fnv1a(counts), want.histogram_fnv1a)
        << benches[i].name << ": " << counts;
  }
}

TEST(ExactSwTime, Table1SumsWithinOneUlpOfExactHundredths) {
  // The orsim weights have two decimals, so a kernel's exact SW time is a
  // whole number of hundredths of a cycle: sum of hist[i] * 100 * cost[i].
  const scperf::CostTable table = scperf::orsim_sw_cost_table();
  for (const auto& b : table1_suite()) {
    scperf::SegmentAccum acc;
    acc.table = &table;
    scperf::tl_accum = &acc;
    (void)b.annotated();
    scperf::tl_accum = nullptr;
    std::int64_t hundredths = 0;
    for (std::size_t i = 0; i < scperf::kNumOps; ++i) {
      const double cost = table[static_cast<scperf::Op>(i)];
      const long long h = std::llround(100.0 * cost);
      ASSERT_EQ(static_cast<double>(h) / 100.0, cost) << "op " << i;
      hundredths += static_cast<std::int64_t>(acc.op_histogram[i]) * h;
    }
    const double exact = static_cast<double>(hundredths) / 100.0;
    const double sum = acc.sum_cycles();
    EXPECT_GE(sum, std::nextafter(exact, 0.0)) << b.name << ": " << sum;
    EXPECT_LE(sum, std::nextafter(exact, 2.0 * exact)) << b.name << ": " << sum;
  }
}

/// One annotated vocoder run, pinned: per-process cycles and energy (in
/// vocoder::kProcessNames order), simulated end time, report CSV hash.
struct PipelineEstimate {
  std::uint64_t cycles_bits[5];
  std::uint64_t energy_bits[5];
  std::int64_t sim_time_ps;
  std::uint64_t csv_fnv1a;
};

void expect_pipeline(const vocoder::PipelineConfig& cfg,
                     const PipelineEstimate& want) {
  const vocoder::AnnotatedResult r = vocoder::run_annotated(cfg);
  for (int p = 0; p < 5; ++p) {
    const std::string name = vocoder::kProcessNames[p];
    EXPECT_EQ(bits(r.process_cycles.at(name)), want.cycles_bits[p])
        << name << ": " << r.process_cycles.at(name);
    EXPECT_EQ(bits(r.process_energy_pj.at(name)), want.energy_bits[p])
        << name << ": " << r.process_energy_pj.at(name);
  }
  EXPECT_EQ(r.sim_time.to_ps(), want.sim_time_ps);
  std::ostringstream csv;
  r.report.write_csv(csv);
  EXPECT_EQ(minisc::fnv1a(csv.str()), want.csv_fnv1a) << csv.str();
}

vocoder::PipelineConfig table3_config() {
  return {.frames = 20, .cpu_mhz = 50, .rtos_cycles_per_switch = 80,
          .with_energy = true};
}

constexpr PipelineEstimate kTable3 = {
    {0x412479364ccccccdull, 0x40d4d63333333334ull, 0x4152f7f890a3d70aull,
     0x411cabe400000000ull, 0x412c63b3eb851eb8ull},
    {0x414c6571c0000000ull, 0x4101530000000000ull, 0x417fe39c40000000ull,
     0x4144388400000000ull, 0x4155d76480000000ull},
    141622903400,
    0xf872338b82aa6774ull,
};

constexpr PipelineEstimate kTable4K0 = {
    {0x412479364ccccccdull, 0x40d4d63333333334ull, 0x4152f7f890a3d70aull,
     0x411cabe400000000ull, 0x40a20a0000000000ull},
    {0x414c6571c0000000ull, 0x4101530000000000ull, 0x417fe39c40000000ull,
     0x4144388400000000ull, 0x4134b89980000000ull},
    122951984200,
    0x71300c10cb161890ull,
};

constexpr PipelineEstimate kTable4K1 = {
    {0x412479364ccccccdull, 0x40d4d63333333334ull, 0x4152f7f890a3d70aull,
     0x411cabe400000000ull, 0x4118d3f000000000ull},
    {0x414c6571c0000000ull, 0x4101530000000000ull, 0x417fe39c40000000ull,
     0x4144388400000000ull, 0x4134b89980000000ull},
    123153774200,
    0x11ad9baffa4fd6f3ull,
};

TEST(GoldenEstimate, Table3SwMapping) {
  expect_pipeline(table3_config(), kTable3);
}

TEST(GoldenEstimate, Table4PostProcOnHwAtKZero) {
  vocoder::PipelineConfig cfg = table3_config();
  cfg.postproc_on_hw = true;
  cfg.hw_k = 0.0;
  expect_pipeline(cfg, kTable4K0);
}

TEST(GoldenEstimate, Table4PostProcOnHwAtKOne) {
  vocoder::PipelineConfig cfg = table3_config();
  cfg.postproc_on_hw = true;
  cfg.hw_k = 1.0;
  expect_pipeline(cfg, kTable4K1);
}

/// One seeded run of a producer/consumer pair sharing a SW CPU that takes a
/// pulse, an outage and a crash-restart of the producer.
sctrace::CampaignRunResult faulted_pipeline_run(std::uint64_t seed) {
  using minisc::Time;
  scfault::ScenarioConfig cfg;
  cfg.horizon = Time::us(300);
  cfg.pulses.push_back({"cpu", 2, 200.0, 900.0});
  cfg.outages.push_back({"cpu", 1, Time::us(5), Time::us(25)});
  cfg.crashes.push_back({"producer", Time::us(60), Time::us(3)});
  const scfault::FaultScenario scenario(cfg, seed);

  minisc::Simulator sim;
  scperf::Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", 50.0, scperf::orsim_sw_cost_table(),
                                  {.rtos_cycles_per_switch = 80});
  cpu.set_energy_table(scperf::orsim_energy_table());
  cpu.set_fault_energy_per_cycle_pj(3.5);
  est.map("producer", cpu);
  est.map("consumer", cpu);
  scfault::FaultInjector inj(sim, est, scenario);
  minisc::Fifo<int> ch("ch", 4);

  constexpr int kItems = 16;
  std::uint64_t value_hash = 0;
  int received = 0;
  sim.spawn("producer", [&] {
    for (int i = 0; i < kItems; ++i) {
      scperf::gint acc = 0;
      const int n = 40 + static_cast<int>((seed * 7 + i) % 5) * 20;
      for (scperf::gint k = 0; k < n; ++k) acc += k * 3 + i;
      ch.write(acc.value());
    }
  });
  sim.spawn("consumer", [&] {
    while (auto v = ch.read_for(Time::us(100))) {
      scperf::gint x = *v;
      for (scperf::gint k = 0; k < 30; ++k) x = x % 9973 * 3 + k;
      value_hash = value_hash * 1099511628211ull +
                   static_cast<std::uint32_t>(x.value());
      ++received;
    }
  });
  sim.run(Time::ms(2));

  sctrace::CampaignRunResult r;
  r.seed = seed;
  r.makespan = sim.now();
  r.deadline_total = kItems;
  r.deadline_missed = received < kItems ? kItems - received : 0;
  r.faults_injected =
      inj.pulses_injected() + inj.outages_applied() + inj.crashes_applied();
  r.energy_pj = est.total_energy_pj();
  r.fault_energy_pj = est.fault_energy_pj();
  r.value_hash = value_hash;
  return r;
}

TEST(GoldenEstimate, FaultCampaignCsv) {
  sctrace::FaultCampaign campaign(faulted_pipeline_run);
  campaign.run(/*base_seed=*/17, /*n=*/6);
  std::ostringstream csv;
  campaign.write_csv(csv);
  EXPECT_EQ(minisc::fnv1a(csv.str()), 0xdf19e876d5d53edcull) << csv.str();
}

}  // namespace
}  // namespace workloads
