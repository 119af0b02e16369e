#include "workloads/hw_segments.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "core/scperf.hpp"
#include "hls/schedule.hpp"

namespace workloads {
namespace {

/// Runs a HW segment once on a HW-mapped process, returning (bc, wc, dfg).
struct HwRun {
  double bc = 0;
  double wc = 0;
  scperf::Dfg dfg;
  long checksum = 0;
};

HwRun run_hw(const HwSegment& seg) {
  HwRun out;
  minisc::Simulator sim;
  scperf::Estimator est(sim);
  auto& hw = est.add_hw_resource("asic", 100.0, scperf::asic_hw_cost_table(),
                                 {.k = 0.0, .record_dfg = true});
  est.map(seg.name, hw);
  sim.spawn(seg.name, [&] { out.checksum = seg.body(); });
  sim.run();
  const auto stats = est.segment_stats(seg.name);
  EXPECT_EQ(stats.size(), 1u);
  out.bc = stats[0].bc_cycles_sum;
  out.wc = stats[0].wc_cycles_sum;
  out.dfg = est.segment_dfg(seg.name, "entry->exit");
  return out;
}

TEST(HwSegments, FirHasWideParallelismGap) {
  const HwRun r = run_hw(fir_hw_segment());
  EXPECT_GT(r.wc, 0.0);
  EXPECT_GT(r.bc, 0.0);
  // 16 independent MACs reduced pairwise: critical path far below the
  // single-ALU sum.
  EXPECT_LT(r.bc, 0.5 * r.wc);
  EXPECT_FALSE(r.dfg.empty());
}

TEST(HwSegments, EulerIsChainDominated) {
  const HwRun r = run_hw(euler_hw_segment());
  EXPECT_GT(r.bc, 0.0);
  // Serial dependence: best case close to worst case.
  EXPECT_GT(r.bc, 0.5 * r.wc);
}

TEST(HwSegments, LibraryBoundsTrackSynthesisWithinTenPercent) {
  // The core Table 2 property: the library's BC/WC estimates track the
  // behavioural-synthesis schedule lengths (time-constrained chained ASAP
  // and single-ALU sequential, both on the control-stripped DFG) within the
  // paper's HW error band.
  const hls::FuLibrary lib = hls::default_fu_library();
  constexpr double kClockNs = 10.0;
  for (const HwSegment& seg : {fir_hw_segment(), euler_hw_segment()}) {
    const HwRun r = run_hw(seg);
    const scperf::Dfg stripped = hls::strip_control(r.dfg);
    const auto fast = hls::asap_chained(stripped, lib, kClockNs);
    const auto slow = hls::sequential_schedule(stripped, lib, kClockNs);
    EXPECT_LE(fast.cycles, slow.cycles) << seg.name;
    EXPECT_NEAR(r.bc, fast.cycles, 0.10 * fast.cycles) << seg.name;
    EXPECT_NEAR(r.wc, slow.cycles, 0.10 * slow.cycles) << seg.name;
  }
}

TEST(HwSegments, StripControlRemovesOnlyBranchFedComparisons) {
  const HwRun r = run_hw(fir_hw_segment());
  const scperf::Dfg stripped = hls::strip_control(r.dfg);
  EXPECT_LT(stripped.size(), r.dfg.size());
  for (const auto& nd : stripped.nodes) {
    EXPECT_NE(nd.op, scperf::Op::kBranch);
    // Remapped operand indices must stay in range.
    EXPECT_LE(nd.a, stripped.size());
    EXPECT_LE(nd.b, stripped.size());
  }
}

/// ALU/MUL/DIV/MEM counts, as fig4_design_space prints them.
using Counts = std::array<std::uint32_t, 4>;

Counts counts(const hls::Allocation& a) {
  return {a[hls::FuKind::kAlu], a[hls::FuKind::kMul], a[hls::FuKind::kDiv],
          a[hls::FuKind::kMem]};
}

struct ParetoPin {
  double area;
  std::uint32_t cycles;
  Counts alloc;
};

struct ForceDirectedPin {
  std::uint32_t deadline;
  double area;
  Counts used;
};

/// Runs fig4_design_space's two synthesis sweeps on one segment and checks
/// them against its printed numbers.
void expect_fig4(const HwSegment& seg, const std::vector<ParetoPin>& pareto,
                 const std::vector<ForceDirectedPin>& force_directed) {
  SCOPED_TRACE(seg.name);
  const hls::FuLibrary lib = hls::default_fu_library();
  constexpr double kClockNs = 10.0;
  const scperf::Dfg dfg = hls::strip_control(run_hw(seg).dfg);

  const auto frontier = hls::design_space(dfg, lib, kClockNs);
  ASSERT_EQ(frontier.size(), pareto.size());
  for (std::size_t i = 0; i < pareto.size(); ++i) {
    EXPECT_EQ(frontier[i].area, pareto[i].area) << "point " << i;
    EXPECT_EQ(frontier[i].cycles, pareto[i].cycles) << "point " << i;
    EXPECT_EQ(frontier[i].ns, pareto[i].cycles * kClockNs) << "point " << i;
    EXPECT_EQ(counts(frontier[i].alloc), pareto[i].alloc) << "point " << i;
  }

  const std::uint32_t wc = hls::sequential_schedule(dfg, lib, kClockNs).cycles;
  const std::uint32_t bc = hls::asap_chained(dfg, lib, kClockNs).cycles;
  const std::uint32_t deadlines[] = {wc, (wc + bc) / 2, (wc + 3 * bc) / 4,
                                     bc + 1};
  ASSERT_EQ(std::size(deadlines), force_directed.size());
  for (std::size_t i = 0; i < force_directed.size(); ++i) {
    EXPECT_EQ(deadlines[i], force_directed[i].deadline) << "row " << i;
    const auto fd = hls::force_directed(dfg, lib, kClockNs, deadlines[i]);
    EXPECT_EQ(fd.area(lib), force_directed[i].area) << "row " << i;
    EXPECT_EQ(counts(fd.used), force_directed[i].used) << "row " << i;
  }
}

TEST(HwSegments, Fig4FirNumbersArePinned) {
  expect_fig4(fir_hw_segment(),
              {{2370, 94, {1, 1, 1, 1}},
               {2520, 81, {1, 1, 1, 2}},
               {2620, 47, {2, 1, 1, 2}},
               {2770, 41, {2, 1, 1, 3}},
               {2870, 37, {3, 1, 1, 3}},
               {3490, 32, {3, 2, 1, 3}},
               {3640, 29, {3, 2, 1, 4}},
               {3740, 24, {4, 2, 1, 4}},
               {3990, 21, {5, 2, 1, 5}},
               {4710, 19, {6, 3, 1, 5}},
               {4960, 17, {7, 3, 1, 6}},
               {5680, 16, {8, 4, 1, 6}}},
              {{207, 1370, {3, 1, 0, 3}},
               {111, 1270, {2, 1, 0, 3}},
               {63, 1270, {2, 1, 0, 3}},
               {17, 3510, {6, 3, 0, 7}}});
}

TEST(HwSegments, Fig4EulerNumbersArePinned) {
  expect_fig4(euler_hw_segment(), {{2370, 64, {1, 1, 1, 1}}},
              {{72, 720, {1, 1, 0, 0}},
               {68, 720, {1, 1, 0, 0}},
               {66, 720, {1, 1, 0, 0}},
               {65, 720, {1, 1, 0, 0}}});
}

TEST(HwSegments, ChecksumsAreDeterministic) {
  EXPECT_EQ(fir_hw_segment().body(), fir_hw_segment().body());
  EXPECT_EQ(euler_hw_segment().body(), euler_hw_segment().body());
}

}  // namespace
}  // namespace workloads
