// Exactness of src/hls against the reference forms in schedule_ref.cpp: on
// seeded random DFGs and on the DFGs the workloads record, every start
// cycle, length, allocation and Pareto point must match bit for bit.

#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/dfg.hpp"
#include "core/estimator.hpp"
#include "hls/schedule.hpp"
#include "kernel/simulator.hpp"
#include "schedule_ref.hpp"
#include "workloads/hw_segments.hpp"

namespace hls {
namespace {

using scperf::Dfg;
using scperf::Op;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// 1..max_nodes nodes drawn over every FU kind, wiring included; each
/// operand is an external input or an earlier node.
Dfg random_dfg(std::mt19937& rng, std::uint32_t max_nodes) {
  static constexpr Op kOps[] = {Op::kAdd,   Op::kSub,    Op::kLt,
                                Op::kShl,   Op::kBitXor, Op::kNeg,
                                Op::kMul,   Op::kMul,    Op::kIndex,
                                Op::kIndex, Op::kAssign, Op::kAssignRes};
  const std::uint32_t n =
      std::uniform_int_distribution<std::uint32_t>(1, max_nodes)(rng);
  const auto operand = [&](std::uint32_t i) -> std::uint32_t {
    if (i == 0 || rng() % 3 == 0) return 0;
    return std::uniform_int_distribution<std::uint32_t>(1, i)(rng);
  };
  Dfg d;
  for (std::uint32_t i = 0; i < n; ++i) {
    // A divider holds its FU for 4 to 15 cycles; drawing one node in 16 as
    // a divide keeps the sequential deadline, and with it the reference's
    // cost, small.
    const Op op = rng() % 16 == 0 ? (rng() % 2 == 0 ? Op::kDiv : Op::kMod)
                                  : kOps[rng() % std::size(kOps)];
    d.nodes.push_back({op, operand(i), operand(i)});
  }
  return d;
}

void expect_same(const ScheduleResult& got, const ScheduleResult& want) {
  EXPECT_EQ(got.start_cycle, want.start_cycle);
  EXPECT_EQ(got.cycles, want.cycles);
  EXPECT_EQ(bits(got.ns), bits(want.ns));
  EXPECT_EQ(got.used.count, want.used.count);
}

std::optional<ScheduleResult> try_force_directed(
    ScheduleResult (*fd)(const Dfg&, const FuLibrary&, double, std::uint32_t),
    const Dfg& d, const FuLibrary& lib, double clock_ns, std::uint32_t dl) {
  try {
    return fd(d, lib, clock_ns, dl);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

/// Compares force_directed at `dl`; counts the comparison or the rejection.
void expect_force_directed_same(const Dfg& d, const FuLibrary& lib,
                                double clock_ns, std::uint32_t dl,
                                int& compared, int& rejected) {
  SCOPED_TRACE("deadline " + std::to_string(dl));
  const auto got = try_force_directed(force_directed, d, lib, clock_ns, dl);
  const auto want =
      try_force_directed(hls_ref::force_directed, d, lib, clock_ns, dl);
  if (!got) {
    // Rejected: the reference rejects too, or overruns the deadline.
    EXPECT_TRUE(!want || want->cycles > dl);
    ++rejected;
    return;
  }
  ASSERT_TRUE(want.has_value());
  expect_same(*got, *want);
  ++compared;
}

void expect_design_space_same(const Dfg& d, const FuLibrary& lib,
                              double clock_ns) {
  const auto got = design_space(d, lib, clock_ns);
  const auto want = hls_ref::design_space(d, lib, clock_ns);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].alloc.count, want[i].alloc.count) << "point " << i;
    EXPECT_EQ(got[i].cycles, want[i].cycles) << "point " << i;
    EXPECT_EQ(bits(got[i].ns), bits(want[i].ns)) << "point " << i;
    EXPECT_EQ(bits(got[i].area), bits(want[i].area)) << "point " << i;
  }
}

/// The workloads' HW clock: fig4_design_space and perfbench's hw_explore
/// record and schedule at 100 MHz.
constexpr double kWorkloadClockNs = 10.0;

/// `body` run once as the only segment of a process on a DFG-recording HW
/// resource, as fig4_design_space records its segments, with control
/// stripped: the graph the workloads hand to the schedulers.
Dfg recorded_dfg(const std::function<void()>& body) {
  minisc::Simulator sim;
  scperf::Estimator est(sim);
  est.map("seg", est.add_hw_resource("asic", 1000.0 / kWorkloadClockNs,
                                     scperf::asic_hw_cost_table(),
                                     {.k = 0.0, .record_dfg = true}));
  sim.spawn("seg", body);
  sim.run();
  return strip_control(est.segment_dfg("seg", "entry->exit"));
}

// The segment shapes of perfbench's hw_explore (its step_annot), on inputs
// that take no clipping branch: long accumulate chains over wide memory
// parallelism, which random DFGs rarely produce. The state arrays are
// vocoder LPC order long, as hw_explore keeps them.
using scperf::garray;
using scperf::gint;
constexpr int kOrder = 10;

void fir4_step() {
  constexpr int kTaps = 4;
  garray<int> h(kOrder), d(kOrder), prod(kTaps);
  const gint x(scperf::detail::RawTag{}, 1);
  gint j = kTaps - 1;
  while (j > 0) {
    d[j] = d[j - 1];
    j = j - 1;
  }
  d[0] = x;
  gint i = 0;
  while (i < kTaps) {
    prod[i] = d[i] * h[i];
    i = i + 1;
  }
  gint stride = 1;
  while (stride < kTaps) {
    gint k = 0;
    while (k < kTaps) {
      prod[k] = prod[k] + prod[k + stride];
      k = k + (stride << 1);
    }
    stride = stride << 1;
  }
  [[maybe_unused]] gint y = prod[0] >> 12;
}

void euler8_step() {
  const gint x(scperf::detail::RawTag{}, 4096);
  const gint a(scperf::detail::RawTag{}, 1024);
  const gint b(scperf::detail::RawTag{}, 2048);
  const gint h(scperf::detail::RawTag{}, 410);
  gint y = x;
  gint k = 0;
  while (k < 8) {
    gint ay = (a * y) >> 12;
    gint deriv = b - ay;
    gint delta = (h * deriv) >> 12;
    y = y + delta;
    k = k + 1;
  }
}

void postproc_step() {
  garray<int> subc(kOrder), mem(kOrder);
  const gint x(scperf::detail::RawTag{}, 0);
  gint acc = x << 12;
  gint i = 0;
  while (i < kOrder) {
    acc = acc - subc[i] * mem[i];
    i = i + 1;
  }
  gint y = acc >> 12;
  if (y > 4095) y = 4095;
  if (y < -4096) y = -4096;
  gint j = kOrder - 1;
  while (j > 0) {
    mem[j] = mem[j - 1];
    j = j - 1;
  }
  mem[0] = y;
}

/// hw_explore's three shapes and fig4's 16-tap FIR.
std::vector<std::pair<std::string, Dfg>> workload_dfgs() {
  const workloads::HwSegment fir16 = workloads::fir_hw_segment();
  return {{"FIR-4", recorded_dfg(fir4_step)},
          {"Euler-8", recorded_dfg(euler8_step)},
          {"PostProc", recorded_dfg(postproc_step)},
          {"FIR-16", recorded_dfg([&] { (void)fir16.body(); })}};
}

// At 5 and 10 ns no two operations chain into one cycle; at 20 ns two ALU
// operations do, so the chained critical path can fall below the unchained
// one and force_directed rejects that deadline.
constexpr double kClocksNs[] = {5.0, 10.0, 20.0};

TEST(Oracle, SchedulersMatchTheReferenceBitForBit) {
  const FuLibrary lib = default_fu_library();
  std::mt19937 rng(20261017);
  int fd_compared = 0;
  int fd_rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const double clock_ns = kClocksNs[trial % std::size(kClocksNs)];
    const Dfg d = random_dfg(rng, 32);
    SCOPED_TRACE("trial " + std::to_string(trial) + ", " +
                 std::to_string(d.size()) + " nodes");
    const std::uint32_t wc = sequential_schedule(d, lib, clock_ns).cycles;
    const std::uint32_t bc = asap_chained(d, lib, clock_ns).cycles;

    EXPECT_EQ(alap_cycles(d, lib, clock_ns, wc),
              hls_ref::alap_cycles(d, lib, clock_ns, wc));
    EXPECT_EQ(alap_cycles(d, lib, clock_ns, bc),
              hls_ref::alap_cycles(d, lib, clock_ns, bc));

    for (std::uint32_t dl :
         {wc, (wc + bc) / 2, (wc + 3 * bc) / 4, bc + 1, bc}) {
      expect_force_directed_same(d, lib, clock_ns, dl, fd_compared,
                                 fd_rejected);
    }

    for (int a = 0; a < 3; ++a) {
      Allocation alloc;
      for (FuKind k :
           {FuKind::kAlu, FuKind::kMul, FuKind::kDiv, FuKind::kMem}) {
        alloc[k] = 1 + rng() % 4;
      }
      expect_same(list_schedule(d, lib, clock_ns, alloc),
                  hls_ref::list_schedule(d, lib, clock_ns, alloc));
    }

    expect_design_space_same(d, lib, clock_ns);
  }

  for (const auto& [name, d] : workload_dfgs()) {
    SCOPED_TRACE(name + ", " + std::to_string(d.size()) + " nodes");
    const ScheduleResult wc = sequential_schedule(d, lib, kWorkloadClockNs);
    const ScheduleResult bc = asap_chained(d, lib, kWorkloadClockNs);
    // fig4's and hw_explore's four deadlines.
    for (std::uint32_t dl : {wc.cycles, (wc.cycles + bc.cycles) / 2,
                             (wc.cycles + 3 * bc.cycles) / 4, bc.cycles + 1}) {
      expect_force_directed_same(d, lib, kWorkloadClockNs, dl, fd_compared,
                                 fd_rejected);
    }
    // The two ends of the design space's grid.
    Allocation widest;
    for (FuKind k : {FuKind::kAlu, FuKind::kMul, FuKind::kDiv, FuKind::kMem}) {
      widest[k] = std::max(bc.used[k], 1u);
    }
    for (const Allocation& alloc : {Allocation::minimal(), widest}) {
      expect_same(list_schedule(d, lib, kWorkloadClockNs, alloc),
                  hls_ref::list_schedule(d, lib, kWorkloadClockNs, alloc));
    }
    expect_design_space_same(d, lib, kWorkloadClockNs);
  }
  // Most deadlines are schedulable, so the comparison is not vacuous.
  EXPECT_GT(fd_compared, 4 * fd_rejected);
}

}  // namespace
}  // namespace hls
