#include "hls/schedule.hpp"

#include <gtest/gtest.h>

#include "core/dfg.hpp"
#include "hls/fu_library.hpp"

namespace hls {
namespace {

using scperf::Dfg;
using scperf::Op;

constexpr double kClockNs = 10.0;  // 100 MHz

/// a+b, c+d, then (a+b)+(c+d): the canonical balanced tree.
Dfg balanced_tree() {
  Dfg d;
  d.nodes.push_back({Op::kAdd, 0, 0});  // node 1
  d.nodes.push_back({Op::kAdd, 0, 0});  // node 2
  d.nodes.push_back({Op::kAdd, 1, 2});  // node 3
  return d;
}

/// Chain of 4 dependent adds.
Dfg add_chain(std::uint32_t n = 4) {
  Dfg d;
  d.nodes.push_back({Op::kAdd, 0, 0});
  for (std::uint32_t i = 1; i < n; ++i) {
    d.nodes.push_back({Op::kAdd, i, 0});
  }
  return d;
}

TEST(FuLibrary, OpToFuMapping) {
  EXPECT_EQ(fu_kind_of(Op::kAdd), FuKind::kAlu);
  EXPECT_EQ(fu_kind_of(Op::kLt), FuKind::kAlu);
  EXPECT_EQ(fu_kind_of(Op::kMul), FuKind::kMul);
  EXPECT_EQ(fu_kind_of(Op::kDiv), FuKind::kDiv);
  EXPECT_EQ(fu_kind_of(Op::kMod), FuKind::kDiv);
  EXPECT_EQ(fu_kind_of(Op::kIndex), FuKind::kMem);
  EXPECT_EQ(fu_kind_of(Op::kAssign), FuKind::kNone);
  EXPECT_EQ(fu_kind_of(Op::kBranch), FuKind::kNone);
}

TEST(FuLibrary, AllocationArea) {
  const FuLibrary lib = default_fu_library();
  Allocation a;
  a[FuKind::kAlu] = 2;
  a[FuKind::kMul] = 1;
  EXPECT_DOUBLE_EQ(a.area(lib), 2 * 100.0 + 620.0);
}

TEST(AsapChained, EmptyDfgIsZero) {
  const auto r = asap_chained(Dfg{}, default_fu_library(), kClockNs);
  EXPECT_EQ(r.cycles, 0u);
}

TEST(AsapChained, ChainsTwoAluOpsIntoOneCycle) {
  // Two dependent 8 ns adds = 16 ns critical path = 2 cycles at 10 ns; but a
  // single independent add fits one cycle.
  const FuLibrary lib = default_fu_library();
  Dfg single;
  single.nodes.push_back({Op::kAdd, 0, 0});
  EXPECT_EQ(asap_chained(single, lib, kClockNs).cycles, 1u);

  const auto r = asap_chained(add_chain(2), lib, kClockNs);
  EXPECT_EQ(r.cycles, 2u);
}

TEST(AsapChained, BalancedTreeShorterThanChain) {
  const FuLibrary lib = default_fu_library();
  const auto tree = asap_chained(balanced_tree(), lib, kClockNs);
  const auto chain = asap_chained(add_chain(3), lib, kClockNs);
  EXPECT_LT(tree.cycles, chain.cycles);
}

TEST(AsapChained, PeakUsageReflectsParallelism) {
  const FuLibrary lib = default_fu_library();
  const auto r = asap_chained(balanced_tree(), lib, kClockNs);
  // The two leaf adds run concurrently; the root add chains into the same
  // coarse cycle, so cycle-granular accounting may count it too.
  EXPECT_GE(r.used[FuKind::kAlu], 2u);
  EXPECT_LE(r.used[FuKind::kAlu], 3u);
}

TEST(AsapChained, DividerDominatesCriticalPath) {
  const FuLibrary lib = default_fu_library();  // div = 75 ns
  Dfg d;
  d.nodes.push_back({Op::kDiv, 0, 0});
  const auto r = asap_chained(d, lib, kClockNs);
  EXPECT_EQ(r.cycles, 8u);  // ceil(75 / 10)
}

TEST(ListSchedule, SingleAluSerialisesIndependentOps) {
  const FuLibrary lib = default_fu_library();
  Allocation one = Allocation::minimal();
  const auto r = list_schedule(balanced_tree(), lib, kClockNs, one);
  // 3 adds, each 1 cycle, all on the same ALU: 3 cycles.
  EXPECT_EQ(r.cycles, 3u);
}

TEST(ListSchedule, TwoAlusRecoverTreeParallelism) {
  const FuLibrary lib = default_fu_library();
  Allocation two = Allocation::minimal();
  two[FuKind::kAlu] = 2;
  const auto r = list_schedule(balanced_tree(), lib, kClockNs, two);
  EXPECT_EQ(r.cycles, 2u);
}

TEST(ListSchedule, RespectsDependencies) {
  const FuLibrary lib = default_fu_library();
  Allocation many = Allocation::minimal();
  many[FuKind::kAlu] = 8;
  const auto r = list_schedule(add_chain(4), lib, kClockNs, many);
  EXPECT_EQ(r.cycles, 4u);  // chain cannot be parallelised
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_GT(r.start_cycle[i], r.start_cycle[i - 1]);
  }
}

TEST(ListSchedule, WiringOpsAreFree) {
  const FuLibrary lib = default_fu_library();
  Dfg d;
  d.nodes.push_back({Op::kAdd, 0, 0});     // node 1
  d.nodes.push_back({Op::kAssign, 1, 0});  // node 2: register alias
  d.nodes.push_back({Op::kAdd, 2, 0});     // node 3 depends through assign
  const auto r = list_schedule(d, lib, kClockNs, Allocation::minimal());
  EXPECT_EQ(r.cycles, 2u);  // the assign must not cost a cycle
}

TEST(ListSchedule, MissingFuKindRejected) {
  const FuLibrary lib = default_fu_library();
  Allocation no_mul = Allocation::minimal();
  no_mul[FuKind::kMul] = 0;
  Dfg d;
  d.nodes.push_back({Op::kMul, 0, 0});
  EXPECT_THROW(list_schedule(d, lib, kClockNs, no_mul),
               std::invalid_argument);
}

TEST(ListSchedule, DifferentFuKindsOverlap) {
  const FuLibrary lib = default_fu_library();
  Dfg d;
  d.nodes.push_back({Op::kMul, 0, 0});  // 2 cycles on MUL
  d.nodes.push_back({Op::kAdd, 0, 0});  // 1 cycle on ALU, independent
  const auto r = list_schedule(d, lib, kClockNs, Allocation::minimal());
  EXPECT_EQ(r.cycles, 2u);  // add hides under the multiply
}

TEST(ListSchedule, NeverBeatsAsap) {
  // Property: resource-constrained length >= unconstrained length.
  const FuLibrary lib = default_fu_library();
  for (std::uint32_t n = 1; n <= 12; ++n) {
    Dfg d;
    for (std::uint32_t i = 0; i < n; ++i) {
      d.nodes.push_back({i % 3 == 0 ? Op::kMul : Op::kAdd,
                         i >= 2 ? i - 1 : 0, i >= 4 ? i - 3 : 0});
    }
    const auto fast = asap_chained(d, lib, kClockNs);
    const auto slow = list_schedule(d, lib, kClockNs, Allocation::minimal());
    EXPECT_GE(slow.cycles, fast.cycles) << "n=" << n;
  }
}

TEST(Alap, LateStartsRespectDeadline) {
  const FuLibrary lib = default_fu_library();
  const auto late = alap_cycles(add_chain(3), lib, kClockNs, 10);
  ASSERT_EQ(late.size(), 3u);
  // Last op must start by 9 (1-cycle op, deadline 10); predecessors earlier.
  EXPECT_EQ(late[2], 9u);
  EXPECT_EQ(late[1], 8u);
  EXPECT_EQ(late[0], 7u);
}

// ---- force-directed scheduling ------------------------------------------------

TEST(ForceDirected, RespectsDependenciesAndDeadline) {
  const FuLibrary lib = default_fu_library();
  const auto r = force_directed(add_chain(4), lib, kClockNs, 8);
  EXPECT_LE(r.cycles, 8u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_GE(r.start_cycle[i], r.start_cycle[i - 1] + 1) << i;
  }
}

TEST(ForceDirected, TightDeadlineEqualsAsap) {
  const FuLibrary lib = default_fu_library();
  const auto r = force_directed(add_chain(4), lib, kClockNs, 4);
  EXPECT_EQ(r.cycles, 4u);
}

TEST(ForceDirected, DeadlineBelowCriticalPathRejected) {
  const FuLibrary lib = default_fu_library();
  EXPECT_THROW(force_directed(add_chain(4), lib, kClockNs, 3),
               std::invalid_argument);
}

TEST(ForceDirected, DeadlineShorterThanAnOpIsRejected) {
  // One divide holds its FU for ceil(75 / 10) = 8 cycles: no shorter
  // deadline can hold it, though its ASAP start is cycle 0.
  const FuLibrary lib = default_fu_library();
  Dfg d;
  d.nodes.push_back({Op::kDiv, 0, 0});
  for (std::uint32_t deadline : {1u, 4u, 7u}) {
    EXPECT_THROW(force_directed(d, lib, kClockNs, deadline),
                 std::invalid_argument)
        << deadline;
  }
  EXPECT_EQ(force_directed(d, lib, kClockNs, 8).cycles, 8u);
}

TEST(ForceDirected, SlackFlattensResourceUsage) {
  // 6 independent adds: at deadline 6 one ALU suffices; force-directed must
  // find that (ASAP would pile all six into cycle 0 needing 6 ALUs).
  const FuLibrary lib = default_fu_library();
  Dfg d;
  for (int i = 0; i < 6; ++i) d.nodes.push_back({Op::kAdd, 0, 0});
  const auto fd = force_directed(d, lib, kClockNs, 6);
  EXPECT_LE(fd.used[FuKind::kAlu], 2u);  // near-flat distribution
  const auto asap = asap_chained(d, lib, kClockNs);
  EXPECT_GT(asap.used[FuKind::kAlu], fd.used[FuKind::kAlu]);
}

TEST(ForceDirected, NeverWorseAreaThanAsapAtSameDeadline) {
  // Property across several random-ish DFGs.
  const FuLibrary lib = default_fu_library();
  for (std::uint32_t n = 2; n <= 10; ++n) {
    Dfg d;
    for (std::uint32_t i = 0; i < n; ++i) {
      d.nodes.push_back({i % 4 == 1 ? Op::kMul : Op::kAdd,
                         i >= 3 ? i - 2 : 0, 0});
    }
    const auto seq = sequential_schedule(d, lib, kClockNs);
    const auto fd = force_directed(d, lib, kClockNs, seq.cycles);
    // With the fully serial deadline, one FU per kind must suffice.
    EXPECT_LE(fd.used[FuKind::kAlu], 2u) << "n=" << n;
    EXPECT_LE(fd.cycles, seq.cycles) << "n=" << n;
  }
}

TEST(ForceDirected, WiringOpsPinnedForFree) {
  const FuLibrary lib = default_fu_library();
  Dfg d;
  d.nodes.push_back({Op::kAdd, 0, 0});
  d.nodes.push_back({Op::kAssign, 1, 0});
  d.nodes.push_back({Op::kAdd, 2, 0});
  const auto r = force_directed(d, lib, kClockNs, 4);
  EXPECT_LE(r.cycles, 4u);
  EXPECT_EQ(r.used[FuKind::kAlu], 1u);
}

TEST(DesignSpace, ParetoFrontierMonotone) {
  const FuLibrary lib = default_fu_library();
  // A segment with plenty of parallelism: 8 independent mul-add pairs.
  Dfg d;
  for (std::uint32_t i = 0; i < 8; ++i) {
    d.nodes.push_back({Op::kMul, 0, 0});
    d.nodes.push_back(
        {Op::kAdd, static_cast<std::uint32_t>(d.nodes.size()), 0});
  }
  const auto frontier = design_space(d, lib, kClockNs);
  ASSERT_GE(frontier.size(), 2u);
  for (std::size_t i = 1; i < frontier.size(); ++i) {
    EXPECT_GT(frontier[i].area, frontier[i - 1].area);
    EXPECT_LT(frontier[i].cycles, frontier[i - 1].cycles);
  }
}

TEST(DesignSpace, EndpointsMatchDedicatedSchedulers) {
  const FuLibrary lib = default_fu_library();
  Dfg d;
  for (std::uint32_t i = 0; i < 6; ++i) d.nodes.push_back({Op::kAdd, 0, 0});
  const auto frontier = design_space(d, lib, kClockNs);
  const auto wc = list_schedule(d, lib, kClockNs, Allocation::minimal());
  const auto bc = asap_chained(d, lib, kClockNs);
  ASSERT_FALSE(frontier.empty());
  EXPECT_EQ(frontier.front().cycles, wc.cycles);   // cheapest = slowest
  EXPECT_LE(frontier.back().cycles, bc.cycles + 1);  // richest ~ fastest
}

}  // namespace
}  // namespace hls
