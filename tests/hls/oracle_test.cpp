// Exactness of src/hls against the reference forms in schedule_ref.cpp: on
// seeded random DFGs, every start cycle, length, allocation and Pareto
// point must match bit for bit.

#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <random>
#include <stdexcept>

#include "core/dfg.hpp"
#include "hls/schedule.hpp"
#include "schedule_ref.hpp"

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
      SCOPED_TRACE("deadline " + std::to_string(dl));
      const auto got = try_force_directed(force_directed, d, lib, clock_ns, dl);
      const auto want =
          try_force_directed(hls_ref::force_directed, d, lib, clock_ns, dl);
      if (!got) {
        // Rejected: the reference rejects too, or overruns the deadline.
        EXPECT_TRUE(!want || want->cycles > dl);
        ++fd_rejected;
        continue;
      }
      ASSERT_TRUE(want.has_value());
      expect_same(*got, *want);
      ++fd_compared;
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
  // Most deadlines are schedulable, so the comparison is not vacuous.
  EXPECT_GT(fd_compared, 4 * fd_rejected);
}

}  // namespace
}  // namespace hls
