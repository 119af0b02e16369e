// Property tests of the annotation fabric: for ANY program over annotated
// types, (1) the computed values are bit-identical to the same program over
// built-in types, (2) the charged cost is independent of the data values'
// magnitude (it depends only on the executed operation sequence), (3) the
// HW critical path never exceeds the sequential sum, and (4) the SW time
// depends only on how many ops of each kind ran, not on their order.
//
// "Any program" is approximated by a seeded random interpreter executing the
// same random operation stream against both value domains.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/annot.hpp"
#include "core/context.hpp"
#include "core/cost_table.hpp"

namespace scperf {
namespace {

/// Mirror of workloads::Lcg (tests must not depend on the workloads lib).
class Rng {
 public:
  explicit Rng(std::uint32_t seed) : s_(seed) {}
  std::uint32_t next() {
    s_ = s_ * 1664525u + 1013904223u;
    return s_;
  }
  int range(int lo, int hi) {
    return lo + static_cast<int>(next() % static_cast<std::uint32_t>(
                                             hi - lo + 1));
  }

 private:
  std::uint32_t s_;
};

/// Executes `steps` random ops over an 8-slot register file in both domains;
/// returns (plain result, annotated result).
struct RunOutput {
  std::int64_t plain_sum = 0;
  std::int64_t annot_sum = 0;
  double charged = 0.0;
  double critical_path = 0.0;
  std::uint64_t ops = 0;
};

RunOutput run_random_program(std::uint32_t seed, int steps,
                             const CostTable& table, bool track_ready) {
  SegmentAccum accum;
  accum.table = &table;
  accum.track_ready = track_ready;

  int plain[8];
  garray<int> annot(8);
  Rng init(seed);
  for (int i = 0; i < 8; ++i) {
    plain[i] = init.range(-1000, 1000);
    annot.at_raw(static_cast<std::size_t>(i)).set_raw(plain[i]);
  }

  Rng rng(seed ^ 0xdeadbeefu);
  tl_accum = &accum;
  for (int s = 0; s < steps; ++s) {
    const int op = rng.range(0, 9);
    const auto d = static_cast<std::size_t>(rng.range(0, 7));
    const auto a = static_cast<std::size_t>(rng.range(0, 7));
    const auto b = static_cast<std::size_t>(rng.range(0, 7));
    const int k = rng.range(1, 15);
    // Keep magnitudes bounded so plain & annotated wrap identically-never.
    const auto clamp = [](int v) { return (v % 100000); };
    switch (op) {
      case 0:
        annot[d] = annot[a] + annot[b];
        plain[d] = plain[a] + plain[b];
        break;
      case 1:
        annot[d] = annot[a] - annot[b];
        plain[d] = plain[a] - plain[b];
        break;
      case 2:
        annot[d] = clamp((annot[a] * k).value());
        plain[d] = clamp(plain[a] * k);
        break;
      case 3:
        annot[d] = annot[a] / (k + 1);
        plain[d] = plain[a] / (k + 1);
        break;
      case 4:
        annot[d] = annot[a] & annot[b];
        plain[d] = plain[a] & plain[b];
        break;
      case 5:
        annot[d] = annot[a] ^ k;
        plain[d] = plain[a] ^ k;
        break;
      case 6:
        annot[d] = annot[a] >> (k & 3);
        plain[d] = plain[a] >> (k & 3);
        break;
      case 7:
        if (annot[a] < annot[b]) {
          annot[d] = annot[a];
        }
        if (plain[a] < plain[b]) {
          plain[d] = plain[a];
        }
        break;
      case 8:
        annot[d] += k;
        plain[d] += k;
        break;
      case 9:
        annot[d] = -annot[a];
        plain[d] = -plain[a];
        break;
    }
  }
  tl_accum = nullptr;

  RunOutput out;
  for (int i = 0; i < 8; ++i) {
    out.plain_sum += plain[i];
    out.annot_sum += annot.at_raw(static_cast<std::size_t>(i)).value();
  }
  out.charged = accum.sum_cycles();
  out.critical_path = accum.max_ready;
  out.ops = accum.op_count();
  return out;
}

class RandomPrograms : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RandomPrograms, AnnotatedValuesMatchPlain) {
  const auto out = run_random_program(GetParam(), 500,
                                      orsim_sw_cost_table(), false);
  EXPECT_EQ(out.annot_sum, out.plain_sum);
  EXPECT_GT(out.ops, 0u);
}

TEST_P(RandomPrograms, ChargeIndependentOfDataValues) {
  // Same op stream, different initial data (different seed half): the
  // branch in case 7 can change the executed sequence, so instead compare
  // two runs with IDENTICAL seeds — charge must be deterministic — and a
  // doubled-cost table — charge must scale linearly.
  const CostTable base = CostTable::uniform(1.0);
  const CostTable doubled = CostTable::uniform(2.0);
  const auto a = run_random_program(GetParam(), 300, base, false);
  const auto b = run_random_program(GetParam(), 300, base, false);
  const auto c = run_random_program(GetParam(), 300, doubled, false);
  EXPECT_DOUBLE_EQ(a.charged, b.charged);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_DOUBLE_EQ(c.charged, 2.0 * a.charged);
}

TEST_P(RandomPrograms, CriticalPathBoundedBySum) {
  const auto out = run_random_program(GetParam(), 400,
                                      asic_hw_cost_table(), true);
  EXPECT_LE(out.critical_path, out.charged + 1e-9);
  EXPECT_GE(out.critical_path, 0.0);
}

TEST_P(RandomPrograms, ShuffledOpSequenceChargesBitIdenticalTime) {
  Rng rng(GetParam());
  std::vector<Op> ops(5000);
  for (Op& op : ops) {
    op = static_cast<Op>(rng.range(0, static_cast<int>(kNumOps) - 1));
  }
  std::vector<Op> shuffled = ops;
  for (std::size_t i = shuffled.size() - 1; i > 0; --i) {  // Fisher-Yates
    std::swap(shuffled[i], shuffled[rng.next() % (i + 1)]);
  }
  ASSERT_NE(ops, shuffled);
  const CostTable table = orsim_sw_cost_table();
  const auto charge_all = [&table](const std::vector<Op>& seq) {
    SegmentAccum accum;
    accum.table = &table;
    tl_accum = &accum;
    for (const Op op : seq) detail::charge_effect(op, detail::kNoStamp);
    tl_accum = nullptr;
    return std::pair{accum.sum_cycles(), accum.op_count()};
  };
  const auto [cycles, ops_charged] = charge_all(ops);
  const auto [shuffled_cycles, shuffled_ops_charged] = charge_all(shuffled);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(cycles),
            std::bit_cast<std::uint64_t>(shuffled_cycles))
      << cycles << " vs " << shuffled_cycles;
  EXPECT_EQ(ops_charged, 5000u);
  EXPECT_EQ(shuffled_ops_charged, ops_charged);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u,
                                           0xabcdefu, 31415926u, 27182818u));

}  // namespace
}  // namespace scperf
