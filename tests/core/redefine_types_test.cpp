// Demonstrates and tests the paper's zero-modification mechanism (§3): "the
// library automatically replaces ordinary variable types by a new class. So,
// for example, the int type used in C language is replaced by a generic_int
// type with a #define statement."
//
// The legacy code below is written entirely with built-in types; including
// redefine_types.hpp in front of it (and restore_types.hpp after) is the
// only change, and it becomes fully annotated.

#include <gtest/gtest.h>

#include "core/annot.hpp"
#include "core/context.hpp"
#include "core/cost_table.hpp"

namespace {

// ---------------------------------------------------------------------------
#include "core/redefine_types.hpp"

// -- begin unmodified legacy code --------------------------------------------

int legacy_dot_product(int n) {
  int acc = 0;
  int i = 0;
  while (i < n) {
    acc = acc + i * 3;
    i = i + 1;
  }
  return acc;
}

int legacy_abs(int v) {
  bool negative = v < 0;
  if (negative) {
    return 0 - v;
  }
  return v;
}

double legacy_scale(double x) {
  double y = x * 2.5;
  return y + 0.5;
}

// -- end unmodified legacy code ----------------------------------------------

#include "core/restore_types.hpp"
// ---------------------------------------------------------------------------

class RedefineTypes : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = scperf::CostTable::uniform(1.0);
    accum_.table = &table_;
    scperf::tl_accum = &accum_;
  }
  void TearDown() override { scperf::tl_accum = nullptr; }

  scperf::CostTable table_;
  scperf::SegmentAccum accum_;
};

TEST_F(RedefineTypes, LegacyIntCodeComputesCorrectly) {
  const auto r = legacy_dot_product(10);
  EXPECT_EQ(r.value(), 135);  // 3 * (0+1+...+9)
}

TEST_F(RedefineTypes, LegacyCodeIsCharged) {
  (void)legacy_dot_product(10);
  EXPECT_GT(accum_.op_count(), 0u);
  EXPECT_GT(accum_.sum_cycles(), 0.0);
  // 10 iterations of (cmp + branch + mul + add + assign + add + assign)
  // plus two initialisations and the final failed comparison.
  EXPECT_GE(accum_.op_count(), 60u);
}

TEST_F(RedefineTypes, LegacyBoolWorks) {
  EXPECT_EQ(legacy_abs(-7).value(), 7);
  EXPECT_EQ(legacy_abs(7).value(), 7);
}

TEST_F(RedefineTypes, LegacyDoubleWorks) {
  EXPECT_DOUBLE_EQ(legacy_scale(2.0).value(), 5.5);
}

TEST_F(RedefineTypes, RestoreHeaderRestoresBuiltins) {
  // After restore_types.hpp, `int` is the builtin again: this would not
  // compile as an Annot (no implicit conversion to builtin int).
  int plain = 3;
  plain += 4;
  EXPECT_EQ(plain, 7);
  static_assert(std::is_same_v<decltype(plain), signed int>);
}

}  // namespace
