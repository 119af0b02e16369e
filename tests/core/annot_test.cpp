#include "core/annot.hpp"

#include <gtest/gtest.h>

#include "core/context.hpp"
#include "core/cost_table.hpp"

namespace scperf {
namespace {

/// Installs a local accumulator as the active one for the test's duration.
class AnnotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = CostTable::uniform(0.0);
    accum_.table = &table_;
    tl_accum = &accum_;
  }
  void TearDown() override { tl_accum = nullptr; }

  CostTable table_;
  SegmentAccum accum_;
};

TEST_F(AnnotTest, ValueSemanticsMatchUnderlyingType) {
  gint a = 7;
  gint b = 5;
  EXPECT_EQ((a + b).value(), 12);
  EXPECT_EQ((a - b).value(), 2);
  EXPECT_EQ((a * b).value(), 35);
  EXPECT_EQ((a / b).value(), 1);
  EXPECT_EQ((a % b).value(), 2);
  EXPECT_EQ((-a).value(), -7);
  EXPECT_EQ((a & b).value(), 7 & 5);
  EXPECT_EQ((a | b).value(), 7 | 5);
  EXPECT_EQ((a ^ b).value(), 7 ^ 5);
  EXPECT_EQ((a << 1).value(), 14);
  EXPECT_EQ((a >> 1).value(), 3);
  EXPECT_TRUE((a > b).value());
  EXPECT_FALSE((a == b).value());
  EXPECT_TRUE((a != b).value());
  EXPECT_TRUE((a >= b).value());
  EXPECT_FALSE((a <= b).value());
  EXPECT_FALSE((a < b).value());
}

TEST_F(AnnotTest, MixedRawOperands) {
  gint a = 10;
  EXPECT_EQ((a + 3).value(), 13);
  EXPECT_EQ((3 + a).value(), 13);
  EXPECT_EQ((a - 4).value(), 6);
  EXPECT_EQ((20 - a).value(), 10);
  EXPECT_TRUE((a < 11).value());
  EXPECT_TRUE((9 < a).value());
}

TEST_F(AnnotTest, CompoundAssignments) {
  gint a = 10;
  a += 5;
  EXPECT_EQ(a.value(), 15);
  a -= 3;
  EXPECT_EQ(a.value(), 12);
  a *= 2;
  EXPECT_EQ(a.value(), 24);
  a /= 4;
  EXPECT_EQ(a.value(), 6);
  a %= 4;
  EXPECT_EQ(a.value(), 2);
  a <<= 3;
  EXPECT_EQ(a.value(), 16);
  a >>= 1;
  EXPECT_EQ(a.value(), 8);
}

TEST_F(AnnotTest, IncrementDecrement) {
  gint a = 5;
  EXPECT_EQ((++a).value(), 6);
  EXPECT_EQ((a++).value(), 6);
  EXPECT_EQ(a.value(), 7);
  EXPECT_EQ((--a).value(), 6);
  EXPECT_EQ((a--).value(), 6);
  EXPECT_EQ(a.value(), 5);
}

TEST_F(AnnotTest, ChargesPerOpCost) {
  table_.set(Op::kAdd, 2.0).set(Op::kMul, 5.0).set(Op::kAssignRes, 1.0);
  gint a = 1;                 // literal init: kAssignRes, 1
  gint b = 2;                 // literal init: kAssignRes, 1
  gint c = a * b + a;         // mul 5, add 2
  (void)c;                    // c init from temp: elided (prvalue)
  EXPECT_DOUBLE_EQ(accum_.sum_cycles(), 1 + 1 + 5 + 2);
  EXPECT_EQ(accum_.op_count(), 4u);
}

TEST_F(AnnotTest, LvalueAndRvalueAssignsChargeDifferentClasses) {
  table_.set(Op::kAssign, 3.0).set(Op::kAssignRes, 1.0).set(Op::kAdd, 0.0);
  gint a = 1;       // literal: kAssignRes (1)
  gint b = a;       // copy of a variable: kAssign (3)
  b = a;            // lvalue assignment: kAssign (3)
  b = a + 1;        // result assignment: kAssignRes (1)
  EXPECT_DOUBLE_EQ(accum_.sum_cycles(), 1 + 3 + 3 + 1);
}

TEST_F(AnnotTest, OpHistogramCountsEachKind) {
  gint a = 1;
  gint b = 2;
  gint c = a + b;
  gbool lt = a < b;
  (void)c;
  (void)lt;
  EXPECT_EQ(accum_.op_histogram[static_cast<size_t>(Op::kAssignRes)], 2u);
  EXPECT_EQ(accum_.op_histogram[static_cast<size_t>(Op::kAdd)], 1u);
  EXPECT_EQ(accum_.op_histogram[static_cast<size_t>(Op::kLt)], 1u);
}

TEST_F(AnnotTest, BranchChargedOnContextualConversion) {
  table_.set(Op::kBranch, 2.5).set(Op::kLt, 3.0);
  gint i = -1;
  if (i < 0) {
    // empty
  }
  EXPECT_DOUBLE_EQ(accum_.sum_cycles(), 3.0 + 2.5);
}

TEST_F(AnnotTest, WhileLoopChargesPerIteration) {
  table_.set(Op::kLt, 1.0).set(Op::kBranch, 1.0).set(Op::kAdd, 1.0).set(
      Op::kAssignRes, 1.0);
  gint i = 0;  // assign 1
  while (i < 3) {
    i = i + 1;  // add + assign = 2 per iteration
  }
  // condition evaluated 4 times (3 true + 1 false): (1+1)*4 = 8; body 3*2 = 6
  EXPECT_DOUBLE_EQ(accum_.sum_cycles(), 1 + 8 + 6);
}

TEST_F(AnnotTest, ArrayIndexCharged) {
  table_.set(Op::kIndex, 4.0).set(Op::kAssign, 1.0).set(Op::kAssignRes, 1.0);
  garray<int> arr(8);
  arr[2] = 7;  // index 4 + literal store 1
  gint v = arr[2];  // index 4 + element copy (lvalue) 1
  EXPECT_EQ(v.value(), 7);
  EXPECT_DOUBLE_EQ(accum_.sum_cycles(), 4 + 1 + 4 + 1);
}

TEST_F(AnnotTest, ArrayAnnotatedIndex) {
  garray<int> arr(8);
  arr.at_raw(5).set_raw(42);
  gint idx = 5;
  EXPECT_EQ(arr[idx].value(), 42);
}

TEST_F(AnnotTest, RawAccessChargesNothing) {
  table_ = CostTable::uniform(1.0);
  garray<int> arr(4);
  arr.at_raw(0).set_raw(3);
  EXPECT_EQ(arr.at_raw(0).value(), 3);
  EXPECT_DOUBLE_EQ(accum_.sum_cycles(), 0.0);
  EXPECT_EQ(accum_.op_count(), 0u);
}

TEST_F(AnnotTest, NoAccumMeansNoCharge) {
  tl_accum = nullptr;
  gint a = 1;
  gint b = a + a;
  EXPECT_EQ(b.value(), 2);
  EXPECT_DOUBLE_EQ(accum_.sum_cycles(), 0.0);
}

TEST_F(AnnotTest, FuncGuardChargesCallAndReturn) {
  table_.set(Op::kCall, 10.0).set(Op::kReturn, 4.0);
  {
    FuncGuard fg;
  }
  EXPECT_DOUBLE_EQ(accum_.sum_cycles(), 14.0);
}

TEST_F(AnnotTest, DoubleTypeWorks) {
  table_.set(Op::kMul, 4.0).set(Op::kAssignRes, 1.0);
  gdouble x = 1.5;
  gdouble y = x * 2.0;
  EXPECT_DOUBLE_EQ(y.value(), 3.0);
  EXPECT_DOUBLE_EQ(accum_.sum_cycles(), 1 + 4);
}

TEST_F(AnnotTest, SelfAssignmentAfterASegmentBoundaryReadsAnInput) {
  // The assigned value is the operand too, and it comes from an earlier
  // segment, so it is an input of this one: ready 0, external operand.
  table_.set(Op::kAdd, 10.0);
  accum_.track_ready = true;
  gint e(detail::RawTag{}, 1);
  e = e + 1;  // ready 10
  garray<int> v(2);
  v[1] = v[1] + 1;  // ready 10
  accum_.reset();

  const gint& same = e;
  e = same;  // x = x
  EXPECT_DOUBLE_EQ(accum_.max_ready, 0.0);
  ASSERT_EQ(accum_.dfg.size(), 1u);
  EXPECT_EQ(accum_.dfg.nodes[0].op, Op::kAssign);
  EXPECT_EQ(accum_.dfg.nodes[0].a, 0u);
  EXPECT_EQ(accum_.dfg.nodes[0].b, 0u);

  accum_.reset();
  const std::size_t i = 1, j = 1;
  v[i] = v[j];  // two kIndex nodes, then the copy
  EXPECT_DOUBLE_EQ(accum_.max_ready, 0.0);
  ASSERT_EQ(accum_.dfg.size(), 3u);
  EXPECT_EQ(accum_.dfg.nodes[2].op, Op::kAssign);
  EXPECT_EQ(accum_.dfg.nodes[2].a, 0u);
  EXPECT_EQ(accum_.dfg.nodes[2].b, 0u);
}

// ---- the paper's Figure 3 example, reproduced exactly ----------------------
//
//   Library parameters:   t= 2   t+ 1   t< 3   t[] 5   t_if 2.4   t_fc 18
//   Segment code:         if(i<0) i=c+d;  datai=array[i];  datao=func(datai);
//   Paper's delay calculation: 5.4, 8.4, 15.4, 35.4, final 75.8
//   (func's internal contribution is 40.4 cycles)

gint fig3_func(const gint& x) {
  FuncGuard fg;      // t_fc = 18 (charged as kCall; kReturn = 0 here)
  gint acc = 0;      // 2
  for (int i = 0; i < 11; ++i) {
    acc = acc + 1;   // 11 * (1 + 2) = 33
  }
  if (acc < 0) {     // 3 + 2.4 = 5.4   -> body total 2+33+5.4 = 40.4
    acc = 0;
  }
  (void)x;
  return acc;        // NRVO: no charge
}

TEST_F(AnnotTest, PaperFigure3DelayCalculation) {
  // The paper's single t= applies to every assignment class.
  table_.set(Op::kAssign, 2.0)
      .set(Op::kAssignRes, 2.0)
      .set(Op::kAdd, 1.0)
      .set(Op::kLt, 3.0)
      .set(Op::kIndex, 5.0)
      .set(Op::kBranch, 2.4)
      .set(Op::kCall, 18.0)
      .set(Op::kReturn, 0.0);

  // Pre-existing data (not part of the measured segment): raw-constructed.
  gint i(detail::RawTag{}, -1);
  gint c(detail::RawTag{}, 1);
  gint d(detail::RawTag{}, 2);
  garray<int> array(8);
  array.at_raw(3).set_raw(99);
  gint datai(detail::RawTag{}, 0);
  gint datao(detail::RawTag{}, 0);

  ASSERT_DOUBLE_EQ(accum_.sum_cycles(), 0.0);

  if (i < 0) {         // t_if + t<          -> time = 5.4
    i = c + d;         // t= + t+            -> time = 8.4
  }
  datai = array[i];    // t= + t[]           -> time = 15.4
  datao = fig3_func(datai);  // t= + t_fc + 40.4    -> time = 75.8

  EXPECT_DOUBLE_EQ(accum_.sum_cycles(), 75.8);
  EXPECT_EQ(datai.value(), 99);
  EXPECT_EQ(datao.value(), 11);

  // And the paper's intermediate checkpoints, re-derived:
  //   5.4 (if) + 3 (i=c+d) + 7 (datai=array[i]) + 2+18+40.4 (datao=func(..))
  EXPECT_DOUBLE_EQ(5.4 + 3.0 + 7.0 + 60.4, 75.8);
}

// ---- ready-time (HW critical path) tracking --------------------------------

class ReadyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = CostTable::uniform(0.0);
    table_.set(Op::kAdd, 1.0).set(Op::kMul, 2.0);
    accum_.table = &table_;
    accum_.track_ready = true;
    tl_accum = &accum_;
  }
  void TearDown() override { tl_accum = nullptr; }

  CostTable table_;
  SegmentAccum accum_;
};

TEST_F(ReadyTest, BalancedTreeCriticalPathShorterThanSum) {
  gint a(detail::RawTag{}, 1), b(detail::RawTag{}, 2);
  gint c(detail::RawTag{}, 3), d(detail::RawTag{}, 4);
  gint r = (a + b) + (c + d);  // 3 adds; depth 2
  EXPECT_EQ(r.value(), 10);
  EXPECT_DOUBLE_EQ(accum_.sum_cycles(), 3.0);
  EXPECT_DOUBLE_EQ(accum_.max_ready, 2.0);
}

TEST_F(ReadyTest, LinearChainCriticalPathEqualsSum) {
  gint a(detail::RawTag{}, 1);
  gint r = a + 1;
  r = r + 1;
  r = r + 1;
  // Note: the two `r = r + 1` assignments charge kAssign (cost 0 here) and
  // propagate readiness through the chain.
  EXPECT_DOUBLE_EQ(accum_.sum_cycles(), 3.0);
  EXPECT_DOUBLE_EQ(accum_.max_ready, 3.0);
}

TEST_F(ReadyTest, MulLatencyDominatesPath) {
  gint a(detail::RawTag{}, 2), b(detail::RawTag{}, 3);
  gint m = a * b;      // ready 2
  gint s = a + b;      // ready 1
  gint r = m + s;      // ready max(2,1)+1 = 3
  EXPECT_EQ(r.value(), 11);
  EXPECT_DOUBLE_EQ(accum_.max_ready, 3.0);
  EXPECT_DOUBLE_EQ(accum_.sum_cycles(), 4.0);
}

TEST_F(ReadyTest, EpochResetTreatsOldValuesAsInputs) {
  gint a(detail::RawTag{}, 1);
  gint x = a + 1;  // ready 1 in epoch E
  accum_.reset();  // new segment: epoch E+1
  gint y = x + 1;  // x is now an external input: ready(x) = 0
  (void)y;
  EXPECT_DOUBLE_EQ(accum_.max_ready, 1.0);
  EXPECT_DOUBLE_EQ(accum_.sum_cycles(), 1.0);
}

TEST_F(ReadyTest, CriticalPathNeverExceedsSum) {
  // Property: for any computation, BC <= WC.
  gint a(detail::RawTag{}, 3);
  gint acc(detail::RawTag{}, 0);
  for (int i = 0; i < 20; ++i) {
    if (i % 2 == 0) {
      acc = acc + a;
    } else {
      acc = acc * a;
    }
  }
  EXPECT_LE(accum_.max_ready, accum_.sum_cycles());
  EXPECT_GT(accum_.max_ready, 0.0);
}

// ---- DFG recording ----------------------------------------------------------

class DfgTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = CostTable::uniform(1.0);
    accum_.table = &table_;
    accum_.track_ready = true;
    tl_accum = &accum_;
  }
  void TearDown() override { tl_accum = nullptr; }

  CostTable table_;
  SegmentAccum accum_;
};

TEST_F(DfgTest, RecordsOperationsWithDependencies) {
  gint a(detail::RawTag{}, 1), b(detail::RawTag{}, 2);
  gint s = a + b;   // node 1: add(input, input)
  gint p = s * s;   // node 2 references node 1 via s's stamp... through assign
  (void)p;
  ASSERT_GE(accum_.dfg.size(), 2u);
  EXPECT_EQ(accum_.dfg.nodes[0].op, Op::kAdd);
  EXPECT_EQ(accum_.dfg.nodes[0].a, 0u);
  EXPECT_EQ(accum_.dfg.nodes[0].b, 0u);
}

TEST_F(DfgTest, ChainedDependencyPointsAtProducer) {
  gint a(detail::RawTag{}, 1), b(detail::RawTag{}, 2);
  gint s = a + b;       // add -> node 1, then assign -> node 2 (copy)
  gint t = s + 1;       // add(node2, input)
  (void)t;
  // Find the second add and check it depends on an earlier node, not input.
  int adds = 0;
  for (std::size_t i = 0; i < accum_.dfg.size(); ++i) {
    if (accum_.dfg.nodes[i].op == Op::kAdd) {
      ++adds;
      if (adds == 2) {
        EXPECT_NE(accum_.dfg.nodes[i].a, 0u);
      }
    }
  }
  EXPECT_EQ(adds, 2);
}

TEST_F(DfgTest, ResetClearsGraph) {
  gint a(detail::RawTag{}, 1);
  gint b = a + 1;
  (void)b;
  EXPECT_FALSE(accum_.dfg.empty());
  accum_.reset();
  EXPECT_TRUE(accum_.dfg.empty());
}

}  // namespace
}  // namespace scperf
