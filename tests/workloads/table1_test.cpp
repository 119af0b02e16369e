#include "workloads/table1.hpp"

#include <gtest/gtest.h>

#include "core/scperf.hpp"

namespace workloads {
namespace {

/// The three forms of each benchmark implement the same algorithm on the
/// same data: their checksums must agree exactly. This is the guard that the
/// timing comparison (Table 1) compares like with like.
class Table1Forms : public ::testing::TestWithParam<std::size_t> {
 protected:
  const Benchmark& bench() const { return table1_suite()[GetParam()]; }
};

TEST_P(Table1Forms, ReferenceAndAnnotatedAgree) {
  EXPECT_EQ(bench().reference(), bench().annotated());
}

TEST_P(Table1Forms, ReferenceAndIssAgree) {
  EXPECT_EQ(bench().reference(), bench().iss({}).checksum);
}

TEST_P(Table1Forms, IssMakesProgress) {
  const IssResult r = bench().iss({});
  EXPECT_GT(r.instructions, 0u);
  EXPECT_GE(r.cycles, r.instructions);  // every instruction costs >= 1 cycle
}

TEST_P(Table1Forms, AnnotatedChargesOps) {
  scperf::CostTable t = scperf::orsim_sw_cost_table();
  scperf::SegmentAccum acc;
  acc.table = &t;
  scperf::tl_accum = &acc;
  (void)bench().annotated();
  scperf::tl_accum = nullptr;
  EXPECT_GT(acc.op_count(), 0u);
  EXPECT_GT(acc.sum_cycles(), 0.0);
}

/// The headline accuracy claim of Table 1: the library estimate tracks the
/// cycle-accurate ISS within a few percent. The paper reports errors below
/// 4.5%; the shipped calibration achieves well under that on this suite, and
/// this test locks the bound in so a regression of the cost table or the
/// cycle model is caught.
TEST_P(Table1Forms, LibraryEstimateWithinFivePercentOfIss) {
  scperf::CostTable t = scperf::orsim_sw_cost_table();
  scperf::SegmentAccum acc;
  acc.table = &t;
  scperf::tl_accum = &acc;
  (void)bench().annotated();
  scperf::tl_accum = nullptr;

  const IssResult iss = bench().iss({});
  const double err =
      (acc.sum_cycles() - static_cast<double>(iss.cycles)) /
      static_cast<double>(iss.cycles);
  EXPECT_LT(std::abs(err), 0.05)
      << bench().name << ": library " << acc.sum_cycles() << " vs ISS "
      << iss.cycles;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, Table1Forms, ::testing::Range<std::size_t>(0, 6),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      std::string n = table1_suite()[info.param].name;
      for (char& c : n) {
        if (c == ' ') c = '_';
      }
      return n;
    });

TEST(Table1Suite, HasSixBenchmarksInPaperOrder) {
  const auto& s = table1_suite();
  ASSERT_EQ(s.size(), 6u);
  EXPECT_EQ(s[0].name, "FIR");
  EXPECT_EQ(s[1].name, "Compress");
  EXPECT_EQ(s[2].name, "Quick sort");
  EXPECT_EQ(s[3].name, "Bubble");
  EXPECT_EQ(s[4].name, "Fibonacci");
  EXPECT_EQ(s[5].name, "Array");
}

TEST(OutOfSample, MatrixFormsAgree) {
  const Benchmark m = make_matrix();
  EXPECT_EQ(m.reference(), m.annotated());
  EXPECT_EQ(m.reference(), m.iss({}).checksum);
}

TEST(OutOfSample, MatrixEstimateWithinTenPercent) {
  // The matrix kernel was never part of the calibration fit, so its error
  // measures generalisation; a looser band than the in-sample 5% applies.
  const Benchmark m = make_matrix();
  scperf::CostTable t = scperf::orsim_sw_cost_table();
  scperf::SegmentAccum acc;
  acc.table = &t;
  scperf::tl_accum = &acc;
  (void)m.annotated();
  scperf::tl_accum = nullptr;
  const IssResult iss = m.iss({});
  const double err = (acc.sum_cycles() - static_cast<double>(iss.cycles)) /
                     static_cast<double>(iss.cycles);
  EXPECT_LT(std::abs(err), 0.10)
      << "library " << acc.sum_cycles() << " vs ISS " << iss.cycles;
}

TEST(OutOfSample, NaiveIndexingOverestimates) {
  // Documented limitation of source-level estimation: the naive
  // `a[i*N+k]` indexing charges two address multiplies per MAC that any
  // optimising compiler strength-reduces away, so the naive form
  // over-estimates substantially. (The shipped matrix benchmark hoists the
  // index arithmetic, the usual source style.)
  constexpr int kN = 8;
  scperf::CostTable t = scperf::orsim_sw_cost_table();
  scperf::SegmentAccum naive_acc;
  naive_acc.table = &t;
  scperf::SegmentAccum hoisted_acc;
  hoisted_acc.table = &t;

  scperf::garray<int> a(kN * kN), b(kN * kN), c(kN * kN);
  for (int p = 0; p < kN * kN; ++p) {
    a.at_raw(static_cast<std::size_t>(p)).set_raw(p % 7);
    b.at_raw(static_cast<std::size_t>(p)).set_raw(p % 5);
  }

  scperf::tl_accum = &naive_acc;
  {
    scperf::gint i = 0;
    while (i < kN) {
      scperf::gint j = 0;
      while (j < kN) {
        scperf::gint acc = 0;
        scperf::gint k = 0;
        while (k < kN) {
          acc = acc + a[i * kN + k] * b[k * kN + j];
          k = k + 1;
        }
        c[i * kN + j] = acc;
        j = j + 1;
      }
      i = i + 1;
    }
  }
  scperf::tl_accum = &hoisted_acc;
  {
    scperf::gint i = 0;
    while (i < kN) {
      scperf::gint arow = i * kN;
      scperf::gint j = 0;
      while (j < kN) {
        scperf::gint acc = 0;
        scperf::gint bidx = j;
        scperf::gint k = 0;
        while (k < kN) {
          acc = acc + a[arow + k] * b[bidx];
          bidx = bidx + kN;
          k = k + 1;
        }
        c[arow + j] = acc;
        j = j + 1;
      }
      i = i + 1;
    }
  }
  scperf::tl_accum = nullptr;
  EXPECT_GT(naive_acc.sum_cycles(), 1.15 * hoisted_acc.sum_cycles());
}

TEST(Table1Suite, ChecksumsAreStableAcrossRuns) {
  // Deterministic data generation: repeated runs must agree.
  for (const auto& b : table1_suite()) {
    EXPECT_EQ(b.reference(), b.reference()) << b.name;
  }
}

}  // namespace
}  // namespace workloads
