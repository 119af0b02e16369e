#include "core/capture.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "kernel/simulator.hpp"

namespace scperf {
namespace {

TEST(Capture, RecordsSimulatedTimeAndValue) {
  minisc::Simulator sim;
  CaptureRegistry reg;
  CapturePoint cp("out_rate", reg);
  sim.spawn("p", [&] {
    minisc::wait(minisc::Time::ns(10));
    cp.record(1.5);
    minisc::wait(minisc::Time::ns(20));
    cp.record(2.5);
  });
  sim.run();
  ASSERT_EQ(cp.events().size(), 2u);
  EXPECT_EQ(cp.events()[0].time, minisc::Time::ns(10));
  EXPECT_DOUBLE_EQ(cp.events()[0].value, 1.5);
  EXPECT_EQ(cp.events()[1].time, minisc::Time::ns(30));
  EXPECT_DOUBLE_EQ(cp.events()[1].value, 2.5);
}

TEST(Capture, ConditionalRecording) {
  minisc::Simulator sim;
  CaptureRegistry reg;
  CapturePoint cp("errors", reg);
  sim.spawn("p", [&] {
    for (int i = 0; i < 10; ++i) {
      cp.record_if(i % 3 == 0, i);
      minisc::wait(minisc::Time::ns(1));
    }
  });
  sim.run();
  ASSERT_EQ(cp.events().size(), 4u);  // i = 0, 3, 6, 9
  EXPECT_DOUBLE_EQ(cp.events()[3].value, 9.0);
}

TEST(Capture, WorksOutsideSimulation) {
  CaptureRegistry reg;
  CapturePoint cp("standalone", reg);
  cp.record(7.0);
  ASSERT_EQ(cp.events().size(), 1u);
  EXPECT_EQ(cp.events()[0].time, minisc::Time::zero());
}

TEST(Capture, RegistryFindsPointsByName) {
  CaptureRegistry reg;
  CapturePoint a("alpha", reg);
  CapturePoint b("beta", reg);
  EXPECT_EQ(reg.find("alpha"), &a);
  EXPECT_EQ(reg.find("beta"), &b);
  EXPECT_EQ(reg.find("gamma"), nullptr);
}

TEST(Capture, PointDetachesOnDestruction) {
  CaptureRegistry reg;
  {
    CapturePoint tmp("temp", reg);
    EXPECT_EQ(reg.points().size(), 1u);
  }
  EXPECT_TRUE(reg.points().empty());
}

TEST(Capture, CsvOutput) {
  CaptureRegistry reg;
  CapturePoint cp("rate", reg);
  cp.record(3.0);
  std::ostringstream os;
  reg.write_csv(os);
  EXPECT_NE(os.str().find("time_ns,point,value"), std::string::npos);
  EXPECT_NE(os.str().find("0,rate,3"), std::string::npos);
}

TEST(Capture, MatlabOutputSanitisesNames) {
  CaptureRegistry reg;
  CapturePoint cp("out.rate-1", reg);
  cp.record(1.0);
  std::ostringstream os;
  reg.write_matlab(os);
  EXPECT_NE(os.str().find("out_rate_1 = ["), std::string::npos);
}

// ---- nondeterminism detection (§6) ------------------------------------------

TEST(Capture, HashEqualForIdenticalValueSequences) {
  CaptureRegistry r1, r2;
  CapturePoint a1("a", r1), b1("b", r1);
  CapturePoint a2("a", r2), b2("b", r2);
  a1.record(1.0);
  b1.record(2.0);
  // Different global interleaving, same per-point sequences:
  b2.record(2.0);
  a2.record(1.0);
  EXPECT_EQ(r1.value_sequence_hash(), r2.value_sequence_hash());
}

TEST(Capture, HashDiffersWhenValuesDiffer) {
  CaptureRegistry r1, r2;
  CapturePoint a1("a", r1);
  CapturePoint a2("a", r2);
  a1.record(1.0);
  a2.record(99.0);
  EXPECT_NE(r1.value_sequence_hash(), r2.value_sequence_hash());
}

TEST(Capture, HashSensitiveToWithinPointOrder) {
  CaptureRegistry r1, r2;
  CapturePoint a1("a", r1);
  CapturePoint a2("a", r2);
  a1.record(1.0);
  a1.record(2.0);
  a2.record(2.0);
  a2.record(1.0);
  EXPECT_NE(r1.value_sequence_hash(), r2.value_sequence_hash());
}

TEST(Capture, HashIsPinned) {
  // A name char with the high bit set is sign-extended before it is folded.
  CaptureRegistry reg;
  CapturePoint p("\xe9t\xe9", reg);
  p.record(1.5);
  p.record(-0.0);
  p.record(-3.25);
  EXPECT_EQ(reg.value_sequence_hash(), 0x6a8166afc662c6e4ull);
}

TEST(Capture, ClearEventsKeepsRegistrations) {
  CaptureRegistry reg;
  CapturePoint cp("x", reg);
  cp.record(1.0);
  reg.clear_events();
  EXPECT_TRUE(cp.events().empty());
  EXPECT_EQ(reg.points().size(), 1u);
}

}  // namespace
}  // namespace scperf
