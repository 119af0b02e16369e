#include "trace/vcd.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/capture.hpp"
#include "kernel/simulator.hpp"

namespace sctrace {
namespace {

TEST(Vcd, HeaderAndDefinitions) {
  scperf::CaptureRegistry reg;
  scperf::CapturePoint cp("out rate", reg);
  std::ostringstream os;
  write_vcd(os, reg);
  const std::string s = os.str();
  EXPECT_NE(s.find("$timescale 1ns $end"), std::string::npos);
  EXPECT_NE(s.find("$var real 64 ! out_rate $end"), std::string::npos);
  EXPECT_NE(s.find("$enddefinitions $end"), std::string::npos);
}

TEST(Vcd, EventsEmittedInTimeOrder) {
  minisc::Simulator sim;
  scperf::CaptureRegistry reg;
  scperf::CapturePoint a("a", reg);
  scperf::CapturePoint b("b", reg);
  sim.spawn("p", [&] {
    minisc::wait(minisc::Time::ns(5));
    b.record(2.0);
    minisc::wait(minisc::Time::ns(5));
    a.record(1.0);
  });
  sim.run();
  std::ostringstream os;
  write_vcd(os, reg);
  const std::string s = os.str();
  const auto p5 = s.find("#5");
  const auto p10 = s.find("#10");
  ASSERT_NE(p5, std::string::npos);
  ASSERT_NE(p10, std::string::npos);
  EXPECT_LT(p5, p10);
  EXPECT_NE(s.find("r2 \""), std::string::npos);  // b is the 2nd var: id '"'
  EXPECT_NE(s.find("r1 !"), std::string::npos);   // a is the 1st var: id '!'
}

TEST(Vcd, SameInstantEventsShareTimestamp) {
  scperf::CaptureRegistry reg;
  scperf::CapturePoint a("a", reg);
  a.record(1.0);
  a.record(2.0);
  std::ostringstream os;
  write_vcd(os, reg);
  const std::string s = os.str();
  // Only one "#0" marker for both dumps.
  EXPECT_EQ(s.find("#0"), s.rfind("#0"));
}

TEST(Vcd, IdCodesStayPrintableForManyPoints) {
  scperf::CaptureRegistry reg;
  std::vector<std::unique_ptr<scperf::CapturePoint>> points;
  for (int i = 0; i < 120; ++i) {
    points.push_back(std::make_unique<scperf::CapturePoint>(
        std::string("p").append(std::to_string(i)), reg));
  }
  std::ostringstream os;
  write_vcd(os, reg);
  for (char c : os.str()) {
    EXPECT_TRUE(c == '\n' || (c >= ' ' && c <= '~'));
  }
}

}  // namespace
}  // namespace sctrace
