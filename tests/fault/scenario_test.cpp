#include "fault/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace scfault {
namespace {

using minisc::Time;

ScenarioConfig demo_config() {
  ScenarioConfig cfg;
  cfg.horizon = Time::us(100);
  cfg.pulses.push_back({"cpu0", 10, 50.0, 150.0});
  cfg.pulses.push_back({"dsp", 4, 10.0, 20.0});
  cfg.outages.push_back({"cpu0", 3, Time::us(1), Time::us(5)});
  cfg.channel_faults.push_back(
      {"link", 0.1, 0.05, 0.2, Time::ns(10), Time::ns(500), {}});
  cfg.crashes.push_back({"worker", Time::us(30), Time::us(1)});
  cfg.crashes.push_back({"worker", Time::us(10), Time::us(1)});
  return cfg;
}

TEST(Scenario, SameSeedYieldsIdenticalTimeline) {
  FaultScenario a(demo_config(), 1234);
  FaultScenario b(demo_config(), 1234);
  ASSERT_EQ(a.pulses().size(), b.pulses().size());
  for (std::size_t i = 0; i < a.pulses().size(); ++i) {
    EXPECT_EQ(a.pulses()[i].resource, b.pulses()[i].resource);
    EXPECT_EQ(a.pulses()[i].at, b.pulses()[i].at);
    EXPECT_DOUBLE_EQ(a.pulses()[i].extra_cycles, b.pulses()[i].extra_cycles);
  }
  ASSERT_EQ(a.outages().size(), b.outages().size());
  for (std::size_t i = 0; i < a.outages().size(); ++i) {
    EXPECT_EQ(a.outages()[i].start, b.outages()[i].start);
    EXPECT_EQ(a.outages()[i].length, b.outages()[i].length);
  }
}

TEST(Scenario, DifferentSeedsYieldDifferentTimelines) {
  FaultScenario a(demo_config(), 1);
  FaultScenario b(demo_config(), 2);
  ASSERT_EQ(a.pulses().size(), b.pulses().size());
  bool any_diff = false;
  for (std::size_t i = 0; i < a.pulses().size(); ++i) {
    if (a.pulses()[i].at != b.pulses()[i].at) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Scenario, DrawsRespectSpecBounds) {
  FaultScenario sc(demo_config(), 99);
  EXPECT_EQ(sc.pulses().size(), 14u);  // 10 + 4
  for (const Pulse& p : sc.pulses()) {
    EXPECT_LT(p.at, Time::us(100));
    if (p.resource == "cpu0") {
      EXPECT_GE(p.extra_cycles, 50.0);
      EXPECT_LE(p.extra_cycles, 150.0);
    } else {
      EXPECT_GE(p.extra_cycles, 10.0);
      EXPECT_LE(p.extra_cycles, 20.0);
    }
  }
  for (const Outage& o : sc.outages()) {
    EXPECT_GE(o.length, Time::us(1));
    EXPECT_LE(o.length, Time::us(5));
  }
}

TEST(Scenario, TimelinesAreSorted) {
  FaultScenario sc(demo_config(), 7);
  EXPECT_TRUE(std::is_sorted(
      sc.pulses().begin(), sc.pulses().end(),
      [](const Pulse& a, const Pulse& b) { return a.at < b.at; }));
  EXPECT_TRUE(std::is_sorted(
      sc.outages().begin(), sc.outages().end(),
      [](const Outage& a, const Outage& b) { return a.start < b.start; }));
  // Crashes were given out of order in the config; the scenario sorts them.
  ASSERT_EQ(sc.crashes().size(), 2u);
  EXPECT_EQ(sc.crashes()[0].at, Time::us(10));
  EXPECT_EQ(sc.crashes()[1].at, Time::us(30));
  const auto times = sc.fault_times();
  EXPECT_EQ(times.size(), 14u + 3u + 2u);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
}

TEST(Scenario, ChannelStreamDependsOnlyOnSeedAndName) {
  FaultScenario a(demo_config(), 5);
  ScenarioConfig other = demo_config();
  other.pulses.clear();  // unrelated changes must not move channel streams
  FaultScenario b(other, 5);
  minisc::Rng ra = a.channel_stream("link");
  minisc::Rng rb = b.channel_stream("link");
  for (int i = 0; i < 16; ++i) EXPECT_EQ(ra.next(), rb.next());
  minisc::Rng rc = a.channel_stream("other_link");
  minisc::Rng rd = a.channel_stream("link");
  bool differs = false;
  for (int i = 0; i < 16; ++i) {
    if (rc.next() != rd.next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Scenario, ExactChannelSpecBeatsWildcard) {
  ScenarioConfig cfg;
  cfg.horizon = Time::us(1);
  cfg.channel_faults.push_back({"*", 0.5, 0.0, 0.0, Time::zero(), Time::zero(), {}});
  cfg.channel_faults.push_back(
      {"link", 0.1, 0.0, 0.0, Time::zero(), Time::zero(), {}});
  FaultScenario sc(cfg, 1);
  ASSERT_NE(sc.channel_spec("link"), nullptr);
  EXPECT_DOUBLE_EQ(sc.channel_spec("link")->drop_p, 0.1);
  ASSERT_NE(sc.channel_spec("anything"), nullptr);
  EXPECT_DOUBLE_EQ(sc.channel_spec("anything")->drop_p, 0.5);
  ScenarioConfig none;
  none.horizon = Time::us(1);
  FaultScenario empty(none, 1);
  EXPECT_EQ(empty.channel_spec("link"), nullptr);
}

TEST(Rng, BoundedIsUnbiasedAcrossBuckets) {
  // Lemire rejection sampling: every residue of a non-power-of-two bound must
  // come up at its fair share. A modulo-biased generator fails the chi-square
  // bound below for n = 3 (the classic worst case: 2^64 mod 3 != 0).
  minisc::Rng rng(2024);
  constexpr std::uint64_t kBuckets = 3;
  constexpr int kDraws = 300000;
  int counts[kBuckets] = {0, 0, 0};
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t v = rng.bounded(kBuckets);
    ASSERT_LT(v, kBuckets);
    ++counts[v];
  }
  const double expected = static_cast<double>(kDraws) / kBuckets;
  double chi2 = 0.0;
  for (int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  // 2 degrees of freedom: P(chi2 > 13.8) < 0.001. Deterministic generator,
  // so this either always passes or flags a real bias.
  EXPECT_LT(chi2, 13.8);
}

TEST(Rng, BoundedCoversEdges) {
  minisc::Rng rng(7);
  // Tiny bound: both values must appear, nothing outside.
  bool saw0 = false, saw1 = false;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t v = rng.bounded(2);
    ASSERT_LT(v, 2u);
    (v == 0 ? saw0 : saw1) = true;
  }
  EXPECT_TRUE(saw0);
  EXPECT_TRUE(saw1);
  EXPECT_EQ(rng.bounded(1), 0u);
  // n == 0 is documented as the full 64-bit range (no crash, no clamp).
  (void)rng.bounded(0);
}

TEST(Rng, TimeInReachesBothInclusiveEndpoints) {
  minisc::Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 4000; ++i) {
    const Time t = rng.time_in(Time::ps(10), Time::ps(13));
    ASSERT_GE(t, Time::ps(10));
    ASSERT_LE(t, Time::ps(13));
    if (t == Time::ps(10)) saw_lo = true;
    if (t == Time::ps(13)) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Scenario, StormDrawsClusterInsideWindow) {
  ScenarioConfig cfg;
  cfg.horizon = Time::ms(1);
  cfg.storms.push_back(
      {"cpu0", 3, 0.9, 6, Time::us(50), Time::us(1), Time::us(2)});
  FaultScenario sc(cfg, 77);
  // At least the 3 centres; every member respects the length bounds and the
  // per-storm cap bounds the total.
  ASSERT_GE(sc.outages().size(), 3u);
  EXPECT_LE(sc.outages().size(), 3u * 6u);
  for (const Outage& o : sc.outages()) {
    EXPECT_EQ(o.resource, "cpu0");
    EXPECT_GE(o.length, Time::us(1));
    EXPECT_LE(o.length, Time::us(2));
  }
  EXPECT_TRUE(std::is_sorted(
      sc.outages().begin(), sc.outages().end(),
      [](const Outage& a, const Outage& b) { return a.start < b.start; }));
  // continue_p = 0.9 makes singleton storms vanishingly rare across 3 draws:
  // the clustered count must exceed the centre count.
  EXPECT_GT(sc.outages().size(), 3u);
}

TEST(Scenario, StormMembersStayNearTheirCentre) {
  // One storm, so every outage belongs to the same cluster: the whole spread
  // must fit in the window.
  ScenarioConfig cfg;
  cfg.horizon = Time::ms(10);
  cfg.storms.push_back(
      {"bus", 1, 0.95, 8, Time::us(20), Time::ns(100), Time::ns(100)});
  FaultScenario sc(cfg, 5);
  ASSERT_GE(sc.outages().size(), 1u);
  const Time first = sc.outages().front().start;
  const Time last = sc.outages().back().start;
  EXPECT_LT(last - first, Time::us(20));
}

TEST(Scenario, StormsAreDeterministicAndIndependentOfOtherSpecs) {
  ScenarioConfig cfg;
  cfg.horizon = Time::ms(1);
  cfg.storms.push_back(
      {"cpu0", 2, 0.8, 5, Time::us(30), Time::us(1), Time::us(1)});
  FaultScenario a(cfg, 99);
  ScenarioConfig with_extras = cfg;
  with_extras.pulses.push_back({"cpu0", 7, 1.0, 2.0});
  with_extras.channel_faults.push_back(
      {"ch", 0.5, 0.0, 0.0, Time::zero(), Time::zero(), {}});
  FaultScenario b(with_extras, 99);
  // Same seed, unrelated additions: identical storm timeline (sub-stream
  // discipline). Compare the storm-only scenario against b's cpu0 outages.
  std::vector<Outage> b_storm;
  for (const Outage& o : b.outages()) {
    if (o.resource == "cpu0") b_storm.push_back(o);
  }
  ASSERT_EQ(a.outages().size(), b_storm.size());
  for (std::size_t i = 0; i < b_storm.size(); ++i) {
    EXPECT_EQ(a.outages()[i].start, b_storm[i].start);
    EXPECT_EQ(a.outages()[i].length, b_storm[i].length);
  }
}

TEST(Scenario, ConfigDigestIsStableAndSensitiveToEveryField) {
  ScenarioConfig cfg;
  cfg.horizon = Time::ms(1);
  cfg.pulses.push_back({"cpu0", 3, 1.0, 2.0});
  cfg.outages.push_back({"bus", 2, Time::us(1), Time::us(5)});
  cfg.storms.push_back(
      {"cpu1", 1, 0.5, 8, Time::us(10), Time::us(1), Time::us(2)});
  cfg.channel_faults.push_back(
      {"ch", 0.1, 0.05, 0.0, Time::zero(), Time::ns(10), {}});
  cfg.crashes.push_back({"proc", Time::us(3), Time::us(7)});

  // Value-identical configs digest identically (the journal resume check
  // depends on this being a pure function of the spec's values).
  ScenarioConfig copy = cfg;
  EXPECT_EQ(config_digest(cfg), config_digest(copy));

  // Any single-field edit changes the digest.
  const std::uint64_t base = config_digest(cfg);
  ScenarioConfig m = cfg;
  m.horizon = Time::ms(2);
  EXPECT_NE(config_digest(m), base);
  m = cfg;
  m.pulses[0].max_extra_cycles = 2.5;
  EXPECT_NE(config_digest(m), base);
  m = cfg;
  m.outages[0].count = 3;
  EXPECT_NE(config_digest(m), base);
  m = cfg;
  m.storms[0].continue_p = 0.6;
  EXPECT_NE(config_digest(m), base);
  m = cfg;
  m.channel_faults[0].drop_p = 0.2;
  EXPECT_NE(config_digest(m), base);
  m = cfg;
  m.crashes[0].restart_after = Time::us(8);
  EXPECT_NE(config_digest(m), base);

  // Engaging a Gilbert–Elliott burst — even one whose fields are all
  // defaults — is a different model and must change the digest.
  m = cfg;
  m.channel_faults[0].burst = GilbertElliottSpec{};
  EXPECT_NE(config_digest(m), base);
  // And editing a field inside the engaged burst changes it again.
  ScenarioConfig m2 = m;
  m2.channel_faults[0].burst->p_enter = 0.01;
  EXPECT_NE(config_digest(m2), config_digest(m));

  // Appending a spec changes the digest even if existing entries are equal.
  m = cfg;
  m.pulses.push_back({"cpu0", 3, 1.0, 2.0});
  EXPECT_NE(config_digest(m), base);

  // An empty config still has a defined digest distinct from a populated one.
  EXPECT_NE(config_digest(ScenarioConfig{}), base);
}

TEST(Rng, UniformStaysInRange) {
  minisc::Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const Time t = rng.time_in(Time::ns(10), Time::ns(20));
    EXPECT_GE(t, Time::ns(10));
    EXPECT_LE(t, Time::ns(20));
  }
  EXPECT_EQ(rng.time_in(Time::ns(5), Time::ns(5)), Time::ns(5));
}

}  // namespace
}  // namespace scfault
