// Statistical properties of the deterministic RNG layer the fault and
// campaign subsystems and the retry jitter are built on: minisc::Rng
// (splitmix64), its Lemire-rejection bounded() draw, the mix_seed sub-stream
// derivation, and the per-channel stream isolation of FaultScenario.
//
// These are fixed-seed tests of fixed algorithms, so every statistic below
// is deterministic — the thresholds are classical critical values with
// headroom, not flaky tolerances. The load-bearing claims:
//   - uniform() passes a Kolmogorov–Smirnov uniformity test;
//   - bounded(k) is chi-square-uniform over its k buckets, including
//     non-power-of-two k (the modulo-bias trap the rejection loop exists
//     to avoid);
//   - mix_seed sub-streams, adjacent-seed streams and per-channel scenario
//     streams are pairwise decorrelated — the property that lets a campaign
//     add a channel or a fault spec without perturbing the draws every
//     other spec sees;
//   - pulse occurrence draws (PulseSpec::occur_p) consume a stream that is
//     independent of the channel streams: adding channel faults to a
//     scenario leaves the pulse timeline bit-identical.

#include "fault/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "kernel/hash.hpp"
#include "kernel/time.hpp"

namespace scfault {
namespace {

using minisc::Time;

/// Chi-square statistic of `draws` draws of rng.bounded(k) against the
/// uniform expectation.
template <typename Draw>
double chi_square(Draw draw, std::size_t k, std::size_t draws) {
  std::vector<std::size_t> counts(k, 0);
  for (std::size_t i = 0; i < draws; ++i) ++counts[draw()];
  const double expected = static_cast<double>(draws) / static_cast<double>(k);
  double stat = 0.0;
  for (const std::size_t c : counts) {
    const double d = static_cast<double>(c) - expected;
    stat += d * d / expected;
  }
  return stat;
}

/// Kolmogorov–Smirnov distance of `draws` uniform() samples against U[0,1).
double ks_distance(minisc::Rng rng, std::size_t draws) {
  std::vector<double> xs(draws);
  for (double& x : xs) x = rng.uniform();
  std::sort(xs.begin(), xs.end());
  double d = 0.0;
  for (std::size_t i = 0; i < draws; ++i) {
    const double lo = static_cast<double>(i) / static_cast<double>(draws);
    const double hi = static_cast<double>(i + 1) / static_cast<double>(draws);
    d = std::max(d, std::max(xs[i] - lo, hi - xs[i]));
  }
  return d;
}

/// Pearson correlation of two equal-length uniform draw sequences.
double correlation(minisc::Rng a, minisc::Rng b, std::size_t draws) {
  double sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
  for (std::size_t i = 0; i < draws; ++i) {
    const double x = a.uniform();
    const double y = b.uniform();
    sa += x;
    sb += y;
    saa += x * x;
    sbb += y * y;
    sab += x * y;
  }
  const double n = static_cast<double>(draws);
  const double cov = sab / n - (sa / n) * (sb / n);
  const double va = saa / n - (sa / n) * (sa / n);
  const double vb = sbb / n - (sb / n) * (sb / n);
  return cov / std::sqrt(va * vb);
}

TEST(RngProperty, UniformPassesKolmogorovSmirnov) {
  // KS critical value at alpha = 0.001 is ~1.95 / sqrt(n); these seeds are
  // fixed, so a pass is a property of the algorithm, not luck.
  for (const std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
    const std::size_t n = 20000;
    const double d = ks_distance(minisc::Rng(seed), n);
    EXPECT_LT(d * std::sqrt(static_cast<double>(n)), 1.95) << "seed " << seed;
  }
}

TEST(RngProperty, Splitmix64U01PassesKolmogorovSmirnov) {
  // The retry/backoff layer scales each delay by a splitmix64 U[0,1) draw
  // seeded with jitter_seed; this is that stream for jitter_seed 99.
  const std::size_t n = 20000;
  const double d = ks_distance(minisc::Rng(99), n);
  EXPECT_LT(d * std::sqrt(static_cast<double>(n)), 1.95);
}

TEST(RngProperty, BoundedIsChiSquareUniform) {
  // df = k-1 = 15; the 99.9th percentile of chi-square(15) is 37.7.
  minisc::Rng rng(7);
  const double stat =
      chi_square([&] { return rng.bounded(16); }, 16, 160000);
  EXPECT_LT(stat, 37.7);
}

TEST(RngProperty, BoundedHasNoModuloBiasOnAwkwardRanges) {
  // Non-power-of-two ranges are where naive `next() % k` shows bias; the
  // rejection loop must keep them flat. df = k-1 thresholds at ~p=0.999.
  minisc::Rng rng(1234);
  EXPECT_LT(chi_square([&] { return rng.bounded(3); }, 3, 90000),
            13.8);  // chi2(2) @ .999
  EXPECT_LT(chi_square([&] { return rng.bounded(7); }, 7, 140000),
            22.5);  // chi2(6) @ .999
  EXPECT_LT(chi_square([&] { return rng.bounded(1000); }, 1000, 1000000),
            1168.0);  // chi2(999) @ .999
}

TEST(RngProperty, MixSeedSubStreamsAreDecorrelated) {
  const std::uint64_t seed = 42;
  // Sub-streams of one seed, and the same stream id under adjacent seeds:
  // both pairs must look independent, or adding a fault spec would bend
  // every other spec's timeline.
  const auto stream = [](std::uint64_t s, std::uint64_t id) {
    return minisc::Rng(minisc::mix_seed(s, id));
  };
  EXPECT_LT(std::abs(correlation(stream(seed, 1), stream(seed, 2), 20000)),
            0.05);
  EXPECT_LT(
      std::abs(correlation(stream(seed, 1), stream(seed + 1, 1), 20000)),
      0.05);
  // Raw adjacent seeds (the campaign's seed, seed+1, ... stream).
  EXPECT_LT(std::abs(correlation(minisc::Rng(seed), minisc::Rng(seed + 1),
                                 20000)),
            0.05);
}

TEST(RngProperty, ChannelStreamsAreMutuallyDecorrelated) {
  ScenarioConfig cfg;
  cfg.horizon = Time::ms(1);
  const FaultScenario scenario(cfg, 42);
  EXPECT_LT(std::abs(correlation(scenario.channel_stream("alpha"),
                                 scenario.channel_stream("beta"), 20000)),
            0.05);
  // Same channel name, different scenario seed: also independent.
  const FaultScenario other(cfg, 43);
  EXPECT_LT(std::abs(correlation(scenario.channel_stream("alpha"),
                                 other.channel_stream("alpha"), 20000)),
            0.05);
}

TEST(RngProperty, PulseDrawsAreIndependentOfChannelSpecs) {
  // The occurrence draws behind PulseSpec::occur_p must come from the
  // pulse spec's own sub-stream: adding channel fault specs to the config
  // leaves the pulse timeline bit-identical.
  ScenarioConfig plain;
  plain.horizon = Time::ms(1);
  plain.pulses.push_back({"cpu0", 64, 10.0, 20.0, /*occur_p=*/0.5});

  ScenarioConfig with_channels = plain;
  with_channels.channel_faults.push_back(
      {"link", 0.25, 0.1, 0.1, Time::us(1), Time::us(2), {}});

  for (const std::uint64_t seed : {1ull, 42ull, 1000ull}) {
    const FaultScenario a(plain, seed);
    const FaultScenario b(with_channels, seed);
    ASSERT_EQ(a.pulses().size(), b.pulses().size()) << "seed " << seed;
    for (std::size_t i = 0; i < a.pulses().size(); ++i) {
      EXPECT_EQ(a.pulses()[i].at, b.pulses()[i].at);
      EXPECT_EQ(a.pulses()[i].extra_cycles, b.pulses()[i].extra_cycles);
    }
    // occur_p = 0.5 over 64 candidates: both outcomes must actually occur,
    // or the gating draw is not wired at all.
    EXPECT_GT(a.pulses().size(), 0u);
    EXPECT_LT(a.pulses().size(), 64u);
  }
}

}  // namespace
}  // namespace scfault
