// Sequential statistical model checking: the SPRT/Chernoff tester, its
// operating characteristics, the weighted (importance-sampled) variant, the
// campaign integration with windowed deterministic early stopping, and the
// journal decision record that makes early-stopped campaigns durable.
//
// The load-bearing claims pinned here:
//   - the SPRT boundaries and the Chernoff sample bound match their analytic
//     formulas, and a clean stream decides at the predicted observation;
//   - over a grid of true violation probabilities outside the indifference
//     region, the empirical error rate of the SPRT stays within 2(alpha +
//     beta) and the mean sample count stays well under the fixed-N bound;
//   - a weight-1 stream through the weighted test is bit-identical to the
//     unweighted test, and collapsed weights delay the decision until the
//     Kish ESS reaches min_samples;
//   - FaultCampaign::run with an engaged smc spec stops issuing seeds at a
//     window boundary, byte-identically for any thread count, and refuses
//     sharded execution;
//   - the journal decision record replays the verdict on resume without
//     executing a single run, survives a torn tail, refuses a different
//     hypothesis, and merges back byte-identically — including sweep fleets
//     whose decided cells recorded fewer runs than the manifest promises.

#include "trace/smc.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/scenario.hpp"
#include "kernel/error.hpp"
#include "trace/campaign.hpp"
#include "trace/journal.hpp"
#include "trace/shard.hpp"

namespace sctrace {
namespace {

using minisc::SimError;
using minisc::Time;

std::string temp_path(const std::string& name) {
  return std::filesystem::temp_directory_path() /
         ("scperf_smc_" + name + "_" + std::to_string(::getpid()));
}

SmcSpec sprt_spec(double threshold = 0.2, double delta = 0.05) {
  SmcSpec s;
  s.method = SmcMethod::kSprt;
  s.threshold = threshold;
  s.delta = delta;
  return s;
}

/// Per-observation log-likelihood-ratio increments of H1 vs H0, recomputed
/// from the spec exactly as the tester derives them — the analytic yardstick
/// the boundary-crossing tests compare against.
double inc_violation(const SmcSpec& s) {
  return std::log((s.threshold - s.delta) / (s.threshold + s.delta));
}
double inc_clean(const SmcSpec& s) {
  return std::log((1.0 - (s.threshold - s.delta)) /
                  (1.0 - (s.threshold + s.delta)));
}

/// Deterministic synthetic campaign run: one deadline check, violated with
/// probability p under the run's own seed-derived stream.
CampaignRunResult bernoulli_run(std::uint64_t seed, double p,
                                double log_weight = 0.0) {
  scfault::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x5eed);
  CampaignRunResult r;
  r.seed = seed;
  r.deadline_total = 1;
  r.deadline_missed = rng.uniform() < p ? 1 : 0;
  r.makespan = Time::ns(100 + seed % 17);
  r.log_weight = log_weight;
  return r;
}

// ---- SmcBounds: analytic boundaries and the bare tester --------------------

TEST(SmcBounds, BoundariesMatchAnalyticFormulas) {
  SmcSpec s = sprt_spec(0.2, 0.05);
  s.alpha = 0.05;
  s.beta = 0.05;
  EXPECT_DOUBLE_EQ(sprt_log_accept(s), std::log(0.95 / 0.05));
  EXPECT_DOUBLE_EQ(sprt_log_reject(s), std::log(0.05 / 0.95));

  s.alpha = 0.01;
  s.beta = 0.2;
  EXPECT_DOUBLE_EQ(sprt_log_accept(s), std::log((1.0 - 0.2) / 0.01));
  EXPECT_DOUBLE_EQ(sprt_log_reject(s), std::log(0.2 / (1.0 - 0.01)));

  s.alpha = 0.05;
  s.beta = 0.05;
  EXPECT_EQ(chernoff_bound(s),
            static_cast<std::size_t>(
                std::ceil(std::log(2.0 / 0.1) / (2.0 * 0.05 * 0.05))));
  s.delta = 0.1;
  EXPECT_EQ(chernoff_bound(s),
            static_cast<std::size_t>(
                std::ceil(std::log(2.0 / 0.1) / (2.0 * 0.1 * 0.1))));
}

TEST(SmcBounds, RejectsMalformedSpecs) {
  auto expect_bad = [](SmcSpec s) {
    try {
      SequentialTester t(s);
      FAIL() << "malformed spec accepted";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimError::Kind::kBadConfig);
    }
  };
  SmcSpec s = sprt_spec();
  s.delta = 0.0;  // disengaged spec cannot drive a tester
  expect_bad(s);
  s = sprt_spec();
  s.threshold = 1.5;
  expect_bad(s);
  s = sprt_spec();
  s.alpha = 0.0;
  expect_bad(s);
  s = sprt_spec();
  s.beta = 1.0;
  expect_bad(s);
  s = sprt_spec();
  s.alpha = 0.6;
  s.beta = 0.6;  // alpha + beta must stay below 1
  expect_bad(s);
  s = sprt_spec();
  s.window = 0;
  expect_bad(s);
}

TEST(SmcBounds, CleanStreamAcceptsAtPredictedObservation) {
  const SmcSpec s = sprt_spec(0.2, 0.05);
  const auto predicted = static_cast<std::uint64_t>(
      std::ceil(sprt_log_accept(s) / inc_clean(s)));
  SequentialTester t(s);
  std::uint64_t fed = 0;
  while (!t.feed(false)) ++fed;
  ++fed;
  EXPECT_EQ(t.verdict().outcome, SmcOutcome::kAccept);
  EXPECT_EQ(fed, std::max<std::uint64_t>(predicted, s.min_samples));
  EXPECT_EQ(t.verdict().samples_used, fed);
  EXPECT_DOUBLE_EQ(t.verdict().bound, sprt_log_accept(s));
  EXPECT_DOUBLE_EQ(t.verdict().estimate, 0.0);
}

TEST(SmcBounds, ViolationStreamRejectsAtPredictedObservation) {
  const SmcSpec s = sprt_spec(0.2, 0.05);
  const auto predicted = static_cast<std::uint64_t>(
      std::ceil(sprt_log_reject(s) / inc_violation(s)));
  SequentialTester t(s);
  std::uint64_t fed = 0;
  while (!t.feed(true)) ++fed;
  ++fed;
  EXPECT_EQ(t.verdict().outcome, SmcOutcome::kReject);
  EXPECT_EQ(fed, std::max<std::uint64_t>(predicted, s.min_samples));
  EXPECT_DOUBLE_EQ(t.verdict().estimate, 1.0);
}

TEST(SmcBounds, MinSamplesGuardDelaysObviousDecision) {
  // delta 0.15 around 0.5 makes a single violation worth ~-0.7 LLR, so the
  // reject boundary is crossed around observation 5 — but min_samples = 8
  // must hold the verdict until the eighth.
  SmcSpec s = sprt_spec(0.5, 0.15);
  ASSERT_GE(s.min_samples, 8u);
  SequentialTester t(s);
  for (std::size_t i = 0; i + 1 < s.min_samples; ++i) {
    EXPECT_FALSE(t.feed(true)) << "decided at observation " << i + 1;
  }
  EXPECT_TRUE(t.feed(true));
  EXPECT_EQ(t.verdict().samples_used, s.min_samples);
}

TEST(SmcBounds, VerdictFreezesAtTheCrossingObservation) {
  SequentialTester t(sprt_spec(0.2, 0.05));
  while (!t.feed(true)) {
  }
  const SmcVerdict v = t.verdict();
  for (int i = 0; i < 100; ++i) t.feed(false);
  EXPECT_EQ(t.verdict().samples_used, v.samples_used);
  EXPECT_EQ(t.verdict().outcome, v.outcome);
  EXPECT_DOUBLE_EQ(t.verdict().log_ratio, v.log_ratio);
}

TEST(SmcBounds, ChernoffDecidesExactlyAtItsBound) {
  SmcSpec s = sprt_spec(0.2, 0.05);
  s.method = SmcMethod::kChernoff;
  const std::size_t bound = chernoff_bound(s);
  SequentialTester t(s);
  for (std::size_t i = 0; i + 1 < bound; ++i) {
    EXPECT_FALSE(t.feed(false)) << "decided early at " << i + 1;
  }
  EXPECT_TRUE(t.feed(false));
  EXPECT_EQ(t.verdict().outcome, SmcOutcome::kAccept);
  EXPECT_EQ(t.verdict().samples_used, bound);
  EXPECT_DOUBLE_EQ(t.verdict().bound, static_cast<double>(bound));
}

// ---- SmcOperatingCharacteristic: Monte-Carlo error rates -------------------

struct OcResult {
  std::size_t wrong = 0;
  std::size_t undecided = 0;
  double mean_samples = 0.0;
};

OcResult run_oc(double p, const SmcSpec& spec, std::size_t trials,
                std::uint64_t seed0) {
  OcResult out;
  const std::size_t cap = 4 * chernoff_bound(spec);
  double total = 0.0;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    scfault::Rng rng(seed0 + trial);
    SequentialTester t(spec);
    std::size_t fed = 0;
    while (!t.decided() && fed < cap) {
      t.feed(rng.uniform() < p);
      ++fed;
    }
    total += static_cast<double>(t.verdict().samples_used);
    if (!t.decided()) {
      ++out.undecided;
      continue;
    }
    const bool should_accept = p <= spec.threshold - spec.delta;
    const bool accepted = t.verdict().outcome == SmcOutcome::kAccept;
    if (accepted != should_accept) ++out.wrong;
  }
  out.mean_samples = total / static_cast<double>(trials);
  return out;
}

TEST(SmcOperatingCharacteristic, ErrorRateStaysWithinTwiceAlphaPlusBeta) {
  const SmcSpec spec = sprt_spec(0.2, 0.05);  // alpha = beta = 0.05
  const double error_budget = 2.0 * (spec.alpha + spec.beta);
  // Every p sits outside the indifference region (0.15, 0.25), so each
  // trial has a uniquely correct answer.
  for (const double p : {0.02, 0.10, 0.30, 0.55}) {
    const OcResult oc = run_oc(p, spec, 300, 777);
    const double err =
        static_cast<double>(oc.wrong + oc.undecided) / 300.0;
    EXPECT_LE(err, error_budget) << "true p = " << p;
  }
}

TEST(SmcOperatingCharacteristic, StopsFarUnderTheFixedSampleBound) {
  const SmcSpec spec = sprt_spec(0.2, 0.05);
  const double fixed_n = static_cast<double>(chernoff_bound(spec));
  // Clear-margin probabilities: the SPRT's whole economic argument is that
  // these decide in a small fraction of the fixed-confidence budget.
  for (const double p : {0.02, 0.55}) {
    const OcResult oc = run_oc(p, spec, 300, 12345);
    EXPECT_LE(oc.mean_samples, fixed_n / 2.0) << "true p = " << p;
  }
}

// ---- SmcWeighted: likelihood-ratio weighted streams ------------------------

TEST(SmcWeighted, UnitWeightsReduceBitExactlyToUnweighted) {
  SmcSpec plain = sprt_spec(0.2, 0.05);
  SmcSpec weighted = plain;
  weighted.use_weights = true;
  SequentialTester a(plain);
  SequentialTester b(weighted);
  scfault::Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const bool violation = rng.uniform() < 0.4;
    a.feed(violation);
    b.feed(violation, 1.0);
  }
  EXPECT_EQ(a.verdict().outcome, b.verdict().outcome);
  EXPECT_EQ(a.verdict().samples_used, b.verdict().samples_used);
  EXPECT_EQ(a.verdict().log_ratio, b.verdict().log_ratio);  // bit-exact
  EXPECT_EQ(a.verdict().estimate, b.verdict().estimate);
  EXPECT_EQ(a.verdict().ess, b.verdict().ess);
}

TEST(SmcWeighted, CollapsedWeightsDelayDecisionUntilEssRecovers) {
  SmcSpec spec = sprt_spec(0.2, 0.05);
  spec.use_weights = true;
  SequentialTester t(spec);
  // One overwhelming weight collapses the Kish ESS to ~1; the boundary is
  // crossed long before the ESS guard lets the verdict through.
  t.feed(false, 100.0);
  std::size_t fed = 1;
  while (fed < 100) {
    EXPECT_FALSE(t.feed(false, 1.0)) << "decided with collapsed ESS at "
                                     << fed + 1;
    ++fed;
  }
  while (!t.decided() && fed < 1000) {
    t.feed(false, 1.0);
    ++fed;
  }
  ASSERT_TRUE(t.decided());
  EXPECT_EQ(t.verdict().outcome, SmcOutcome::kAccept);
  EXPECT_GE(t.verdict().ess, static_cast<double>(spec.min_samples));
  // The unweighted twin decides in a handful of observations.
  SequentialTester plain(sprt_spec(0.2, 0.05));
  std::size_t plain_fed = 0;
  while (!plain.feed(false)) ++plain_fed;
  EXPECT_LT(plain_fed + 1, fed / 2);
}

// ---- SmcCampaign: windowed early stopping in FaultCampaign -----------------

TEST(SmcCampaign, EarlyStopsAtAWindowBoundaryAndRecordsTheVerdict) {
  CampaignOptions opts;
  opts.smc = sprt_spec(0.2, 0.05);
  FaultCampaign c([](std::uint64_t s) { return bernoulli_run(s, 0.9); });
  c.run(1000, 500, opts);
  ASSERT_NE(c.smc_verdict(), nullptr);
  EXPECT_EQ(c.smc_verdict()->outcome, SmcOutcome::kReject);
  EXPECT_LT(c.results().size(), 500u);
  EXPECT_EQ(c.results().size() % opts.smc.window, 0u);
  EXPECT_GE(c.results().size(), c.smc_verdict()->samples_used);

  const CampaignReport rep = c.report();
  EXPECT_TRUE(rep.smc_engaged);
  EXPECT_EQ(rep.smc.outcome, SmcOutcome::kReject);

  std::ostringstream csv;
  c.write_csv(csv);
  EXPECT_EQ(csv.str().rfind("# smc=", 0), 0u) << csv.str().substr(0, 80);
  std::ostringstream report_text;
  rep.print(report_text);
  EXPECT_NE(report_text.str().find("sequential:"), std::string::npos);
}

TEST(SmcCampaign, StoppingSeedAndBytesAreThreadCountInvariant) {
  std::string first;
  for (const std::size_t threads : {std::size_t{0}, std::size_t{1},
                                    std::size_t{8}}) {
    CampaignOptions opts;
    opts.threads = threads;
    opts.smc = sprt_spec(0.2, 0.05);
    FaultCampaign c([](std::uint64_t s) { return bernoulli_run(s, 0.9); });
    c.run(1000, 500, opts);
    std::ostringstream csv;
    c.write_csv(csv);
    if (first.empty()) {
      first = csv.str();
    } else {
      EXPECT_EQ(csv.str(), first) << threads << " threads diverged";
    }
  }
}

TEST(SmcCampaign, RefusesShardedExecution) {
  // The sequential decision needs the campaign's global seed order, so the
  // fleet refuses an engaged spec over more than one shard before any shard
  // runs or journals a record.
  const std::string dir = temp_path("sharded_smc");
  std::filesystem::remove_all(dir);
  ShardOptions so;
  so.dir = dir;
  so.shard_index = 0;
  so.shard_count = 2;
  so.worker_id = "smc";
  CampaignOptions opts;
  opts.smc = sprt_spec(0.2, 0.05);
  std::atomic<std::size_t> calls{0};
  try {
    run_sharded_campaign(
        [&](std::uint64_t s) {
          calls.fetch_add(1);
          return bernoulli_run(s, 0.5);
        },
        0, 64, so, opts);
    FAIL() << "sharded smc accepted";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kBadConfig);
    EXPECT_NE(std::string(e.what()).find("sequential model checking"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(calls.load(), 0u);
  for (const std::size_t shard : {std::size_t{0}, std::size_t{1}}) {
    EXPECT_FALSE(std::filesystem::exists(unit_file(dir, shard, 2, ".journal")))
        << "shard " << shard;
  }
  std::filesystem::remove_all(dir);
}

TEST(SmcCampaign, ExhaustedBudgetRecordsUndecided) {
  CampaignOptions opts;
  opts.smc = sprt_spec(0.5, 0.02);  // p = 0.5 sits inside the indifference
  FaultCampaign c([](std::uint64_t s) { return bernoulli_run(s, 0.5); });
  c.run(2000, 48, opts);
  ASSERT_NE(c.smc_verdict(), nullptr);
  EXPECT_EQ(c.smc_verdict()->outcome, SmcOutcome::kUndecided);
  EXPECT_EQ(c.results().size(), 48u);  // budget fully consumed
}

TEST(SmcCampaign, SweepPrunesDecidedCellsAndMarksTheGrid) {
  CampaignOptions opts;
  opts.smc = sprt_spec(0.2, 0.05);
  CampaignSweep sweep(
      {"m"}, {"hot", "cold"},
      [](const std::string&, const std::string& scenario) {
        const double p = scenario == "hot" ? 1.0 : 0.0;
        return [p](std::uint64_t s) { return bernoulli_run(s, p); };
      });
  sweep.run(500, 256, opts);
  for (const CampaignSweep::Cell& cell : sweep.cells()) {
    EXPECT_TRUE(cell.report.smc_engaged);
    EXPECT_LT(cell.report.runs, 256u) << cell.scenario << " did not prune";
  }
  std::ostringstream grid;
  sweep.print(grid);
  EXPECT_NE(grid.str().find("✗"), std::string::npos);  // hot rejects
  EXPECT_NE(grid.str().find("✓"), std::string::npos);  // cold accepts
  std::ostringstream csv;
  sweep.write_csv(csv);
  EXPECT_NE(csv.str().find("smc_outcome,smc_samples_used"),
            std::string::npos);
  EXPECT_NE(csv.str().find("reject"), std::string::npos);
  EXPECT_NE(csv.str().find("accept"), std::string::npos);
}

TEST(SmcCampaign, AdaptiveBiasTuningIsDeterministicAndMeetsTheTarget) {
  // Synthetic importance model: the weight spread (and thus the ESS
  // collapse) grows with the bias factor, like a real overdriven channel.
  const auto make_run = [](double factor) -> FaultCampaign::RunFn {
    return [factor](std::uint64_t s) {
      scfault::Rng rng(s);
      return bernoulli_run(s, 0.3,
                           -(factor - 1.0) * rng.uniform(0.0, 2.0));
    };
  };
  AdaptiveBiasOptions opts;
  opts.target_ess_fraction = 0.5;
  opts.pilot_runs = 16;
  opts.max_factor = 32.0;
  const AdaptiveBiasResult a = tune_bias_factor(make_run, 42, opts);
  EXPECT_GE(a.factor, opts.min_factor);
  EXPECT_LE(a.factor, opts.max_factor);
  EXPECT_GE(a.ess_fraction, opts.target_ess_fraction);
  EXPECT_GT(a.factor, 1.0);  // the target is reachable above the floor
  EXPECT_FALSE(a.trace.empty());
  EXPECT_EQ(a.pilot_runs, a.trace.size() * opts.pilot_runs);

  const AdaptiveBiasResult b = tune_bias_factor(make_run, 42, opts);
  EXPECT_EQ(a.factor, b.factor);
  EXPECT_EQ(a.ess_fraction, b.ess_fraction);
  EXPECT_EQ(a.trace, b.trace);
}

TEST(SmcCampaign, AdaptiveBiasRejectsMalformedOptions) {
  const auto make_run = [](double) -> FaultCampaign::RunFn {
    return [](std::uint64_t s) { return bernoulli_run(s, 0.3); };
  };
  auto expect_bad = [&](AdaptiveBiasOptions o) {
    try {
      tune_bias_factor(make_run, 1, o);
      FAIL() << "malformed options accepted";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimError::Kind::kBadConfig);
    }
  };
  AdaptiveBiasOptions o;
  o.target_ess_fraction = 0.0;
  expect_bad(o);
  o = {};
  o.pilot_runs = 0;
  expect_bad(o);
  o = {};
  o.min_factor = 8.0;
  o.max_factor = 2.0;
  expect_bad(o);
}

// ---- EssWarning: single-sourced low-ESS diagnostics ------------------------

/// A campaign whose importance weights collapsed: one dominant weight, the
/// rest negligible, so the Kish ESS is ~1 of `n` runs.
FaultCampaign collapsed_weight_campaign(std::size_t n) {
  std::vector<CampaignRunResult> results;
  results.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    results.push_back(
        bernoulli_run(1000 + i, 0.3, i == 0 ? 0.0 : -20.0));
  }
  return FaultCampaign(std::move(results));
}

TEST(EssWarning, PrintEmitsExactlyOneWarningWithTheAchievedFraction) {
  const CampaignReport rep = collapsed_weight_campaign(20).report();
  ASSERT_TRUE(rep.importance_sampled);
  ASSERT_TRUE(rep.low_ess());
  const std::string text = rep.ess_warning();
  EXPECT_NE(text.find("%"), std::string::npos) << text;
  EXPECT_EQ(text.rfind("ESS", 0), 0u) << text;  // no embedded prefix
  std::ostringstream os;
  rep.print(os);
  const std::string out = os.str();
  const std::size_t first = out.find("WARNING:");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(out.find("WARNING:", first + 1), std::string::npos)
      << "duplicated warning:\n"
      << out;
  EXPECT_NE(out.find(text), std::string::npos)
      << "print() does not reuse ess_warning()";
}

TEST(EssWarning, SweepPrintWarnsOncePerLowEssCell) {
  std::vector<CampaignSweep::Cell> cells;
  cells.push_back({"m", "is", collapsed_weight_campaign(20).report()});
  cells.push_back({"m", "plain",
                   FaultCampaign(std::vector<CampaignRunResult>{
                       bernoulli_run(1, 0.3), bernoulli_run(2, 0.3)})
                       .report()});
  CampaignSweep sweep({"m"}, {"is", "plain"}, std::move(cells));
  std::ostringstream os;
  sweep.print(os);
  const std::string out = os.str();
  const std::size_t first = out.find("WARNING: cell m/is: ESS");
  ASSERT_NE(first, std::string::npos) << out;
  EXPECT_EQ(out.find("WARNING:", first + 1), std::string::npos) << out;
}

// ---- SmcJournal: durable decisions, resume, merge --------------------------

struct JournaledRun {
  std::string path;
  std::string csv;
  SmcVerdict verdict;
};

JournaledRun journaled_smc_run(const std::string& name,
                               std::size_t n = 500) {
  JournaledRun out;
  out.path = temp_path(name) + ".journal";
  std::filesystem::remove(out.path);
  CampaignOptions opts;
  opts.smc = sprt_spec(0.2, 0.05);
  opts.journal_path = out.path;
  opts.journal_tag = "smc-test";
  FaultCampaign c([](std::uint64_t s) { return bernoulli_run(s, 0.9); });
  c.run(1000, n, opts);
  std::ostringstream csv;
  c.write_csv(csv);
  out.csv = csv.str();
  out.verdict = *c.smc_verdict();
  return out;
}

TEST(SmcJournal, DecisionRecordRoundTripsAndCoversItsRuns) {
  const JournaledRun run = journaled_smc_run("roundtrip");
  const JournalContents jc = read_journal(run.path);
  ASSERT_TRUE(jc.decision.has_value());
  EXPECT_TRUE(same_smc_spec(jc.decision->spec, sprt_spec(0.2, 0.05)));
  EXPECT_EQ(jc.decision->verdict.outcome, run.verdict.outcome);
  EXPECT_EQ(jc.decision->verdict.samples_used, run.verdict.samples_used);
  EXPECT_EQ(jc.decision->verdict.log_ratio, run.verdict.log_ratio);
  EXPECT_LT(jc.decision->executed, jc.header.runs);
  EXPECT_EQ(jc.records.size(), jc.decision->executed);
  std::filesystem::remove(run.path);
}

TEST(SmcJournal, ResumeReplaysTheDecisionWithoutExecutingARun) {
  const JournaledRun run = journaled_smc_run("noop");
  std::atomic<std::size_t> calls{0};
  CampaignOptions opts;
  opts.smc = sprt_spec(0.2, 0.05);
  opts.journal_path = run.path;
  opts.journal_tag = "smc-test";
  opts.resume = true;
  FaultCampaign c([&](std::uint64_t s) {
    calls.fetch_add(1);
    return bernoulli_run(s, 0.9);
  });
  c.run(1000, 500, opts);
  EXPECT_EQ(calls.load(), 0u);
  ASSERT_NE(c.smc_verdict(), nullptr);
  EXPECT_EQ(c.smc_verdict()->outcome, run.verdict.outcome);
  EXPECT_EQ(c.smc_verdict()->samples_used, run.verdict.samples_used);
  std::ostringstream csv;
  c.write_csv(csv);
  EXPECT_EQ(csv.str(), run.csv);
  std::filesystem::remove(run.path);
}

TEST(SmcJournal, TornDecisionRecordReDecidesByteIdentically) {
  const JournaledRun run = journaled_smc_run("torn");
  // Shear the decision record's tail — the crash landing mid-append. The
  // run records before it must survive intact, and the resume must re-feed
  // them to the tester (executing nothing) and re-append the decision.
  const auto size = std::filesystem::file_size(run.path);
  std::filesystem::resize_file(run.path, size - 9);
  const JournalContents torn = read_journal(run.path);
  EXPECT_FALSE(torn.decision.has_value());
  EXPECT_FALSE(torn.records.empty());

  std::atomic<std::size_t> calls{0};
  CampaignOptions opts;
  opts.smc = sprt_spec(0.2, 0.05);
  opts.journal_path = run.path;
  opts.journal_tag = "smc-test";
  opts.resume = true;
  FaultCampaign c([&](std::uint64_t s) {
    calls.fetch_add(1);
    return bernoulli_run(s, 0.9);
  });
  c.run(1000, 500, opts);
  EXPECT_EQ(calls.load(), 0u) << "re-ran recorded seeds";
  std::ostringstream csv;
  c.write_csv(csv);
  EXPECT_EQ(csv.str(), run.csv);
  EXPECT_TRUE(read_journal(run.path).decision.has_value());
  std::filesystem::remove(run.path);
}

TEST(SmcJournal, ResumeRefusesADifferentHypothesisOrNoHypothesis) {
  const JournaledRun run = journaled_smc_run("mismatch");
  FaultCampaign c([](std::uint64_t s) { return bernoulli_run(s, 0.9); });
  CampaignOptions opts;
  opts.journal_path = run.path;
  opts.journal_tag = "smc-test";
  opts.resume = true;
  opts.smc = sprt_spec(0.3, 0.05);  // different threshold
  try {
    c.run(1000, 500, opts);
    FAIL() << "different hypothesis accepted";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kBadConfig);
  }
  opts.smc = SmcSpec{};  // no smc at all
  try {
    c.run(1000, 500, opts);
    FAIL() << "decided journal resumed without smc";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kBadConfig);
  }
  std::filesystem::remove(run.path);
}

TEST(SmcJournal, SingleShardMergeReproducesTheEarlyStoppedBytes) {
  const JournaledRun run = journaled_smc_run("merge");
  // The same campaign as a single-shard fleet: its decision record makes
  // the shard complete at the executed runs.
  const std::string dir = temp_path("merge_fleet");
  std::filesystem::remove_all(dir);
  ShardOptions so;
  so.dir = dir;
  so.worker_id = "smc";
  CampaignOptions opts;
  opts.smc = sprt_spec(0.2, 0.05);
  opts.journal_tag = "smc-test";
  ASSERT_TRUE(run_sharded_campaign(
                  [](std::uint64_t s) { return bernoulli_run(s, 0.9); }, 1000,
                  500, so, opts)
                  .campaign_complete);
  const MergedCampaign merged = merge_shard_dir(dir);
  EXPECT_TRUE(merged.complete);
  ASSERT_TRUE(merged.decision.has_value());
  EXPECT_EQ(merged.results.size(), merged.decision->executed);
  EXPECT_LT(merged.results.size(), merged.runs);

  FaultCampaign rebuilt(merged.results);
  rebuilt.set_smc_verdict(merged.decision->spec, merged.decision->verdict);
  std::ostringstream csv;
  rebuilt.write_csv(csv);
  EXPECT_EQ(csv.str(), run.csv);
  std::filesystem::remove(run.path);
  std::filesystem::remove_all(dir);
}

TEST(SmcJournal, MergeRefusesADecisionInAMultiShardLayout) {
  // Hand-build a 2-shard fleet whose shard 0 journal illegally carries a
  // decision record: sequential campaigns are single-shard by construction,
  // so the merge must treat this as corruption, not as a legal early stop.
  const std::string dir = temp_path("multishard");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/fleet.manifest")
      << "scperf-fleet v2\nbase_seed 1000\nruns 64\nshards 2\n"
         "digest 0\ntag smc-test\n";
  for (const std::size_t shard : {std::size_t{0}, std::size_t{1}}) {
    JournalHeader h;
    h.base_seed = 1000 + shard * 32;
    h.runs = 32;
    h.tag = "smc-test";
    JournalWriter w(unit_file(dir, shard, 2, ".journal"), h);
    for (std::size_t i = 0; i < 32; ++i) {
      w.append(i, bernoulli_run(h.base_seed + i, 0.9));
    }
    if (shard == 0) {
      JournalDecision d;
      d.spec = sprt_spec(0.2, 0.05);
      d.verdict.outcome = SmcOutcome::kReject;
      d.verdict.samples_used = 16;
      d.executed = 32;
      w.append_decision(d);
    }
  }
  try {
    merge_shard_dir(dir);
    FAIL() << "multi-shard decision accepted";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kBadConfig);
    EXPECT_NE(std::string(e.what()).find("decision record"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove_all(dir);
}

TEST(SmcJournal, SweepFleetPrunesCellsAndMergesByteIdentically) {
  const std::string dir = temp_path("sweep_fleet");
  std::filesystem::remove_all(dir);
  const std::vector<std::string> mappings = {"m"};
  const std::vector<std::string> scenarios = {"hot", "cold"};
  const CampaignSweep::Factory factory =
      [](const std::string&, const std::string& scenario) {
        const double p = scenario == "hot" ? 1.0 : 0.0;
        return [p](std::uint64_t s) { return bernoulli_run(s, p); };
      };
  CampaignOptions co;
  co.smc = sprt_spec(0.2, 0.05);
  co.journal_tag = "smc-sweep";
  ShardOptions so;
  so.dir = dir;
  so.shard_index = 0;
  so.shard_count = 1;
  const ShardProgress p =
      run_sharded_sweep(mappings, scenarios, factory, 500, 256, so, co);
  EXPECT_TRUE(p.campaign_complete);

  const MergedSweep merged = merge_sweep_dir(dir, MergeOptions{});
  EXPECT_TRUE(merged.complete);
  for (const MergedSweepCell& cell : merged.cells) {
    EXPECT_EQ(cell.state, UnitState::kComplete);
    ASSERT_TRUE(cell.decision.has_value()) << cell.scenario;
    EXPECT_EQ(cell.runs, cell.decision->executed);
    EXPECT_LT(cell.runs, 256u) << cell.scenario << " did not prune";
  }

  // The merged grid and CSV must match the uninterrupted in-process sweep.
  CampaignSweep direct(mappings, scenarios, factory);
  direct.run(500, 256, co);
  std::ostringstream direct_csv, merged_csv, direct_grid, merged_grid;
  direct.write_csv(direct_csv);
  merged.to_sweep().write_csv(merged_csv);
  EXPECT_EQ(merged_csv.str(), direct_csv.str());
  direct.print(direct_grid);
  merged.to_sweep().print(merged_grid);
  EXPECT_EQ(merged_grid.str(), direct_grid.str());
  std::filesystem::remove_all(dir);
}

TEST(SmcJournal, PartialMergeKeepsDecidedCellsComplete) {
  const std::string dir = temp_path("sweep_partial");
  std::filesystem::remove_all(dir);
  const std::vector<std::string> mappings = {"m"};
  const std::vector<std::string> scenarios = {"hot", "cold"};
  const CampaignSweep::Factory factory =
      [](const std::string&, const std::string& scenario) {
        const double p = scenario == "hot" ? 1.0 : 0.0;
        return [p](std::uint64_t s) { return bernoulli_run(s, p); };
      };
  CampaignOptions co;
  co.smc = sprt_spec(0.2, 0.05);
  co.journal_tag = "smc-sweep";
  ShardOptions so;
  so.dir = dir;
  so.shard_index = 0;
  so.shard_count = 1;
  run_sharded_sweep(mappings, scenarios, factory, 500, 256, so, co);

  // Lose the "cold" cell (grid index 1). Strict merge refuses; partial
  // merge keeps the decided "hot" cell complete with its verdict.
  std::filesystem::remove(unit_file(dir, 1, 2, ".journal"));
  try {
    merge_sweep_dir(dir, MergeOptions{});
    FAIL() << "strict merge accepted a missing cell";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kMergeIncomplete);
  }
  MergeOptions mo;
  mo.allow_partial = true;
  const MergedSweep merged = merge_sweep_dir(dir, mo);
  EXPECT_FALSE(merged.complete);
  EXPECT_EQ(merged.cells[0].state, UnitState::kComplete);
  EXPECT_TRUE(merged.cells[0].decision.has_value());
  EXPECT_EQ(merged.cells[1].state, UnitState::kMissing);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sctrace
