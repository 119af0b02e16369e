#include "trace/campaign.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "kernel/error.hpp"
#include "trace/journal.hpp"

namespace sctrace {
namespace {

using minisc::Time;

/// A journal path private to this test process (ctest runs tests in
/// parallel processes).
std::string temp_journal(const std::string& name) {
  return std::filesystem::temp_directory_path() /
         ("scperf_campaign_" + name + "_" + std::to_string(::getpid()) +
          ".journal");
}

/// Run indices of the records in the journal at `path`.
std::multiset<std::size_t> journaled(const std::string& path) {
  std::multiset<std::size_t> out;
  for (const JournalRecord& rec : read_journal(path).records) {
    out.insert(rec.index);
  }
  return out;
}

/// Every run misses its one deadline, so an SPRT on P(violation) <= 0.2
/// rejects after min_samples (8) runs: two windows of 4.
CampaignRunResult violating_run(std::uint64_t) {
  CampaignRunResult r;
  r.makespan = Time::us(5);
  r.deadline_total = 1;
  r.deadline_missed = 1;
  return r;
}

SmcSpec early_stop_spec() {
  SmcSpec s;
  s.threshold = 0.2;
  s.delta = 0.05;
  s.window = 4;
  return s;
}

TEST(Campaign, RunsEverySeedAndAggregates) {
  FaultCampaign campaign([](std::uint64_t seed) {
    CampaignRunResult r;
    r.makespan = Time::us(100 + seed % 3);  // 100, 101, 102 us cycling
    r.deadline_total = 10;
    r.deadline_missed = (seed % 2 == 0) ? 1 : 0;
    r.recovery_latencies_ns = {100.0, 200.0};
    r.faults_injected = 4;
    return r;
  });
  campaign.run(0, 10);
  ASSERT_EQ(campaign.results().size(), 10u);
  EXPECT_EQ(campaign.results()[3].seed, 3u);

  const CampaignReport rep = campaign.report();
  EXPECT_EQ(rep.runs, 10u);
  EXPECT_EQ(rep.failed_runs, 0u);
  EXPECT_EQ(rep.deadline_total, 100u);
  EXPECT_EQ(rep.deadline_missed, 5u);
  EXPECT_DOUBLE_EQ(rep.miss_rate, 0.05);
  EXPECT_NEAR(rep.miss_rate_ci95, 1.96 * std::sqrt(0.05 * 0.95 / 100.0),
              1e-12);
  EXPECT_EQ(rep.makespan_ns.count, 10u);
  EXPECT_EQ(rep.recovery_ns.count, 20u);
  EXPECT_DOUBLE_EQ(rep.recovery_ns.mean, 150.0);
  EXPECT_GT(rep.makespan_ci95, 0.0);
}

TEST(Campaign, SimErrorBecomesFailedRunNotAbort) {
  FaultCampaign campaign([](std::uint64_t seed) -> CampaignRunResult {
    if (seed == 2) {
      throw minisc::SimError(minisc::SimError::Kind::kWallClockBudget,
                             "hung mapping");
    }
    CampaignRunResult r;
    r.makespan = Time::us(10);
    r.deadline_total = 5;
    return r;
  });
  campaign.run(0, 4);
  const CampaignReport rep = campaign.report();
  EXPECT_EQ(rep.runs, 4u);
  EXPECT_EQ(rep.failed_runs, 1u);
  EXPECT_FALSE(campaign.results()[2].completed);
  EXPECT_NE(campaign.results()[2].error.find("hung mapping"),
            std::string::npos);
  // Failed runs are excluded from timing statistics but visible in the CSV.
  EXPECT_EQ(rep.makespan_ns.count, 3u);
  EXPECT_EQ(rep.deadline_total, 15u);
}

TEST(Campaign, CsvHasOneRowPerRun) {
  FaultCampaign campaign([](std::uint64_t seed) {
    CampaignRunResult r;
    r.makespan = Time::ns(500);
    r.value_hash = 0xabcu + seed;
    return r;
  });
  campaign.run(10, 3);
  std::ostringstream os;
  campaign.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("seed,completed,makespan_ns"), std::string::npos);
  EXPECT_NE(csv.find("\n10,1,500"), std::string::npos);
  EXPECT_NE(csv.find("\n12,1,500"), std::string::npos);
  // header + 3 rows
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
}

TEST(Campaign, RuleOfThreeBoundsDegenerateMissRates) {
  // 0/N misses: the Wald interval collapses to zero width, which is exactly
  // wrong in the rare-event regime — the report must fall back to 3/N.
  FaultCampaign none([](std::uint64_t) {
    CampaignRunResult r;
    r.deadline_total = 10;
    r.deadline_missed = 0;
    return r;
  });
  none.run(0, 5);  // 50 deadline checks, 0 missed
  const CampaignReport rep0 = none.report();
  EXPECT_DOUBLE_EQ(rep0.miss_rate, 0.0);
  EXPECT_DOUBLE_EQ(rep0.miss_rate_ci95, 3.0 / 50.0);

  // N/N misses: symmetric degenerate case.
  FaultCampaign all([](std::uint64_t) {
    CampaignRunResult r;
    r.deadline_total = 10;
    r.deadline_missed = 10;
    return r;
  });
  all.run(0, 5);
  const CampaignReport rep1 = all.report();
  EXPECT_DOUBLE_EQ(rep1.miss_rate, 1.0);
  EXPECT_DOUBLE_EQ(rep1.miss_rate_ci95, 3.0 / 50.0);
}

TEST(Campaign, CsvSchemaRoundTrips) {
  FaultCampaign campaign([](std::uint64_t seed) {
    CampaignRunResult r;
    r.makespan = Time::ns(1000 + seed);
    r.deadline_total = 8;
    r.deadline_missed = 1;
    r.faults_injected = 3;
    r.log_weight = -0.5;
    r.energy_pj = 250.0;
    r.fault_energy_pj = 40.0;
    r.value_hash = 0xdeadu;
    return r;
  });
  campaign.run(7, 2);
  std::ostringstream os;
  campaign.write_csv(os);
  std::istringstream in(os.str());
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header,
            "seed,completed,makespan_ns,deadline_total,deadline_missed,"
            "faults_injected,recovery_samples,mean_recovery_ns,log_weight,"
            "weight,energy_pj,fault_energy_pj,value_hash,attempts");
  const std::size_t columns = std::count(header.begin(), header.end(), ',') + 1;
  std::string row;
  std::size_t rows = 0;
  while (std::getline(in, row)) {
    ++rows;
    // Every row parses into exactly as many fields as the header names.
    std::istringstream fields(row);
    std::string field;
    std::size_t n = 0;
    while (std::getline(fields, field, ',')) {
      EXPECT_FALSE(field.empty());
      ++n;
    }
    EXPECT_EQ(n, columns);
  }
  EXPECT_EQ(rows, 2u);
  // Spot-check the weight column: exp(-0.5) next to its log.
  EXPECT_NE(os.str().find(",-0.5,"), std::string::npos);
  std::ostringstream w;
  w << std::exp(-0.5);
  EXPECT_NE(os.str().find("," + w.str() + ","), std::string::npos);
}

TEST(Campaign, WeightedReportRecoversNominalEstimate) {
  // Three completed runs with hand-picked weights and miss fractions:
  //   w = {2, 1, 0.5},  m = {0.5, 0.25, 0.0}
  //   p_hat = mean(w*m) = (1.0 + 0.25 + 0.0) / 3
  //   ESS   = (sum w)^2 / sum w^2 = 3.5^2 / 5.25 = 7/3
  const double w[3] = {2.0, 1.0, 0.5};
  const std::uint64_t missed[3] = {4, 2, 0};
  FaultCampaign campaign([&](std::uint64_t seed) {
    CampaignRunResult r;
    r.deadline_total = 8;
    r.deadline_missed = missed[seed];
    r.log_weight = std::log(w[seed]);
    return r;
  });
  campaign.run(0, 3);
  const CampaignReport rep = campaign.report();
  EXPECT_TRUE(rep.importance_sampled);
  EXPECT_NEAR(rep.weighted_miss_rate, (2.0 * 0.5 + 1.0 * 0.25 + 0.0) / 3.0,
              1e-12);
  EXPECT_NEAR(rep.effective_sample_size, 3.5 * 3.5 / 5.25, 1e-12);
  EXPECT_NEAR(rep.mean_weight, 3.5 / 3.0, 1e-12);
  EXPECT_GT(rep.weighted_miss_rate_ci95, 0.0);
  // The raw (biased) miss rate is still reported alongside.
  EXPECT_DOUBLE_EQ(rep.miss_rate, 6.0 / 24.0);
}

TEST(Campaign, UnweightedRunsStayNaiveMonteCarlo) {
  FaultCampaign campaign([](std::uint64_t) {
    CampaignRunResult r;
    r.deadline_total = 4;
    r.deadline_missed = 1;
    return r;  // log_weight defaults to 0
  });
  campaign.run(0, 6);
  const CampaignReport rep = campaign.report();
  EXPECT_FALSE(rep.importance_sampled);
  EXPECT_DOUBLE_EQ(rep.weighted_miss_rate, 0.0);
  EXPECT_DOUBLE_EQ(rep.effective_sample_size, 0.0);
}

TEST(Campaign, FailedRunsAreExcludedFromWeightsAndEnergy) {
  FaultCampaign campaign([](std::uint64_t seed) -> CampaignRunResult {
    if (seed == 1) {
      throw minisc::SimError(minisc::SimError::Kind::kWallClockBudget,
                             "wedged");
    }
    CampaignRunResult r;
    r.deadline_total = 10;
    r.deadline_missed = 5;
    r.log_weight = std::log(2.0);
    r.energy_pj = 100.0;
    r.fault_energy_pj = 10.0;
    return r;
  });
  campaign.run(0, 3);
  const CampaignReport rep = campaign.report();
  EXPECT_EQ(rep.failed_runs, 1u);
  // Means are over the 2 completed runs only; the failed run contributes
  // neither weight nor energy.
  EXPECT_NEAR(rep.mean_energy_pj, 100.0, 1e-12);
  EXPECT_NEAR(rep.mean_fault_energy_pj, 10.0, 1e-12);
  EXPECT_NEAR(rep.mean_weight, 2.0, 1e-12);
  EXPECT_NEAR(rep.effective_sample_size, 2.0, 1e-12);  // equal weights
  // The failed run still shows up in the CSV with completed = 0.
  std::ostringstream os;
  campaign.write_csv(os);
  EXPECT_NE(os.str().find("\n1,0,"), std::string::npos);
}

TEST(CampaignSweep, RunsEveryCellAndExposesTheGrid) {
  // Miss rate encodes the cell so the grid lookup is checkable: mapping
  // "a" misses nothing, mapping "b" misses everything under scenario "y".
  sctrace::CampaignSweep sweep(
      {"a", "b"}, {"x", "y"},
      [](const std::string& mapping, const std::string& scenario) {
        const bool miss = (mapping == "b" && scenario == "y");
        return [miss](std::uint64_t) {
          CampaignRunResult r;
          r.deadline_total = 4;
          r.deadline_missed = miss ? 4 : 0;
          r.makespan = Time::us(1);
          return r;
        };
      });
  sweep.run(0, 3);
  ASSERT_EQ(sweep.cells().size(), 4u);
  ASSERT_NE(sweep.cell("b", "y"), nullptr);
  EXPECT_DOUBLE_EQ(sweep.cell("b", "y")->miss_rate, 1.0);
  EXPECT_DOUBLE_EQ(sweep.cell("a", "x")->miss_rate, 0.0);
  EXPECT_EQ(sweep.cell("a", "z"), nullptr);

  std::ostringstream grid;
  sweep.print(grid);
  EXPECT_NE(grid.str().find("mapping"), std::string::npos);
  EXPECT_NE(grid.str().find("100.00"), std::string::npos);

  std::ostringstream os;
  sweep.write_csv(os);
  const std::string csv = os.str();
  // header + 4 cells
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 5);
  EXPECT_NE(csv.find("b,y,3,0,12,12,1,"), std::string::npos);
}

TEST(CampaignSweep, JournalPathIsRefusedNamingTheSweepFleet) {
  // A durable sweep is a sweep fleet: the in-process sweep journals nothing
  // and says where to go instead, before running a single cell.
  sctrace::CampaignSweep sweep(
      {"a"}, {"x"}, [](const std::string&, const std::string&) {
        return [](std::uint64_t) { return CampaignRunResult{}; };
      });
  sctrace::CampaignOptions opts;
  opts.journal_path = "sweep.journal";
  try {
    sweep.run(0, 3, opts);
    FAIL() << "expected SimError(kBadConfig)";
  } catch (const minisc::SimError& e) {
    EXPECT_EQ(e.kind(), minisc::SimError::Kind::kBadConfig);
    EXPECT_NE(std::string(e.what()).find("run_sharded_sweep"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(sweep.cells().empty());
}

TEST(CampaignSweep, CollapsedEssCellPropagatesAWarningIntoTheGrid) {
  // One cell importance-samples with a dominating weight (Kish ESS ~ 1 of
  // 20 runs, far below the 10% floor); the grid print must call out exactly
  // that cell so a sweep cannot hide a collapsed estimate in its table.
  sctrace::CampaignSweep sweep(
      {"a", "b"}, {"x", "y"},
      [](const std::string& mapping, const std::string& scenario) {
        const bool skew = (mapping == "b" && scenario == "y");
        return [skew](std::uint64_t seed) {
          CampaignRunResult r;
          r.deadline_total = 4;
          if (skew) r.log_weight = (seed == 0) ? 10.0 : 0.0;
          return r;
        };
      });
  sweep.run(0, 20);
  std::ostringstream grid;
  sweep.print(grid);
  EXPECT_NE(grid.str().find("WARNING: cell b/y: ESS"), std::string::npos)
      << grid.str();
  // The unweighted cells stay quiet.
  EXPECT_EQ(grid.str().find("cell a/"), std::string::npos) << grid.str();
}

TEST(Campaign, CollapsedEssPrintsAWarning) {
  // One run dominating the weights collapses the Kish ESS: 20 runs, one
  // with weight e^10 -> ESS ~ 1 < 10% of 20. The report must say so.
  FaultCampaign skewed([](std::uint64_t seed) {
    CampaignRunResult r;
    r.deadline_total = 4;
    r.log_weight = (seed == 0) ? 10.0 : 0.0;
    return r;
  });
  skewed.run(0, 20);
  std::ostringstream os;
  skewed.report().print(os);
  EXPECT_NE(os.str().find("WARNING: ESS"), std::string::npos) << os.str();

  // Balanced weights keep the report warning-free.
  FaultCampaign balanced([](std::uint64_t) {
    CampaignRunResult r;
    r.deadline_total = 4;
    r.log_weight = 0.3;
    return r;
  });
  balanced.run(0, 20);
  std::ostringstream quiet;
  balanced.report().print(quiet);
  EXPECT_EQ(quiet.str().find("WARNING"), std::string::npos) << quiet.str();
}

TEST(Campaign, MeanCi95MatchesFormula) {
  Summary s;
  s.count = 25;
  s.stddev = 10.0;
  EXPECT_NEAR(mean_ci95(s), 1.96 * 10.0 / 5.0, 1e-12);
  Summary tiny;
  tiny.count = 1;
  EXPECT_DOUBLE_EQ(mean_ci95(tiny), 0.0);
}

TEST(Campaign, PreAppendSeesEachExecutedIndexOnceBeforeItsRecord) {
  constexpr std::size_t kRuns = 40;
  struct Case {
    std::size_t threads;
    bool smc;
  };
  for (const Case c : {Case{0, false}, Case{1, false}, Case{8, false},
                       Case{1, true}, Case{8, true}}) {
    const std::string path = temp_journal("pre_append");
    std::filesystem::remove(path);
    std::mutex mu;
    std::vector<int> calls(kRuns, 0);
    std::vector<std::size_t> already_journaled;
    CampaignOptions opts;
    opts.threads = c.threads;
    opts.journal_path = path;
    if (c.smc) opts.smc = early_stop_spec();
    opts.pre_append = [&](std::size_t i) {
      const bool present = journaled(path).count(i) > 0;
      std::lock_guard<std::mutex> lock(mu);
      ++calls.at(i);
      if (present) already_journaled.push_back(i);
    };
    FaultCampaign campaign(violating_run);
    campaign.run(100, kRuns, opts);

    const std::string where = std::to_string(c.threads) + " threads" +
                              (c.smc ? ", smc" : "");
    const std::size_t executed = campaign.results().size();
    EXPECT_EQ(executed, c.smc ? 8u : kRuns) << where;
    for (std::size_t i = 0; i < kRuns; ++i) {
      EXPECT_EQ(calls[i], i < executed ? 1 : 0) << where << ", index " << i;
    }
    EXPECT_TRUE(already_journaled.empty()) << where;
    EXPECT_EQ(journaled(path).size(), executed) << where;
    std::filesystem::remove(path);
  }
}

TEST(Campaign, ThrowingPreAppendKeepsItsRecordOutOfTheJournal) {
  for (const std::size_t threads : {std::size_t{0}, std::size_t{8}}) {
    const std::string path = temp_journal("pre_append_throws");
    std::filesystem::remove(path);
    CampaignOptions opts;
    opts.threads = threads;
    opts.journal_path = path;
    opts.pre_append = [](std::size_t i) {
      if (i == 5) throw std::runtime_error("lease lost at run 5");
    };
    FaultCampaign campaign(violating_run);
    EXPECT_THROW(campaign.run(100, 20, opts), std::runtime_error)
        << threads << " threads";
    const std::multiset<std::size_t> recorded = journaled(path);
    EXPECT_EQ(recorded.count(5), 0u) << threads << " threads";
    if (threads == 0) {
      // On the calling thread the runs before the throw are all recorded and
      // nothing after it ran.
      EXPECT_EQ(recorded, (std::multiset<std::size_t>{0, 1, 2, 3, 4}));
    }
    std::filesystem::remove(path);
  }
}

TEST(Campaign, PreAppendIsNeverCalledWithoutAJournal) {
  for (const bool smc : {false, true}) {
    for (const std::size_t threads : {std::size_t{0}, std::size_t{8}}) {
      std::mutex mu;
      int calls = 0;
      CampaignOptions opts;
      opts.threads = threads;
      if (smc) opts.smc = early_stop_spec();
      opts.pre_append = [&](std::size_t) {
        std::lock_guard<std::mutex> lock(mu);
        ++calls;
      };
      FaultCampaign campaign(violating_run);
      campaign.run(100, 40, opts);
      EXPECT_EQ(campaign.results().size(), smc ? 8u : 40u);
      EXPECT_EQ(calls, 0) << threads << " threads" << (smc ? ", smc" : "");
    }
  }
}

}  // namespace
}  // namespace sctrace
