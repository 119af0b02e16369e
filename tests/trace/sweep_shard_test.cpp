// Sharded sweep fleets: every (mapping, scenario) grid cell is a
// lease-claimable work unit, and the merged grid is byte-identical to the
// uninterrupted single-process CampaignSweep.
//
// The load-bearing claims pinned here:
//   - a single worker walks every cell and merge_sweep_dir reproduces the
//     in-process sweep's print() and write_csv() byte-for-byte;
//   - the sweep manifest pins the grid identity in the bytes the format has
//     always had: a worker whose seed, run count or grid disagrees refuses
//     to participate (kBadConfig);
//   - two workers split the grid with zero (cell, seed) overlap;
//   - adoption resumes a dead worker's partially-journaled cell, executing
//     only the missing seeds;
//   - a quarantined cell is excluded from every claim pass, refuses a
//     strict merge, and renders in a partial merge as an explicitly
//     degraded grid (DEGRADED banner, '-' hole, state column in the CSV);
//   - fleet_status classifies cells done/claimed/stale/quarantined/
//     unclaimed from the sweep manifest and the directory alone, without
//     writing to it.

#include "trace/shard.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "kernel/error.hpp"
#include "trace/campaign.hpp"
#include "trace/journal.hpp"

namespace sctrace {
namespace {

using minisc::SimError;
using minisc::Time;

std::filesystem::path temp_dir(const std::string& name) {
  return std::filesystem::temp_directory_path() /
         ("scperf_sweep_" + name + "_" + std::to_string(::getpid()));
}

struct ScratchDir {
  explicit ScratchDir(const std::string& name) : path(temp_dir(name)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() { std::filesystem::remove_all(path); }
  std::filesystem::path path;
  std::string str() const { return path.string(); }
};

const std::vector<std::string>& grid_mappings() {
  static const std::vector<std::string> m = {"shared", "split"};
  return m;
}

const std::vector<std::string>& grid_scenarios() {
  static const std::vector<std::string> s = {"iid", "burst", "storm"};
  return s;
}

/// Deterministic per-cell salt: a pure function of the cell names, so the
/// in-process reference and the fleet compute identical records.
std::uint64_t cell_salt(const std::string& mapping,
                        const std::string& scenario) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : mapping + "/" + scenario) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

CampaignRunResult synth_run(std::uint64_t seed, std::uint64_t salt) {
  CampaignRunResult r;
  r.seed = seed;
  r.makespan = Time::ns(1000 + 37 * seed + (salt % 97));
  r.deadline_total = 16;
  r.deadline_missed = (seed + salt) % 4;
  r.recovery_latencies_ns = {100.0 + 0.3 * static_cast<double>(seed)};
  r.faults_injected = seed % 3;
  r.log_weight = 0.25 * static_cast<double>((seed + salt) % 5) - 0.7;
  r.energy_pj = 1234.5 + 0.1 * static_cast<double>(seed + salt % 13);
  r.fault_energy_pj = 12.25 + static_cast<double>(seed);
  r.value_hash = 0x9e3779b97f4a7c15ull * (seed + salt + 1);
  return r;
}

CampaignSweep::Factory synth_factory() {
  return [](const std::string& mapping, const std::string& scenario) {
    const std::uint64_t salt = cell_salt(mapping, scenario);
    return [salt](std::uint64_t seed) { return synth_run(seed, salt); };
  };
}

CampaignSweep reference_sweep(std::uint64_t base, std::size_t n) {
  CampaignSweep sweep(grid_mappings(), grid_scenarios(), synth_factory());
  sweep.run(base, n);
  return sweep;
}

std::string print_of(const CampaignSweep& s) {
  std::ostringstream os;
  s.print(os);
  return os.str();
}

std::string csv_of(const CampaignSweep& s) {
  std::ostringstream os;
  s.write_csv(os);
  return os.str();
}

std::string print_of(const MergedSweep& s) {
  std::ostringstream os;
  s.print(os);
  return os.str();
}

std::string csv_of(const MergedSweep& s) {
  std::ostringstream os;
  s.write_csv(os);
  return os.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

void make_stale(const std::string& path) {
  std::filesystem::last_write_time(
      path, std::filesystem::last_write_time(path) - std::chrono::hours(1));
}

ShardOptions sweep_shard(const std::string& dir, std::size_t index,
                         const std::string& worker) {
  ShardOptions so;
  so.dir = dir;
  so.shard_index = index;
  so.shard_count = 2;  // ignored by sweeps; the grid defines the unit count
  so.worker_id = worker;
  so.poll_ms = 20;
  return so;
}

// ---- byte identity --------------------------------------------------------

TEST(SweepShard, SingleWorkerMatchesTheInProcessSweepByteForByte) {
  ScratchDir dir("single");
  const std::uint64_t base = 90;
  const std::size_t n = 7;
  const ShardProgress p =
      run_sharded_sweep(grid_mappings(), grid_scenarios(), synth_factory(),
                        base, n, sweep_shard(dir.str(), 0, "solo"));
  EXPECT_TRUE(p.campaign_complete);
  EXPECT_EQ(p.shards_run, 6u);  // 2 mappings x 3 scenarios
  EXPECT_EQ(p.runs_executed, 6u * n);

  const MergedSweep merged = merge_sweep_dir(dir.str());
  EXPECT_TRUE(merged.complete);
  EXPECT_EQ(merged.complete_cells(), 6u);
  EXPECT_EQ(merged.quarantined_cells(), 0u);

  const CampaignSweep want = reference_sweep(base, n);
  EXPECT_EQ(print_of(merged), print_of(want));
  EXPECT_EQ(csv_of(merged), csv_of(want));
  // to_sweep() hands back the same cells the single-process sweep built.
  EXPECT_EQ(csv_of(merged.to_sweep()), csv_of(want));
}

TEST(SweepShard, ManifestPinsTheGridAgainstForeignWorkers) {
  ScratchDir dir("manifest");
  const std::uint64_t base = 90;
  const std::size_t n = 3;
  run_sharded_sweep(grid_mappings(), grid_scenarios(), synth_factory(), base,
                    n, sweep_shard(dir.str(), 0, "first"));
  // The manifest's bytes are part of the on-disk contract.
  EXPECT_EQ(read_file(dir.str() + "/sweep.manifest"),
            "scperf-sweep v1\nbase_seed 90\nruns 3\ndigest 0\ntag \n"
            "mapping shared\nmapping split\n"
            "scenario iid\nscenario burst\nscenario storm\n");
  // Same directory, different seed: this worker belongs to another sweep.
  try {
    run_sharded_sweep(grid_mappings(), grid_scenarios(), synth_factory(),
                      base + 1, n, sweep_shard(dir.str(), 1, "foreign"));
    FAIL() << "expected SimError(kBadConfig)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kBadConfig);
    EXPECT_NE(std::string(e.what()).find("manifest"), std::string::npos)
        << e.what();
  }
  // A different run count is refused the same way.
  EXPECT_THROW(
      run_sharded_sweep(grid_mappings(), grid_scenarios(), synth_factory(),
                        base, n + 1, sweep_shard(dir.str(), 1, "foreign")),
      SimError);
  // And an agreeing worker is welcome (everything is already journaled).
  const ShardProgress p =
      run_sharded_sweep(grid_mappings(), grid_scenarios(), synth_factory(),
                        base, n, sweep_shard(dir.str(), 1, "peer"));
  EXPECT_TRUE(p.campaign_complete);
  EXPECT_EQ(p.runs_executed, 0u);
}

// ---- fleet behaviour ------------------------------------------------------

TEST(SweepShard, TwoWorkersSplitTheGridWithZeroOverlap) {
  ScratchDir dir("two");
  const std::uint64_t base = 5;
  const std::size_t n = 6;
  std::mutex mu;
  std::set<std::tuple<std::string, std::string, std::uint64_t>> executed;
  const CampaignSweep::Factory counting_factory =
      [&](const std::string& mapping, const std::string& scenario) {
        const std::uint64_t salt = cell_salt(mapping, scenario);
        return [&, mapping, scenario, salt](std::uint64_t seed) {
          {
            std::unique_lock<std::mutex> lk(mu);
            EXPECT_TRUE(executed.insert({mapping, scenario, seed}).second)
                << mapping << "/" << scenario << " seed " << seed
                << " ran twice: the cell leases leaked";
          }
          return synth_run(seed, salt);
        };
      };

  ShardProgress p0, p1;
  std::thread w0([&] {
    p0 = run_sharded_sweep(grid_mappings(), grid_scenarios(),
                           counting_factory, base, n,
                           sweep_shard(dir.str(), 0, "w0"));
  });
  std::thread w1([&] {
    p1 = run_sharded_sweep(grid_mappings(), grid_scenarios(),
                           counting_factory, base, n,
                           sweep_shard(dir.str(), 1, "w1"));
  });
  w0.join();
  w1.join();

  EXPECT_TRUE(p0.campaign_complete);
  EXPECT_TRUE(p1.campaign_complete);
  EXPECT_EQ(executed.size(), 6u * n);
  EXPECT_EQ(p0.runs_executed + p1.runs_executed, 6u * n);
  EXPECT_EQ(p0.shards_run + p1.shards_run, 6u);

  const CampaignSweep want = reference_sweep(base, n);
  EXPECT_EQ(csv_of(merge_sweep_dir(dir.str())), csv_of(want));
}

TEST(SweepShard, AdoptionResumesAPartiallyJournaledCell) {
  ScratchDir dir("adopt");
  const std::uint64_t base = 30;
  const std::size_t n = 5;
  const std::size_t cells = 6;
  const std::size_t cell = 1;  // shared/burst in grid order

  // A dead worker journaled cell 1's first two seeds. The header mirrors
  // what a cell campaign writes: the cell identity lives in the tag.
  JournalHeader h;
  h.base_seed = base;
  h.runs = n;
  h.tag = "shared/burst";
  {
    const std::uint64_t salt = cell_salt("shared", "burst");
    JournalWriter w(cell_journal_path(dir.str(), cell, cells), h);
    w.append(0, synth_run(base, salt));
    w.append(1, synth_run(base + 1, salt));
  }
  const std::string lease = cell_lease_path(dir.str(), cell, cells);
  write_file(lease, "owner dead-worker\nadoptions 0\n");
  make_stale(lease);

  std::mutex mu;
  std::set<std::tuple<std::string, std::string, std::uint64_t>> executed;
  const CampaignSweep::Factory counting_factory =
      [&](const std::string& mapping, const std::string& scenario) {
        const std::uint64_t salt = cell_salt(mapping, scenario);
        return [&, mapping, scenario, salt](std::uint64_t seed) {
          {
            std::unique_lock<std::mutex> lk(mu);
            executed.insert({mapping, scenario, seed});
          }
          return synth_run(seed, salt);
        };
      };
  const ShardProgress p =
      run_sharded_sweep(grid_mappings(), grid_scenarios(), counting_factory,
                        base, n, sweep_shard(dir.str(), 0, "survivor"));
  EXPECT_TRUE(p.campaign_complete);
  EXPECT_EQ(p.shards_run, 6u);
  EXPECT_EQ(p.shards_adopted, 1u);
  // 5 fresh cells in full, plus only the 3 seeds missing from the journal.
  EXPECT_EQ(p.runs_executed, 5u * n + (n - 2));
  EXPECT_EQ(executed.count({"shared", "burst", base}), 0u);
  EXPECT_EQ(executed.count({"shared", "burst", base + 1}), 0u);

  const CampaignSweep want = reference_sweep(base, n);
  EXPECT_EQ(csv_of(merge_sweep_dir(dir.str())), csv_of(want));
}

// ---- quarantine & degraded merge ------------------------------------------

TEST(SweepShard, QuarantinedCellIsSkippedAndTheMergeDegradesExplicitly) {
  ScratchDir dir("quarantine");
  const std::uint64_t base = 60;
  const std::size_t n = 4;
  const std::size_t cells = 6;
  const std::size_t poison = 5;  // split/storm in grid order

  // The cell was quarantined by an earlier fleet generation: tombstone on
  // disk before this worker starts. It must never claim the cell.
  write_file(cell_quarantine_path(dir.str(), poison, cells),
             "owner crashed-worker\nadoptions 3\n"
             "error SIGKILL during run\nquarantined-by w0.pid123\n");
  const ShardProgress p =
      run_sharded_sweep(grid_mappings(), grid_scenarios(), synth_factory(),
                        base, n, sweep_shard(dir.str(), 0, "careful"));
  EXPECT_TRUE(p.fleet_done);
  EXPECT_FALSE(p.campaign_complete);
  EXPECT_EQ(p.shards_run, 5u);
  EXPECT_EQ(p.shards_quarantined, 1u);
  EXPECT_FALSE(
      std::filesystem::exists(cell_lease_path(dir.str(), poison, cells)));

  // Strict merge refuses the tombstone by name.
  try {
    merge_sweep_dir(dir.str());
    FAIL() << "expected SimError(kMergeIncomplete)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kMergeIncomplete);
    const std::string what = e.what();
    EXPECT_NE(what.find("split/storm"), std::string::npos) << what;
    EXPECT_NE(what.find("--allow-partial"), std::string::npos) << what;
  }

  MergeOptions mo;
  mo.allow_partial = true;
  const MergedSweep merged = merge_sweep_dir(dir.str(), mo);
  EXPECT_FALSE(merged.complete);
  EXPECT_EQ(merged.complete_cells(), 5u);
  EXPECT_EQ(merged.quarantined_cells(), 1u);
  ASSERT_EQ(merged.cells.size(), cells);
  EXPECT_EQ(merged.cells[poison].state, UnitState::kQuarantined);
  EXPECT_NE(merged.cells[poison].error.find("SIGKILL"), std::string::npos);

  // The degraded report says so out loud: banner, '-' hole in the grid,
  // one detail line for the unfinished cell.
  const std::string report = print_of(merged);
  EXPECT_NE(report.find("DEGRADED"), std::string::npos) << report;
  EXPECT_NE(report.find("5 of 6 cells complete"), std::string::npos)
      << report;
  EXPECT_NE(report.find("quarantined"), std::string::npos) << report;
  // The degraded CSV carries per-cell completeness so no downstream reader
  // mistakes a partial grid for a finished one.
  const std::string csv = csv_of(merged);
  EXPECT_NE(csv.find("records,expected_runs,state"), std::string::npos)
      << csv;
  EXPECT_NE(csv.find("quarantined"), std::string::npos) << csv;
}

TEST(SweepShard, PartialSweepMergeIsByteStableAcrossThreads) {
  const std::uint64_t base = 21;
  const std::size_t n = 9;
  std::string want_print, want_csv;
  for (const std::size_t threads :
       {std::size_t{0}, std::size_t{1}, std::size_t{8}}) {
    ScratchDir dir("partial_t" + std::to_string(threads));
    CampaignOptions co;
    co.threads = threads;
    const ShardProgress p = run_sharded_sweep(
        grid_mappings(), grid_scenarios(), synth_factory(), base, n,
        sweep_shard(dir.str(), 0, "builder"), co);
    ASSERT_TRUE(p.campaign_complete);
    // Lose one cell's journal entirely and quarantine another: the
    // degraded report must still be deterministic for any thread count.
    std::filesystem::remove(cell_journal_path(dir.str(), 2, 6));
    write_file(cell_quarantine_path(dir.str(), 4, 6),
               "owner doomed\nadoptions 3\nerror disk on fire\n");
    MergeOptions mo;
    mo.allow_partial = true;
    const MergedSweep merged = merge_sweep_dir(dir.str(), mo);
    EXPECT_FALSE(merged.complete);
    EXPECT_EQ(merged.cells[2].state, UnitState::kMissing);
    EXPECT_EQ(merged.cells[4].state, UnitState::kQuarantined);
    const std::string rep = print_of(merged);
    const std::string csv = csv_of(merged);
    if (want_print.empty()) {
      want_print = rep;
      want_csv = csv;
    } else {
      EXPECT_EQ(rep, want_print) << threads << " threads";
      EXPECT_EQ(csv, want_csv) << threads << " threads";
    }
  }
}

// ---- read-only status -----------------------------------------------------

TEST(SweepShard, StatusClassifiesEveryCellStateWithoutWriting) {
  ScratchDir dir("status");
  const std::uint64_t base = 77;
  const std::size_t n = 4;
  const std::size_t cells = 6;
  const ShardProgress p =
      run_sharded_sweep(grid_mappings(), grid_scenarios(), synth_factory(),
                        base, n, sweep_shard(dir.str(), 0, "builder"));
  ASSERT_TRUE(p.campaign_complete);

  // Sculpt one cell into each non-done state.
  std::filesystem::remove(cell_journal_path(dir.str(), 1, cells));  // unclaimed
  std::filesystem::remove(cell_journal_path(dir.str(), 2, cells));
  write_file(cell_lease_path(dir.str(), 2, cells),
             "owner live-worker\nadoptions 0\n");          // claimed (fresh)
  std::filesystem::remove(cell_journal_path(dir.str(), 3, cells));
  const std::string stale_lease = cell_lease_path(dir.str(), 3, cells);
  write_file(stale_lease, "owner dead-worker\nadoptions 1\n");
  make_stale(stale_lease);                                 // stale
  write_file(cell_quarantine_path(dir.str(), 4, cells),
             "owner doomed\nadoptions 3\nerror poison cell\n");  // quarantined

  const auto list_dir = [&] {
    std::set<std::string> names;
    for (const auto& e : std::filesystem::directory_iterator(dir.path)) {
      names.insert(e.path().filename().string());
    }
    return names;
  };
  const std::set<std::string> before = list_dir();

  const FleetStatus st = fleet_status(dir.str(), 10000);
  EXPECT_EQ(st.units, cells);
  EXPECT_EQ(st.done, 2u);  // cells 0 and 5 still hold complete journals
  EXPECT_EQ(st.claimed, 1u);
  EXPECT_EQ(st.stale, 1u);
  EXPECT_EQ(st.quarantined, 1u);
  EXPECT_EQ(st.unclaimed, 1u);
  EXPECT_FALSE(st.fleet_done());
  EXPECT_EQ(st.runs, cells * n);

  ASSERT_EQ(st.entries.size(), cells);
  EXPECT_EQ(st.entries[0].state, ShardStatusEntry::State::kDone);
  EXPECT_EQ(st.entries[0].name, "shared/iid");
  EXPECT_EQ(st.entries[1].state, ShardStatusEntry::State::kUnclaimed);
  EXPECT_EQ(st.entries[2].state, ShardStatusEntry::State::kClaimed);
  EXPECT_EQ(st.entries[2].owner, "live-worker");
  EXPECT_EQ(st.entries[3].state, ShardStatusEntry::State::kStale);
  EXPECT_EQ(st.entries[3].adoptions, 1u);
  EXPECT_GT(st.entries[3].heartbeat_age_ms, 0);
  EXPECT_EQ(st.entries[4].state, ShardStatusEntry::State::kQuarantined);
  EXPECT_EQ(st.entries[4].error, "poison cell");
  EXPECT_EQ(st.entries[5].state, ShardStatusEntry::State::kDone);

  // Status must not have created, removed or renamed anything.
  EXPECT_EQ(list_dir(), before);

  // The rendered summary names the states and the fleet-level counts.
  std::ostringstream os;
  print_fleet_status(os, st);
  const std::string text = os.str();
  EXPECT_NE(text.find("fleet: 6 units"), std::string::npos) << text;
  EXPECT_NE(text.find("1 quarantined"), std::string::npos) << text;
  EXPECT_NE(text.find("split/burst"), std::string::npos) << text;
  EXPECT_NE(text.find("error: poison cell"), std::string::npos) << text;
}

TEST(SweepShard, FutureHeartbeatRendersAsClockSkewInStatus) {
  ScratchDir dir("skew_status");
  const std::uint64_t base = 3;
  const std::size_t n = 2;
  const ShardProgress p =
      run_sharded_sweep(grid_mappings(), grid_scenarios(), synth_factory(),
                        base, n, sweep_shard(dir.str(), 0, "builder"));
  ASSERT_TRUE(p.campaign_complete);
  std::filesystem::remove(cell_journal_path(dir.str(), 0, 6));
  const std::string lease = cell_lease_path(dir.str(), 0, 6);
  write_file(lease, "owner skewed\nadoptions 0\n");
  std::filesystem::last_write_time(
      lease,
      std::filesystem::last_write_time(lease) + std::chrono::hours(1));

  const FleetStatus st = fleet_status(dir.str(), 10000);
  // An hour in the future with a 10 s TTL is outside the alive window in
  // the skew direction: stale, age negative so a human can see why.
  EXPECT_EQ(st.entries[0].state, ShardStatusEntry::State::kStale);
  EXPECT_LT(st.entries[0].heartbeat_age_ms, 0);
  std::ostringstream os;
  print_fleet_status(os, st);
  EXPECT_NE(os.str().find("clock skew"), std::string::npos) << os.str();
}

TEST(SweepShard, StatusOnAVirginDirectoryIsARefusalNotACrash) {
  ScratchDir dir("virgin");
  EXPECT_THROW(fleet_status(dir.str(), 10000), SimError);
}

}  // namespace
}  // namespace sctrace
