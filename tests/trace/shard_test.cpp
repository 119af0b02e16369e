// Sharded fleet-scale campaigns: lease-based work claiming, crash-tolerant
// adoption and the byte-identical merge.
//
// The load-bearing claims pinned here:
//   - shard_range tiles the campaign exactly: contiguous, disjoint, total;
//   - the lease protocol picks exactly one winner: a double claim raises a
//     *transient* kLeaseConflict, a fresh lease is never adoptable, a stale
//     one (heartbeat mtime past the TTL) is adopted by exactly one of eight
//     racing claimers, and content with no owner line is nobody's lease;
//   - a worker whose lease was adopted away observes lost() and leaves the
//     file to the adopter;
//   - adoption of a partially-journaled shard resumes the dead worker's
//     journal and executes only the missing seeds;
//   - two workers split a campaign with zero overlap, and the merged output
//     is byte-identical to the uninterrupted single-process run for
//     threads in {seq, 1, 8};
//   - merge refuses missing shards, missing records, mixed fault-model
//     digests, other journal format versions, a journal outside its
//     shard's canonical slot and two journals for one shard, with
//     structured SimErrors;
//   - the lease carries an adoption counter across crash generations, a
//     shard adopted past max_adoptions is quarantined by exactly one worker
//     (atomic rename tombstone) and excluded from every later claim pass;
//   - a lease whose mtime sits in the FUTURE beyond the TTL (clock skew)
//     is stale too — a skewed worker cannot pin a shard forever;
//   - --allow-partial merges compact recorded runs in global seed order, so
//     the degraded CSV is byte-stable across threads in {seq, 1, 8};
//   - fleet_status classifies every shard state from the manifest-pinned
//     directory without creating, removing or touching a file.

#include "trace/shard.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
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
         ("scperf_shard_" + name + "_" + std::to_string(::getpid()));
}

/// RAII scratch directory: removed at both ends so a crashed previous run
/// cannot leak state into this one (ctest runs suites in parallel).
struct ScratchDir {
  explicit ScratchDir(const std::string& name) : path(temp_dir(name)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() { std::filesystem::remove_all(path); }
  std::filesystem::path path;
  std::string str() const { return path.string(); }
};

/// Deterministic synthetic run, same spirit as the journal tests: every
/// field a pure function of the seed, doubles not decimal-representable.
CampaignRunResult synth_run(std::uint64_t seed) {
  CampaignRunResult r;
  r.seed = seed;
  r.makespan = Time::ns(1000 + 37 * seed);
  r.deadline_total = 16;
  r.deadline_missed = seed % 4;
  r.recovery_latencies_ns = {100.0 + 0.3 * static_cast<double>(seed)};
  r.faults_injected = seed % 3;
  r.log_weight = 0.25 * static_cast<double>(seed % 5) - 0.7;
  r.energy_pj = 1234.5 + 0.1 * static_cast<double>(seed);
  r.fault_energy_pj = 12.25 + static_cast<double>(seed);
  r.value_hash = 0x9e3779b97f4a7c15ull * (seed + 1);
  return r;
}

FaultCampaign::RunFn synth_fn() {
  return [](std::uint64_t seed) { return synth_run(seed); };
}

std::string csv_of(const FaultCampaign& c) {
  std::ostringstream os;
  c.write_csv(os);
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

/// Lease content in the writer's line format.
std::string format_lease_for_test(const std::string& owner,
                                  std::uint64_t adoptions) {
  return "owner " + owner + "\nadoptions " + std::to_string(adoptions) + "\n";
}

/// Backdates a file's mtime far enough that any sane TTL sees it stale.
void make_stale(const std::string& path) {
  std::filesystem::last_write_time(
      path, std::filesystem::last_write_time(path) - std::chrono::hours(1));
}

// ---- shard_range ----------------------------------------------------------

TEST(ShardRange, TilesTheCampaignExactly) {
  for (const std::size_t count : {1u, 2u, 3u, 7u, 16u}) {
    for (const std::size_t total : {0u, 1u, 5u, 16u, 97u}) {
      std::size_t covered = 0;
      std::size_t prev_end = 0;
      for (std::size_t i = 0; i < count; ++i) {
        const ShardRange r = shard_range(i, count, total);
        EXPECT_EQ(r.begin, prev_end) << i << "/" << count << " of " << total;
        EXPECT_LE(r.begin, r.end);
        // Remainder spread: sizes differ by at most one, big shards first.
        EXPECT_GE(r.size(), total / count);
        EXPECT_LE(r.size(), total / count + 1);
        prev_end = r.end;
        covered += r.size();
      }
      EXPECT_EQ(prev_end, total);
      EXPECT_EQ(covered, total);
    }
  }
}

TEST(ShardRange, OutOfRangeShardIsRefused) {
  EXPECT_THROW(shard_range(2, 2, 10), SimError);
  EXPECT_THROW(shard_range(0, 0, 10), SimError);
}

// ---- lease protocol -------------------------------------------------------

TEST(ShardLease, FreshClaimWritesTheWorkerIdAndReleaseUnlinks) {
  ScratchDir dir("fresh");
  const std::string path = shard_lease_path(dir.str(), 0, 2);
  auto lease = claim_shard_lease(path, "alice", 10000);
  EXPECT_FALSE(lease->adopted());
  EXPECT_FALSE(lease->lost());
  LeaseInfo info;
  ASSERT_TRUE(read_lease_info(path, &info));
  EXPECT_EQ(info.owner, "alice");
  EXPECT_EQ(info.adoptions, 0u);
  EXPECT_TRUE(info.error.empty());
  lease->release();
  EXPECT_FALSE(std::filesystem::exists(path));
  // The shard is claimable again after a release.
  auto again = claim_shard_lease(path, "bob", 10000);
  EXPECT_FALSE(again->adopted());
  ASSERT_TRUE(read_lease_info(path, &info));
  EXPECT_EQ(info.owner, "bob");
}

TEST(ShardLease, DoubleClaimIsATransientConflict) {
  ScratchDir dir("double");
  const std::string path = shard_lease_path(dir.str(), 0, 2);
  auto lease = claim_shard_lease(path, "alice", 10000);
  try {
    claim_shard_lease(path, "bob", 10000);
    FAIL() << "expected SimError(kLeaseConflict)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kLeaseConflict);
    // Transient by contract: retry loops treat it like any host hiccup.
    EXPECT_TRUE(minisc::is_transient(e.kind()));
    EXPECT_NE(std::string(e.what()).find("alice"), std::string::npos)
        << e.what();
  }
  // The conflict left the original claim untouched.
  LeaseInfo info;
  ASSERT_TRUE(read_lease_info(path, &info));
  EXPECT_EQ(info.owner, "alice");
  EXPECT_FALSE(lease->lost());
}

TEST(ShardLease, FreshLeaseOfADeadlessWorkerIsNotAdoptable) {
  ScratchDir dir("not_stale");
  const std::string path = shard_lease_path(dir.str(), 0, 1);
  // A lease file with a current mtime and no live process behind it is
  // indistinguishable from a just-started worker: it must NOT be adopted.
  write_file(path, format_lease_for_test("maybe-alive", 0));
  EXPECT_THROW(claim_shard_lease(path, "bob", 10000), SimError);
  EXPECT_EQ(read_file(path), format_lease_for_test("maybe-alive", 0));
}

TEST(ShardLease, StaleLeaseIsAdopted) {
  ScratchDir dir("stale");
  const std::string path = shard_lease_path(dir.str(), 0, 1);
  write_file(path, format_lease_for_test("dead-worker", 0));
  make_stale(path);
  auto lease = claim_shard_lease(path, "survivor", 10000);
  EXPECT_TRUE(lease->adopted());
  LeaseInfo info;
  ASSERT_TRUE(read_lease_info(path, &info));
  EXPECT_EQ(info.owner, "survivor");
  // The never-adopted lease is generation zero; adoption makes one.
  EXPECT_EQ(info.adoptions, 1u);
  EXPECT_EQ(lease->adoptions(), 1u);
  // No adoption tombstone left behind.
  for (const auto& e : std::filesystem::directory_iterator(dir.path)) {
    EXPECT_EQ(e.path().string(), path);
  }
}

TEST(ShardLease, TakenOverLeaseIsObservedLostAndLeftToTheAdopter) {
  ScratchDir dir("takeover");
  const std::string path = shard_lease_path(dir.str(), 0, 1);
  // Tight heartbeat so the probe notices quickly.
  auto lease = claim_shard_lease(path, "victim", 10000, /*heartbeat_ms=*/20);
  // Simulate the adopter's rename+re-create: the file now names it.
  write_file(path, format_lease_for_test("adopter", 1));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!lease->lost() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(lease->lost());
  lease->release();
  // A lost lease belongs to the adopter: release must not unlink it.
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_EQ(read_file(path), format_lease_for_test("adopter", 1));
}

TEST(ShardLease, ContentWithoutAnOwnerLineIsNobodysLease) {
  ScratchDir dir("ownerless");
  const std::string path = shard_lease_path(dir.str(), 0, 1);
  // Content with no owner line (here a bare worker id) names no owner.
  write_file(path, "dead-worker");
  LeaseInfo info;
  ASSERT_TRUE(read_lease_info(path, &info));
  EXPECT_EQ(info.owner, "");
  EXPECT_EQ(info.adoptions, 0u);
  // Fresh, it is still a held lease: refused like any other...
  try {
    claim_shard_lease(path, "bob", 10000);
    FAIL() << "expected SimError(kLeaseConflict)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kLeaseConflict);
  }
  EXPECT_EQ(read_file(path), "dead-worker");
  // ...and stale, it is adopted once, as generation one.
  make_stale(path);
  auto lease = claim_shard_lease(path, "survivor", 10000);
  EXPECT_TRUE(lease->adopted());
  EXPECT_EQ(lease->adoptions(), 1u);
  ASSERT_TRUE(read_lease_info(path, &info));
  EXPECT_EQ(info.owner, "survivor");
  EXPECT_THROW(claim_shard_lease(path, "late", 10000), SimError);
}

// ---- clock skew -----------------------------------------------------------

/// Pushes a file's mtime into the future by `minutes`.
void make_future(const std::string& path, int minutes) {
  std::filesystem::last_write_time(
      path, std::filesystem::last_write_time(path) +
                std::chrono::minutes(minutes));
}

TEST(ShardLease, FutureMtimeBeyondTheTtlIsStaleToo) {
  ScratchDir dir("skew_far");
  const std::string path = shard_lease_path(dir.str(), 0, 1);
  write_file(path, format_lease_for_test("skewed-worker", 0));
  // An hour in the future with a 10 s TTL: no honest heartbeat can have
  // produced this mtime, so treating it as "alive until the wall clock
  // catches up" would pin the shard for an hour. It must be adoptable NOW.
  make_future(path, 60);
  auto lease = claim_shard_lease(path, "survivor", 10000);
  EXPECT_TRUE(lease->adopted());
  LeaseInfo info;
  ASSERT_TRUE(read_lease_info(path, &info));
  EXPECT_EQ(info.owner, "survivor");
}

TEST(ShardLease, FutureMtimeWithinTheTtlIsAlive) {
  ScratchDir dir("skew_near");
  const std::string path = shard_lease_path(dir.str(), 0, 1);
  write_file(path, format_lease_for_test("slightly-ahead", 0));
  // A few seconds ahead is ordinary NFS/VM clock slop around a live
  // heartbeat: within the TTL window in either direction means alive.
  std::filesystem::last_write_time(
      path, std::filesystem::last_write_time(path) + std::chrono::seconds(5));
  EXPECT_THROW(claim_shard_lease(path, "bob", 10000), SimError);
  EXPECT_EQ(read_file(path), format_lease_for_test("slightly-ahead", 0));
}

// ---- adoption counter & quarantine ----------------------------------------

TEST(ShardLease, AdoptionCounterRoundTripsAcrossGenerations) {
  ScratchDir dir("counter");
  const std::string path = shard_lease_path(dir.str(), 0, 1);
  // Generation 0: fresh claim, counter starts at zero...
  claim_shard_lease(path, "gen0", 10000)->abandon();
  // ...then every crash/adopt cycle increments it through the file.
  for (std::uint64_t gen = 1; gen <= 4; ++gen) {
    make_stale(path);
    const std::string worker = "gen" + std::to_string(gen);
    auto lease = claim_shard_lease(path, worker, 10000);
    EXPECT_TRUE(lease->adopted());
    EXPECT_EQ(lease->adoptions(), gen);
    LeaseInfo info;
    ASSERT_TRUE(read_lease_info(path, &info));
    EXPECT_EQ(info.owner, worker);
    EXPECT_EQ(info.adoptions, gen);
    lease->abandon();  // die without releasing, like a crashed worker
  }
}

TEST(ShardLease, RecordedErrorSurvivesAdoptionIntoTheTombstone) {
  ScratchDir dir("carry_error");
  const std::string path = shard_lease_path(dir.str(), 0, 1);
  {
    auto lease = claim_shard_lease(path, "first", 10000, 0,
                                   /*max_adoptions=*/1);
    lease->record_error("deadline config rejects scenario 'storm'");
    lease->abandon();
  }
  make_stale(path);
  // Adoption 1 carries the recorded error forward in the lease file...
  {
    auto lease = claim_shard_lease(path, "second", 10000, 0, 1);
    EXPECT_EQ(lease->adoptions(), 1u);
    LeaseInfo info;
    ASSERT_TRUE(read_lease_info(path, &info));
    EXPECT_EQ(info.error, "deadline config rejects scenario 'storm'");
    lease->abandon();
  }
  make_stale(path);
  // ...and a second adoption would exceed max_adoptions: the claimer
  // quarantines instead, and the tombstone still names the original
  // complaint.
  try {
    claim_shard_lease(path, "third", 10000, 0, 1);
    FAIL() << "expected SimError(kShardQuarantined)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kShardQuarantined);
    EXPECT_FALSE(minisc::is_transient(e.kind()));
    EXPECT_NE(std::string(e.what()).find("storm"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  const std::string qpath = shard_quarantine_path(dir.str(), 0, 1);
  LeaseInfo qinfo;
  ASSERT_TRUE(read_lease_info(qpath, &qinfo));
  EXPECT_EQ(qinfo.owner, "second");
  EXPECT_EQ(qinfo.adoptions, 1u);
  EXPECT_EQ(qinfo.error, "deadline config rejects scenario 'storm'");
}

TEST(ShardLease, QuarantinedShardRefusesEveryLaterClaim) {
  ScratchDir dir("quarantined_claim");
  const std::string path = shard_lease_path(dir.str(), 0, 1);
  write_file(path, format_lease_for_test("dead-worker", 0));
  make_stale(path);
  // Zero prior adoptions, so with max_adoptions=1 the first stale claim
  // still adopts normally.
  auto lease = claim_shard_lease(path, "adopter", 10000, 0, 1);
  EXPECT_TRUE(lease->adopted());
  lease->abandon();
  make_stale(path);
  // Second stale claim hits the cap and quarantines.
  EXPECT_THROW(claim_shard_lease(path, "late", 10000, 0, 1), SimError);
  ASSERT_TRUE(
      std::filesystem::exists(shard_quarantine_path(dir.str(), 0, 1)));
  // From now on EVERY claim — fresh or stale path — sees the tombstone
  // first and reports terminal kShardQuarantined, forever.
  for (int i = 0; i < 2; ++i) {
    try {
      claim_shard_lease(path, "retrier", 10000, 0, 1);
      FAIL() << "expected SimError(kShardQuarantined)";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimError::Kind::kShardQuarantined);
    }
  }
}

TEST(ShardLease, RacingAdoptersQuarantineExactlyOnce) {
  ScratchDir dir("race_quarantine");
  const std::string path = shard_lease_path(dir.str(), 0, 1);
  const std::string qpath = shard_quarantine_path(dir.str(), 0, 1);
  // Run the race several rounds: rename-based quarantine must pick exactly
  // one winner each time, never two, never zero.
  for (int round = 0; round < 10; ++round) {
    std::filesystem::remove(path);
    std::filesystem::remove(qpath);
    write_file(path, format_lease_for_test("doomed", 3));
    make_stale(path);
    std::atomic<int> quarantined{0};
    std::atomic<int> adopted{0};
    std::vector<std::thread> racers;
    for (int t = 0; t < 8; ++t) {
      racers.emplace_back([&, t] {
        try {
          auto lease =
              claim_shard_lease(path, "racer" + std::to_string(t), 10000,
                                /*heartbeat_ms=*/0, /*max_adoptions=*/3);
          ++adopted;  // would be a cap violation, counted and failed below
        } catch (const SimError& e) {
          if (e.kind() == SimError::Kind::kShardQuarantined) ++quarantined;
          // kLeaseConflict losers are fine: they'd retry and then see the
          // tombstone, which this loop also asserts.
        }
      });
    }
    for (auto& th : racers) th.join();
    EXPECT_EQ(adopted.load(), 0) << "round " << round;
    EXPECT_GE(quarantined.load(), 1) << "round " << round;
    EXPECT_TRUE(std::filesystem::exists(qpath)) << "round " << round;
    EXPECT_FALSE(std::filesystem::exists(path)) << "round " << round;
    LeaseInfo qinfo;
    ASSERT_TRUE(read_lease_info(qpath, &qinfo));
    EXPECT_EQ(qinfo.owner, "doomed");
    EXPECT_EQ(qinfo.adoptions, 3u);
  }
}

TEST(ShardLease, RacingAdoptersAdoptExactlyOnce) {
  ScratchDir dir("race_adopt");
  const std::string path = shard_lease_path(dir.str(), 0, 1);
  // Ten rounds on a lease an hour stale, then one whose mtime sits an hour
  // in the FUTURE against the 10 s TTL (clock skew: stale too). Every round
  // has exactly one winner; every other racer gets a transient conflict.
  for (int round = 0; round <= 10; ++round) {
    std::filesystem::remove(path);
    write_file(path, format_lease_for_test("dead-worker", 0));
    if (round < 10) {
      make_stale(path);
    } else {
      make_future(path, 60);
    }
    std::vector<std::unique_ptr<ShardLease>> held(8);
    std::atomic<int> conflicts{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> racers;
    for (int t = 0; t < 8; ++t) {
      racers.emplace_back([&, t] {
        while (!go.load()) std::this_thread::yield();
        try {
          held[t] = claim_shard_lease(path, "racer" + std::to_string(t),
                                      10000);
        } catch (const SimError& e) {
          EXPECT_EQ(e.kind(), SimError::Kind::kLeaseConflict) << e.what();
          ++conflicts;
        }
      });
    }
    go.store(true);
    for (auto& th : racers) th.join();
    std::string winner;
    int winners = 0;
    for (int t = 0; t < 8; ++t) {
      if (!held[t]) continue;
      ++winners;
      winner = "racer" + std::to_string(t);
    }
    EXPECT_EQ(winners, 1) << "round " << round;
    EXPECT_EQ(conflicts.load(), 7) << "round " << round;
    // Adoption renames the new lease over the stale one, so the path never
    // goes empty for a fresh claim to win with the counter reset to 0.
    LeaseInfo info;
    ASSERT_TRUE(read_lease_info(path, &info)) << "round " << round;
    EXPECT_EQ(info.owner, winner) << "round " << round;
    EXPECT_EQ(info.adoptions, 1u) << "round " << round;
    for (auto& l : held) {
      if (l) l->release();
    }
  }
}

TEST(ShardLease, MaxAdoptionsZeroMeansUnlimited) {
  ScratchDir dir("unlimited");
  const std::string path = shard_lease_path(dir.str(), 0, 1);
  claim_shard_lease(path, "gen0", 10000, 0, /*max_adoptions=*/0)->abandon();
  for (std::uint64_t gen = 1; gen <= 6; ++gen) {
    make_stale(path);
    auto lease = claim_shard_lease(path, "gen" + std::to_string(gen), 10000,
                                   0, /*max_adoptions=*/0);
    EXPECT_TRUE(lease->adopted());
    EXPECT_EQ(lease->adoptions(), gen);
    lease->abandon();
  }
  EXPECT_FALSE(
      std::filesystem::exists(shard_quarantine_path(dir.str(), 0, 1)));
}

// ---- worker loop ----------------------------------------------------------

TEST(ShardWorker, SingleWorkerCompletesEveryShardAndMergesByteIdentically) {
  const std::uint64_t base = 40;
  const std::size_t total = 13;  // deliberately not divisible by 3
  FaultCampaign reference(synth_fn());
  reference.run(base, total);
  const std::string want_csv = csv_of(reference);

  for (const std::size_t threads :
       {std::size_t{0}, std::size_t{1}, std::size_t{8}}) {
    ScratchDir dir("single_t" + std::to_string(threads));
    ShardOptions so;
    so.dir = dir.str();
    so.shard_index = 0;
    so.shard_count = 3;
    so.worker_id = "solo";
    CampaignOptions co;
    co.threads = threads;
    const ShardProgress p =
        run_sharded_campaign(synth_fn(), base, total, so, co);
    EXPECT_TRUE(p.campaign_complete);
    EXPECT_EQ(p.shards_run, 3u);
    EXPECT_EQ(p.shards_adopted, 0u);
    EXPECT_EQ(p.runs_executed, total);

    const MergedCampaign merged = merge_shard_dir(dir.str());
    EXPECT_EQ(merged.base_seed, base);
    EXPECT_EQ(merged.runs, total);
    EXPECT_EQ(merged.shard_count, 3u);
    FaultCampaign folded(merged.results);
    EXPECT_EQ(csv_of(folded), want_csv) << threads << " threads";
  }
}

TEST(ShardWorker, AdoptionResumesTheDeadWorkersJournalRunningOnlyMissingSeeds) {
  ScratchDir dir("adopt");
  const std::uint64_t base = 40;
  const std::size_t total = 10;  // 2 shards of 5
  const ShardRange r1 = shard_range(1, 2, total);

  // The dead worker journaled shard 1's first two runs before dying...
  JournalHeader h;
  h.base_seed = base + r1.begin;
  h.runs = r1.size();
  h.shard_index = 1;
  h.shard_count = 2;
  h.shard_begin = r1.begin;
  h.total_runs = total;
  h.worker_id = "dead-worker";
  {
    JournalWriter w(shard_journal_path(dir.str(), 1, 2), h, 1);
    w.append(0, synth_run(base + r1.begin));
    w.append(1, synth_run(base + r1.begin + 1));
  }
  // ...and its lease went stale.
  const std::string lease = shard_lease_path(dir.str(), 1, 2);
  write_file(lease, format_lease_for_test("dead-worker", 0));
  make_stale(lease);

  std::mutex mu;
  std::set<std::uint64_t> executed;
  ShardOptions so;
  so.dir = dir.str();
  so.shard_index = 0;
  so.shard_count = 2;
  so.worker_id = "survivor";
  const ShardProgress p = run_sharded_campaign(
      [&](std::uint64_t seed) {
        std::unique_lock<std::mutex> lk(mu);
        EXPECT_TRUE(executed.insert(seed).second) << "seed ran twice";
        return synth_run(seed);
      },
      base, total, so);
  EXPECT_TRUE(p.campaign_complete);
  EXPECT_EQ(p.shards_run, 2u);
  EXPECT_EQ(p.shards_adopted, 1u);
  // Own shard (5) plus only the 3 seeds missing from the adopted journal.
  EXPECT_EQ(p.runs_executed, 8u);
  EXPECT_EQ(executed.count(base + r1.begin), 0u);
  EXPECT_EQ(executed.count(base + r1.begin + 1), 0u);

  // The merge cannot tell who ran what.
  FaultCampaign reference(synth_fn());
  reference.run(base, total);
  FaultCampaign folded(merge_shard_dir(dir.str()).results);
  EXPECT_EQ(csv_of(folded), csv_of(reference));
}

TEST(ShardWorker, CorruptAdoptedJournalIsHealedUnderTheExclusiveLease) {
  ScratchDir dir("heal");
  const std::size_t total = 6;
  // Shard 1's journal is bytes-but-no-header: a worker died inside its very
  // first write. The adopter holds the exclusive lease and every run is a
  // pure function of its seed, so it deletes the wreck and re-runs.
  write_file(shard_journal_path(dir.str(), 1, 2), "garbage");
  const std::string lease = shard_lease_path(dir.str(), 1, 2);
  write_file(lease, format_lease_for_test("dead-worker", 0));
  make_stale(lease);

  ShardOptions so;
  so.dir = dir.str();
  so.shard_index = 0;
  so.shard_count = 2;
  so.worker_id = "survivor";
  const ShardProgress p = run_sharded_campaign(synth_fn(), 0, total, so);
  EXPECT_TRUE(p.campaign_complete);
  EXPECT_EQ(p.runs_executed, total);

  FaultCampaign reference(synth_fn());
  reference.run(0, total);
  FaultCampaign folded(merge_shard_dir(dir.str()).results);
  EXPECT_EQ(csv_of(folded), csv_of(reference));
}

TEST(ShardWorker, TwoWorkersSplitTheCampaignWithZeroOverlap) {
  ScratchDir dir("two");
  const std::uint64_t base = 7;
  const std::size_t total = 24;
  std::mutex mu;
  std::set<std::uint64_t> executed;
  const auto counting_fn = [&](std::uint64_t seed) {
    {
      std::unique_lock<std::mutex> lk(mu);
      EXPECT_TRUE(executed.insert(seed).second)
          << "seed " << seed << " ran twice: the leases leaked a shard";
    }
    return synth_run(seed);
  };

  ShardProgress p0, p1;
  std::thread w0([&] {
    ShardOptions so;
    so.dir = dir.str();
    so.shard_index = 0;
    so.shard_count = 2;
    so.worker_id = "w0";
    so.poll_ms = 20;
    p0 = run_sharded_campaign(counting_fn, base, total, so);
  });
  std::thread w1([&] {
    ShardOptions so;
    so.dir = dir.str();
    so.shard_index = 1;
    so.shard_count = 2;
    so.worker_id = "w1";
    so.poll_ms = 20;
    p1 = run_sharded_campaign(counting_fn, base, total, so);
  });
  w0.join();
  w1.join();

  EXPECT_TRUE(p0.campaign_complete);
  EXPECT_TRUE(p1.campaign_complete);
  EXPECT_EQ(executed.size(), total);
  EXPECT_EQ(p0.runs_executed + p1.runs_executed, total);
  EXPECT_EQ(p0.shards_run + p1.shards_run, 2u);

  FaultCampaign reference(synth_fn());
  reference.run(base, total);
  FaultCampaign folded(merge_shard_dir(dir.str()).results);
  EXPECT_EQ(csv_of(folded), csv_of(reference));
}

// ---- merge refusals -------------------------------------------------------

/// Builds a complete, healthy 2-shard fleet in `dir` for refusal tests to
/// then damage.
void build_fleet(const std::string& dir, std::uint64_t base,
                 std::size_t total) {
  ShardOptions so;
  so.dir = dir;
  so.shard_index = 0;
  so.shard_count = 2;
  so.worker_id = "builder";
  const ShardProgress p = run_sharded_campaign(synth_fn(), base, total, so);
  ASSERT_TRUE(p.campaign_complete);
}

TEST(ShardMerge, MissingShardJournalIsIncomplete) {
  ScratchDir dir("missing_shard");
  build_fleet(dir.str(), 0, 10);
  std::filesystem::remove(shard_journal_path(dir.str(), 1, 2));
  try {
    merge_shard_dir(dir.str());
    FAIL() << "expected SimError(kMergeIncomplete)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kMergeIncomplete);
    EXPECT_NE(std::string(e.what()).find("missing: 1"),
              std::string::npos) << e.what();
  }
}

TEST(ShardMerge, MissingRunRecordsAreIncomplete) {
  ScratchDir dir("missing_runs");
  const std::size_t total = 10;
  const ShardRange r1 = shard_range(1, 2, total);
  build_fleet(dir.str(), 0, total);
  // Rewrite shard 1's journal with one record missing: an unfinished fleet.
  JournalHeader h;
  h.base_seed = r1.begin;
  h.runs = r1.size();
  h.shard_index = 1;
  h.shard_count = 2;
  h.shard_begin = r1.begin;
  h.total_runs = total;
  {
    JournalWriter w(shard_journal_path(dir.str(), 1, 2), h, 1);
    for (std::size_t i = 0; i + 1 < r1.size(); ++i) {
      w.append(i, synth_run(r1.begin + i));
    }
  }
  try {
    merge_shard_dir(dir.str());
    FAIL() << "expected SimError(kMergeIncomplete)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kMergeIncomplete);
    EXPECT_NE(std::string(e.what()).find("1 of 10 runs have no record"),
              std::string::npos) << e.what();
  }
}

TEST(ShardMerge, MixedScenarioDigestsAreRefused) {
  ScratchDir dir("mixed_digest");
  const std::size_t total = 10;
  const ShardRange r1 = shard_range(1, 2, total);
  build_fleet(dir.str(), 0, total);
  // Shard 1 re-written under a different fault model digest.
  JournalHeader h;
  h.base_seed = r1.begin;
  h.runs = r1.size();
  h.scenario_digest = 0xdeadbeef;
  h.shard_index = 1;
  h.shard_count = 2;
  h.shard_begin = r1.begin;
  h.total_runs = total;
  {
    JournalWriter w(shard_journal_path(dir.str(), 1, 2), h, 1);
    for (std::size_t i = 0; i < r1.size(); ++i) {
      w.append(i, synth_run(r1.begin + i));
    }
  }
  try {
    merge_shard_dir(dir.str());
    FAIL() << "expected SimError(kBadConfig)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kBadConfig);
    EXPECT_NE(std::string(e.what()).find("different fault models"),
              std::string::npos) << e.what();
  }
}

/// Journal framing (FNV-1a over type+len+payload), same as the writer's,
/// so the tests can fabricate files of another format version.
std::string frame_record(char type, const std::string& payload) {
  std::string out;
  out.push_back(type);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((payload.size() >> (8 * i)) & 0xff));
  }
  out += payload;
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : out) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((h >> (8 * i)) & 0xff));
  }
  return out;
}

/// Re-stamps a journal's header with another format version number,
/// carrying the header fields and run records verbatim.
void stamp_journal_version(const std::string& path, std::uint8_t version) {
  const std::string bytes = read_file(path);
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= std::uint32_t(static_cast<unsigned char>(bytes[1 + i])) << (8 * i);
  }
  std::string payload = bytes.substr(1 + 4, len);
  payload[0] = static_cast<char>(version);  // leading u32, little-endian
  payload[1] = payload[2] = payload[3] = 0;
  write_file(path, frame_record('H', payload) + bytes.substr(1 + 4 + len + 8));
}

TEST(ShardMerge, V3JournalIsRefusedNamingBothVersions) {
  ScratchDir dir("v3_merge");
  build_fleet(dir.str(), 0, 10);
  // Both retired formats: 3, and 4 (the last with a lease epoch).
  for (const std::uint8_t version : {3, 4}) {
    stamp_journal_version(shard_journal_path(dir.str(), 1, 2), version);
    for (const bool allow_partial : {false, true}) {
      MergeOptions mo;
      mo.allow_partial = allow_partial;
      try {
        merge_shard_dir(dir.str(), mo);
        FAIL() << "expected SimError(kShardVersionMismatch)";
      } catch (const SimError& e) {
        EXPECT_EQ(e.kind(), SimError::Kind::kShardVersionMismatch);
        const std::string what = e.what();
        EXPECT_NE(what.find("format version " + std::to_string(version)),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("only version 5"), std::string::npos) << what;
      }
    }
  }
}

/// Rewrites shard 1 of a 10-run, 2-shard fleet as a journal with a
/// complete record set over [begin, begin + runs) (global indices).
void write_shard1_journal(const std::string& path, std::size_t begin,
                          std::size_t runs) {
  JournalHeader h;
  h.base_seed = begin;
  h.runs = runs;
  h.shard_index = 1;
  h.shard_count = 2;
  h.shard_begin = begin;
  h.total_runs = 10;
  JournalWriter w(path, h, 1);
  for (std::size_t i = 0; i < runs; ++i) w.append(i, synth_run(begin + i));
}

TEST(ShardMerge, JournalOutsideItsCanonicalSlotIsRefused) {
  ScratchDir dir("off_slot");
  build_fleet(dir.str(), 0, 10);
  // Shard 1's canonical slot is [5, +5); a journal for a tail of it, or for
  // a range running past it, is not a shard journal of this layout.
  const std::string j1 = shard_journal_path(dir.str(), 1, 2);
  for (const auto& [begin, runs] :
       {std::pair<std::size_t, std::size_t>{6, 4}, {5, 4}, {4, 6}}) {
    write_shard1_journal(j1, begin, runs);
    for (const bool allow_partial : {false, true}) {
      MergeOptions mo;
      mo.allow_partial = allow_partial;
      try {
        merge_shard_dir(dir.str(), mo);
        FAIL() << "expected SimError(kBadConfig) for [" << begin << ", +"
               << runs << ")";
      } catch (const SimError& e) {
        EXPECT_EQ(e.kind(), SimError::Kind::kBadConfig);
        const std::string what = e.what();
        EXPECT_NE(what.find("canonical slot is [5, +5)"), std::string::npos)
            << what;
        EXPECT_NE(what.find(j1), std::string::npos) << what;
      }
    }
  }
}

TEST(ShardMerge, TwoJournalsForOneShardAreRefused) {
  ScratchDir dir("two_for_one");
  build_fleet(dir.str(), 0, 10);
  const std::string j0 = shard_journal_path(dir.str(), 0, 2);
  const std::string j1 = shard_journal_path(dir.str(), 1, 2);
  const std::string copy = dir.str() + "/copy_of_shard_1.journal";
  std::filesystem::copy_file(j1, copy);
  // Ambiguous, not partial: allow_partial cannot pick which one to trust.
  for (const bool allow_partial : {false, true}) {
    MergeOptions mo;
    mo.allow_partial = allow_partial;
    try {
      merge_journals({j0, j1, copy}, mo);
      FAIL() << "expected SimError(kMergeIncomplete)";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimError::Kind::kMergeIncomplete);
      const std::string what = e.what();
      EXPECT_NE(what.find("shard 1 ('" + j1 + "', '" + copy + "')"),
                std::string::npos)
          << what;
    }
  }
  // The canonical pair alone merges.
  EXPECT_TRUE(merge_journals({j0, j1}).complete);
}

TEST(ShardMerge, EmptyDirectoryIsIncomplete) {
  ScratchDir dir("empty");
  try {
    merge_shard_dir(dir.str());
    FAIL() << "expected SimError(kMergeIncomplete)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kMergeIncomplete);
  }
}

// ---- quarantine end-to-end ------------------------------------------------

TEST(ShardWorker, PermanentInfraErrorConvergesToQuarantine) {
  ScratchDir dir("infra_quarantine");
  const std::uint64_t base = 40;
  const std::size_t total = 6;  // 2 shards of 3
  const ShardRange r1 = shard_range(1, 2, total);
  // Shard 1's seeds hit a host whose disk is full: every attempt raises the
  // structured infrastructure error. The worker records it on the lease,
  // abandons, the (self-)adoption counter climbs, and the cap converts the
  // poison shard into a tombstone instead of an infinite crash loop.
  const auto fn = [&](std::uint64_t seed) -> CampaignRunResult {
    if (seed >= base + r1.begin) {
      throw SimError(SimError::Kind::kIoError,
                     "append 'shard_1_of_2.journal': pwrite: "
                     "No space left on device");
    }
    return synth_run(seed);
  };
  ShardOptions so;
  so.dir = dir.str();
  so.shard_index = 0;
  so.shard_count = 2;
  so.worker_id = "sick-host";
  so.lease_ttl_ms = 200;  // short TTL so abandoned leases go stale fast
  so.poll_ms = 20;
  so.max_adoptions = 2;
  const ShardProgress p = run_sharded_campaign(fn, base, total, so);
  EXPECT_TRUE(p.fleet_done);
  EXPECT_FALSE(p.campaign_complete);
  EXPECT_EQ(p.shards_run, 1u);
  EXPECT_EQ(p.shards_quarantined, 1u);
  // Initial claim plus max_adoptions crash generations, all abandoned.
  EXPECT_EQ(p.shards_abandoned, 3u);

  const std::string qpath = shard_quarantine_path(dir.str(), 1, 2);
  ASSERT_TRUE(std::filesystem::exists(qpath));
  EXPECT_FALSE(
      std::filesystem::exists(shard_lease_path(dir.str(), 1, 2)));
  LeaseInfo qinfo;
  ASSERT_TRUE(read_lease_info(qpath, &qinfo));
  EXPECT_EQ(qinfo.adoptions, 2u);
  EXPECT_NE(qinfo.error.find("No space left on device"), std::string::npos)
      << qinfo.error;

  // Strict merge refuses the tombstone by name, pointing at the escape
  // hatch; --allow-partial yields the explicitly degraded campaign.
  try {
    merge_shard_dir(dir.str());
    FAIL() << "expected SimError(kMergeIncomplete)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kMergeIncomplete);
    const std::string what = e.what();
    EXPECT_NE(what.find("quarantined"), std::string::npos) << what;
    EXPECT_NE(what.find("--allow-partial"), std::string::npos) << what;
  }
  MergeOptions mo;
  mo.allow_partial = true;
  const MergedCampaign merged = merge_shard_dir(dir.str(), mo);
  EXPECT_FALSE(merged.complete);
  EXPECT_EQ(merged.recorded_runs, total - r1.size());
  EXPECT_EQ(merged.missing_records, r1.size());
  ASSERT_EQ(merged.quarantined.size(), 1u);
  EXPECT_EQ(merged.quarantined[0].index, 1u);
  EXPECT_NE(merged.quarantined[0].info.error.find("No space left"),
            std::string::npos);
}

TEST(ShardWorker, V3JournalIsNeverExtendedAndConvergesToQuarantine) {
  ScratchDir dir("v3_worker");
  const std::size_t total = 10;
  build_fleet(dir.str(), 0, total);
  const std::string v3 = shard_journal_path(dir.str(), 1, 2);
  stamp_journal_version(v3, 3);
  const std::string v3_bytes = read_file(v3);

  // The unreadable journal is not complete, so a worker claims the unit;
  // resume refuses the file, and the worker records the refusal and
  // abandons until the adoption cap quarantines the unit.
  ShardOptions so;
  so.dir = dir.str();
  so.shard_index = 1;
  so.shard_count = 2;
  so.worker_id = "revisit";
  so.lease_ttl_ms = 200;
  so.poll_ms = 20;
  so.max_adoptions = 1;
  const ShardProgress p = run_sharded_campaign(synth_fn(), 0, total, so);
  EXPECT_TRUE(p.fleet_done);
  EXPECT_FALSE(p.campaign_complete);
  EXPECT_EQ(p.runs_executed, 0u);
  EXPECT_EQ(p.shards_quarantined, 1u);
  EXPECT_EQ(read_file(v3), v3_bytes);

  LeaseInfo qinfo;
  ASSERT_TRUE(read_lease_info(shard_quarantine_path(dir.str(), 1, 2), &qinfo));
  EXPECT_NE(qinfo.error.find("format version 3"), std::string::npos)
      << qinfo.error;
  EXPECT_NE(qinfo.error.find("only version 5"), std::string::npos)
      << qinfo.error;
}

// ---- partial merges -------------------------------------------------------

TEST(ShardMerge, AllowPartialCompactsMissingRecordsInSeedOrder) {
  ScratchDir dir("partial_records");
  const std::size_t total = 10;
  const ShardRange r1 = shard_range(1, 2, total);
  build_fleet(dir.str(), 0, total);
  // Rewrite shard 1's journal missing its SECOND record: the hole is in the
  // middle of the global seed sequence, so compaction order matters.
  JournalHeader h;
  h.base_seed = r1.begin;
  h.runs = r1.size();
  h.shard_index = 1;
  h.shard_count = 2;
  h.shard_begin = r1.begin;
  h.total_runs = total;
  {
    JournalWriter w(shard_journal_path(dir.str(), 1, 2), h, 1);
    for (std::size_t i = 0; i < r1.size(); ++i) {
      if (i == 1) continue;
      w.append(i, synth_run(r1.begin + i));
    }
  }
  MergeOptions mo;
  mo.allow_partial = true;
  const MergedCampaign merged = merge_shard_dir(dir.str(), mo);
  EXPECT_FALSE(merged.complete);
  EXPECT_EQ(merged.missing_records, 1u);
  EXPECT_TRUE(merged.missing_shards.empty());
  ASSERT_EQ(merged.recorded_runs, total - 1);
  ASSERT_EQ(merged.results.size(), total - 1);
  // Global seed order with exactly the one seed skipped.
  std::size_t at = 0;
  for (std::uint64_t seed = 0; seed < total; ++seed) {
    if (seed == r1.begin + 1) continue;
    EXPECT_EQ(merged.results[at].seed, seed);
    ++at;
  }
}

TEST(ShardMerge, AllowPartialListsAWholeMissingShard) {
  ScratchDir dir("partial_shard");
  const std::size_t total = 10;
  const ShardRange r1 = shard_range(1, 2, total);
  build_fleet(dir.str(), 0, total);
  std::filesystem::remove(shard_journal_path(dir.str(), 1, 2));
  MergeOptions mo;
  mo.allow_partial = true;
  const MergedCampaign merged = merge_shard_dir(dir.str(), mo);
  EXPECT_FALSE(merged.complete);
  ASSERT_EQ(merged.missing_shards.size(), 1u);
  EXPECT_EQ(merged.missing_shards[0], 1u);
  EXPECT_EQ(merged.missing_records, r1.size());
  EXPECT_EQ(merged.recorded_runs, total - r1.size());
}

TEST(ShardMerge, QuarantineTombstoneDegradesEvenWithAFullJournal) {
  ScratchDir dir("tomb_full");
  const std::size_t total = 10;
  build_fleet(dir.str(), 0, total);
  // The shard was quarantined AFTER journaling everything (e.g. the fatal
  // error hit on the final fsync). Every record is salvageable, but the
  // campaign must still present as degraded: a tombstone is a statement
  // that this fleet needed intervention, not a detail to launder away.
  write_file(shard_quarantine_path(dir.str(), 1, 2),
             format_lease_for_test("doomed", 3) +
                 "error device reported EIO\nquarantined-by ci-worker\n");
  MergeOptions mo;
  mo.allow_partial = true;
  const MergedCampaign merged = merge_shard_dir(dir.str(), mo);
  EXPECT_FALSE(merged.complete);
  EXPECT_EQ(merged.recorded_runs, total);
  EXPECT_EQ(merged.missing_records, 0u);
  ASSERT_EQ(merged.quarantined.size(), 1u);
  EXPECT_EQ(merged.quarantined[0].index, 1u);
  EXPECT_EQ(merged.quarantined[0].info.owner, "doomed");
  EXPECT_EQ(merged.quarantined[0].info.adoptions, 3u);
  EXPECT_EQ(merged.quarantined[0].info.error, "device reported EIO");
}

TEST(ShardMerge, PartialMergeIsByteStableAcrossThreads) {
  const std::uint64_t base = 11;
  const std::size_t total = 17;  // 3 shards: 6, 6, 5
  std::string want;
  for (const std::size_t threads :
       {std::size_t{0}, std::size_t{1}, std::size_t{8}}) {
    ScratchDir dir("partial_t" + std::to_string(threads));
    ShardOptions so;
    so.dir = dir.str();
    so.shard_index = 0;
    so.shard_count = 3;
    so.worker_id = "builder";
    CampaignOptions co;
    co.threads = threads;
    const ShardProgress p =
        run_sharded_campaign(synth_fn(), base, total, so, co);
    ASSERT_TRUE(p.campaign_complete);
    std::filesystem::remove(shard_journal_path(dir.str(), 1, 3));
    MergeOptions mo;
    mo.allow_partial = true;
    const MergedCampaign merged = merge_shard_dir(dir.str(), mo);
    EXPECT_FALSE(merged.complete);
    const std::string csv = csv_of(FaultCampaign(merged.results));
    if (want.empty()) {
      want = csv;
    } else {
      EXPECT_EQ(csv, want) << threads << " threads";
    }
  }
}

// ---- elastic layout (fleet manifest) --------------------------------------

/// Hand-written fleet manifest, matching the pinned writer's format, for
/// tests that need a layout authority without first completing a campaign.
void write_manifest_for_test(const std::string& dir, std::uint64_t base,
                             std::size_t total, std::size_t count,
                             std::uint64_t digest = 0,
                             const std::string& tag = "") {
  write_file(dir + "/fleet.manifest",
             "scperf-fleet v1\nbase_seed " + std::to_string(base) +
                 "\ntotal_runs " + std::to_string(total) + "\nshard_count " +
                 std::to_string(count) + "\ndigest " +
                 std::to_string(digest) + "\ntag " + tag + "\n");
}

TEST(ShardElastic, FirstWorkerPinsTheManifestAndItReadsBack) {
  ScratchDir dir("pin");
  ShardOptions so;
  so.dir = dir.str();
  so.shard_index = 0;
  so.shard_count = 3;
  so.worker_id = "pinner";
  CampaignOptions co;
  co.scenario_digest = 777;
  co.journal_tag = "elastic";
  ASSERT_TRUE(run_sharded_campaign(synth_fn(), 40, 13, so, co)
                  .campaign_complete);
  const FleetManifest m = read_fleet_manifest(dir.str());
  EXPECT_EQ(m.base_seed, 40u);
  EXPECT_EQ(m.total_runs, 13u);
  EXPECT_EQ(m.shard_count, 3u);
  EXPECT_EQ(m.scenario_digest, 777u);
  EXPECT_EQ(m.tag, "elastic");
}

TEST(ShardElastic, UnpinnedDirectoryHasNoManifestToRead) {
  ScratchDir dir("nopin");
  try {
    read_fleet_manifest(dir.str());
    FAIL() << "expected SimError(kMergeIncomplete)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kMergeIncomplete);
  }
}

TEST(ShardElastic, ElasticWorkerWithoutAManifestRefuses) {
  ScratchDir dir("elastic_nomanifest");
  ShardOptions so;
  so.dir = dir.str();
  so.shard_count = 0;  // elastic: the manifest is the layout authority
  so.worker_id = "early";
  try {
    run_sharded_campaign(synth_fn(), 40, 13, so);
    FAIL() << "expected SimError(kBadConfig)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kBadConfig);
  }
}

TEST(ShardElastic, ElasticWorkerRunsTheWholeCampaignFromTheManifestAlone) {
  const std::uint64_t base = 40;
  const std::size_t total = 13;
  FaultCampaign reference(synth_fn());
  reference.run(base, total);

  ScratchDir dir("elastic_runs");
  write_manifest_for_test(dir.str(), base, total, 3);
  ShardOptions so;
  so.dir = dir.str();
  so.shard_count = 0;  // layout (including base seed + runs) from the pin
  so.worker_id = "elastic";
  const ShardProgress p = run_sharded_campaign(synth_fn(), base, total, so);
  EXPECT_TRUE(p.campaign_complete);
  EXPECT_EQ(p.runs_executed, total);
  EXPECT_EQ(p.shards_run, 3u);
  const MergedCampaign merged = merge_shard_dir(dir.str());
  EXPECT_EQ(merged.shard_count, 3u);
  EXPECT_EQ(csv_of(FaultCampaign(merged.results)), csv_of(reference));
}

TEST(ShardElastic, ExplicitWorkerDisagreeingWithThePinnedCountRefuses) {
  ScratchDir dir("count_mismatch");
  write_manifest_for_test(dir.str(), 40, 13, 3);
  ShardOptions so;
  so.dir = dir.str();
  so.shard_index = 0;
  so.shard_count = 4;  // the pin says 3
  so.worker_id = "late";
  try {
    run_sharded_campaign(synth_fn(), 40, 13, so);
    FAIL() << "expected SimError(kBadConfig)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kBadConfig);
    // The refusal teaches the operator the elastic escape hatch.
    EXPECT_NE(std::string(e.what()).find("relaunch the worker elastic"),
              std::string::npos)
        << e.what();
  }
}

TEST(ShardElastic, ElasticWorkerFinishesOnlyTheOwedSeedsAcrossThreads) {
  const std::uint64_t base = 40;
  const std::size_t total = 22;  // 4 shards: 6, 6, 5, 5
  FaultCampaign reference(synth_fn());
  reference.run(base, total);
  const std::string want_csv = csv_of(reference);

  for (const std::size_t threads :
       {std::size_t{0}, std::size_t{1}, std::size_t{8}}) {
    ScratchDir dir("elastic_owed_t" + std::to_string(threads));
    ShardOptions so;
    so.dir = dir.str();
    so.shard_index = 0;
    so.shard_count = 4;
    so.worker_id = "builder";
    ASSERT_TRUE(run_sharded_campaign(synth_fn(), base, total, so)
                    .campaign_complete);
    // Lose one shard's work entirely: 17 records live, 5 seeds still owed.
    std::filesystem::remove(shard_journal_path(dir.str(), 3, 4));

    // A manifest-only (elastic) worker joining the fleet finishes exactly
    // the owed seeds under the pinned layout.
    ShardOptions eso;
    eso.dir = dir.str();
    eso.shard_count = 0;
    eso.worker_id = "finisher";
    CampaignOptions co;
    co.threads = threads;
    const ShardProgress p =
        run_sharded_campaign(synth_fn(), base, total, eso, co);
    EXPECT_TRUE(p.campaign_complete);
    EXPECT_EQ(p.runs_executed, 5u);
    EXPECT_EQ(p.shards_run, 1u);

    const MergedCampaign merged = merge_shard_dir(dir.str());
    EXPECT_EQ(merged.shard_count, 4u);
    EXPECT_EQ(merged.runs, total);
    EXPECT_EQ(csv_of(FaultCampaign(merged.results)), want_csv)
        << threads << " threads";
  }
}

// ---- read-only status -----------------------------------------------------

TEST(ShardStatus, ClassifiesEveryShardStateWithoutWriting) {
  ScratchDir dir("status");
  const std::size_t total = 20;  // 5 shards of 4
  ShardOptions so;
  so.dir = dir.str();
  so.shard_index = 0;
  so.shard_count = 5;
  so.worker_id = "builder";
  ASSERT_TRUE(
      run_sharded_campaign(synth_fn(), 0, total, so).campaign_complete);

  // Sculpt one shard into each state. Shard 0 stays done.
  const auto journal = [&](std::size_t i) {
    return shard_journal_path(dir.str(), i, 5);
  };
  const auto keep_records = [&](std::size_t i, std::size_t n) {
    const ShardRange r = shard_range(i, 5, total);
    JournalHeader h;
    h.base_seed = r.begin;
    h.runs = r.size();
    h.shard_index = i;
    h.shard_count = 5;
    h.shard_begin = r.begin;
    h.total_runs = total;
    JournalWriter w(journal(i), h, 1);
    for (std::size_t k = 0; k < n; ++k) w.append(k, synth_run(r.begin + k));
  };
  keep_records(1, 3);  // claimed by a live worker, 3 of 4 recorded
  write_file(shard_lease_path(dir.str(), 1, 5),
             format_lease_for_test("live-worker", 0));
  keep_records(2, 1);  // stale: its worker died after one record
  const std::string stale = shard_lease_path(dir.str(), 2, 5);
  write_file(stale, format_lease_for_test("dead-worker", 2));
  make_stale(stale);
  write_file(shard_quarantine_path(dir.str(), 3, 5),  // quarantined
             format_lease_for_test("doomed", 3) + "error poison seed\n" +
                 "quarantined-by w1.pid9\n");
  std::filesystem::remove(journal(4));  // unclaimed

  const auto snapshot = [&] {
    std::map<std::string, std::filesystem::file_time_type> files;
    for (const auto& e : std::filesystem::directory_iterator(dir.path)) {
      files[e.path().filename().string()] = e.last_write_time();
    }
    return files;
  };
  const auto before = snapshot();

  const FleetStatus st = fleet_status(dir.str(), 10000);
  EXPECT_EQ(st.units, 5u);
  EXPECT_EQ(st.done, 1u);
  EXPECT_EQ(st.claimed, 1u);
  EXPECT_EQ(st.stale, 1u);
  EXPECT_EQ(st.quarantined, 1u);
  EXPECT_EQ(st.unclaimed, 1u);
  EXPECT_FALSE(st.fleet_done());
  EXPECT_EQ(st.runs, total);
  EXPECT_EQ(st.records, 4u + 3u + 1u + 4u + 0u);

  using State = ShardStatusEntry::State;
  ASSERT_EQ(st.entries.size(), 5u);
  const std::vector<State> states = {State::kDone, State::kClaimed,
                                     State::kStale, State::kQuarantined,
                                     State::kUnclaimed};
  const std::vector<std::string> owners = {"", "live-worker", "dead-worker",
                                           "doomed", ""};
  const std::vector<std::uint64_t> adoptions = {0, 0, 2, 3, 0};
  const std::vector<std::size_t> records = {4, 3, 1, 4, 0};
  for (std::size_t i = 0; i < 5; ++i) {
    const ShardStatusEntry& e = st.entries[i];
    EXPECT_EQ(e.index, i);
    EXPECT_EQ(e.name, "shard " + std::to_string(i) + "/5");
    EXPECT_EQ(e.state, states[i]) << i;
    EXPECT_EQ(e.owner, owners[i]) << i;
    EXPECT_EQ(e.adoptions, adoptions[i]) << i;
    EXPECT_EQ(e.records, records[i]) << i;
    EXPECT_EQ(e.runs, 4u) << i;
  }
  EXPECT_GE(st.entries[1].heartbeat_age_ms, 0);
  EXPECT_LT(st.entries[1].heartbeat_age_ms, 10000);
  EXPECT_GT(st.entries[2].heartbeat_age_ms, 10000);
  EXPECT_EQ(st.entries[3].error, "poison seed");

  // Status created, removed and touched nothing.
  EXPECT_EQ(snapshot(), before);

  std::ostringstream os;
  print_fleet_status(os, st);
  const std::string text = os.str();
  EXPECT_NE(text.find("fleet: 5 units"), std::string::npos) << text;
  EXPECT_NE(text.find("runs 12/20"), std::string::npos) << text;
  EXPECT_NE(text.find("owner 'dead-worker'"), std::string::npos) << text;
  EXPECT_NE(text.find("error: poison seed"), std::string::npos) << text;
}

TEST(ShardStatus, DirectoryWithoutAManifestIsARefusal) {
  // The manifest is the only layout authority: shard files alone do not
  // make a fleet status can summarise.
  ScratchDir dir("status_nomanifest");
  write_file(shard_lease_path(dir.str(), 0, 2),
             format_lease_for_test("someone", 0));
  try {
    fleet_status(dir.str(), 10000);
    FAIL() << "expected SimError(kMergeIncomplete)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kMergeIncomplete);
    EXPECT_NE(std::string(e.what()).find("fleet.manifest"), std::string::npos)
        << e.what();
  }
}

// ---- aggregated incompleteness messages -----------------------------------

TEST(ShardMerge, EveryMissingShardIsListedInOneMessage) {
  ScratchDir dir("missing_many");
  ShardOptions so;
  so.dir = dir.str();
  so.shard_index = 0;
  so.shard_count = 4;
  so.worker_id = "builder";
  ASSERT_TRUE(run_sharded_campaign(synth_fn(), 0, 22, so).campaign_complete);
  std::filesystem::remove(shard_journal_path(dir.str(), 1, 4));
  std::filesystem::remove(shard_journal_path(dir.str(), 3, 4));
  try {
    merge_shard_dir(dir.str());
    FAIL() << "expected SimError(kMergeIncomplete)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kMergeIncomplete);
    const std::string what = e.what();
    // One round trip tells the operator everything that is owed.
    EXPECT_NE(what.find("2 of 4"), std::string::npos) << what;
    EXPECT_NE(what.find("missing: 1, 3"), std::string::npos) << what;
  }
}

TEST(ShardMerge, EveryQuarantinedUnitIsListedInOneMessage) {
  ScratchDir dir("quarantine_many");
  build_fleet(dir.str(), 0, 10);
  write_file(shard_quarantine_path(dir.str(), 0, 2),
             format_lease_for_test("w0", 3));
  write_file(shard_quarantine_path(dir.str(), 1, 2),
             format_lease_for_test("w1", 3));
  try {
    merge_shard_dir(dir.str());
    FAIL() << "expected SimError(kMergeIncomplete)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kMergeIncomplete);
    const std::string what = e.what();
    EXPECT_NE(what.find("shard 0/2"), std::string::npos) << what;
    EXPECT_NE(what.find("shard 1/2"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace sctrace
