// Sharded fleet-scale campaigns: lease-based work claiming, crash-tolerant
// adoption and the byte-identical merge.
//
// The load-bearing claims pinned here:
//   - shard_range tiles the campaign exactly: contiguous, disjoint, total;
//   - the lease protocol picks exactly one winner: a double claim raises a
//     *transient* kLeaseConflict, a fresh lease is never adoptable, a stale
//     one (heartbeat mtime past the TTL) is adopted by exactly one of eight
//     racing claimers, and content with no owner line (an empty file
//     included) is nobody's lease;
//   - an adoption marker left by a dead adopter is taken over by the next
//     name in its series, and a claim whose write fails leaves no lease;
//   - a worker whose lease was adopted away observes lost() and leaves the
//     file to the adopter;
//   - adoption of a partially-journaled shard resumes the dead worker's
//     journal and executes only the missing seeds;
//   - two workers split a campaign with zero overlap, and the merged output
//     is byte-identical to the uninterrupted single-process run for
//     threads in {seq, 1, 8};
//   - the pinned manifest names every unit: its bytes are pinned, the merge
//     ignores a journal outside the pinned layout, and it refuses missing
//     shards, missing records, other journal format versions and a journal
//     that does not carry its shard's identity (another digest, a range off
//     its canonical slot), naming each differing field with both values;
//   - the lease carries an adoption counter across crash generations, a
//     shard adopted past max_adoptions is quarantined by exactly one worker
//     (atomic rename tombstone) and excluded from every later claim pass;
//   - a lease whose mtime sits in the FUTURE beyond the TTL (clock skew)
//     is stale too — a skewed worker cannot pin a shard forever;
//   - --allow-partial merges compact recorded runs in global seed order, so
//     the degraded CSV is byte-stable across threads in {seq, 1, 8};
//   - fleet_status classifies every shard state from the manifest-pinned
//     directory without creating, removing or touching a file, and never
//     calls a journal of another identity done.

#include "trace/shard.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
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
  const std::string path = unit_file(dir.str(), 0, 2, ".lease");
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
  const std::string path = unit_file(dir.str(), 0, 2, ".lease");
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
  const std::string path = unit_file(dir.str(), 0, 1, ".lease");
  // A lease file with a current mtime and no live process behind it is
  // indistinguishable from a just-started worker: it must NOT be adopted.
  write_file(path, format_lease_for_test("maybe-alive", 0));
  EXPECT_THROW(claim_shard_lease(path, "bob", 10000), SimError);
  EXPECT_EQ(read_file(path), format_lease_for_test("maybe-alive", 0));
}

TEST(ShardLease, StaleLeaseIsAdopted) {
  ScratchDir dir("stale");
  const std::string path = unit_file(dir.str(), 0, 1, ".lease");
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
  const std::string path = unit_file(dir.str(), 0, 1, ".lease");
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
  // Content with no owner line names no owner: a bare worker id, and an
  // empty file — what a claim leaves when it dies between its O_EXCL create
  // and its write, or when the host dies before the lease's unsynced bytes
  // reach the disk.
  for (const std::string content : {"dead-worker", ""}) {
    SCOPED_TRACE("content '" + content + "'");
    ScratchDir dir("ownerless");
    const std::string path = unit_file(dir.str(), 0, 1, ".lease");
    write_file(path, content);
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
    EXPECT_EQ(read_file(path), content);
    // ...and stale, it is adopted once, as generation one.
    make_stale(path);
    auto lease = claim_shard_lease(path, "survivor", 10000);
    EXPECT_TRUE(lease->adopted());
    EXPECT_EQ(lease->adoptions(), 1u);
    ASSERT_TRUE(read_lease_info(path, &info));
    EXPECT_EQ(info.owner, "survivor");
    EXPECT_EQ(info.adoptions, 1u);
    EXPECT_THROW(claim_shard_lease(path, "late", 10000), SimError);
  }
}

TEST(ShardLease, StaleAdoptionMarkerIsTakenOverByTheNextInItsSeries) {
  ScratchDir dir("stale_marker");
  const std::string path = unit_file(dir.str(), 0, 1, ".lease");
  const std::string marker = path + ".adopt1";
  const std::string next = marker + ".1";
  const auto entries = [&] {
    std::set<std::string> names;
    for (const auto& e : std::filesystem::directory_iterator(dir.path)) {
      names.insert(e.path().filename().string());
    }
    return names;
  };
  const auto expect_conflict = [&] {
    try {
      claim_shard_lease(path, "bob", 10000);
      ADD_FAILURE() << "expected SimError(kLeaseConflict)";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimError::Kind::kLeaseConflict) << e.what();
    }
  };
  write_file(path, format_lease_for_test("dead-worker", 0));
  make_stale(path);
  const auto stale_mtime = std::filesystem::last_write_time(path);
  // A live adopter holds generation one's marker: nobody else may adopt,
  // and the lease is left exactly as it was.
  write_file(marker, "");
  expect_conflict();
  EXPECT_EQ(read_file(path), format_lease_for_test("dead-worker", 0));
  EXPECT_EQ(std::filesystem::last_write_time(path), stale_mtime);
  EXPECT_EQ(entries(), (std::set<std::string>{"unit_0_of_1.lease",
                                              "unit_0_of_1.lease.adopt1"}));
  // That adopter died holding the marker: once the marker is older than
  // the TTL, the next claimer moves on to the next name in the series, so a
  // live holder of that one still blocks...
  make_stale(marker);
  write_file(next, "");
  expect_conflict();
  EXPECT_EQ(read_file(path), format_lease_for_test("dead-worker", 0));
  // ...and with no holder, the claim adopts through ".adopt1.1" as
  // generation one and removes the marker it took and the stale one it
  // passed over.
  std::filesystem::remove(next);
  auto lease = claim_shard_lease(path, "survivor", 10000);
  EXPECT_TRUE(lease->adopted());
  EXPECT_EQ(lease->adoptions(), 1u);
  LeaseInfo info;
  ASSERT_TRUE(read_lease_info(path, &info));
  EXPECT_EQ(info.owner, "survivor");
  EXPECT_EQ(info.adoptions, 1u);
  // Only the lease is left; the next adoption takes generation two's
  // markers.
  EXPECT_EQ(entries(), (std::set<std::string>{"unit_0_of_1.lease"}));
}

/// Caps the size of any file this process writes at 0 bytes for its
/// lifetime, with SIGXFSZ ignored, so every write to a file fails (EFBIG).
struct NoFileWrites {
  NoFileWrites() {
    ::getrlimit(RLIMIT_FSIZE, &saved);
    old_handler = std::signal(SIGXFSZ, SIG_IGN);
    rlimit zero = saved;
    zero.rlim_cur = 0;
    ::setrlimit(RLIMIT_FSIZE, &zero);
  }
  ~NoFileWrites() {
    ::setrlimit(RLIMIT_FSIZE, &saved);
    std::signal(SIGXFSZ, old_handler);
  }
  NoFileWrites(const NoFileWrites&) = delete;
  NoFileWrites& operator=(const NoFileWrites&) = delete;
  rlimit saved{};
  void (*old_handler)(int) = nullptr;
};

TEST(ShardLease, FailedClaimLeavesNoLeaseBehind) {
  ScratchDir dir("failed_claim");
  const std::string path = unit_file(dir.str(), 0, 1, ".lease");
  std::optional<SimError::Kind> kind;
  {
    const NoFileWrites guard;
    try {
      claim_shard_lease(path, "alice", 10000);
    } catch (const SimError& e) {
      kind = e.kind();
    }
  }
  ASSERT_TRUE(kind.has_value()) << "the claim succeeded without writing";
  EXPECT_EQ(*kind, SimError::Kind::kIoError);
  // A lease left behind would block the shard for a TTL and then cost it an
  // adoption generation.
  EXPECT_FALSE(std::filesystem::exists(path));
  auto lease = claim_shard_lease(path, "alice", 10000);
  EXPECT_FALSE(lease->adopted());
  EXPECT_EQ(lease->adoptions(), 0u);
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
  const std::string path = unit_file(dir.str(), 0, 1, ".lease");
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
  const std::string path = unit_file(dir.str(), 0, 1, ".lease");
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
  const std::string path = unit_file(dir.str(), 0, 1, ".lease");
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
  const std::string path = unit_file(dir.str(), 0, 1, ".lease");
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
  const std::string qpath = unit_file(dir.str(), 0, 1, ".quarantined");
  LeaseInfo qinfo;
  ASSERT_TRUE(read_lease_info(qpath, &qinfo));
  EXPECT_EQ(qinfo.owner, "second");
  EXPECT_EQ(qinfo.adoptions, 1u);
  EXPECT_EQ(qinfo.error, "deadline config rejects scenario 'storm'");
}

TEST(ShardLease, QuarantinedShardRefusesEveryLaterClaim) {
  ScratchDir dir("quarantined_claim");
  const std::string path = unit_file(dir.str(), 0, 1, ".lease");
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
      std::filesystem::exists(unit_file(dir.str(), 0, 1, ".quarantined")));
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
  const std::string path = unit_file(dir.str(), 0, 1, ".lease");
  const std::string qpath = unit_file(dir.str(), 0, 1, ".quarantined");
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
  const std::string path = unit_file(dir.str(), 0, 1, ".lease");
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
  const std::string path = unit_file(dir.str(), 0, 1, ".lease");
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
      std::filesystem::exists(unit_file(dir.str(), 0, 1, ".quarantined")));
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
  {
    JournalWriter w(unit_file(dir.str(), 1, 2, ".journal"), h);
    w.append(0, synth_run(base + r1.begin));
    w.append(1, synth_run(base + r1.begin + 1));
  }
  // ...and its lease went stale.
  const std::string lease = unit_file(dir.str(), 1, 2, ".lease");
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
  write_file(unit_file(dir.str(), 1, 2, ".journal"), "garbage");
  const std::string lease = unit_file(dir.str(), 1, 2, ".lease");
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
  std::filesystem::remove(unit_file(dir.str(), 1, 2, ".journal"));
  try {
    merge_shard_dir(dir.str());
    FAIL() << "expected SimError(kMergeIncomplete)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kMergeIncomplete);
    EXPECT_NE(std::string(e.what()).find("shard 1/2 missing (0/5 runs)"),
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
  {
    JournalWriter w(unit_file(dir.str(), 1, 2, ".journal"), h);
    for (std::size_t i = 0; i + 1 < r1.size(); ++i) {
      w.append(i, synth_run(r1.begin + i));
    }
  }
  try {
    merge_shard_dir(dir.str());
    FAIL() << "expected SimError(kMergeIncomplete)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kMergeIncomplete);
    EXPECT_NE(std::string(e.what()).find(
                  "1 of 2 shards are incomplete: shard 1/2 partial (4/5 runs)"),
              std::string::npos) << e.what();
  }
}

/// Rewrites shard 1 of a 10-run, 2-shard fleet as a journal with a
/// complete record set over [begin, begin + runs) (global indices).
void write_shard1_journal(const std::string& path, std::size_t begin,
                          std::size_t runs, std::uint64_t digest = 0) {
  JournalHeader h;
  h.base_seed = begin;
  h.runs = runs;
  h.scenario_digest = digest;
  JournalWriter w(path, h);
  for (std::size_t i = 0; i < runs; ++i) w.append(i, synth_run(begin + i));
}

TEST(ShardMerge, MixedScenarioDigestsAreRefused) {
  ScratchDir dir("mixed_digest");
  build_fleet(dir.str(), 0, 10);
  // Shard 1 re-written under a different fault model digest.
  write_shard1_journal(unit_file(dir.str(), 1, 2, ".journal"), 5, 5,
                       0xdeadbeef);
  try {
    merge_shard_dir(dir.str());
    FAIL() << "expected SimError(kBadConfig)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kBadConfig);
    const std::string what = e.what();
    EXPECT_NE(what.find(unit_file(dir.str(), 1, 2, ".journal")),
              std::string::npos) << what;
    EXPECT_NE(what.find("scenario_digest 3735928559 (want 0)"),
              std::string::npos) << what;
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
  // Every retired format: 3, 4 (the last with a lease epoch) and 5 (the
  // last with a shard identity).
  for (const std::uint8_t version : {3, 4, 5}) {
    stamp_journal_version(unit_file(dir.str(), 1, 2, ".journal"), version);
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
        EXPECT_NE(what.find("only version 6"), std::string::npos) << what;
      }
    }
  }
}

TEST(ShardMerge, JournalOutsideItsCanonicalSlotIsRefused) {
  ScratchDir dir("off_slot");
  build_fleet(dir.str(), 0, 10);
  // Shard 1's canonical slot is [5, +5); a journal for a tail of it, or for
  // a range running past it, is not a shard journal of this layout.
  const std::string j1 = unit_file(dir.str(), 1, 2, ".journal");
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
        EXPECT_NE(what.find(j1), std::string::npos) << what;
        // Every field off the slot is named with both values.
        const std::string b = std::to_string(begin);
        const std::string r = std::to_string(runs);
        EXPECT_EQ(what.find("base_seed " + b + " (want 5)") !=
                      std::string::npos,
                  begin != 5)
            << what;
        EXPECT_EQ(what.find("runs " + r + " (want 5)") != std::string::npos,
                  runs != 5)
            << what;
      }
    }
  }
}

TEST(ShardMerge, FilesOutsideThePinnedLayoutAreIgnored) {
  ScratchDir dir("outside_layout");
  build_fleet(dir.str(), 0, 10);
  const std::string clean =
      csv_of(FaultCampaign(merge_shard_dir(dir.str()).results));
  // A valid shard 0 of a 3-shard layout of the same campaign lands beside
  // the pinned 2-shard fleet. The manifest names every unit, so the merge
  // never opens it.
  const ShardRange r0 = shard_range(0, 3, 10);
  JournalHeader h;
  h.base_seed = r0.begin;
  h.runs = r0.size();
  {
    JournalWriter w(unit_file(dir.str(), 0, 3, ".journal"), h);
    for (std::size_t i = 0; i < r0.size(); ++i) w.append(i, synth_run(i));
  }
  const MergedCampaign merged = merge_shard_dir(dir.str());
  EXPECT_TRUE(merged.complete);
  EXPECT_EQ(merged.shard_count, 2u);
  EXPECT_EQ(csv_of(FaultCampaign(merged.results)), clean);
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
                     "append 'unit_1_of_2.journal': pwrite: "
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

  const std::string qpath = unit_file(dir.str(), 1, 2, ".quarantined");
  ASSERT_TRUE(std::filesystem::exists(qpath));
  EXPECT_FALSE(
      std::filesystem::exists(unit_file(dir.str(), 1, 2, ".lease")));
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
  EXPECT_EQ(merged.results.size(), total - r1.size());
  ASSERT_EQ(merged.units.size(), 2u);
  EXPECT_EQ(merged.units[0].state, UnitState::kComplete);
  const MergedUnit& q = merged.units[1];
  EXPECT_EQ(q.index, 1u);
  EXPECT_EQ(q.name, "shard 1/2");
  EXPECT_EQ(q.state, UnitState::kQuarantined);
  EXPECT_EQ(q.records, 0u);
  EXPECT_EQ(q.runs, r1.size());
  EXPECT_EQ(q.tomb.adoptions, 2u);
  EXPECT_NE(q.tomb.error.find("No space left"), std::string::npos);
  EXPECT_NE(q.error.find("quarantined after 2 adoptions"), std::string::npos)
      << q.error;
}

TEST(ShardWorker, V3JournalIsNeverExtendedAndConvergesToQuarantine) {
  for (const std::uint8_t version : {3, 4, 5}) {
    ScratchDir dir("v" + std::to_string(version) + "_worker");
    const std::size_t total = 10;
    build_fleet(dir.str(), 0, total);
    const std::string old = unit_file(dir.str(), 1, 2, ".journal");
    stamp_journal_version(old, version);
    const std::string old_bytes = read_file(old);

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
    EXPECT_EQ(read_file(old), old_bytes);

    LeaseInfo qinfo;
    ASSERT_TRUE(
        read_lease_info(unit_file(dir.str(), 1, 2, ".quarantined"), &qinfo));
    EXPECT_NE(qinfo.error.find("format version " + std::to_string(version)),
              std::string::npos)
        << qinfo.error;
    EXPECT_NE(qinfo.error.find("only version 6"), std::string::npos)
        << qinfo.error;
  }
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
  {
    JournalWriter w(unit_file(dir.str(), 1, 2, ".journal"), h);
    for (std::size_t i = 0; i < r1.size(); ++i) {
      if (i == 1) continue;
      w.append(i, synth_run(r1.begin + i));
    }
  }
  MergeOptions mo;
  mo.allow_partial = true;
  const MergedCampaign merged = merge_shard_dir(dir.str(), mo);
  EXPECT_FALSE(merged.complete);
  ASSERT_EQ(merged.units.size(), 2u);
  EXPECT_EQ(merged.units[0].state, UnitState::kComplete);
  EXPECT_EQ(merged.units[1].state, UnitState::kPartial);
  EXPECT_EQ(merged.units[1].records, r1.size() - 1);
  EXPECT_EQ(merged.units[1].runs, r1.size());
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
  std::filesystem::remove(unit_file(dir.str(), 1, 2, ".journal"));
  MergeOptions mo;
  mo.allow_partial = true;
  const MergedCampaign merged = merge_shard_dir(dir.str(), mo);
  EXPECT_FALSE(merged.complete);
  ASSERT_EQ(merged.units.size(), 2u);
  EXPECT_EQ(merged.units[0].state, UnitState::kComplete);
  EXPECT_EQ(merged.units[1].index, 1u);
  EXPECT_EQ(merged.units[1].state, UnitState::kMissing);
  EXPECT_EQ(merged.units[1].records, 0u);
  EXPECT_EQ(merged.units[1].runs, r1.size());
  EXPECT_EQ(merged.results.size(), total - r1.size());
}

TEST(ShardMerge, QuarantineTombstoneDegradesEvenWithAFullJournal) {
  ScratchDir dir("tomb_full");
  const std::size_t total = 10;
  build_fleet(dir.str(), 0, total);
  // The shard was quarantined AFTER journaling everything (e.g. the fatal
  // error hit on the final fsync). Every record is salvageable, but the
  // campaign must still present as degraded: a tombstone is a statement
  // that this fleet needed intervention, not a detail to launder away.
  write_file(unit_file(dir.str(), 1, 2, ".quarantined"),
             format_lease_for_test("doomed", 3) +
                 "error device reported EIO\nquarantined-by ci-worker\n");
  MergeOptions mo;
  mo.allow_partial = true;
  const MergedCampaign merged = merge_shard_dir(dir.str(), mo);
  EXPECT_FALSE(merged.complete);
  EXPECT_EQ(merged.results.size(), total);
  ASSERT_EQ(merged.units.size(), 2u);
  EXPECT_EQ(merged.units[0].state, UnitState::kComplete);
  const MergedUnit& q = merged.units[1];
  EXPECT_EQ(q.index, 1u);
  EXPECT_EQ(q.state, UnitState::kQuarantined);
  EXPECT_EQ(q.records, q.runs);
  EXPECT_EQ(q.tomb.owner, "doomed");
  EXPECT_EQ(q.tomb.adoptions, 3u);
  EXPECT_EQ(q.tomb.error, "device reported EIO");
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
    std::filesystem::remove(unit_file(dir.str(), 1, 3, ".journal"));
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

/// Hand-written campaign fleet manifest, matching the pinned writer's
/// format, for tests that need a layout authority without first completing
/// a campaign.
void write_manifest_for_test(const std::string& dir, std::uint64_t base,
                             std::size_t total, std::size_t count,
                             std::uint64_t digest = 0,
                             const std::string& tag = "") {
  write_file(dir + "/fleet.manifest",
             "scperf-fleet v2\nbase_seed " + std::to_string(base) +
                 "\nruns " + std::to_string(total) + "\nshards " +
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
  // The manifest's bytes are part of the on-disk contract.
  EXPECT_EQ(read_file(dir.str() + "/fleet.manifest"),
            "scperf-fleet v2\nbase_seed 40\nruns 13\nshards 3\n"
            "digest 777\ntag elastic\n");
  const FleetManifest m = read_fleet_manifest(dir.str());
  EXPECT_EQ(m.base_seed, 40u);
  EXPECT_EQ(m.runs, 13u);
  EXPECT_EQ(m.shards, 3u);
  EXPECT_EQ(m.scenario_digest, 777u);
  EXPECT_EQ(m.tag, "elastic");
  // A campaign is one cell without a grid: its units are its shards.
  EXPECT_FALSE(m.grid());
  EXPECT_EQ(m.units(), 3u);
  EXPECT_EQ(m.cell_tag(0), "elastic");
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
    // The refusal names the one differing field with both values and
    // teaches the operator the elastic escape hatch.
    const std::string what = e.what();
    EXPECT_NE(what.find("shards 4 (pinned 3)"), std::string::npos) << what;
    EXPECT_EQ(what.find("base_seed"), std::string::npos) << what;
    EXPECT_NE(what.find("relaunch the worker elastic"), std::string::npos)
        << what;
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
    std::filesystem::remove(unit_file(dir.str(), 3, 4, ".journal"));

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
    return unit_file(dir.str(), i, 5, ".journal");
  };
  const auto keep_records = [&](std::size_t i, std::size_t n) {
    const ShardRange r = shard_range(i, 5, total);
    JournalHeader h;
    h.base_seed = r.begin;
    h.runs = r.size();
    JournalWriter w(journal(i), h);
    for (std::size_t k = 0; k < n; ++k) w.append(k, synth_run(r.begin + k));
  };
  keep_records(1, 3);  // claimed by a live worker, 3 of 4 recorded
  write_file(unit_file(dir.str(), 1, 5, ".lease"),
             format_lease_for_test("live-worker", 0));
  keep_records(2, 1);  // stale: its worker died after one record
  const std::string stale = unit_file(dir.str(), 2, 5, ".lease");
  write_file(stale, format_lease_for_test("dead-worker", 2));
  make_stale(stale);
  write_file(unit_file(dir.str(), 3, 5, ".quarantined"),  // quarantined
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

TEST(ShardStatus, ForeignJournalIsNeverDone) {
  ScratchDir dir("status_foreign");
  build_fleet(dir.str(), 0, 10);
  // A complete journal of another fault model sits at shard 1's path. It
  // carries every record shard 1 owes, but not shard 1's identity.
  const std::string j1 = unit_file(dir.str(), 1, 2, ".journal");
  write_shard1_journal(j1, 5, 5, /*digest=*/0xfeed);
  const FleetStatus st = fleet_status(dir.str(), 10000);
  EXPECT_EQ(st.done, 1u);
  EXPECT_FALSE(st.fleet_done());
  EXPECT_EQ(st.entries.at(1).state, ShardStatusEntry::State::kUnclaimed);
  EXPECT_EQ(st.entries.at(1).records, 0u);
  try {
    merge_shard_dir(dir.str());
    FAIL() << "expected SimError(kBadConfig)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kBadConfig);
    const std::string what = e.what();
    EXPECT_NE(what.find(j1), std::string::npos) << what;
    EXPECT_NE(what.find("scenario_digest 65261 (want 0)"), std::string::npos)
        << what;
  }
}

TEST(ShardStatus, DirectoryWithoutAManifestIsARefusal) {
  // The manifest is the only layout authority. Neither unit files alone, nor
  // a sweep.manifest (the old sweep layout), nor an empty directory make a
  // fleet that status or a merge can summarise: no fleet pinned one. A
  // manifest in another format — a v1 one, or a grid with more than one
  // shard per cell, which no worker writes — is refused as malformed,
  // naming what it found.
  struct Input {
    const char* name;
    const char* file;
    const char* content;
    SimError::Kind kind;
    const char* names;
  };
  const Input inputs[] = {
      {"empty", nullptr, nullptr, SimError::Kind::kMergeIncomplete,
       "fleet.manifest"},
      {"lease_only", "unit_0_of_2.lease", "owner someone\nadoptions 0\n",
       SimError::Kind::kMergeIncomplete, "fleet.manifest"},
      {"sweep_v1", "sweep.manifest",
       "scperf-sweep v1\nbase_seed 90\nruns 3\ndigest 0\ntag \n"
       "mapping shared\nscenario iid\n",
       SimError::Kind::kMergeIncomplete, "fleet.manifest"},
      {"fleet_v1", "fleet.manifest",
       "scperf-fleet v1\nbase_seed 40\ntotal_runs 13\nshard_count 3\n"
       "digest 0\ntag \n",
       SimError::Kind::kJournalCorrupt, "bad magic line 'scperf-fleet v1'"},
      {"grid_shards", "fleet.manifest",
       "scperf-fleet v2\nbase_seed 90\nruns 3\nshards 2\ndigest 0\ntag \n"
       "mapping shared\nscenario iid\n",
       SimError::Kind::kJournalCorrupt, "one shard per cell, not 2"},
  };
  for (const Input& in : inputs) {
    SCOPED_TRACE(in.name);
    ScratchDir dir(std::string("status_") + in.name);
    if (in.file != nullptr) {
      write_file(dir.str() + "/" + in.file, in.content);
    }
    const auto expect_refusal = [&](const char* reader, const auto& read) {
      try {
        read();
        ADD_FAILURE() << reader << " accepted the directory";
      } catch (const SimError& e) {
        EXPECT_EQ(e.kind(), in.kind) << reader << ": " << e.what();
        EXPECT_NE(std::string(e.what()).find(in.names), std::string::npos)
            << reader << ": " << e.what();
      }
    };
    expect_refusal("read_fleet_manifest",
                   [&] { read_fleet_manifest(dir.str()); });
    expect_refusal("fleet_status", [&] { fleet_status(dir.str(), 10000); });
    expect_refusal("merge_shard_dir", [&] { merge_shard_dir(dir.str()); });
    expect_refusal("merge_sweep_dir", [&] { merge_sweep_dir(dir.str()); });
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
  std::filesystem::remove(unit_file(dir.str(), 1, 4, ".journal"));
  std::filesystem::remove(unit_file(dir.str(), 3, 4, ".journal"));
  try {
    merge_shard_dir(dir.str());
    FAIL() << "expected SimError(kMergeIncomplete)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kMergeIncomplete);
    const std::string what = e.what();
    // One round trip tells the operator everything that is owed.
    EXPECT_NE(what.find("2 of 4 shards are incomplete: shard 1/4 missing "
                        "(0/6 runs); shard 3/4 missing (0/5 runs)"),
              std::string::npos)
        << what;
  }
}

TEST(ShardMerge, EveryQuarantinedUnitIsListedInOneMessage) {
  ScratchDir dir("quarantine_many");
  build_fleet(dir.str(), 0, 10);
  write_file(unit_file(dir.str(), 0, 2, ".quarantined"),
             format_lease_for_test("w0", 3));
  write_file(unit_file(dir.str(), 1, 2, ".quarantined"),
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
