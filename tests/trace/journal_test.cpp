// Durable resumable campaigns: the crash-consistent run journal, the
// deterministic retry policy and the per-run wall-clock budget.
//
// The load-bearing claims pinned here:
//   - journal records round-trip every CampaignRunResult field bit-exactly;
//   - a torn final record (crash mid-append) is tolerated and only costs a
//     re-run of that seed, while a bit-flipped mid-file record raises a
//     structured SimError naming the record index, and so does a record
//     whose index lies past the header's run count;
//   - a campaign interrupted at an arbitrary run index and resumed from its
//     journal produces byte-identical report()/write_csv() output versus the
//     uninterrupted run, for threads ∈ {seq, 1, 8};
//   - transient SimErrors retry with deterministic accounting, permanent
//     ones fail fast, and a hung seed becomes a failed-with-timeout record.

#include "trace/journal.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "kernel/error.hpp"
#include "kernel/simulator.hpp"
#include "trace/campaign.hpp"
#include "trace/shard.hpp"

namespace sctrace {
namespace {

using minisc::SimError;
using minisc::Time;

/// Unique scratch path per test, cleaned up by the fixture-free idiom of
/// removing at both ends (ctest runs suites in parallel processes).
std::string temp_journal(const std::string& name) {
  return std::filesystem::temp_directory_path() /
         ("scperf_" + name + "_" + std::to_string(::getpid()) + ".journal");
}

/// Deterministic synthetic run: exercises every record field, including the
/// importance-sampling weight, with values whose doubles are not exactly
/// representable in decimal — the round-trip must be bit-exact, not
/// pretty-printed.
CampaignRunResult synth_run(std::uint64_t seed) {
  CampaignRunResult r;
  r.seed = seed;
  r.makespan = Time::ns(1000 + 37 * seed);
  r.deadline_total = 16;
  r.deadline_missed = seed % 4;
  r.recovery_latencies_ns = {100.0 + 0.3 * static_cast<double>(seed),
                             200.0 / (1.0 + static_cast<double>(seed))};
  r.faults_injected = seed % 3;
  // Exact binary arithmetic only: libm calls here would make "same seed,
  // same bits" depend on whether the compiler constant-folds them.
  r.log_weight = 0.25 * static_cast<double>(seed % 5) - 0.7;
  r.energy_pj = 1234.5 + 0.1 * static_cast<double>(seed);
  r.fault_energy_pj = 12.25 + static_cast<double>(seed);
  r.value_hash = 0x9e3779b97f4a7c15ull * (seed + 1);
  return r;
}

/// A header with room for run indices [0, runs).
JournalHeader header_for(std::uint64_t runs) {
  JournalHeader h;
  h.runs = runs;
  return h;
}

FaultCampaign::RunFn synth_fn() {
  return [](std::uint64_t seed) { return synth_run(seed); };
}

std::string csv_of(const FaultCampaign& c) {
  std::ostringstream os;
  c.write_csv(os);
  return os.str();
}

std::string printed_report(const FaultCampaign& c) {
  std::ostringstream os;
  c.report().print(os);
  return os.str();
}

std::uint64_t file_size(const std::string& path) {
  return static_cast<std::uint64_t>(std::filesystem::file_size(path));
}

TEST(Journal, RoundTripsEveryFieldBitExactly) {
  const std::string path = temp_journal("roundtrip");
  JournalHeader header;
  header.base_seed = 17;
  header.runs = 3;
  header.scenario_digest = 0xfeedfacecafebeefull;
  header.tag = "unit/roundtrip";
  {
    JournalWriter w(path, header);
    for (std::size_t i = 0; i < 3; ++i) w.append(i, synth_run(17 + i));
  }
  const JournalContents got = read_journal(path);
  EXPECT_EQ(got.header.version, JournalHeader::kVersion);
  EXPECT_EQ(got.header.base_seed, 17u);
  EXPECT_EQ(got.header.runs, 3u);
  EXPECT_EQ(got.header.scenario_digest, 0xfeedfacecafebeefull);
  EXPECT_EQ(got.header.tag, "unit/roundtrip");
  EXPECT_FALSE(got.truncated_tail);
  EXPECT_EQ(got.valid_bytes, file_size(path));
  ASSERT_EQ(got.records.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const CampaignRunResult want = synth_run(17 + i);
    const CampaignRunResult& have = got.records[i].result;
    EXPECT_EQ(got.records[i].index, i);
    EXPECT_EQ(have.seed, want.seed);
    EXPECT_EQ(have.completed, want.completed);
    EXPECT_EQ(have.attempts, want.attempts);
    EXPECT_EQ(have.error, want.error);
    EXPECT_EQ(have.makespan, want.makespan);
    EXPECT_EQ(have.deadline_total, want.deadline_total);
    EXPECT_EQ(have.deadline_missed, want.deadline_missed);
    ASSERT_EQ(have.recovery_latencies_ns.size(),
              want.recovery_latencies_ns.size());
    for (std::size_t k = 0; k < want.recovery_latencies_ns.size(); ++k) {
      // Bit-exact, not approximately equal.
      EXPECT_EQ(have.recovery_latencies_ns[k], want.recovery_latencies_ns[k]);
    }
    EXPECT_EQ(have.faults_injected, want.faults_injected);
    EXPECT_EQ(have.log_weight, want.log_weight);
    EXPECT_EQ(have.energy_pj, want.energy_pj);
    EXPECT_EQ(have.fault_energy_pj, want.fault_energy_pj);
    EXPECT_EQ(have.value_hash, want.value_hash);
  }
  std::remove(path.c_str());
}

TEST(Journal, FailedRunsRoundTripWithErrorAndAttempts) {
  const std::string path = temp_journal("failed");
  CampaignRunResult failed;
  failed.seed = 5;
  failed.completed = false;
  failed.error = "minisc::SimError(wall_clock_budget): seed 5 hung";
  failed.attempts = 3;
  {
    JournalWriter w(path, header_for(6));
    w.append(5, failed);
  }
  const JournalContents got = read_journal(path);
  ASSERT_EQ(got.records.size(), 1u);
  EXPECT_FALSE(got.records[0].result.completed);
  EXPECT_EQ(got.records[0].result.error, failed.error);
  EXPECT_EQ(got.records[0].result.attempts, 3u);
  std::remove(path.c_str());
}

TEST(Journal, TruncatedFinalRecordIsTolerated) {
  const std::string path = temp_journal("truncated");
  std::uint64_t two_records = 0;
  {
    JournalWriter w(path, header_for(3));
    w.append(0, synth_run(0));
    w.append(1, synth_run(1));
    w.sync();
    two_records = file_size(path);
    w.append(2, synth_run(2));
  }
  // Crash mid-append: cut into the middle of the third record.
  std::filesystem::resize_file(path, two_records + 11);
  const JournalContents got = read_journal(path);
  EXPECT_TRUE(got.truncated_tail);
  EXPECT_EQ(got.valid_bytes, two_records);
  ASSERT_EQ(got.records.size(), 2u);  // the torn record is simply gone

  // A resuming writer truncates the torn tail and appends cleanly.
  {
    JournalWriter w(path, got.valid_bytes);
    w.append(2, synth_run(2));
  }
  const JournalContents again = read_journal(path);
  EXPECT_FALSE(again.truncated_tail);
  ASSERT_EQ(again.records.size(), 3u);
  EXPECT_EQ(again.records[2].result.seed, 2u);
  std::remove(path.c_str());
}

TEST(Journal, BitFlippedMidFileRecordRaisesStructuredError) {
  const std::string path = temp_journal("bitflip");
  std::uint64_t one_record = 0;
  {
    JournalWriter w(path, header_for(3));
    w.append(0, synth_run(0));
    w.sync();
    one_record = file_size(path);
    w.append(1, synth_run(1));
    w.append(2, synth_run(2));
  }
  // Flip one payload byte of the SECOND run record (journal record #2 after
  // the header) — fully framed, mid-file, so this is corruption, not a tail.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(one_record) + 10);
    char b = 0;
    f.get(b);
    f.seekp(static_cast<std::streamoff>(one_record) + 10);
    f.put(static_cast<char>(b ^ 0x40));
  }
  try {
    read_journal(path);
    FAIL() << "expected SimError(kJournalCorrupt)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kJournalCorrupt);
    EXPECT_NE(std::string(e.what()).find("record 2"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(Journal, RecordIndexBeyondHeaderRunsIsCorrupt) {
  // Every reader places records by index, so a checksum-valid record past
  // the header's run count is corruption for all of them: read_journal
  // refuses it, the fleet's progress probe counts the unit unfinished, a
  // strict sweep merge refuses the cell instead of silently dropping the
  // record, and a worker heals the journal by re-running the cell.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("scperf_index_bound_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const auto fn = [](const std::string&, const std::string&) {
    return synth_fn();
  };
  ShardOptions so;
  so.dir = dir.string();
  so.worker_id = "writer";
  ASSERT_TRUE(
      run_sharded_sweep({"m"}, {"s"}, fn, 40, 3, so).campaign_complete);
  const std::string path = unit_file(dir.string(), 0, 1, ".journal");
  {
    JournalWriter w(path, read_journal(path).valid_bytes);
    w.append(3, synth_run(43));  // the header holds runs 0..2
  }

  try {
    read_journal(path);
    ADD_FAILURE() << "expected SimError(kJournalCorrupt)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kJournalCorrupt);
    EXPECT_NE(std::string(e.what()).find("record 4"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
  const FleetStatus st = fleet_status(dir.string());
  EXPECT_EQ(st.entries.at(0).state, ShardStatusEntry::State::kUnclaimed);
  EXPECT_EQ(st.entries.at(0).records, 0u);
  try {
    merge_sweep_dir(dir.string());
    ADD_FAILURE() << "expected SimError(kMergeIncomplete)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kMergeIncomplete);
  }

  so.worker_id = "healer";
  const ShardProgress healed = run_sharded_sweep({"m"}, {"s"}, fn, 40, 3, so);
  EXPECT_TRUE(healed.campaign_complete);
  EXPECT_EQ(healed.runs_executed, 3u);
  EXPECT_TRUE(merge_sweep_dir(dir.string()).complete);
  std::filesystem::remove_all(dir);
}

TEST(Journal, MissingFileIsABadConfigError) {
  try {
    read_journal(temp_journal("never_written"));
    FAIL() << "expected SimError(kBadConfig)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kBadConfig);
  }
}

TEST(Journal, TornHeaderIsCorruptNotATolerableTail) {
  // A writer that dies inside its very first write leaves bytes but no
  // intact header. Unlike a torn run record (tolerated, that seed re-runs),
  // nothing identifies the campaign: structured corruption, clear message.
  const std::string path = temp_journal("torn_header");
  {
    JournalWriter w(path, JournalHeader{});
  }
  std::filesystem::resize_file(path, 7);  // mid-header crash
  try {
    read_journal(path);
    FAIL() << "expected SimError(kJournalCorrupt)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kJournalCorrupt);
    const std::string what = e.what();
    EXPECT_NE(what.find("header record is torn or truncated"),
              std::string::npos) << what;
    EXPECT_NE(what.find("delete it to start fresh"), std::string::npos);
    EXPECT_NE(what.find(path), std::string::npos);
  }
  std::remove(path.c_str());
}

// ---- format versioning ----------------------------------------------------

/// Re-implements the journal framing (FNV-1a over type+len+payload) so the
/// tests can fabricate journals from *other* format versions, which the
/// current writer by design cannot produce.
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

/// The header payload of a retired format-3, -4 or -5 journal: today's
/// identity fields, then the shard identity all three carried (shard index,
/// count, begin, total runs and an empty creator worker id), and for formats
/// 3 and 4 a trailing u64 lease epoch. Format 3's run records also carried
/// four replay-cache counters.
std::string old_header_payload(std::uint32_t version, std::uint64_t base_seed,
                               std::uint64_t runs, std::uint64_t digest,
                               const std::string& tag) {
  std::string p;
  auto u32 = [&p](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      p.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  auto u64 = [&p](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      p.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  u32(version);
  u64(base_seed);
  u64(runs);
  u64(digest);
  u32(static_cast<std::uint32_t>(tag.size()));
  p += tag;
  u64(0);     // shard_index
  u64(1);     // shard_count
  u64(0);     // shard_begin
  u64(runs);  // total_runs
  u32(0);     // empty worker_id
  if (version < 5) u64(0);  // lease epoch
  return p;
}

TEST(Journal, V3JournalIsRefusedNamingBothVersions) {
  // One on-disk format: a journal of any retired version (3 and 4, which
  // had a lease epoch in their header, or 5, the last with a shard identity)
  // does not parse.
  const std::string path = temp_journal("v3_read");
  for (const std::uint32_t version : {3u, 4u, 5u}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << frame_record(
          'H', old_header_payload(version, 40, 12, 777, "old-release"));
    }
    try {
      read_journal(path);
      FAIL() << "expected SimError(kShardVersionMismatch)";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimError::Kind::kShardVersionMismatch);
      const std::string what = e.what();
      EXPECT_NE(what.find("format version " + std::to_string(version)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("only version 6"), std::string::npos) << what;
      EXPECT_NE(what.find(path), std::string::npos) << what;
    }
  }
  std::remove(path.c_str());
}

TEST(Journal, UnknownFutureVersionIsRefusedNamingBothVersions) {
  const std::string path = temp_journal("v99");
  {
    const std::string p = old_header_payload(99, 0, 1, 0, "");
    std::ofstream out(path, std::ios::binary);
    out << frame_record('H', p);
  }
  try {
    read_journal(path);
    FAIL() << "expected SimError(kShardVersionMismatch)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kShardVersionMismatch);
    const std::string what = e.what();
    EXPECT_NE(what.find("version 99"), std::string::npos) << what;
    EXPECT_NE(what.find("only version 6"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

// ---- resume equivalence ---------------------------------------------------

/// Runs the reference (journal-free) campaign, then for each thread count an
/// interrupted + resumed pair, asserting byte-identical CSV and
/// byte-identical printed report.
void expect_resume_equivalence(std::size_t interrupt_at) {
  const std::size_t n = 12;
  const std::uint64_t base = 40;

  FaultCampaign reference(synth_fn());
  reference.run(base, n);
  const std::string want_csv = csv_of(reference);
  const std::string want_report = printed_report(reference);

  for (const std::size_t threads : {std::size_t{0}, std::size_t{1},
                                    std::size_t{8}}) {
    const std::string path =
        temp_journal("resume_t" + std::to_string(threads));
    std::remove(path.c_str());
    CampaignOptions opts;
    opts.threads = threads;
    opts.journal_path = path;
    opts.journal_tag = "resume-equivalence";

    // Interrupted run: a non-SimError exception aborts the campaign once
    // seeds >= interrupt_at are reached (in parallel mode an arbitrary
    // subset of other seeds may have completed — exactly the crash shape).
    FaultCampaign interrupted([&](std::uint64_t seed) -> CampaignRunResult {
      if (seed >= base + interrupt_at) {
        throw std::runtime_error("simulated crash");
      }
      return synth_run(seed);
    });
    EXPECT_THROW(interrupted.run(base, n, opts), std::runtime_error);

    const JournalContents before = read_journal(path);
    EXPECT_LT(before.records.size(), n);

    // Resumed run: only the missing seeds may execute.
    std::atomic<std::size_t> executed{0};
    FaultCampaign resumed([&](std::uint64_t seed) {
      executed.fetch_add(1);
      return synth_run(seed);
    });
    opts.resume = true;
    resumed.run(base, n, opts);

    EXPECT_EQ(executed.load(), n - before.records.size())
        << threads << " threads: resumed campaign re-ran a recorded seed";
    EXPECT_EQ(csv_of(resumed), want_csv) << threads << " threads";
    EXPECT_EQ(printed_report(resumed), want_report) << threads << " threads";

    // The journal now covers the full campaign: a second resume replays
    // everything and runs nothing.
    FaultCampaign replayed([](std::uint64_t) -> CampaignRunResult {
      ADD_FAILURE() << "fully recorded campaign must not re-run any seed";
      return {};
    });
    replayed.run(base, n, opts);
    EXPECT_EQ(csv_of(replayed), want_csv);
    std::remove(path.c_str());
  }
}

TEST(JournalResume, ByteIdenticalAcrossThreadCountsEarlyInterrupt) {
  expect_resume_equivalence(/*interrupt_at=*/3);
}

TEST(JournalResume, ByteIdenticalAcrossThreadCountsLateInterrupt) {
  expect_resume_equivalence(/*interrupt_at=*/9);
}

TEST(JournalResume, SimErrorRunsAreJournaledAndReplayed) {
  // Failed runs are data points: they must be durable like any other, and a
  // resume must replay them rather than re-running the seed.
  const std::size_t n = 10;
  const std::string path = temp_journal("simerror");
  std::remove(path.c_str());

  const FaultCampaign::RunFn faulty = [](std::uint64_t seed) ->
      CampaignRunResult {
    if (seed % 5 == 3) {
      throw SimError(SimError::Kind::kDeltaStorm,
                     "seed " + std::to_string(seed) + " stormed");
    }
    return synth_run(seed);
  };
  FaultCampaign reference(faulty);
  reference.run(0, n);

  CampaignOptions opts;
  opts.journal_path = path;
  FaultCampaign journaled(faulty);
  journaled.run(0, n, opts);
  EXPECT_EQ(csv_of(journaled), csv_of(reference));

  opts.resume = true;
  FaultCampaign replayed([](std::uint64_t) -> CampaignRunResult {
    ADD_FAILURE() << "all runs (failed included) are recorded";
    return {};
  });
  replayed.run(0, n, opts);
  EXPECT_EQ(csv_of(replayed), csv_of(reference));
  EXPECT_EQ(replayed.report().failed_runs, 2u);  // seeds 3 and 8
  EXPECT_NE(replayed.results()[3].error.find("seed 3 stormed"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(JournalResume, HeaderMismatchIsRefused) {
  const std::string path = temp_journal("mismatch");
  std::remove(path.c_str());
  CampaignOptions opts;
  opts.journal_path = path;
  opts.scenario_digest = 111;
  FaultCampaign first(synth_fn());
  first.run(0, 4, opts);

  opts.resume = true;
  auto expect_refused = [&](const CampaignOptions& bad, std::uint64_t base,
                            std::size_t n) {
    FaultCampaign c(synth_fn());
    try {
      c.run(base, n, bad);
      ADD_FAILURE() << "expected SimError(kBadConfig)";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimError::Kind::kBadConfig);
      EXPECT_NE(std::string(e.what()).find("different campaign"),
                std::string::npos);
    }
  };
  expect_refused(opts, /*base=*/1, 4);  // different base seed
  expect_refused(opts, 0, /*n=*/5);     // different run count
  CampaignOptions other_digest = opts;
  other_digest.scenario_digest = 222;   // different fault model
  expect_refused(other_digest, 0, 4);
  CampaignOptions other_tag = opts;
  other_tag.journal_tag = "other";      // different identity tag
  expect_refused(other_tag, 0, 4);

  // The matching header still resumes fine.
  FaultCampaign ok(synth_fn());
  ok.run(0, 4, opts);
  EXPECT_EQ(ok.results().size(), 4u);
  std::remove(path.c_str());
}

TEST(JournalResume, V3JournalResumeIsRefusedNamingBothVersions) {
  // An otherwise perfectly matching journal of a retired format (3, 4 or 5;
  // same base seed, run count, digest, tag) must refuse to resume rather
  // than be extended or silently restarted.
  const std::string path = temp_journal("v3_resume");
  for (const std::uint32_t version : {3u, 4u, 5u}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << frame_record(
          'H', old_header_payload(version, 40, 12, 777, "old-release"));
    }
    const std::uint64_t size_before = file_size(path);
    CampaignOptions opts;
    opts.journal_path = path;
    opts.journal_tag = "old-release";
    opts.scenario_digest = 777;
    opts.resume = true;
    FaultCampaign c(synth_fn());
    try {
      c.run(40, 12, opts);
      FAIL() << "expected SimError(kShardVersionMismatch)";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimError::Kind::kShardVersionMismatch);
      const std::string what = e.what();
      EXPECT_NE(what.find("format version " + std::to_string(version)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("only version 6"), std::string::npos) << what;
      EXPECT_NE(what.find(path), std::string::npos);
    }
    EXPECT_EQ(file_size(path), size_before);  // neither extended nor truncated
  }
  std::remove(path.c_str());
}

TEST(JournalResume, MissingJournalStartsFresh) {
  const std::string path = temp_journal("fresh");
  std::remove(path.c_str());
  CampaignOptions opts;
  opts.journal_path = path;
  opts.resume = true;  // nothing to resume: must behave like a fresh start
  FaultCampaign c(synth_fn());
  c.run(0, 5, opts);
  FaultCampaign reference(synth_fn());
  reference.run(0, 5);
  EXPECT_EQ(csv_of(c), csv_of(reference));
  EXPECT_EQ(read_journal(path).records.size(), 5u);
  std::remove(path.c_str());
}

// ---- retry policy and per-run budgets ------------------------------------

TEST(CampaignRetry, TransientFirstAttemptSucceedsOnRetry) {
  // The acceptance gate: a watchdog trip on attempt 1, success on attempt 2,
  // with the same measurements as a clean run and attempt count 2.
  std::array<std::atomic<int>, 6> calls{};
  const FaultCampaign::RunFn flaky = [&](std::uint64_t seed) ->
      CampaignRunResult {
    const int attempt = ++calls[seed];
    if (seed == 2 && attempt == 1) {
      throw SimError(SimError::Kind::kWallClockBudget,
                     "transient hiccup on seed 2");
    }
    return synth_run(seed);
  };
  CampaignOptions opts;
  opts.max_attempts = 3;
  FaultCampaign campaign(flaky);
  campaign.run(0, 6, opts);

  const CampaignRunResult& retried = campaign.results()[2];
  EXPECT_TRUE(retried.completed);
  EXPECT_EQ(retried.attempts, 2u);
  EXPECT_EQ(calls[2].load(), 2);
  // Identical measurements to a clean run of the same seed.
  const CampaignRunResult clean = synth_run(2);
  EXPECT_EQ(retried.makespan, clean.makespan);
  EXPECT_EQ(retried.log_weight, clean.log_weight);
  EXPECT_EQ(retried.value_hash, clean.value_hash);
  for (std::size_t i = 0; i < 6; ++i) {
    if (i == 2) continue;
    EXPECT_EQ(campaign.results()[i].attempts, 1u);
    EXPECT_EQ(calls[i].load(), 1);
  }
  const CampaignReport rep = campaign.report();
  EXPECT_EQ(rep.failed_runs, 0u);
  EXPECT_EQ(rep.retried_runs, 1u);
  EXPECT_EQ(rep.total_attempts, 7u);
  std::ostringstream os;
  rep.print(os);
  EXPECT_NE(os.str().find("retries:   1 runs took >1 attempt"),
            std::string::npos);
}

TEST(CampaignRetry, PermanentErrorsFailFast) {
  std::atomic<int> calls{0};
  const FaultCampaign::RunFn broken = [&](std::uint64_t seed) ->
      CampaignRunResult {
    if (seed == 1) {
      ++calls;
      throw SimError(SimError::Kind::kBadConfig, "misconfigured mapping");
    }
    return synth_run(seed);
  };
  CampaignOptions opts;
  opts.max_attempts = 5;
  FaultCampaign campaign(broken);
  campaign.run(0, 3, opts);
  EXPECT_FALSE(campaign.results()[1].completed);
  EXPECT_EQ(campaign.results()[1].attempts, 1u);  // never retried
  EXPECT_EQ(calls.load(), 1);
}

TEST(CampaignRetry, ExhaustedTransientRetriesDegradeToFailedRun) {
  std::atomic<int> calls{0};
  const FaultCampaign::RunFn hopeless = [&](std::uint64_t) ->
      CampaignRunResult {
    ++calls;
    throw SimError(SimError::Kind::kWallClockBudget, "always hung");
  };
  CampaignOptions opts;
  opts.max_attempts = 3;
  FaultCampaign campaign(hopeless);
  campaign.run(9, 1, opts);
  EXPECT_FALSE(campaign.results()[0].completed);
  EXPECT_EQ(campaign.results()[0].attempts, 3u);
  EXPECT_EQ(calls.load(), 3);
  EXPECT_NE(campaign.results()[0].error.find("always hung"),
            std::string::npos);
  // The attempt count reaches the CSV.
  EXPECT_NE(csv_of(campaign).find(",3\n"), std::string::npos);
}

TEST(CampaignRetry, ErrorClassificationMatchesContract) {
  using Kind = SimError::Kind;
  EXPECT_TRUE(minisc::is_transient(Kind::kWallClockBudget));
  // A lease held by a live peer is a retryable host-side condition, exactly
  // like a wall-clock hiccup: claim again later or claim another shard.
  EXPECT_TRUE(minisc::is_transient(Kind::kLeaseConflict));
  for (const Kind k : {Kind::kDeltaStorm, Kind::kDispatchStorm,
                       Kind::kSimTimeBudget, Kind::kNoSimulator,
                       Kind::kNoProcessContext, Kind::kBadConfig,
                       Kind::kJournalCorrupt, Kind::kShardVersionMismatch,
                       Kind::kMergeIncomplete, Kind::kIoError,
                       Kind::kShardQuarantined}) {
    // kIoError deliberately included: a full disk or a dying device does
    // not get better because a retry loop hammers it. kShardQuarantined is
    // terminal by definition — the tombstone never goes away.
    EXPECT_FALSE(minisc::is_transient(k)) << minisc::to_string(k);
  }
}

TEST(Journal, WriterIoFailureIsAStructuredIoError) {
  // Creating a journal inside a directory that does not exist is the
  // cheapest deterministic writer-side I/O failure: the open() itself
  // fails, and the error must surface as kIoError with the errno text —
  // not as a config complaint, and never as a retryable condition.
  const std::string path = "/nonexistent-scperf-dir/sub/never.journal";
  try {
    JournalWriter w(path, JournalHeader{});
    FAIL() << "expected SimError(kIoError)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimError::Kind::kIoError);
    EXPECT_FALSE(e.transient());
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    // The errno text rides along so the operator knows WHAT failed on the
    // host (ENOENT here; ENOSPC/EIO in the failures this path exists for).
    EXPECT_NE(what.find(std::strerror(ENOENT)), std::string::npos) << what;
  }
}

TEST(CampaignBudget, HungSeedBecomesFailedWithTimeoutRecord) {
  // Seed 1 simulates forever; the campaign's per-run budget converts it into
  // a failed-with-timeout record while every other seed completes normally.
  const FaultCampaign::RunFn fn = [](std::uint64_t seed) ->
      CampaignRunResult {
    if (seed == 1) {
      minisc::Simulator sim;  // no Watchdog of its own — the budget is
      sim.spawn("spin", [] {  // ambient (RunBudgetScope)
        while (true) minisc::wait(Time::ps(1));
      });
      sim.run();
    }
    return synth_run(seed);
  };
  CampaignOptions opts;
  opts.run_wall_clock_ms = 50;
  FaultCampaign campaign(fn);
  campaign.run(0, 3, opts);
  EXPECT_TRUE(campaign.results()[0].completed);
  EXPECT_FALSE(campaign.results()[1].completed);
  EXPECT_TRUE(campaign.results()[2].completed);
  EXPECT_NE(campaign.results()[1].error.find("per-run wall-clock budget"),
            std::string::npos)
      << campaign.results()[1].error;
  EXPECT_EQ(campaign.report().failed_runs, 1u);
}

TEST(CampaignBudget, JournaledTimeoutReplaysOnResume) {
  // A timed-out seed is durable like any other failure: resuming must not
  // re-run (and re-hang on) it.
  const std::string path = temp_journal("budget");
  std::remove(path.c_str());
  std::atomic<int> hangs{0};
  const FaultCampaign::RunFn fn = [&](std::uint64_t seed) ->
      CampaignRunResult {
    if (seed == 0) {
      ++hangs;
      minisc::Simulator sim;
      sim.spawn("spin", [] {
        while (true) minisc::wait(Time::ps(1));
      });
      sim.run();
    }
    return synth_run(seed);
  };
  CampaignOptions opts;
  opts.run_wall_clock_ms = 50;
  opts.journal_path = path;
  FaultCampaign first(fn);
  first.run(0, 2, opts);
  EXPECT_EQ(hangs.load(), 1);

  opts.resume = true;
  FaultCampaign resumed(fn);
  resumed.run(0, 2, opts);
  EXPECT_EQ(hangs.load(), 1) << "resume re-ran the recorded timeout seed";
  EXPECT_EQ(csv_of(resumed), csv_of(first));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sctrace
