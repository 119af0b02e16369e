#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "trace/campaign.hpp"

namespace sctrace {

/// Crash-consistent, append-only run journal for fault campaigns.
///
/// A campaign that runs thousands of seeds must survive the realities of
/// long runs: a host crash, an OOM kill, a CI timeout. The journal makes
/// each completed seed durable the moment it finishes, so an interrupted
/// campaign resumes by reading back the recorded runs bit-exactly and
/// re-running only the missing ones — report() and write_csv() come out
/// byte-identical to an uninterrupted run.
///
/// File format (all integers little-endian, doubles stored by bit pattern —
/// bit-exact round-trips are what make resumed reports byte-identical):
///
///   file   := header-record run-record* decision-record?
///   record := type:u8 ('H' | 'R' | 'D')  len:u32  payload[len]  checksum:u64
///
/// The checksum is FNV-1a over the type byte, the 4 length bytes and the
/// payload. Records are framed independently, so the crash-consistency
/// contract is local: a *partial* record at end-of-file is the signature of
/// an interrupted append and is silently dropped (the affected run simply
/// re-runs on resume); a record that is fully present but fails its
/// checksum is genuine corruption and raises a structured
/// minisc::SimError(kJournalCorrupt) naming the record index.
///
/// The header pins the campaign identity: base seed, run count, and a
/// caller-supplied scenario digest (scfault::config_digest) plus free-form
/// tag. Resume refuses a journal whose header disagrees with the campaign
/// being run — mixing runs of different fault models is how silent garbage
/// gets into papers. Every run is a pure function of its seed and its model,
/// so these four fields are the whole identity: a fleet shard's journal is
/// the campaign over its slot's seeds, and the fleet's layout lives only in
/// its manifest (trace/shard.hpp).
///
/// There is one format version, kVersion. read_journal refuses every other
/// version with SimError(kShardVersionMismatch) naming both versions, so
/// resume and merge never see a file of another format.
struct JournalHeader {
  /// The format this build writes and the only one read_journal accepts.
  static constexpr std::uint32_t kVersion = 6;

  std::uint32_t version = kVersion;
  std::uint64_t base_seed = 0;
  std::uint64_t runs = 0;
  /// Fingerprint of the fault model behind the run function (0 = unchecked).
  std::uint64_t scenario_digest = 0;
  /// Free-form identity tag (e.g. "mapping/scenario" for sweep cells).
  std::string tag;
};

/// One recovered record: the run's index within its campaign (slot i of the
/// run() call that wrote the journal) and the bit-exact result.
struct JournalRecord {
  std::size_t index = 0;
  CampaignRunResult result;
};

/// Sequential-verdict decision record ('D', one per journal at most; written
/// by an smc-engaged campaign after its last executed window, whether the
/// test decided or exhausted the budget undecided). Its presence is what
/// legalises recorded-runs < header runs: the campaign *chose* to stop at
/// `executed` runs, so [0, executed) is the complete record set and the
/// journal is final — resume replays the decision and runs nothing, merge
/// accepts it as complete. The writer fsyncs all run records *before*
/// appending the decision, so a decision record present in a crashed file
/// implies every run it covers is present too.
struct JournalDecision {
  /// The spec that produced the verdict; resume refuses a journal whose
  /// decision spec differs bitwise from the campaign's (same-hypothesis
  /// check, the smc analogue of the scenario digest).
  SmcSpec spec;
  SmcVerdict verdict;
  /// Runs actually executed (window-aligned, >= verdict.samples_used;
  /// == header runs when the budget ran out undecided).
  std::uint64_t executed = 0;
};

/// Everything a scan of an existing journal yields.
struct JournalContents {
  JournalHeader header;
  std::vector<JournalRecord> records;
  /// The sequential verdict, when the journal carries a decision record
  /// (last one wins if a resumed writer ever appended a second).
  std::optional<JournalDecision> decision;
  /// Byte offset one past the last intact record — the append position for
  /// a resuming writer (anything beyond it is a torn tail).
  std::uint64_t valid_bytes = 0;
  /// True when a partial trailing record was dropped (interrupted append).
  bool truncated_tail = false;
};

/// Names every identity field in which `got` differs from `want`, each with
/// both values (e.g. "scenario_digest 3735928559 (want 0), runs 4 (want
/// 5)"), or returns "" when `got` is the journal `want` describes. The format
/// version is not compared: read_journal refuses every other one. Resume and
/// the fleet readers (trace/shard.hpp) refuse a journal on a non-empty
/// answer.
std::string identity_mismatch(const JournalHeader& got,
                              const JournalHeader& want);

/// Scans `path` front to back. Throws minisc::SimError:
///   - kJournalCorrupt for a checksum-failing or malformed mid-file record
///     or a run record whose index is at or past the header's run count
///     (the message names the record index and the file), and for a torn or
///     truncated *header* — a file with bytes but no intact header record
///     is a crash during journal creation, and resuming "from" it would
///     silently produce a fresh campaign wearing the old file's name;
///   - kShardVersionMismatch for a header whose format version is not
///     JournalHeader::kVersion (the message names both versions);
///   - kBadConfig when the file cannot be opened or is empty.
JournalContents read_journal(const std::string& path);

namespace detail {

/// fsyncs the directory holding `path`, so that an entry created or renamed
/// there survives a host crash. False (errno set) on failure.
bool sync_parent_dir(const std::string& path);

}  // namespace detail

/// Append-side of the journal. Thread-safe: a campaign's threads append
/// under one mutex (journal I/O is a few microseconds against a
/// multi-millisecond simulation, so the lock is not a scaling concern).
/// Durability is batched: every record is write()n to the file immediately
/// (surviving a killed process), and fsync'd every kFlushEvery records
/// (surviving a killed machine) as well as on close().
class JournalWriter {
 public:
  /// Run records appended between two batched fsyncs.
  static constexpr std::size_t kFlushEvery = 8;

  /// Creates (or truncates) `path`, writes and fsyncs the header record,
  /// then fsyncs the directory so that the journal's name is durable too.
  JournalWriter(const std::string& path, const JournalHeader& header);

  /// Re-opens an existing journal for append after a read_journal() scan,
  /// first truncating any torn tail at `valid_bytes`.
  JournalWriter(const std::string& path, std::uint64_t valid_bytes);

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Flushes, fsyncs and closes; errors on this path are swallowed (the
  /// destructor cannot throw), which at worst loses the tail of the journal
  /// — exactly the failure the resume path already tolerates.
  ~JournalWriter();

  /// Appends one run record and makes it visible to readers; fsyncs every
  /// kFlushEvery appends. Thread-safe. Throws minisc::SimError(kIoError)
  /// carrying the errno text on I/O failure (ENOSPC, EIO, ...); the kind is
  /// non-transient so campaign retry does not hammer a full disk.
  void append(std::size_t index, const CampaignRunResult& result);

  /// Appends the sequential-verdict decision record. Syncs the pending run
  /// records first and fsyncs again after the append, so the decision is
  /// the journal's durable commit point: if it survives a crash, every run
  /// it covers survived with it. Thread-safe.
  void append_decision(const JournalDecision& decision);

  /// Forces the batched fsync now.
  void sync();

 private:
  std::mutex mu_;
  int fd_ = -1;
  std::string path_;
  std::size_t unsynced_ = 0;
};

}  // namespace sctrace
