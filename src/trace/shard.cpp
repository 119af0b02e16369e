#include "trace/shard.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <tuple>
#include <utility>

#include "kernel/error.hpp"

namespace sctrace {
namespace {

using minisc::SimError;

/// Host I/O failures on lease/manifest files are infrastructure errors, not
/// simulation outcomes: kIoError, non-transient, carrying the errno text —
/// same classification as journal appends (trace/journal.cpp).
[[noreturn]] void throw_io(const std::string& path, const char* op) {
  throw SimError(SimError::Kind::kIoError,
                 "'" + path + "': " + op + " failed: " + std::strerror(errno));
}

std::uint64_t wall_now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// Lease mtime in the same epoch as wall_now_ms. Returns false if the file
/// vanished (claimed-then-released, or stolen) between the caller's checks.
bool lease_mtime_ms(const std::string& path, std::uint64_t* out) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return false;
  *out = static_cast<std::uint64_t>(st.st_mtim.tv_sec) * 1000ull +
         static_cast<std::uint64_t>(st.st_mtim.tv_nsec) / 1000000ull;
  return true;
}

bool file_exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// The staleness rule, clock-skew edge included: a lease is alive only when
/// its heartbeat mtime is within one TTL of now in EITHER direction. An
/// mtime more than a TTL in the future (restored snapshot, a clock that
/// once lied forward) is not being refreshed by anyone either — treating it
/// as alive would make the shard unadoptable until the wall clock catches
/// up, which can be never.
bool lease_alive(std::uint64_t mtime_ms, std::uint64_t now_ms,
                 std::uint64_t ttl_ms) {
  return now_ms < mtime_ms + ttl_ms && mtime_ms < now_ms + ttl_ms;
}

/// Whole-file read; "" on any error (treated as not-ours / unreadable).
std::string read_whole_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Line-based lease content (see LeaseInfo). Content without an owner line
/// parses as owner "", which matches no worker id.
LeaseInfo parse_lease(const std::string& content) {
  LeaseInfo info;
  std::size_t pos = 0;
  while (pos < content.size()) {
    std::size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) eol = content.size();
    const std::string line = content.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.compare(0, 6, "owner ") == 0) {
      info.owner = line.substr(6);
    } else if (line.compare(0, 10, "adoptions ") == 0) {
      info.adoptions = std::strtoull(line.c_str() + 10, nullptr, 10);
    } else if (line.compare(0, 6, "error ") == 0) {
      info.error = line.substr(6);
    }
    // Unknown keys (e.g. "quarantined-by") are ignored: tombstones carry
    // extra provenance that older readers can skip.
  }
  return info;
}

/// Error texts live on one line of the lease file; collapse any newlines.
std::string one_line(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

std::string format_lease(const std::string& owner, std::uint64_t adoptions,
                         const std::string& error) {
  std::string s = "owner " + owner + "\nadoptions " +
                  std::to_string(adoptions) + "\n";
  if (!error.empty()) s += "error " + one_line(error) + "\n";
  return s;
}

/// Creates `path` holding `content`, fsynced before it is closed, so a
/// reader never sees a torn file. With `exclusive` the create is O_EXCL —
/// the atomic "exactly one winner" claim — and returns false when the path
/// already exists. Otherwise the path is a private temp file: it is
/// truncated, and unlinked again if the write fails. Throws kIoError on I/O
/// failure.
bool create_synced_file(const std::string& path, const std::string& content,
                        bool exclusive) {
  const int fd = ::open(path.c_str(),
                        O_WRONLY | O_CREAT | (exclusive ? O_EXCL : O_TRUNC),
                        0644);
  if (fd < 0) {
    if (exclusive && errno == EEXIST) return false;
    throw_io(path, exclusive ? "open(O_EXCL)" : "open");
  }
  const char* failed = nullptr;
  for (std::size_t off = 0; off < content.size() && failed == nullptr;) {
    const ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      failed = "write";
    } else {
      off += static_cast<std::size_t>(n);
    }
  }
  if (failed == nullptr && ::fsync(fd) != 0) failed = "fsync";
  const int saved_errno = errno;
  ::close(fd);
  if (failed == nullptr) return true;
  if (!exclusive) ::unlink(path.c_str());
  errno = saved_errno;
  throw_io(path, failed);
}

/// Write-then-rename: readers see the old content or the new, never a torn
/// mix. Used for adoptions, lease error records and quarantine tombstones.
void write_file_atomic(const std::string& path, const std::string& content,
                       const std::string& tmp_tag) {
  const std::string tmp = path + ".tmp-" + tmp_tag;
  create_synced_file(tmp, content, /*exclusive=*/false);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw_io(path, "rename");
  }
}

/// The quarantine tombstone of a lease: "<unit>.lease" -> "<unit>.quarantined"
/// (matching shard_quarantine_path / cell_quarantine_path for the canonical
/// filenames; an unconventional lease path just gains the suffix).
std::string quarantine_path_for_lease(const std::string& lease_path) {
  const std::string suffix = ".lease";
  if (lease_path.size() > suffix.size() &&
      lease_path.compare(lease_path.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
    return lease_path.substr(0, lease_path.size() - suffix.size()) +
           ".quarantined";
  }
  return lease_path + ".quarantined";
}

std::string quarantine_summary(const LeaseInfo& info) {
  std::string s = "quarantined after " + std::to_string(info.adoptions) +
                  " adoptions (last owner '" + info.owner + "')";
  if (info.error.empty()) {
    s += "; no error recorded — the owner died without reporting one";
  } else {
    s += ": " + info.error;
  }
  return s;
}

[[noreturn]] void throw_conflict(const std::string& path,
                                 const std::string& why) {
  throw SimError(SimError::Kind::kLeaseConflict,
                 "shard lease '" + path + "': " + why);
}

[[noreturn]] void throw_quarantined(const std::string& lease_path,
                                    const std::string& detail) {
  throw SimError(SimError::Kind::kShardQuarantined,
                 "shard lease '" + lease_path + "': " + detail);
}

[[noreturn]] void throw_merge_bad(const std::string& what) {
  throw SimError(SimError::Kind::kBadConfig, "campaign merge: " + what);
}

[[noreturn]] void throw_merge_incomplete(const std::string& what) {
  throw SimError(SimError::Kind::kMergeIncomplete, "campaign merge: " + what);
}

}  // namespace

ShardRange shard_range(std::size_t shard, std::size_t shard_count,
                       std::size_t total_runs) {
  if (shard_count == 0 || shard >= shard_count) {
    throw SimError(SimError::Kind::kBadConfig,
                   "shard_range: shard " + std::to_string(shard) +
                       " out of range for " + std::to_string(shard_count) +
                       " shards");
  }
  const std::size_t base = total_runs / shard_count;
  const std::size_t rem = total_runs % shard_count;
  ShardRange r;
  r.begin = shard * base + std::min(shard, rem);
  r.end = r.begin + base + (shard < rem ? 1 : 0);
  return r;
}

std::string shard_journal_path(const std::string& dir, std::size_t shard,
                               std::size_t shard_count) {
  return dir + "/shard_" + std::to_string(shard) + "_of_" +
         std::to_string(shard_count) + ".journal";
}

std::string shard_lease_path(const std::string& dir, std::size_t shard,
                             std::size_t shard_count) {
  return dir + "/shard_" + std::to_string(shard) + "_of_" +
         std::to_string(shard_count) + ".lease";
}

std::string shard_quarantine_path(const std::string& dir, std::size_t shard,
                                  std::size_t shard_count) {
  return dir + "/shard_" + std::to_string(shard) + "_of_" +
         std::to_string(shard_count) + ".quarantined";
}

std::string cell_journal_path(const std::string& dir, std::size_t cell,
                              std::size_t cell_count) {
  return dir + "/cell_" + std::to_string(cell) + "_of_" +
         std::to_string(cell_count) + ".journal";
}

std::string cell_lease_path(const std::string& dir, std::size_t cell,
                            std::size_t cell_count) {
  return dir + "/cell_" + std::to_string(cell) + "_of_" +
         std::to_string(cell_count) + ".lease";
}

std::string cell_quarantine_path(const std::string& dir, std::size_t cell,
                                 std::size_t cell_count) {
  return dir + "/cell_" + std::to_string(cell) + "_of_" +
         std::to_string(cell_count) + ".quarantined";
}

bool read_lease_info(const std::string& path, LeaseInfo* out) {
  if (!file_exists(path)) return false;
  const std::string content = read_whole_file(path);
  if (content.empty() && !file_exists(path)) return false;
  *out = parse_lease(content);
  return true;
}

// ---- ShardLease ----------------------------------------------------------

ShardLease::ShardLease(std::string path, std::string worker_id,
                       std::uint64_t ttl_ms, std::uint64_t heartbeat_ms,
                       std::uint64_t adoptions, std::string carried_error)
    : path_(std::move(path)),
      worker_id_(std::move(worker_id)),
      adoptions_(adoptions),
      error_(std::move(carried_error)) {
  std::uint64_t hb = heartbeat_ms != 0 ? heartbeat_ms : ttl_ms / 4;
  if (hb == 0) hb = 1;
  beat_ = std::thread([this, hb] { beat_loop(hb); });
}

ShardLease::~ShardLease() { release(); }

void ShardLease::beat_loop(std::uint64_t heartbeat_ms) {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_) {
    if (cv_.wait_for(lk, std::chrono::milliseconds(heartbeat_ms),
                     [this] { return stop_; })) {
      break;
    }
    lk.unlock();
    // Ownership probe before the refresh: if the file no longer names this
    // worker (adopted away, or released by an adopter that finished), stop
    // beating — refreshing someone else's lease would keep a shard we no
    // longer own looking alive.
    if (!still_mine()) {
      lost_.store(true, std::memory_order_release);
      lk.lock();
      break;
    }
    if (::utimensat(AT_FDCWD, path_.c_str(), nullptr, 0) != 0) {
      // A heartbeat that cannot touch its own lease is an infrastructure
      // failure (EIO, ENOSPC on some filesystems, a yanked mount). Record
      // the errno text — the fleet loop surfaces it as SimError(kIoError)
      // between runs — and keep trying: the flag is sticky either way.
      const std::string err = "lease heartbeat on '" + path_ +
                              "': utimensat failed: " + std::strerror(errno);
      lk.lock();
      if (io_error_.empty()) io_error_ = err;
      continue;
    }
    lk.lock();
  }
}

std::string ShardLease::io_error() const {
  std::lock_guard<std::mutex> lk(mu_);
  return io_error_;
}

void ShardLease::record_error(const std::string& error) {
  // Ownership guard: if the lease was already adopted away (we were paused
  // past the TTL), the file belongs to someone else — overwriting it would
  // knock a live worker off the shard. The remaining TOCTOU window is
  // harmless: the displaced adopter sees a foreign owner on its next
  // probe, aborts via LeaseLostError, and re-claims; journal appends are
  // bit-identical either way (runs are pure functions of their seed).
  const LeaseInfo cur = parse_lease(read_whole_file(path_));
  if (lost() || cur.owner != worker_id_) {
    lost_.store(true, std::memory_order_release);
    return;
  }
  error_ = one_line(error);
  write_file_atomic(path_, format_lease(cur.owner, cur.adoptions, error_),
                    worker_id_);
}

bool ShardLease::still_mine() const {
  return parse_lease(read_whole_file(path_)).owner == worker_id_;
}

void ShardLease::assert_still_mine() {
  if (!lost() && still_mine()) return;
  lost_.store(true, std::memory_order_release);
  throw LeaseLostError("shard lease '" + path_ + "' no longer names worker '" +
                       worker_id_ +
                       "' (adopted away); aborting before appending another "
                       "record");
}

void ShardLease::stop_beat() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (!stop_) {
      stop_ = true;
      cv_.notify_all();
    }
  }
  if (beat_.joinable()) beat_.join();
}

void ShardLease::release() {
  stop_beat();
  if (!released_) {
    released_ = true;
    // A lost lease belongs to its adopter now; only unlink our own.
    if (!lost() && still_mine()) {
      ::unlink(path_.c_str());
    }
  }
}

void ShardLease::abandon() {
  stop_beat();
  // Deliberately NOT unlinking: the lease stays behind with its error
  // recorded and its heartbeat frozen, goes stale after one TTL, and the
  // next claimer adopts it — or quarantines it once the adoption counter
  // says every adopter has failed the same way.
  released_ = true;
}

std::unique_ptr<ShardLease> claim_shard_lease(const std::string& path,
                                              const std::string& worker_id,
                                              std::uint64_t lease_ttl_ms,
                                              std::uint64_t heartbeat_ms,
                                              std::uint64_t max_adoptions) {
  if (worker_id.empty() || worker_id.find('/') != std::string::npos) {
    throw SimError(SimError::Kind::kBadConfig,
                   "shard lease '" + path + "': worker id '" + worker_id +
                       "' must be non-empty and slash-free");
  }
  if (lease_ttl_ms == 0) {
    throw SimError(SimError::Kind::kBadConfig,
                   "shard lease '" + path + "': lease TTL must be > 0");
  }

  // Quarantine is terminal: a tombstoned shard is never claimable again.
  const std::string qpath = quarantine_path_for_lease(path);
  LeaseInfo qinfo;
  if (read_lease_info(qpath, &qinfo)) {
    throw_quarantined(path, quarantine_summary(qinfo));
  }
  // The check above can pass just before a racing claimer's quarantining
  // rename empties the lease path, so every create below re-checks for the
  // tombstone once it holds the path, and backs its lease out if one
  // appeared. Tombstones are never removed, so a create that lands after
  // the rename always sees it.
  const auto back_out_if_quarantined = [&] {
    if (!read_lease_info(qpath, &qinfo)) return;
    if (parse_lease(read_whole_file(path)).owner == worker_id) {
      ::unlink(path.c_str());
    }
    throw_quarantined(path, quarantine_summary(qinfo));
  };

  // Fresh claim: O_EXCL picks exactly one winner among racing creators.
  if (create_synced_file(path, format_lease(worker_id, 0, ""),
                         /*exclusive=*/true)) {
    back_out_if_quarantined();
    return std::unique_ptr<ShardLease>(
        new ShardLease(path, worker_id, lease_ttl_ms, heartbeat_ms,
                       /*adoptions=*/0, /*carried_error=*/""));
  }

  // Lease exists. Alive (heartbeat within the TTL window, clock skew
  // included) → conflict, transient: the owner is working the shard.
  // Content is read before the mtime, so a lease replaced in between is
  // judged by the newer incarnation's mtime, which is fresh.
  const std::string content = read_whole_file(path);
  std::uint64_t mtime = 0;
  if (!lease_mtime_ms(path, &mtime)) {
    throw_conflict(path, "vanished mid-claim (owner released or was adopted)");
  }
  const LeaseInfo info = parse_lease(content);
  const std::uint64_t now = wall_now_ms();
  if (lease_alive(mtime, now, lease_ttl_ms)) {
    throw_conflict(path, "held by live worker '" + info.owner +
                             "' (heartbeat " +
                             std::to_string(now > mtime ? now - mtime : 0) +
                             " ms ago, TTL " + std::to_string(lease_ttl_ms) +
                             " ms)");
  }

  // Stale: the owner stopped heartbeating for a full TTL — dead worker (or
  // one that deliberately abandon()ed the shard after a permanent error).
  if (max_adoptions != 0 && info.adoptions >= max_adoptions) {
    // Poison shard: it has already been adopted max_adoptions times and
    // every adopter died or abandoned it. Quarantine instead of adopting —
    // rename has exactly one winner, so racing adopters cannot tombstone
    // twice (the losers get a transient conflict, then see the tombstone).
    if (::rename(path.c_str(), qpath.c_str()) != 0) {
      throw_conflict(path, "stale, but another worker adopted or "
                           "quarantined it first");
    }
    std::string tomb = "owner " + info.owner + "\nadoptions " +
                       std::to_string(info.adoptions) + "\nquarantined-by " +
                       worker_id + "\n";
    if (!info.error.empty()) tomb += "error " + one_line(info.error) + "\n";
    write_file_atomic(qpath, tomb, worker_id);
    throw_quarantined(path, quarantine_summary(parse_lease(tomb)));
  }

  // Adopt. Racing adopters of one stale lease are serialised by an O_EXCL
  // marker named after the generation they would create: exactly one holds
  // it at a time. The holder re-checks that the lease is still the stale
  // incarnation inspected above and renames its own lease over it, so the
  // lease path never goes empty — no fresh claim can slip in, and a loser
  // never touches the lease. A marker older than the TTL was left by an
  // adopter that died holding it; the next name in the series takes over.
  const std::string marker_base =
      path + ".adopt" + std::to_string(info.adoptions + 1);
  std::string marker;
  for (std::size_t k = 0;; ++k) {
    marker = k == 0 ? marker_base : marker_base + "." + std::to_string(k);
    if (create_synced_file(marker, worker_id + "\n", /*exclusive=*/true)) {
      break;
    }
    std::uint64_t marker_mtime = 0;
    if (!lease_mtime_ms(marker, &marker_mtime) ||
        lease_alive(marker_mtime, wall_now_ms(), lease_ttl_ms)) {
      throw_conflict(path, "stale, but another worker is adopting it");
    }
  }
  std::uint64_t again_mtime = 0;
  const bool unchanged = read_whole_file(path) == content &&
                         lease_mtime_ms(path, &again_mtime) &&
                         !lease_alive(again_mtime, wall_now_ms(), lease_ttl_ms);
  if (unchanged) {
    // Carry the adoption counter (incremented) and the dead worker's
    // recorded error forward.
    write_file_atomic(path,
                      format_lease(worker_id, info.adoptions + 1, info.error),
                      worker_id);
  }
  ::unlink(marker.c_str());
  if (!unchanged) {
    throw_conflict(path, "stale, but another worker adopted it first");
  }
  back_out_if_quarantined();
  return std::unique_ptr<ShardLease>(
      new ShardLease(path, worker_id, lease_ttl_ms, heartbeat_ms,
                     info.adoptions + 1, info.error));
}

// ---- folding journal records -----------------------------------------------

namespace {

/// Run records placed at their slots of [0, end): the one fold behind the
/// campaign merge, the sweep merge and the unit progress probe. A record
/// lands at slot offset + its index; read_journal bounds the index by the
/// journal's own run count, and records at or past `end` (past an
/// early-stopped campaign's decision) are ignored. A later record for a
/// slot replaces an earlier one, like journal resume: duplicates are
/// bit-identical re-runs of a deterministic seed.
struct RecordFold {
  explicit RecordFold(std::size_t end) : slots(end), done(end, false) {}

  void add(JournalContents& jc, std::size_t offset) {
    for (JournalRecord& rec : jc.records) {
      const std::size_t slot = offset + rec.index;
      if (slot >= slots.size()) continue;
      if (!done[slot]) ++recorded;
      done[slot] = true;
      slots[slot] = std::move(rec.result);
    }
  }

  bool complete() const { return recorded == slots.size(); }

  /// The recorded runs in seed order, compacted over the missing slots —
  /// deterministic for any worker interleaving and thread count.
  std::vector<CampaignRunResult> take() {
    if (complete()) return std::move(slots);
    std::vector<CampaignRunResult> out;
    out.reserve(recorded);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (done[i]) out.push_back(std::move(slots[i]));
    }
    return out;
  }

  std::vector<CampaignRunResult> slots;
  std::vector<bool> done;
  std::size_t recorded = 0;  ///< distinct slots holding a record
};

/// How far one unit's journal got: `recorded` of the `owed` runs, where an
/// early-stopped unit owes only the runs its decision record covers — it is
/// complete, and run_fleet skips it, the moment those are recorded. A
/// missing, torn or corrupt journal has recorded nothing (the claimer heals
/// it). Never throws: status and the claim pass must not fail on a racing
/// writer.
struct UnitProgress {
  std::size_t recorded = 0;
  std::size_t owed = 0;
  bool complete() const { return recorded == owed; }
};

UnitProgress probe_unit(const std::string& journal, std::size_t runs) {
  UnitProgress p;
  p.owed = runs;
  JournalContents jc;
  try {
    jc = read_journal(journal);
  } catch (const SimError&) {
    return p;
  }
  if (jc.decision) {
    p.owed = std::min(static_cast<std::size_t>(jc.decision->executed), runs);
  }
  RecordFold fold(p.owed);
  fold.add(jc, 0);
  p.recorded = fold.recorded;
  return p;
}

}  // namespace

// ---- generic fleet worker loop ---------------------------------------------

namespace {

/// One lease-claimable work unit of a fleet: a campaign shard or a sweep
/// cell. `opts` arrives fully prepared (journal path, identity tag, shard
/// header fields); the loop only stamps the worker id and resume flag.
struct FleetUnit {
  std::size_t index = 0;
  std::string name;  ///< for progress and error messages
  std::string journal;
  std::string lease;
  std::string quarantine;
  std::uint64_t base_seed = 0;  ///< first seed of this unit
  std::size_t runs = 0;
  CampaignOptions opts;
  FaultCampaign::RunFn fn;
};

/// The self-healing claim/run/adopt/quarantine loop shared by
/// run_sharded_campaign and run_sharded_sweep. Per pass over the units
/// (starting at the worker's preferred one, then roaming): skip tombstoned
/// and complete units, claim the rest, execute claimed ones as
/// journaled+resumed campaigns, and classify every failure —
///
///   - LeaseLostError: the shard was adopted away (we stalled past the
///     TTL); abort it, the adopter owns the journal now.
///   - kJournalCorrupt: heal — delete the damaged journal and re-run the
///     whole unit under the lease we hold (runs are pure functions of
///     their seeds, so the fresh journal is bit-identical).
///   - any other SimError (kIoError from journal/heartbeat I/O, config
///     mismatches, unhealable corruption): record the error in the lease
///     and abandon it — the lease goes stale, another worker adopts, and
///     the adoption counter quarantines the unit once every adopter has
///     failed. The worker stays alive for the rest of the fleet.
///
/// Exits when every unit is complete or quarantined (fleet_done); until
/// then it polls while peers hold the remaining leases.
ShardProgress run_fleet(const std::vector<FleetUnit>& units,
                        const ShardOptions& shard,
                        const std::string& worker_id) {
  ShardProgress prog;
  std::vector<bool> quarantined(units.size(), false);  // terminal units
  const std::size_t prefer =
      units.empty() ? 0 : shard.shard_index % units.size();
  for (;;) {
    bool all_done = true;
    bool progressed = false;
    for (std::size_t k = 0; k < units.size(); ++k) {
      // Start at our preferred unit and roam upward: a fleet spreads across
      // the units instead of stampeding the same lease.
      const std::size_t i = (prefer + k) % units.size();
      const FleetUnit& unit = units[i];
      if (unit.runs == 0) continue;  // empty unit: trivially complete
      if (quarantined[i] || file_exists(unit.quarantine)) {
        quarantined[i] = true;  // terminal: skip without claiming
        continue;
      }
      if (probe_unit(unit.journal, unit.runs).complete()) continue;
      all_done = false;

      std::unique_ptr<ShardLease> lease;
      try {
        lease = claim_shard_lease(unit.lease, worker_id, shard.lease_ttl_ms,
                                  /*heartbeat_ms=*/0, shard.max_adoptions);
      } catch (const SimError& e) {
        if (e.kind() == SimError::Kind::kLeaseConflict) {
          // Transient by contract: a live peer owns the unit (or won an
          // adoption race). The outer pass-and-poll loop is the backoff.
          ++prog.lease_conflicts;
          continue;
        }
        if (e.kind() == SimError::Kind::kShardQuarantined) {
          // Terminal by contract — whether this claim performed the
          // quarantine or merely found the tombstone, the unit is done
          // failing and the fleet moves on.
          quarantined[i] = true;
          progressed = true;
          continue;
        }
        throw;
      }
      // A peer may have completed and released the unit between the
      // completeness probe above and this claim: re-probe under the lease.
      if (probe_unit(unit.journal, unit.runs).complete()) {
        lease->release();
        progressed = true;
        continue;
      }

      CampaignOptions co = unit.opts;
      co.journal_path = unit.journal;
      co.resume = true;  // adoption = resuming the dead worker's journal
      co.worker_id = worker_id;

      std::atomic<std::size_t> executed{0};
      ShardLease* held = lease.get();
      // Pre-append lease probe: a worker whose unit was adopted away must
      // abort BEFORE its next record lands in the adopter's journal.
      co.pre_append = [held](std::size_t) { held->assert_still_mine(); };

      const FaultCampaign::RunFn wrapped =
          [&unit, &executed, held](std::uint64_t seed) {
            if (held->lost()) {
              throw LeaseLostError(
                  "shard lease '" + held->path() + "' was adopted away from '" +
                  held->worker_id() +
                  "' (heartbeat stalled past the TTL); aborting the shard — "
                  "its new owner owns the journal now");
            }
            const std::string io = held->io_error();
            if (!io.empty()) {
              // Heartbeat I/O failure: surface it as the structured
              // infrastructure error it is. kIoError is exempt from
              // failed-run recording (FaultCampaign::run rethrows it), so
              // it lands in the abandon path below, not in the statistics.
              throw SimError(SimError::Kind::kIoError, io);
            }
            executed.fetch_add(1, std::memory_order_relaxed);
            return unit.fn(seed);
          };

      const auto run_unit = [&] {
        FaultCampaign campaign(wrapped);
        campaign.run(unit.base_seed, unit.runs, co);
      };
      const auto abandon_with = [&](const SimError& e) {
        // Permanent failure executing this unit. Record it and walk away:
        // the lease goes stale with the error attached, adoption keeps the
        // fleet trying, the adoption counter caps how long.
        lease->record_error(e.what());
        lease->abandon();
        ++prog.shards_abandoned;
      };

      bool completed_unit = false;
      try {
        run_unit();
        completed_unit = true;
      } catch (const LeaseLostError&) {
        ++prog.shards_lost;
      } catch (const SimError& e) {
        if (e.kind() == SimError::Kind::kJournalCorrupt) {
          // The journal is damaged beyond the torn-tail tolerance (torn
          // header, bit rot). We hold the exclusive lease and every run is
          // a pure function of its seed, so re-running the whole unit
          // reproduces bit-identical records: delete and start fresh.
          std::remove(unit.journal.c_str());
          try {
            run_unit();
            completed_unit = true;
          } catch (const LeaseLostError&) {
            ++prog.shards_lost;
          } catch (const SimError& e2) {
            abandon_with(e2);
          }
        } else {
          abandon_with(e);
        }
      }
      prog.runs_executed += executed.load(std::memory_order_relaxed);
      if (completed_unit) {
        ++prog.shards_run;
        if (lease->adopted()) ++prog.shards_adopted;
        progressed = true;
        lease->release();
      }
    }

    if (all_done) {
      prog.fleet_done = true;
      break;
    }
    if (!progressed) {
      // Every remaining unit is leased by a live peer (or was lost to an
      // adopter). Wait for the fleet — or for a peer's lease to go stale.
      std::this_thread::sleep_for(std::chrono::milliseconds(shard.poll_ms));
    }
  }
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (quarantined[i] || file_exists(units[i].quarantine)) {
      ++prog.shards_quarantined;
    }
  }
  prog.campaign_complete = prog.fleet_done && prog.shards_quarantined == 0;
  return prog;
}

std::string default_worker_id(const ShardOptions& shard) {
  return !shard.worker_id.empty()
             ? shard.worker_id
             : "w" + std::to_string(shard.shard_index) + ".pid" +
                   std::to_string(static_cast<long>(::getpid()));
}

// ---- fleet manifest (campaign layout authority) ---------------------------

std::string fleet_manifest_path(const std::string& dir) {
  return dir + "/fleet.manifest";
}

constexpr const char* kFleetManifestMagic = "scperf-fleet v1";

std::string format_fleet_manifest(const FleetManifest& m) {
  std::string s = std::string(kFleetManifestMagic) + "\n";
  s += "base_seed " + std::to_string(m.base_seed) + "\n";
  s += "total_runs " + std::to_string(m.total_runs) + "\n";
  s += "shard_count " + std::to_string(m.shard_count) + "\n";
  s += "digest " + std::to_string(m.scenario_digest) + "\n";
  s += "tag " + m.tag + "\n";
  return s;
}

[[noreturn]] void throw_fleet_manifest_corrupt(const std::string& path,
                                               const std::string& why) {
  throw SimError(SimError::Kind::kJournalCorrupt,
                 "fleet manifest '" + path + "': " + why);
}

FleetManifest parse_fleet_manifest(const std::string& path,
                                   const std::string& content) {
  FleetManifest m;
  std::size_t pos = 0;
  std::size_t line_no = 0;
  bool saw_magic = false;
  while (pos < content.size()) {
    std::size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) eol = content.size();
    const std::string line = content.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line_no == 1) {
      if (line != kFleetManifestMagic) {
        throw_fleet_manifest_corrupt(path, "bad magic line '" + line + "'");
      }
      saw_magic = true;
      continue;
    }
    if (line.compare(0, 10, "base_seed ") == 0) {
      m.base_seed = std::strtoull(line.c_str() + 10, nullptr, 10);
    } else if (line.compare(0, 11, "total_runs ") == 0) {
      m.total_runs = static_cast<std::size_t>(
          std::strtoull(line.c_str() + 11, nullptr, 10));
    } else if (line.compare(0, 12, "shard_count ") == 0) {
      m.shard_count = static_cast<std::size_t>(
          std::strtoull(line.c_str() + 12, nullptr, 10));
    } else if (line.compare(0, 7, "digest ") == 0) {
      m.scenario_digest = std::strtoull(line.c_str() + 7, nullptr, 10);
    } else if (line.compare(0, 4, "tag ") == 0) {
      m.tag = line.substr(4);
    } else if (line == "tag") {
      m.tag.clear();
    } else if (!line.empty()) {
      throw_fleet_manifest_corrupt(path, "unrecognised line '" + line + "'");
    }
  }
  if (!saw_magic || m.shard_count == 0) {
    throw_fleet_manifest_corrupt(path, "missing magic or zero shard_count");
  }
  return m;
}

/// First-writer-wins pinned-file creation: the content is written to a
/// private tmp file (fsynced) and link()ed into place — link fails with
/// EEXIST if the file already exists, and because the final name appears
/// atomically a losing worker can never read a torn file. Shared by the
/// fleet and sweep manifests.
bool create_pinned_file(const std::string& path, const std::string& content,
                        const std::string& tmp_tag) {
  const std::string tmp = path + ".tmp-" + tmp_tag;
  create_synced_file(tmp, content, /*exclusive=*/false);
  const int rc = ::link(tmp.c_str(), path.c_str());
  const int saved_errno = errno;
  ::unlink(tmp.c_str());
  if (rc == 0) return true;
  if (saved_errno == EEXIST) return false;
  errno = saved_errno;
  throw_io(path, "link");
}

}  // namespace

FleetManifest read_fleet_manifest(const std::string& dir) {
  const std::string path = fleet_manifest_path(dir);
  if (!file_exists(path)) {
    throw SimError(SimError::Kind::kMergeIncomplete,
                   "fleet manifest '" + path +
                       "' does not exist — no campaign fleet ever pinned a "
                       "layout in this directory");
  }
  return parse_fleet_manifest(path, read_whole_file(path));
}

ShardProgress run_sharded_campaign(const FaultCampaign::RunFn& fn,
                                   std::uint64_t base_seed,
                                   std::size_t total_runs,
                                   const ShardOptions& shard,
                                   const CampaignOptions& opts) {
  // shard_count == 0 is *elastic* mode: the layout is read from the fleet
  // manifest instead of the command line.
  const bool elastic = shard.shard_count == 0;
  if (!elastic && shard.shard_index >= shard.shard_count) {
    throw SimError(SimError::Kind::kBadConfig,
                   "run_sharded_campaign: worker index " +
                       std::to_string(shard.shard_index) +
                       " out of range for " +
                       std::to_string(shard.shard_count) + " shards");
  }
  if (shard.dir.empty()) {
    throw SimError(SimError::Kind::kBadConfig,
                   "run_sharded_campaign: shard directory must be set");
  }
  std::filesystem::create_directories(shard.dir);
  const std::string worker_id = default_worker_id(shard);

  // Pin (or verify) the layout before touching any shard: the manifest is
  // the single authority on {base_seed, total_runs, shard_count, digest,
  // tag}, and it never changes once pinned. Exactly one worker creates it;
  // everyone else compares and refuses on any difference — an explicit
  // worker with another shard count is told how to follow the pin instead.
  FleetManifest mine;
  mine.base_seed = base_seed;
  mine.total_runs = total_runs;
  mine.shard_count = shard.shard_count;
  mine.scenario_digest = opts.scenario_digest;
  mine.tag = opts.journal_tag;

  const auto identity_mismatch = [&](const FleetManifest& pinned) {
    return pinned.base_seed != base_seed || pinned.total_runs != total_runs ||
           pinned.scenario_digest != opts.scenario_digest ||
           pinned.tag != opts.journal_tag;
  };
  FleetManifest pinned;
  if (elastic) {
    if (!file_exists(fleet_manifest_path(shard.dir))) {
      throw SimError(
          SimError::Kind::kBadConfig,
          "run_sharded_campaign: elastic worker (shard_count 0) needs the "
          "layout authority '" +
              fleet_manifest_path(shard.dir) +
              "', which does not exist — launch one worker with an explicit "
              "shard count first (it pins the manifest)");
    }
    pinned = read_fleet_manifest(shard.dir);
  } else if (create_pinned_file(fleet_manifest_path(shard.dir),
                                format_fleet_manifest(mine), worker_id)) {
    pinned = mine;
  } else {
    pinned = read_fleet_manifest(shard.dir);
    if (!identity_mismatch(pinned) &&
        pinned.shard_count != shard.shard_count) {
      throw SimError(
          SimError::Kind::kBadConfig,
          "run_sharded_campaign: this worker was launched for " +
              std::to_string(shard.shard_count) +
              " shards but the manifest pins " +
              std::to_string(pinned.shard_count) +
              " — a pinned layout never changes; relaunch the worker elastic "
              "(shard_count 0, e.g. --shard-dir alone) to follow the "
              "manifest");
    }
  }
  if (identity_mismatch(pinned)) {
    throw SimError(
        SimError::Kind::kBadConfig,
        "run_sharded_campaign: this worker's campaign (seed " +
            std::to_string(base_seed) + ", " + std::to_string(total_runs) +
            " runs, digest " + std::to_string(opts.scenario_digest) +
            ", tag '" + opts.journal_tag +
            "') disagrees with the manifest pinned in '" + shard.dir +
            "' — a worker from a different campaign would corrupt the "
            "fleet's shards");
  }
  if (opts.smc.engaged() && pinned.shard_count > 1) {
    throw SimError(
        SimError::Kind::kBadConfig,
        "run_sharded_campaign: sequential model checking needs the "
        "campaign's global seed order, which a sharded campaign splits — "
        "run the smc campaign unsharded, or shard a sweep (cells are whole "
        "campaigns and prune independently)");
  }

  // Every unit is exactly one canonical shard_range slot of the pin.
  const std::size_t count = pinned.shard_count;
  std::vector<FleetUnit> units;
  units.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const ShardRange range = shard_range(i, count, total_runs);
    FleetUnit u;
    u.index = i;
    u.name = "shard " + std::to_string(i) + "/" + std::to_string(count);
    u.journal = shard_journal_path(shard.dir, i, count);
    u.lease = shard_lease_path(shard.dir, i, count);
    u.quarantine = shard_quarantine_path(shard.dir, i, count);
    u.base_seed = base_seed + range.begin;
    u.runs = range.size();
    u.opts = opts;
    u.opts.shard_index = i;
    u.opts.shard_count = count;
    u.opts.shard_begin = range.begin;
    u.opts.total_runs = total_runs;
    u.fn = fn;
    units.push_back(std::move(u));
  }
  return run_fleet(units, shard, worker_id);
}

// ---- sharded sweeps --------------------------------------------------------

namespace {

std::string manifest_path(const std::string& dir) {
  return dir + "/sweep.manifest";
}

constexpr const char* kManifestMagic = "scperf-sweep v1";

std::string format_manifest(const SweepManifest& m) {
  std::string s = std::string(kManifestMagic) + "\n";
  s += "base_seed " + std::to_string(m.base_seed) + "\n";
  s += "runs " + std::to_string(m.runs) + "\n";
  s += "digest " + std::to_string(m.scenario_digest) + "\n";
  s += "tag " + m.tag + "\n";
  for (const std::string& name : m.mappings) s += "mapping " + name + "\n";
  for (const std::string& name : m.scenarios) s += "scenario " + name + "\n";
  return s;
}

[[noreturn]] void throw_manifest_corrupt(const std::string& path,
                                         const std::string& why) {
  throw SimError(SimError::Kind::kJournalCorrupt,
                 "sweep manifest '" + path + "': " + why);
}

SweepManifest parse_manifest(const std::string& path,
                             const std::string& content) {
  SweepManifest m;
  std::size_t pos = 0;
  std::size_t line_no = 0;
  bool saw_magic = false;
  while (pos < content.size()) {
    std::size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) eol = content.size();
    const std::string line = content.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line_no == 1) {
      if (line != kManifestMagic) {
        throw_manifest_corrupt(path, "bad magic line '" + line + "'");
      }
      saw_magic = true;
      continue;
    }
    if (line.compare(0, 10, "base_seed ") == 0) {
      m.base_seed = std::strtoull(line.c_str() + 10, nullptr, 10);
    } else if (line.compare(0, 5, "runs ") == 0) {
      m.runs = static_cast<std::size_t>(
          std::strtoull(line.c_str() + 5, nullptr, 10));
    } else if (line.compare(0, 7, "digest ") == 0) {
      m.scenario_digest = std::strtoull(line.c_str() + 7, nullptr, 10);
    } else if (line.compare(0, 4, "tag ") == 0) {
      m.tag = line.substr(4);
    } else if (line == "tag") {
      m.tag.clear();
    } else if (line.compare(0, 8, "mapping ") == 0) {
      m.mappings.push_back(line.substr(8));
    } else if (line.compare(0, 9, "scenario ") == 0) {
      m.scenarios.push_back(line.substr(9));
    } else if (!line.empty()) {
      throw_manifest_corrupt(path, "unrecognised line '" + line + "'");
    }
  }
  if (!saw_magic || m.mappings.empty() || m.scenarios.empty()) {
    throw_manifest_corrupt(path, "missing magic, mappings or scenarios");
  }
  return m;
}

}  // namespace

std::string SweepManifest::cell_tag(std::size_t cell) const {
  const std::string& m = cell_mapping(cell);
  const std::string& s = cell_scenario(cell);
  // Same derivation as CampaignSweep::run's per-cell journal tag, so fleet
  // cell journals pin the identity a single-process sweep would pin.
  return tag.empty() ? m + "/" + s : tag + ":" + m + "/" + s;
}

SweepManifest read_sweep_manifest(const std::string& dir) {
  const std::string path = manifest_path(dir);
  if (!file_exists(path)) {
    throw SimError(SimError::Kind::kMergeIncomplete,
                   "sweep manifest '" + path +
                       "' does not exist — no sweep fleet ever started in "
                       "this directory");
  }
  return parse_manifest(path, read_whole_file(path));
}

ShardProgress run_sharded_sweep(const std::vector<std::string>& mappings,
                                const std::vector<std::string>& scenarios,
                                const CampaignSweep::Factory& factory,
                                std::uint64_t base_seed, std::size_t n,
                                const ShardOptions& shard,
                                const CampaignOptions& opts) {
  if (mappings.empty() || scenarios.empty()) {
    throw SimError(SimError::Kind::kBadConfig,
                   "run_sharded_sweep: the mapping x scenario grid must be "
                   "non-empty");
  }
  if (!factory) {
    throw SimError(SimError::Kind::kBadConfig,
                   "run_sharded_sweep: no cell factory given");
  }
  if (shard.dir.empty()) {
    throw SimError(SimError::Kind::kBadConfig,
                   "run_sharded_sweep: shard directory must be set");
  }
  std::filesystem::create_directories(shard.dir);
  const std::string worker_id = default_worker_id(shard);

  // Pin (or verify) the grid identity before touching any cell: every
  // worker of one fleet must agree on the grid, the seed, the run count and
  // the fault-model digest, or its cell journals would silently disagree
  // with everyone else's. Exactly one worker creates the manifest; the rest
  // compare and refuse on any difference.
  SweepManifest manifest;
  manifest.base_seed = base_seed;
  manifest.runs = n;
  manifest.scenario_digest = opts.scenario_digest;
  manifest.tag = opts.journal_tag;
  manifest.mappings = mappings;
  manifest.scenarios = scenarios;
  if (!create_pinned_file(manifest_path(shard.dir),
                          format_manifest(manifest), worker_id)) {
    const SweepManifest pinned = read_sweep_manifest(shard.dir);
    if (format_manifest(pinned) != format_manifest(manifest)) {
      throw SimError(
          SimError::Kind::kBadConfig,
          "run_sharded_sweep: this worker's sweep (seed " +
              std::to_string(base_seed) + ", " + std::to_string(n) +
              " runs, " + std::to_string(mappings.size()) + "x" +
              std::to_string(scenarios.size()) + " grid, digest " +
              std::to_string(opts.scenario_digest) +
              ") disagrees with the manifest pinned in '" + shard.dir +
              "' — a worker from a different sweep would corrupt the fleet's "
              "cells");
    }
  }

  const std::size_t cells = manifest.cells();
  std::vector<FleetUnit> units;
  units.reserve(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    const std::string& m = manifest.cell_mapping(c);
    const std::string& s = manifest.cell_scenario(c);
    FleetUnit u;
    u.index = c;
    u.name = m + "/" + s;
    u.journal = cell_journal_path(shard.dir, c, cells);
    u.lease = cell_lease_path(shard.dir, c, cells);
    u.quarantine = cell_quarantine_path(shard.dir, c, cells);
    u.base_seed = base_seed;  // common random numbers across cells
    u.runs = n;
    u.opts = opts;
    u.opts.journal_tag = manifest.cell_tag(c);
    // Each cell is its own degenerate single-shard campaign: the cell
    // identity lives in the tag (and the filename), not the shard fields.
    u.opts.shard_index = 0;
    u.opts.shard_count = 1;
    u.opts.shard_begin = 0;
    u.opts.total_runs = n;
    u.fn = factory(m, s);
    units.push_back(std::move(u));
  }
  return run_fleet(units, shard, worker_id);
}

// ---- merge ----------------------------------------------------------------

MergedCampaign merge_journals(const std::vector<std::string>& paths,
                              const MergeOptions& opts) {
  if (paths.empty()) {
    throw_merge_bad("no shard journals given");
  }

  MergedCampaign out;
  std::vector<JournalContents> shards;
  shards.reserve(paths.size());
  for (const std::string& p : paths) shards.push_back(read_journal(p));

  // Identity checks (read_journal already refused other format versions):
  // all journals must agree on the campaign — digest, tag, base seed, total
  // runs, layout. These refusals hold in partial mode too — a mixed fleet is
  // a *wrong* fleet, not an unfinished one.
  const JournalHeader& first = shards[0].header;
  out.scenario_digest = first.scenario_digest;
  out.tag = first.tag;
  out.shard_count = static_cast<std::size_t>(first.shard_count);
  out.runs = static_cast<std::size_t>(first.total_runs);
  out.base_seed = first.base_seed - first.shard_begin;

  // Journals by shard index: exactly one per shard, so a second one is
  // ambiguous (which to trust?) rather than partial.
  std::vector<std::vector<std::size_t>> by_shard(out.shard_count);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const JournalHeader& h = shards[s].header;
    if (h.scenario_digest != out.scenario_digest) {
      throw_merge_bad("shard journal '" + paths[s] +
                      "' has scenario digest " +
                      std::to_string(h.scenario_digest) + " but '" + paths[0] +
                      "' has " + std::to_string(out.scenario_digest) +
                      " — different fault models do not merge");
    }
    if (h.tag != out.tag) {
      throw_merge_bad("shard journal '" + paths[s] + "' has tag '" + h.tag +
                      "' but '" + paths[0] + "' has '" + out.tag + "'");
    }
    if (h.shard_count != out.shard_count || h.total_runs != out.runs) {
      throw_merge_bad("shard journal '" + paths[s] + "' is shard " +
                      std::to_string(h.shard_index) + "/" +
                      std::to_string(h.shard_count) + " of " +
                      std::to_string(h.total_runs) + " runs but '" + paths[0] +
                      "' declares " + std::to_string(out.shard_count) +
                      " shards of " + std::to_string(out.runs) +
                      " runs — mixed shard layouts do not merge");
    }
    if (h.base_seed - h.shard_begin != out.base_seed) {
      throw_merge_bad("shard journal '" + paths[s] +
                      "' implies campaign base seed " +
                      std::to_string(h.base_seed - h.shard_begin) + " but '" +
                      paths[0] + "' implies " + std::to_string(out.base_seed));
    }
    if (h.shard_index >= h.shard_count) {
      throw_merge_bad("shard journal '" + paths[s] + "' claims shard " +
                      std::to_string(h.shard_index) + " of only " +
                      std::to_string(h.shard_count));
    }
    // Each journal covers exactly the canonical slot of its index, so the
    // journals of a fleet tile the campaign and no run slot has two owners.
    const ShardRange want = shard_range(
        static_cast<std::size_t>(h.shard_index), out.shard_count, out.runs);
    if (h.shard_begin != want.begin || h.runs != want.size()) {
      throw_merge_bad("shard journal '" + paths[s] + "' covers [" +
                      std::to_string(h.shard_begin) + ", +" +
                      std::to_string(h.runs) + ") but shard " +
                      std::to_string(h.shard_index) +
                      "'s canonical slot is [" + std::to_string(want.begin) +
                      ", +" + std::to_string(want.size()) + ") of " +
                      std::to_string(out.shard_count) + " shards");
    }
    by_shard[static_cast<std::size_t>(h.shard_index)].push_back(s);
  }
  {
    // Ambiguity, not partial-ness: even a degraded merge cannot decide
    // which duplicate journal to trust — and every ambiguous shard is
    // reported in one message so one fix-up pass suffices.
    std::string dups;
    for (std::size_t i = 0; i < by_shard.size(); ++i) {
      const std::vector<std::size_t>& idxs = by_shard[i];
      if (idxs.size() < 2) continue;
      if (!dups.empty()) dups += "; ";
      dups += "shard " + std::to_string(i) + " (";
      for (std::size_t k = 0; k < idxs.size(); ++k) {
        if (k) dups += ", ";
        dups += "'" + paths[idxs[k]] + "'";
      }
      dups += ")";
    }
    if (!dups.empty()) {
      throw_merge_incomplete(
          "the same shard appears in more than one journal: " + dups +
          " — ambiguous which journal to trust");
    }
  }
  {
    // Missing shards are aggregated into one refusal: a fleet operator
    // fixes them all in one pass instead of repeating merge-fail-fix N
    // times.
    std::string missing_list;
    std::size_t n_missing = 0;
    for (std::size_t i = 0; i < out.shard_count; ++i) {
      if (!by_shard[i].empty() ||
          shard_range(i, out.shard_count, out.runs).empty()) {
        continue;
      }
      ++n_missing;
      if (!opts.allow_partial) {
        if (!missing_list.empty()) missing_list += ", ";
        missing_list += std::to_string(i);
      } else {
        out.complete = false;
        out.missing_shards.push_back(i);
      }
    }
    if (n_missing > 0 && !opts.allow_partial) {
      throw_merge_incomplete(
          "no journal for " + std::to_string(n_missing) + " of " +
          std::to_string(out.shard_count) + " shards (missing: " +
          missing_list +
          ") — a partial fleet merge would silently bias every campaign "
          "statistic; finish the campaign, or merge with allow_partial "
          "(--allow-partial) for an explicitly degraded report");
    }
  }

  // Sequential-verdict decisions. A decision record makes recorded-runs <
  // header total_runs legal: the campaign stopped issuing seeds once the
  // verdict crossed a boundary. FaultCampaign::run and run_sharded_campaign
  // both refuse SMC with shard_count > 1, so a decision in a multi-shard
  // fleet can only mean journal corruption or a hand-mixed layout — refuse.
  std::size_t expected_end = out.runs;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    if (!shards[s].decision) continue;
    if (out.shard_count > 1) {
      throw_merge_bad("shard journal '" + paths[s] +
                      "' carries a sequential-verdict decision record but "
                      "declares " + std::to_string(out.shard_count) +
                      " shards — sequential campaigns are single-shard, so "
                      "this journal is corrupt or hand-mixed");
    }
    if (shards.size() > 1) {
      throw_merge_bad("shard journal '" + paths[s] +
                      "' carries a sequential-verdict decision record but " +
                      std::to_string(shards.size()) +
                      " journals were given — a decided campaign is one "
                      "journal, so this set is hand-mixed");
    }
    out.decision = shards[s].decision;
    expected_end = std::min(
        static_cast<std::size_t>(out.decision->executed), out.runs);
  }

  // Fold records into global slots. An early-stopped campaign only owes
  // records for the runs it executed: completeness (and the degraded-merge
  // bookkeeping) is judged over [0, expected_end), so the merge is
  // byte-identical to the early-stopped single-process campaign.
  RecordFold fold(expected_end);
  for (JournalContents& shard : shards) {
    fold.add(shard, static_cast<std::size_t>(shard.header.shard_begin));
  }
  const std::vector<bool>& done = fold.done;
  std::size_t missing = 0;
  std::string span_list;
  std::size_t n_spans = 0;
  for (std::size_t i = 0; i < expected_end; ++i) {
    if (done[i]) continue;
    std::size_t j = i;
    while (j < expected_end && !done[j]) ++j;
    missing += j - i;
    ++n_spans;
    if (n_spans <= 8) {
      if (!span_list.empty()) span_list += ", ";
      span_list += "[" + std::to_string(i) + ", " + std::to_string(j) + ")";
    }
    i = j;  // the slot at j is recorded (or the end); the ++ skips it
  }
  if (missing > 0) {
    if (!opts.allow_partial) {
      // Every missing span in one message: one fix-up pass, not N.
      throw_merge_incomplete(
          std::to_string(missing) + " of " + std::to_string(expected_end) +
          " runs have no record (missing global spans: " + span_list +
          (n_spans > 8
               ? ", … " + std::to_string(n_spans - 8) + " more spans"
               : "") +
          ") — finish the campaign (workers re-claim incomplete units) "
          "before merging, or merge with allow_partial (--allow-partial) "
          "for an explicitly degraded report");
    }
    out.complete = false;
    out.missing_records = missing;
  }
  out.results = fold.take();
  out.recorded_runs = out.results.size();
  return out;
}

MergedCampaign merge_shard_dir(const std::string& dir,
                               const MergeOptions& opts) {
  std::vector<std::pair<std::size_t, std::string>> found;
  // (shard, name, tombstone path).
  std::vector<std::tuple<std::size_t, std::string, std::string>> tombs;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    std::size_t shard = 0, count = 0;
    int consumed = 0;
    if (std::sscanf(name.c_str(), "shard_%zu_of_%zu.journal%n", &shard,
                    &count, &consumed) == 2 &&
        static_cast<std::size_t>(consumed) == name.size()) {
      found.emplace_back(shard, entry.path().string());
    }
    consumed = 0;
    if (std::sscanf(name.c_str(), "shard_%zu_of_%zu.quarantined%n", &shard,
                    &count, &consumed) == 2 &&
        static_cast<std::size_t>(consumed) == name.size()) {
      tombs.emplace_back(shard,
                         "shard " + std::to_string(shard) + "/" +
                             std::to_string(count),
                         entry.path().string());
    }
  }
  if (ec) {
    throw_merge_bad("cannot scan shard directory '" + dir +
                    "': " + ec.message());
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [shard, path] : found) paths.push_back(std::move(path));
  std::sort(tombs.begin(), tombs.end());
  if (!tombs.empty() && !opts.allow_partial) {
    // Every quarantined unit in one refusal, so the operator sees the whole
    // damage at once.
    std::string list;
    for (const auto& [shard, name, path] : tombs) {
      if (!list.empty()) list += "; ";
      list += name + " ('" + path + "')";
    }
    throw_merge_incomplete(
        std::to_string(tombs.size()) +
        " quarantined unit(s) never complete: " + list +
        " — merge with allow_partial (--allow-partial) for an explicitly "
        "degraded report over the completed units");
  }
  if (paths.empty()) {
    std::string what = "no shard journals (shard_<i>_of_<N>.journal) in '" +
                       dir + "'";
    if (!tombs.empty()) {
      what += " (" + std::to_string(tombs.size()) +
              " quarantined tombstones, but nothing recorded to merge)";
    }
    throw_merge_incomplete(what);
  }
  MergedCampaign out = merge_journals(paths, opts);
  for (auto& [shard, name, path] : tombs) {
    QuarantinedUnit q;
    q.index = shard;
    q.name = name;
    read_lease_info(path, &q.info);
    out.quarantined.push_back(std::move(q));
  }
  if (!out.quarantined.empty()) out.complete = false;
  return out;
}

// ---- sweep merge -----------------------------------------------------------

const char* to_string(CellState s) {
  switch (s) {
    case CellState::kComplete: return "complete";
    case CellState::kPartial: return "partial";
    case CellState::kMissing: return "missing";
    case CellState::kQuarantined: return "quarantined";
  }
  return "?";
}

MergedSweep merge_sweep_dir(const std::string& dir, const MergeOptions& opts) {
  MergedSweep out;
  out.manifest = read_sweep_manifest(dir);
  const std::size_t cells = out.manifest.cells();
  const std::size_t runs = out.manifest.runs;
  out.cells.resize(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    MergedSweepCell& cell = out.cells[c];
    cell.index = c;
    cell.mapping = out.manifest.cell_mapping(c);
    cell.scenario = out.manifest.cell_scenario(c);
    cell.runs = runs;
    const std::string jpath = cell_journal_path(dir, c, cells);

    LeaseInfo qinfo;
    const bool is_quarantined =
        read_lease_info(cell_quarantine_path(dir, c, cells), &qinfo);
    if (is_quarantined) {
      cell.state = CellState::kQuarantined;
      cell.error = quarantine_summary(qinfo);
    }

    if (!file_exists(jpath)) {
      if (!is_quarantined) cell.state = CellState::kMissing;
      continue;
    }
    JournalContents jc;
    try {
      jc = read_journal(jpath);
    } catch (const SimError& e) {
      // Another format version is a wrong sweep, refused even in partial
      // mode like the identity checks below.
      if (e.kind() == SimError::Kind::kShardVersionMismatch) throw;
      // Unreadable journal: salvage nothing from this cell, but a merge
      // probe must not abort the whole sweep over one torn header — the
      // cell simply reports as partial (or stays quarantined) with the
      // reader's complaint attached.
      if (!is_quarantined) {
        cell.state = CellState::kPartial;
        cell.error = e.what();
      }
      continue;
    }
    // Identity refusals hold even in partial mode: a cell journal that
    // disagrees with the manifest belongs to a different sweep.
    const JournalHeader& h = jc.header;
    if (h.base_seed != out.manifest.base_seed ||
        h.runs != out.manifest.runs ||
        h.scenario_digest != out.manifest.scenario_digest ||
        h.tag != out.manifest.cell_tag(c)) {
      throw_merge_bad(
          "cell journal '" + jpath + "' (tag '" + h.tag + "', seed " +
          std::to_string(h.base_seed) + ", " + std::to_string(h.runs) +
          " runs, digest " + std::to_string(h.scenario_digest) +
          ") disagrees with the sweep manifest (tag '" +
          out.manifest.cell_tag(c) + "', seed " +
          std::to_string(out.manifest.base_seed) + ", " +
          std::to_string(out.manifest.runs) + " runs, digest " +
          std::to_string(out.manifest.scenario_digest) +
          ") — this journal belongs to a different sweep");
    }
    // A sequential-verdict decision shrinks what the cell owes: it executed
    // only `decision->executed` runs before the verdict crossed a boundary,
    // so completeness is judged over that prefix and cell.runs reports it.
    std::size_t cell_end = runs;
    if (jc.decision) {
      cell.decision = jc.decision;
      cell_end = std::min(
          static_cast<std::size_t>(jc.decision->executed), runs);
      cell.runs = cell_end;
    }
    RecordFold fold(cell_end);
    fold.add(jc, 0);
    cell.records = fold.recorded;
    if (!is_quarantined) {
      cell.state = fold.complete() ? CellState::kComplete : CellState::kPartial;
    }
    cell.results = fold.take();
  }

  std::size_t n_complete = 0;
  for (const MergedSweepCell& cell : out.cells) {
    if (cell.state == CellState::kComplete) ++n_complete;
  }
  out.complete = n_complete == cells;
  if (!out.complete && !opts.allow_partial) {
    // Every incomplete cell in one refusal: a sweep operator re-runs the
    // fleet once, not once per cell discovered.
    std::string list;
    std::size_t listed = 0;
    for (const MergedSweepCell& cell : out.cells) {
      if (cell.state == CellState::kComplete) continue;
      ++listed;
      if (listed > 16) continue;
      if (!list.empty()) list += "; ";
      list += cell.mapping + "/" + cell.scenario + " " +
              to_string(cell.state) + " (" + std::to_string(cell.records) +
              "/" + std::to_string(cell.runs) + " runs)";
    }
    throw_merge_incomplete(
        std::to_string(cells - n_complete) + " of " + std::to_string(cells) +
        " sweep cells are incomplete: " + list +
        (listed > 16 ? "; … " + std::to_string(listed - 16) + " more" : "") +
        " — finish the fleet, or merge with allow_partial "
        "(--allow-partial) for an explicitly degraded report");
  }
  return out;
}

std::size_t MergedSweep::complete_cells() const {
  std::size_t n = 0;
  for (const MergedSweepCell& c : cells) {
    if (c.state == CellState::kComplete) ++n;
  }
  return n;
}

std::size_t MergedSweep::quarantined_cells() const {
  std::size_t n = 0;
  for (const MergedSweepCell& c : cells) {
    if (c.state == CellState::kQuarantined) ++n;
  }
  return n;
}

CampaignSweep MergedSweep::to_sweep() const {
  std::vector<CampaignSweep::Cell> out;
  out.reserve(cells.size());
  for (const MergedSweepCell& c : cells) {
    if (c.state != CellState::kComplete) continue;
    FaultCampaign campaign(c.results);
    if (c.decision) {
      campaign.set_smc_verdict(c.decision->spec, c.decision->verdict);
    }
    out.push_back(CampaignSweep::Cell{c.mapping, c.scenario,
                                      campaign.report()});
  }
  return CampaignSweep(manifest.mappings, manifest.scenarios, std::move(out));
}

void MergedSweep::print(std::ostream& os) const {
  if (!complete) {
    std::size_t n_partial = 0, n_missing = 0;
    for (const MergedSweepCell& c : cells) {
      if (c.state == CellState::kPartial) ++n_partial;
      if (c.state == CellState::kMissing) ++n_missing;
    }
    os << "DEGRADED sweep merge: " << complete_cells() << " of "
       << cells.size() << " cells complete (" << n_partial << " partial, "
       << n_missing << " missing, " << quarantined_cells()
       << " quarantined) — statistics cover recorded runs only\n";
  }
  to_sweep().print(os);
  if (complete) return;
  for (const MergedSweepCell& c : cells) {
    if (c.state == CellState::kComplete) continue;
    os << "  cell " << c.mapping << "/" << c.scenario << ": ";
    switch (c.state) {
      case CellState::kPartial:
        os << "partial — " << c.records << " of " << c.runs
           << " runs recorded";
        if (!c.error.empty()) os << " (" << c.error << ")";
        break;
      case CellState::kMissing:
        os << "missing — no journal recorded";
        break;
      case CellState::kQuarantined:
        os << (c.error.empty() ? "quarantined" : c.error);
        if (c.records > 0) {
          os << " (" << c.records << " of " << c.runs << " runs salvaged)";
        }
        break;
      case CellState::kComplete:
        break;
    }
    os << '\n';
  }
}

void MergedSweep::write_csv(std::ostream& os) const {
  if (complete) {
    // Byte-identical to the uninterrupted single-process sweep CSV.
    to_sweep().write_csv(os);
    return;
  }
  // Degraded CSV: the normal columns over whatever each cell recorded, plus
  // completeness columns so no downstream reader can mistake a partial grid
  // for a finished one. Every cell appears, in grid order.
  os << "mapping,scenario,runs,failed_runs,deadline_total,deadline_missed,"
        "miss_rate,miss_rate_ci95,mean_makespan_ns,mean_energy_pj,"
        "mean_fault_energy_pj,records,expected_runs,state\n";
  for (const MergedSweepCell& c : cells) {
    FaultCampaign campaign(c.results);
    if (c.decision) {
      campaign.set_smc_verdict(c.decision->spec, c.decision->verdict);
    }
    const CampaignReport rep = campaign.report();
    os << c.mapping << ',' << c.scenario << ',' << rep.runs << ','
       << rep.failed_runs << ',' << rep.deadline_total << ','
       << rep.deadline_missed << ',' << rep.miss_rate << ','
       << rep.miss_rate_ci95 << ',' << rep.makespan_ns.mean << ','
       << rep.mean_energy_pj << ',' << rep.mean_fault_energy_pj << ','
       << c.records << ',' << c.runs << ',' << to_string(c.state) << '\n';
  }
}

// ---- read-only fleet status ------------------------------------------------

const char* to_string(ShardStatusEntry::State s) {
  switch (s) {
    case ShardStatusEntry::State::kDone: return "done";
    case ShardStatusEntry::State::kClaimed: return "claimed";
    case ShardStatusEntry::State::kStale: return "stale";
    case ShardStatusEntry::State::kQuarantined: return "quarantined";
    case ShardStatusEntry::State::kUnclaimed: return "unclaimed";
  }
  return "?";
}

namespace {

/// Classifies one unit from its three files. Pure observation: stat() and
/// read() only — a status probe must never perturb the fleet it watches.
ShardStatusEntry unit_status(std::size_t index, const std::string& name,
                             const std::string& journal,
                             const std::string& lease,
                             const std::string& quarantine, std::size_t runs,
                             std::uint64_t lease_ttl_ms) {
  ShardStatusEntry e;
  e.index = index;
  e.name = name;
  e.runs = runs;
  const UnitProgress progress = probe_unit(journal, runs);
  e.records = progress.recorded;

  LeaseInfo qinfo;
  if (read_lease_info(quarantine, &qinfo)) {
    e.state = ShardStatusEntry::State::kQuarantined;
    e.owner = qinfo.owner;
    e.adoptions = qinfo.adoptions;
    e.error = qinfo.error;
    return e;
  }
  if (runs > 0 && progress.complete()) {
    e.state = ShardStatusEntry::State::kDone;
    return e;
  }
  LeaseInfo linfo;
  std::uint64_t mtime = 0;
  if (read_lease_info(lease, &linfo) && lease_mtime_ms(lease, &mtime)) {
    const std::uint64_t now = wall_now_ms();
    e.state = lease_alive(mtime, now, lease_ttl_ms)
                  ? ShardStatusEntry::State::kClaimed
                  : ShardStatusEntry::State::kStale;
    e.owner = linfo.owner;
    e.adoptions = linfo.adoptions;
    e.error = linfo.error;
    e.heartbeat_age_ms = static_cast<std::int64_t>(now) -
                         static_cast<std::int64_t>(mtime);
    return e;
  }
  e.state = runs == 0 ? ShardStatusEntry::State::kDone
                      : ShardStatusEntry::State::kUnclaimed;
  return e;
}

void tally(FleetStatus* st, const ShardStatusEntry& e) {
  switch (e.state) {
    case ShardStatusEntry::State::kDone: ++st->done; break;
    case ShardStatusEntry::State::kClaimed: ++st->claimed; break;
    case ShardStatusEntry::State::kStale: ++st->stale; break;
    case ShardStatusEntry::State::kQuarantined: ++st->quarantined; break;
    case ShardStatusEntry::State::kUnclaimed: ++st->unclaimed; break;
  }
  st->records += e.records;
  st->runs += e.runs;
}

}  // namespace

FleetStatus fleet_status(const std::string& dir, std::uint64_t lease_ttl_ms) {
  // Layout authority: the fleet manifest, like every worker.
  const FleetManifest m = read_fleet_manifest(dir);
  FleetStatus st;
  st.units = m.shard_count;
  st.entries.reserve(m.shard_count);
  for (std::size_t i = 0; i < m.shard_count; ++i) {
    ShardStatusEntry e = unit_status(
        i, "shard " + std::to_string(i) + "/" + std::to_string(m.shard_count),
        shard_journal_path(dir, i, m.shard_count),
        shard_lease_path(dir, i, m.shard_count),
        shard_quarantine_path(dir, i, m.shard_count),
        shard_range(i, m.shard_count, m.total_runs).size(), lease_ttl_ms);
    tally(&st, e);
    st.entries.push_back(std::move(e));
  }
  return st;
}

FleetStatus sweep_fleet_status(const std::string& dir,
                               std::uint64_t lease_ttl_ms) {
  const SweepManifest manifest = read_sweep_manifest(dir);
  const std::size_t cells = manifest.cells();
  FleetStatus st;
  st.units = cells;
  st.entries.reserve(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    ShardStatusEntry e = unit_status(
        c, manifest.cell_mapping(c) + "/" + manifest.cell_scenario(c),
        cell_journal_path(dir, c, cells), cell_lease_path(dir, c, cells),
        cell_quarantine_path(dir, c, cells), manifest.runs, lease_ttl_ms);
    tally(&st, e);
    st.entries.push_back(std::move(e));
  }
  return st;
}

void print_fleet_status(std::ostream& os, const FleetStatus& st) {
  os << "fleet: " << st.units << " units — " << st.done << " done, "
     << st.claimed << " claimed, " << st.stale << " stale, " << st.quarantined
     << " quarantined, " << st.unclaimed << " unclaimed";
  if (st.runs > 0) os << "; runs " << st.records << "/" << st.runs;
  if (st.fleet_done()) os << " — fleet done";
  os << '\n';
  std::size_t name_w = 4;
  for (const ShardStatusEntry& e : st.entries) {
    name_w = std::max(name_w, e.name.size());
  }
  for (const ShardStatusEntry& e : st.entries) {
    os << "  [" << std::setw(3) << e.index << "] " << std::left
       << std::setw(static_cast<int>(name_w) + 2) << e.name << std::right
       << std::setw(12) << to_string(e.state) << "  " << e.records << "/"
       << e.runs;
    if (e.state == ShardStatusEntry::State::kClaimed ||
        e.state == ShardStatusEntry::State::kStale) {
      os << "  owner '" << e.owner << "'";
      if (e.heartbeat_age_ms >= 0) {
        os << "  heartbeat " << e.heartbeat_age_ms << " ms ago";
      } else {
        os << "  heartbeat " << -e.heartbeat_age_ms
           << " ms in the future (clock skew)";
      }
      if (e.adoptions > 0) os << "  adoptions " << e.adoptions;
    } else if (e.state == ShardStatusEntry::State::kQuarantined) {
      os << "  last owner '" << e.owner << "'  adoptions " << e.adoptions;
    }
    if (!e.error.empty()) os << "  error: " << e.error;
    os << '\n';
  }
}

}  // namespace sctrace
