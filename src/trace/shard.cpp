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
#include <functional>
#include <iomanip>
#include <iterator>
#include <optional>
#include <ostream>
#include <sstream>
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

/// fsyncs the directory holding `path`, which makes an entry created or
/// renamed there survive a host crash. False (errno set) on failure.
bool sync_parent_dir(const std::string& path) {
  const std::string dir = std::filesystem::path(path).parent_path().string();
  const int fd =
      ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const int rc = ::fsync(fd);
  const int saved_errno = errno;
  ::close(fd);
  errno = saved_errno;
  return rc == 0;
}

/// Creates `path` holding `content` and makes it durable; on failure it
/// unlinks the file and throws kIoError, so a failed claim holds nothing.
///
/// With `exclusive` the create is O_EXCL — the atomic "exactly one winner"
/// claim (fresh leases, adoption markers) — and returns false when the path
/// already exists. A claim is its name, so the directory is fsynced and the
/// file is not: after a host crash the file holds `content` or is empty, a
/// lease reads as generation 0 either way, and a marker only has to exist.
/// Its data block is never committed, which keeps the unlink that releases
/// the claim cheap: where freeing a committed block is slow (ext4 mounted
/// with online discard), unlinking a fsynced file waits tens of
/// milliseconds and an unsynced one microseconds.
///
/// Otherwise `path` is a private temp file, truncated and fsynced, so the
/// rename or link that publishes it can never expose a torn file after a
/// crash.
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
  if (failed == nullptr) {
    if (exclusive && !sync_parent_dir(path)) failed = "fsync of its directory";
    if (!exclusive && ::fsync(fd) != 0) failed = "fsync";
  }
  const int saved_errno = errno;
  ::close(fd);
  if (failed == nullptr) return true;
  ::unlink(path.c_str());
  errno = saved_errno;
  throw_io(path, failed);
}

/// Write-then-rename: readers see the old content or the new, never a torn
/// mix. Used for adoptions, lease error records and quarantine tombstones;
/// the directory is fsynced after the rename, so a host crash cannot lose
/// an adoption's counter step, which caps how often an input that kills its
/// host is retried.
void write_file_atomic(const std::string& path, const std::string& content,
                       const std::string& tmp_tag) {
  const std::string tmp = path + ".tmp-" + tmp_tag;
  create_synced_file(tmp, content, /*exclusive=*/false);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw_io(path, "rename");
  }
  if (!sync_parent_dir(path)) throw_io(path, "fsync of its directory");
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

/// "<dir>/<kind>_<i>_of_<n><ext>": the unit count is in every name, so the
/// files of one layout can never be mistaken for those of another.
std::string unit_file(const std::string& dir, const char* kind,
                      std::size_t index, std::size_t count, const char* ext) {
  return dir + "/" + kind + "_" + std::to_string(index) + "_of_" +
         std::to_string(count) + ext;
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
  return unit_file(dir, "shard", shard, shard_count, ".journal");
}

std::string shard_lease_path(const std::string& dir, std::size_t shard,
                             std::size_t shard_count) {
  return unit_file(dir, "shard", shard, shard_count, ".lease");
}

std::string shard_quarantine_path(const std::string& dir, std::size_t shard,
                                  std::size_t shard_count) {
  return unit_file(dir, "shard", shard, shard_count, ".quarantined");
}

std::string cell_journal_path(const std::string& dir, std::size_t cell,
                              std::size_t cell_count) {
  return unit_file(dir, "cell", cell, cell_count, ".journal");
}

std::string cell_lease_path(const std::string& dir, std::size_t cell,
                            std::size_t cell_count) {
  return unit_file(dir, "cell", cell, cell_count, ".lease");
}

std::string cell_quarantine_path(const std::string& dir, std::size_t cell,
                                 std::size_t cell_count) {
  return unit_file(dir, "cell", cell, cell_count, ".quarantined");
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
  const auto marker_name = [&](std::size_t k) {
    return k == 0 ? marker_base : marker_base + "." + std::to_string(k);
  };
  std::size_t taken = 0;
  while (!create_synced_file(marker_name(taken), worker_id + "\n",
                             /*exclusive=*/true)) {
    std::uint64_t marker_mtime = 0;
    if (!lease_mtime_ms(marker_name(taken), &marker_mtime) ||
        lease_alive(marker_mtime, wall_now_ms(), lease_ttl_ms)) {
      throw_conflict(path, "stale, but another worker is adopting it");
    }
    ++taken;
  }
  const std::string marker = marker_name(taken);
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
    // The markers passed over above are stale. A holder that wakes up
    // fails its re-check against the replaced lease without touching it,
    // and the next adoption takes generation adoptions + 2's series.
    for (std::size_t k = 0; k < taken; ++k) ::unlink(marker_name(k).c_str());
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

// ---- manifests -------------------------------------------------------------

namespace {

constexpr const char* kFleetManifestMagic = "scperf-fleet v1";
constexpr const char* kSweepManifestMagic = "scperf-sweep v1";

std::string fleet_manifest_path(const std::string& dir) {
  return dir + "/fleet.manifest";
}

std::string sweep_manifest_path(const std::string& dir) {
  return dir + "/sweep.manifest";
}

/// The one manifest format, shared by fleet.manifest and sweep.manifest: a
/// magic line, then one "key value" line per entry, in order.
using ManifestLines = std::vector<std::pair<std::string, std::string>>;

std::string format_manifest(const char* magic, const ManifestLines& lines) {
  std::string s = std::string(magic) + "\n";
  for (const auto& [key, value] : lines) s += key + " " + value + "\n";
  return s;
}

[[noreturn]] void throw_manifest_corrupt(const std::string& path,
                                         const std::string& why) {
  throw SimError(SimError::Kind::kJournalCorrupt,
                 "manifest '" + path + "': " + why);
}

/// Reads the manifest at `path` through `set`, which takes one key and its
/// value and returns false for a key it does not know. Throws
/// kMergeIncomplete when the file does not exist (`missing` says what that
/// means) and kJournalCorrupt for a wrong magic line or a line `set`
/// refuses. A bare "tag" line is the empty tag with its space trimmed.
void read_manifest(
    const std::string& path, const char* magic, const char* missing,
    const std::function<bool(const std::string&, const std::string&)>& set) {
  if (!file_exists(path)) {
    throw SimError(SimError::Kind::kMergeIncomplete,
                   "manifest '" + path + "' does not exist — " + missing);
  }
  std::istringstream in(read_whole_file(path));
  std::string line;
  if (!std::getline(in, line) || line != magic) {
    throw_manifest_corrupt(path, "bad magic line '" + line + "'");
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t sp = line.find(' ');
    const bool bare = sp == std::string::npos;
    if ((bare && line != "tag") ||
        !set(line.substr(0, sp), bare ? "" : line.substr(sp + 1))) {
      throw_manifest_corrupt(path, "unrecognised line '" + line + "'");
    }
  }
}

std::uint64_t to_u64(const std::string& value) {
  return std::strtoull(value.c_str(), nullptr, 10);
}

std::string format_fleet_manifest(const FleetManifest& m) {
  return format_manifest(kFleetManifestMagic,
                         {{"base_seed", std::to_string(m.base_seed)},
                          {"total_runs", std::to_string(m.total_runs)},
                          {"shard_count", std::to_string(m.shard_count)},
                          {"digest", std::to_string(m.scenario_digest)},
                          {"tag", m.tag}});
}

std::string format_sweep_manifest(const SweepManifest& m) {
  ManifestLines lines = {{"base_seed", std::to_string(m.base_seed)},
                         {"runs", std::to_string(m.runs)},
                         {"digest", std::to_string(m.scenario_digest)},
                         {"tag", m.tag}};
  for (const std::string& name : m.mappings) lines.emplace_back("mapping", name);
  for (const std::string& name : m.scenarios) {
    lines.emplace_back("scenario", name);
  }
  return format_manifest(kSweepManifestMagic, lines);
}

/// First-writer-wins pinned-file creation: the content is written to a
/// private tmp file (fsynced) and link()ed into place — link fails with
/// EEXIST if the file already exists, and because the final name appears
/// atomically a losing worker can never read a torn file. The winner then
/// fsyncs the directory, so a host crash cannot keep a fleet's journals and
/// lose the manifest they were written under. Shared by the fleet and sweep
/// manifests.
bool create_pinned_file(const std::string& path, const std::string& content,
                        const std::string& tmp_tag) {
  const std::string tmp = path + ".tmp-" + tmp_tag;
  create_synced_file(tmp, content, /*exclusive=*/false);
  const int rc = ::link(tmp.c_str(), path.c_str());
  const int saved_errno = errno;
  ::unlink(tmp.c_str());
  if (rc == 0) {
    if (!sync_parent_dir(path)) throw_io(path, "fsync of its directory");
    return true;
  }
  if (saved_errno == EEXIST) return false;
  errno = saved_errno;
  throw_io(path, "link");
}

}  // namespace

FleetManifest read_fleet_manifest(const std::string& dir) {
  FleetManifest m;
  const std::string path = fleet_manifest_path(dir);
  read_manifest(path, kFleetManifestMagic,
                "no fleet ever pinned a layout in this directory",
                [&m](const std::string& key, const std::string& value) {
                  if (key == "base_seed") {
                    m.base_seed = to_u64(value);
                  } else if (key == "total_runs") {
                    m.total_runs = to_u64(value);
                  } else if (key == "shard_count") {
                    m.shard_count = to_u64(value);
                  } else if (key == "digest") {
                    m.scenario_digest = to_u64(value);
                  } else if (key == "tag") {
                    m.tag = value;
                  } else {
                    return false;
                  }
                  return true;
                });
  if (m.shard_count == 0) throw_manifest_corrupt(path, "zero shard_count");
  return m;
}

std::string SweepManifest::cell_tag(std::size_t cell) const {
  const std::string& m = cell_mapping(cell);
  const std::string& s = cell_scenario(cell);
  return tag.empty() ? m + "/" + s : tag + ":" + m + "/" + s;
}

SweepManifest read_sweep_manifest(const std::string& dir) {
  SweepManifest m;
  const std::string path = sweep_manifest_path(dir);
  read_manifest(path, kSweepManifestMagic,
                "no sweep fleet ever started in this directory",
                [&m](const std::string& key, const std::string& value) {
                  if (key == "base_seed") {
                    m.base_seed = to_u64(value);
                  } else if (key == "runs") {
                    m.runs = to_u64(value);
                  } else if (key == "digest") {
                    m.scenario_digest = to_u64(value);
                  } else if (key == "tag") {
                    m.tag = value;
                  } else if (key == "mapping") {
                    m.mappings.push_back(value);
                  } else if (key == "scenario") {
                    m.scenarios.push_back(value);
                  } else {
                    return false;
                  }
                  return true;
                });
  if (m.mappings.empty() || m.scenarios.empty()) {
    throw_manifest_corrupt(path, "no mappings or no scenarios");
  }
  return m;
}

// ---- the unit table --------------------------------------------------------

namespace {

/// One lease-claimable work unit of a pinned layout — a campaign shard or a
/// sweep cell: one lease, one journal, one quarantine tombstone, and the
/// header its journal must carry. Workers, merges and status all walk the
/// same table, built from the manifest alone.
struct Unit {
  std::size_t index = 0;
  std::string name;  ///< "shard 2/4" or "mapping/scenario"
  std::string journal;
  std::string lease;
  std::string quarantine;
  JournalHeader header;  ///< the unit's identity
};

Unit make_unit(const std::string& dir, const char* kind, std::size_t index,
               std::size_t count, std::string name) {
  Unit u;
  u.index = index;
  u.name = std::move(name);
  u.journal = unit_file(dir, kind, index, count, ".journal");
  u.lease = unit_file(dir, kind, index, count, ".lease");
  u.quarantine = unit_file(dir, kind, index, count, ".quarantined");
  return u;
}

/// Every shard of a pinned campaign layout: shard i covers the canonical
/// shard_range slot i, so the units tile the campaign in seed order.
std::vector<Unit> campaign_units(const std::string& dir,
                                 const FleetManifest& m) {
  std::vector<Unit> units;
  for (std::size_t i = 0; i < m.shard_count; ++i) {
    const ShardRange range = shard_range(i, m.shard_count, m.total_runs);
    Unit u = make_unit(dir, "shard", i, m.shard_count,
                       "shard " + std::to_string(i) + "/" +
                           std::to_string(m.shard_count));
    u.header.base_seed = m.base_seed + range.begin;
    u.header.runs = range.size();
    u.header.scenario_digest = m.scenario_digest;
    u.header.tag = m.tag;
    units.push_back(std::move(u));
  }
  return units;
}

/// Every cell of a pinned sweep grid, in grid order. A cell is a whole
/// single-shard campaign over the common seeds; its identity is its tag.
std::vector<Unit> sweep_units(const std::string& dir, const SweepManifest& m) {
  std::vector<Unit> units;
  for (std::size_t c = 0; c < m.cells(); ++c) {
    Unit u = make_unit(dir, "cell", c, m.cells(),
                       m.cell_mapping(c) + "/" + m.cell_scenario(c));
    u.header.base_seed = m.base_seed;
    u.header.runs = m.runs;
    u.header.scenario_digest = m.scenario_digest;
    u.header.tag = m.cell_tag(c);
    units.push_back(std::move(u));
  }
  return units;
}

/// What one read of a unit's files found. Never throws: status and the
/// claim pass must not fail on a racing writer, and each merge decides
/// which findings refuse. Records are placed by index in [0, owed), where
/// an early-stopped unit owes only the runs its decision record covers; a
/// later record for a slot replaces an earlier one, like journal resume
/// (duplicates are bit-identical re-runs of a deterministic seed).
struct UnitRead {
  bool quarantined = false;
  LeaseInfo tomb;       ///< the tombstone's record, when quarantined
  bool exists = false;  ///< the journal file exists
  std::optional<SimError> error;  ///< the journal does not read
  std::string foreign;  ///< identity_mismatch against the unit's header
  std::optional<JournalDecision> decision;
  std::vector<CampaignRunResult> slots;  ///< owed slots, filled where done
  std::vector<bool> done;
  std::size_t recorded = 0;  ///< distinct slots holding a record

  /// A journal whose header is not its unit's never counts as complete.
  bool complete() const {
    return !error && foreign.empty() && recorded == slots.size();
  }

  /// The recorded runs in seed order, compacted over the missing slots —
  /// deterministic for any worker interleaving and thread count.
  std::vector<CampaignRunResult> take() {
    if (recorded == slots.size()) return std::move(slots);
    std::vector<CampaignRunResult> out;
    out.reserve(recorded);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (done[i]) out.push_back(std::move(slots[i]));
    }
    return out;
  }
};

UnitRead read_unit(const Unit& u) {
  UnitRead r;
  r.quarantined = read_lease_info(u.quarantine, &r.tomb);
  r.exists = file_exists(u.journal);
  std::vector<JournalRecord> records;
  if (r.exists) {
    try {
      JournalContents jc = read_journal(u.journal);
      r.foreign = identity_mismatch(jc.header, u.header);
      if (r.foreign.empty()) {
        r.decision = jc.decision;
        records = std::move(jc.records);
      }
    } catch (const SimError& e) {
      r.error.emplace(e);
    }
  }
  std::size_t owed = u.header.runs;
  if (r.decision) {
    owed = std::min(static_cast<std::size_t>(r.decision->executed), owed);
  }
  r.slots.resize(owed);
  r.done.assign(owed, false);
  for (JournalRecord& rec : records) {
    if (rec.index >= owed) continue;  // past an early stop's decision
    if (!r.done[rec.index]) ++r.recorded;
    r.done[rec.index] = true;
    r.slots[rec.index] = std::move(rec.result);
  }
  return r;
}

/// read_unit for a merge. A journal of another format version or of
/// another unit's identity is refused even in partial mode — a wrong
/// fleet, not an unfinished one.
UnitRead read_for_merge(const Unit& u) {
  UnitRead r = read_unit(u);
  if (r.error && r.error->kind() == SimError::Kind::kShardVersionMismatch) {
    throw *r.error;
  }
  if (!r.foreign.empty()) {
    throw_merge_bad("journal '" + u.journal + "' does not carry " + u.name +
                    "'s identity: " + r.foreign +
                    " — it belongs to another fleet or layout");
  }
  return r;
}

/// The merge's report of one unit read. A unit that owes no runs is
/// complete without a journal, as the workers and fleet_status see it.
MergedUnit merged_unit(const Unit& u, const UnitRead& r) {
  MergedUnit m;
  m.index = u.index;
  m.name = u.name;
  m.state = r.quarantined  ? UnitState::kQuarantined
            : r.complete() ? UnitState::kComplete
            : r.exists     ? UnitState::kPartial
                           : UnitState::kMissing;
  m.records = r.recorded;
  m.runs = r.slots.size();
  m.tomb = r.tomb;
  if (r.quarantined) {
    m.error = quarantine_summary(r.tomb);
  } else if (r.error) {
    m.error = r.error->what();
  }
  return m;
}

/// Both merges' one refusal of an unfinished fleet: every unit that is not
/// complete in one message (the first 16 by name), so the operator re-runs
/// the fleet once, not once per unit discovered. `noun` names the units
/// ("shards", "sweep cells").
template <typename Units>
void refuse_unfinished(const Units& units, const char* noun) {
  std::string list;
  std::size_t open = 0;
  for (const MergedUnit& u : units) {
    if (u.state == UnitState::kComplete) continue;
    if (++open > 16) continue;
    if (!list.empty()) list += "; ";
    list += u.name + " " + to_string(u.state) + " (" +
            std::to_string(u.records) + "/" + std::to_string(u.runs) +
            " runs)";
  }
  if (open == 0) return;
  throw_merge_incomplete(
      std::to_string(open) + " of " + std::to_string(units.size()) + " " +
      noun + " are incomplete: " + list +
      (open > 16 ? "; … " + std::to_string(open - 16) + " more" : "") +
      " — finish the fleet, or merge with allow_partial (--allow-partial) "
      "for an explicitly degraded report");
}

// ---- generic fleet worker loop ---------------------------------------------

/// The self-healing claim/run/adopt/quarantine loop shared by
/// run_sharded_campaign and run_sharded_sweep, over the units of the pinned
/// layout (fns[i] runs unit i's seeds). Per pass over the units (starting
/// at the worker's preferred one, then roaming): skip tombstoned and
/// complete units, claim the rest, execute claimed ones as journaled+resumed
/// campaigns under the unit's identity, and classify every failure —
///
///   - LeaseLostError: the shard was adopted away (we stalled past the
///     TTL); abort it, the adopter owns the journal now.
///   - kJournalCorrupt: heal — delete the damaged journal and re-run the
///     whole unit under the lease we hold (runs are pure functions of
///     their seeds, so the fresh journal is bit-identical).
///   - any other SimError (kIoError from journal/heartbeat I/O, a journal
///     resume refuses, unhealable corruption): record the error in the lease
///     and abandon it — the lease goes stale, another worker adopts, and
///     the adoption counter quarantines the unit once every adopter has
///     failed. The worker stays alive for the rest of the fleet.
///
/// Exits when every unit is complete or quarantined (fleet_done); until
/// then it polls while peers hold the remaining leases.
ShardProgress run_fleet(const std::vector<Unit>& units,
                        const std::vector<FaultCampaign::RunFn>& fns,
                        const CampaignOptions& opts, const ShardOptions& shard,
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
      const Unit& unit = units[i];
      if (quarantined[i]) continue;
      const UnitRead probe = read_unit(unit);
      if (probe.quarantined) {
        quarantined[i] = true;  // terminal: skip without claiming
        continue;
      }
      if (probe.complete()) continue;
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
      if (read_unit(unit).complete()) {
        lease->release();
        progressed = true;
        continue;
      }

      CampaignOptions co = opts;
      co.journal_path = unit.journal;
      co.journal_tag = unit.header.tag;
      co.resume = true;  // adoption = resuming the dead worker's journal

      std::atomic<std::size_t> executed{0};
      ShardLease* held = lease.get();
      // Pre-append lease probe: a worker whose unit was adopted away must
      // abort BEFORE its next record lands in the adopter's journal.
      co.pre_append = [held](std::size_t) { held->assert_still_mine(); };

      const FaultCampaign::RunFn wrapped =
          [fn = &fns[i], &executed, held](std::uint64_t seed) {
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
            return (*fn)(seed);
          };

      const auto run_unit = [&] {
        FaultCampaign campaign(wrapped);
        campaign.run(unit.header.base_seed, unit.header.runs, co);
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

/// Creates the fleet directory and returns this worker's id: the given
/// one, or "w<shard_index>.pid<pid>".
std::string join_fleet(const ShardOptions& shard, const std::string& who) {
  if (shard.dir.empty()) {
    throw SimError(SimError::Kind::kBadConfig,
                   who + ": shard directory must be set");
  }
  std::filesystem::create_directories(shard.dir);
  return !shard.worker_id.empty()
             ? shard.worker_id
             : "w" + std::to_string(shard.shard_index) + ".pid" +
                   std::to_string(static_cast<long>(::getpid()));
}

}  // namespace

// ---- workers ---------------------------------------------------------------

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
  const std::string worker_id = join_fleet(shard, "run_sharded_campaign");

  // Pin (or verify) the layout before touching any shard: the manifest is
  // the single authority on {base_seed, total_runs, shard_count, digest,
  // tag}, and it never changes once pinned. Exactly one worker creates it;
  // everyone else compares and refuses on any difference — an explicit
  // worker with another shard count is told how to follow the pin instead.
  const FleetManifest mine{base_seed, total_runs, shard.shard_count,
                           opts.scenario_digest, opts.journal_tag};
  const auto other_campaign = [&](const FleetManifest& pinned) {
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
    if (!other_campaign(pinned) && pinned.shard_count != shard.shard_count) {
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
  if (other_campaign(pinned)) {
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
  const std::vector<Unit> units = campaign_units(shard.dir, pinned);
  return run_fleet(units, std::vector<FaultCampaign::RunFn>(units.size(), fn),
                   opts, shard, worker_id);
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
  const std::string worker_id = join_fleet(shard, "run_sharded_sweep");

  // Pin (or verify) the grid identity before touching any cell: every
  // worker of one fleet must agree on the grid, the seed, the run count and
  // the fault-model digest, or its cell journals would silently disagree
  // with everyone else's. Exactly one worker creates the manifest; the rest
  // compare and refuse on any difference.
  const SweepManifest manifest{base_seed,        n,        opts.scenario_digest,
                               opts.journal_tag, mappings, scenarios};
  const std::string text = format_sweep_manifest(manifest);
  if (!create_pinned_file(sweep_manifest_path(shard.dir), text, worker_id) &&
      format_sweep_manifest(read_sweep_manifest(shard.dir)) != text) {
    throw SimError(
        SimError::Kind::kBadConfig,
        "run_sharded_sweep: this worker's sweep (seed " +
            std::to_string(base_seed) + ", " + std::to_string(n) + " runs, " +
            std::to_string(mappings.size()) + "x" +
            std::to_string(scenarios.size()) + " grid, digest " +
            std::to_string(opts.scenario_digest) +
            ") disagrees with the manifest pinned in '" + shard.dir +
            "' — a worker from a different sweep would corrupt the fleet's "
            "cells");
  }
  const std::vector<Unit> units = sweep_units(shard.dir, manifest);
  std::vector<FaultCampaign::RunFn> fns;
  for (const Unit& u : units) {
    fns.push_back(factory(manifest.cell_mapping(u.index),
                          manifest.cell_scenario(u.index)));
  }
  return run_fleet(units, fns, opts, shard, worker_id);
}

// ---- merge ----------------------------------------------------------------

const char* to_string(UnitState s) {
  switch (s) {
    case UnitState::kComplete: return "complete";
    case UnitState::kPartial: return "partial";
    case UnitState::kMissing: return "missing";
    case UnitState::kQuarantined: return "quarantined";
  }
  return "?";
}

MergedCampaign merge_shard_dir(const std::string& dir,
                               const MergeOptions& opts) {
  const FleetManifest m = read_fleet_manifest(dir);
  MergedCampaign out;
  out.base_seed = m.base_seed;
  out.runs = m.total_runs;
  out.scenario_digest = m.scenario_digest;
  out.tag = m.tag;
  out.shard_count = m.shard_count;

  for (const Unit& u : campaign_units(dir, m)) {
    UnitRead r = read_for_merge(u);
    // An unreadable shard journal refuses too: a campaign merge has no
    // degraded form for a journal it cannot trust.
    if (r.error) throw *r.error;
    // run_sharded_campaign refuses SMC over more than one shard, so a
    // decision in a multi-shard fleet can only mean journal corruption or a
    // hand-mixed layout.
    if (r.decision && m.shard_count > 1) {
      throw_merge_bad("shard journal '" + u.journal +
                      "' carries a sequential-verdict decision record but "
                      "the manifest pins " + std::to_string(m.shard_count) +
                      " shards — sequential campaigns are single-shard, so "
                      "this journal is corrupt or hand-mixed");
    }
    out.units.push_back(merged_unit(u, r));
    if (out.units.back().state != UnitState::kComplete) out.complete = false;
    // The units tile the campaign in seed order, so their records
    // concatenate into global order. An early-stopped (single-shard)
    // campaign owes only the runs its decision covers, so the merge is
    // byte-identical to it.
    if (r.decision) out.decision = r.decision;
    std::vector<CampaignRunResult> part = r.take();
    out.results.insert(out.results.end(), std::make_move_iterator(part.begin()),
                       std::make_move_iterator(part.end()));
  }
  if (!opts.allow_partial) refuse_unfinished(out.units, "shards");
  return out;
}

// ---- sweep merge -----------------------------------------------------------

MergedSweep merge_sweep_dir(const std::string& dir, const MergeOptions& opts) {
  MergedSweep out;
  out.manifest = read_sweep_manifest(dir);
  for (const Unit& u : sweep_units(dir, out.manifest)) {
    // An otherwise unreadable cell journal salvages nothing, but one torn
    // header must not abort the whole sweep: the cell reports as partial
    // (or stays quarantined) with the reader's complaint attached.
    UnitRead r = read_for_merge(u);
    MergedSweepCell& cell = out.cells.emplace_back();
    static_cast<MergedUnit&>(cell) = merged_unit(u, r);
    cell.mapping = out.manifest.cell_mapping(u.index);
    cell.scenario = out.manifest.cell_scenario(u.index);
    cell.decision = r.decision;
    cell.results = r.take();
    if (cell.state != UnitState::kComplete) out.complete = false;
  }
  if (!opts.allow_partial) refuse_unfinished(out.cells, "sweep cells");
  return out;
}

std::size_t MergedSweep::complete_cells() const {
  std::size_t n = 0;
  for (const MergedSweepCell& c : cells) {
    if (c.state == UnitState::kComplete) ++n;
  }
  return n;
}

std::size_t MergedSweep::quarantined_cells() const {
  std::size_t n = 0;
  for (const MergedSweepCell& c : cells) {
    if (c.state == UnitState::kQuarantined) ++n;
  }
  return n;
}

CampaignSweep MergedSweep::to_sweep() const {
  std::vector<CampaignSweep::Cell> out;
  out.reserve(cells.size());
  for (const MergedSweepCell& c : cells) {
    if (c.state != UnitState::kComplete) continue;
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
      if (c.state == UnitState::kPartial) ++n_partial;
      if (c.state == UnitState::kMissing) ++n_missing;
    }
    os << "DEGRADED sweep merge: " << complete_cells() << " of "
       << cells.size() << " cells complete (" << n_partial << " partial, "
       << n_missing << " missing, " << quarantined_cells()
       << " quarantined) — statistics cover recorded runs only\n";
  }
  to_sweep().print(os);
  if (complete) return;
  for (const MergedSweepCell& c : cells) {
    if (c.state == UnitState::kComplete) continue;
    os << "  cell " << c.name << ": ";
    switch (c.state) {
      case UnitState::kPartial:
        os << "partial — " << c.records << " of " << c.runs
           << " runs recorded";
        if (!c.error.empty()) os << " (" << c.error << ")";
        break;
      case UnitState::kMissing:
        os << "missing — no journal recorded";
        break;
      case UnitState::kQuarantined:
        os << (c.error.empty() ? "quarantined" : c.error);
        if (c.records > 0) {
          os << " (" << c.records << " of " << c.runs << " runs salvaged)";
        }
        break;
      case UnitState::kComplete:
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

FleetStatus fleet_status(const std::string& dir, std::uint64_t lease_ttl_ms) {
  // Pure observation: stat() and read() only — a status probe must never
  // perturb the fleet it watches. A sweep.manifest makes a sweep fleet.
  const std::vector<Unit> units =
      file_exists(sweep_manifest_path(dir))
          ? sweep_units(dir, read_sweep_manifest(dir))
          : campaign_units(dir, read_fleet_manifest(dir));
  FleetStatus st;
  for (const Unit& u : units) {
    const UnitRead r = read_unit(u);
    ShardStatusEntry e;
    e.index = u.index;
    e.name = u.name;
    e.runs = u.header.runs;
    e.records = r.recorded;
    LeaseInfo linfo;
    std::uint64_t mtime = 0;
    if (r.quarantined) {
      e.state = ShardStatusEntry::State::kQuarantined;
      e.owner = r.tomb.owner;
      e.adoptions = r.tomb.adoptions;
      e.error = r.tomb.error;
    } else if (r.complete()) {
      e.state = ShardStatusEntry::State::kDone;
    } else if (read_lease_info(u.lease, &linfo) &&
               lease_mtime_ms(u.lease, &mtime)) {
      const std::uint64_t now = wall_now_ms();
      e.state = lease_alive(mtime, now, lease_ttl_ms)
                    ? ShardStatusEntry::State::kClaimed
                    : ShardStatusEntry::State::kStale;
      e.owner = linfo.owner;
      e.adoptions = linfo.adoptions;
      e.error = linfo.error;
      e.heartbeat_age_ms = static_cast<std::int64_t>(now) -
                           static_cast<std::int64_t>(mtime);
    }
    switch (e.state) {
      case ShardStatusEntry::State::kDone: ++st.done; break;
      case ShardStatusEntry::State::kClaimed: ++st.claimed; break;
      case ShardStatusEntry::State::kStale: ++st.stale; break;
      case ShardStatusEntry::State::kQuarantined: ++st.quarantined; break;
      case ShardStatusEntry::State::kUnclaimed: ++st.unclaimed; break;
    }
    st.records += e.records;
    st.runs += e.runs;
    st.entries.push_back(std::move(e));
  }
  st.units = st.entries.size();
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
