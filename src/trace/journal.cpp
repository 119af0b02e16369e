#include "trace/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "kernel/error.hpp"

namespace sctrace {
namespace {

using minisc::SimError;

constexpr char kHeaderType = 'H';
constexpr char kRunType = 'R';
constexpr char kDecisionType = 'D';

std::uint64_t fnv1a_bytes(const unsigned char* p, std::size_t n,
                          std::uint64_t h = 1469598103934665603ull) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// ---- little-endian, bit-exact serialization primitives -------------------
//
// Doubles travel as their IEEE-754 bit pattern: the whole point of the
// journal is that a replayed run aggregates into byte-identical reports,
// which a decimal round-trip could never guarantee.

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_double(std::string& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

void put_string(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// Bounds-checked cursor over one record's payload. Overruns mean the
/// payload does not parse as the record its framing claims — corruption.
struct Cursor {
  const unsigned char* p;
  std::size_t n;
  std::size_t at = 0;
  bool ok = true;

  bool need(std::size_t k) {
    if (n - at < k) ok = false;
    return ok;
  }
  std::uint8_t u8() {
    if (!need(1)) return 0;
    return p[at++];
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t(p[at++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t(p[at++]) << (8 * i);
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint32_t len = u32();
    if (!need(len)) return {};
    std::string s(reinterpret_cast<const char*>(p + at), len);
    at += len;
    return s;
  }
  bool done() const { return ok && at == n; }
};

std::string encode_header(const JournalHeader& h) {
  std::string out;
  put_u32(out, JournalHeader::kVersion);
  put_u64(out, h.base_seed);
  put_u64(out, h.runs);
  put_u64(out, h.scenario_digest);
  put_string(out, h.tag);
  return out;
}

std::string encode_run(std::size_t index, const CampaignRunResult& r) {
  std::string out;
  put_u64(out, index);
  put_u64(out, r.seed);
  put_u8(out, r.completed ? 1 : 0);
  put_u32(out, r.attempts);
  put_string(out, r.error);
  put_u64(out, r.makespan.to_ps());
  put_u64(out, r.deadline_total);
  put_u64(out, r.deadline_missed);
  put_u32(out, static_cast<std::uint32_t>(r.recovery_latencies_ns.size()));
  for (const double v : r.recovery_latencies_ns) put_double(out, v);
  put_u64(out, r.faults_injected);
  put_double(out, r.log_weight);
  put_double(out, r.energy_pj);
  put_double(out, r.fault_energy_pj);
  put_u64(out, r.value_hash);
  return out;
}

std::string encode_decision(const JournalDecision& d) {
  std::string out;
  put_u8(out, static_cast<std::uint8_t>(d.spec.method));
  put_u8(out, static_cast<std::uint8_t>(d.verdict.outcome));
  put_u8(out, d.spec.use_weights ? 1 : 0);
  put_u64(out, d.verdict.samples_used);
  put_u64(out, d.executed);
  put_double(out, d.verdict.log_ratio);
  put_double(out, d.verdict.bound);
  put_double(out, d.verdict.estimate);
  put_double(out, d.verdict.ess);
  put_double(out, d.spec.threshold);
  put_double(out, d.spec.delta);
  put_double(out, d.spec.alpha);
  put_double(out, d.spec.beta);
  put_u64(out, d.spec.min_samples);
  put_u64(out, d.spec.window);
  return out;
}

/// Frames a payload: type, length, payload, trailing checksum.
std::string frame(char type, const std::string& payload) {
  std::string out;
  put_u8(out, static_cast<std::uint8_t>(type));
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  const std::uint64_t sum = fnv1a_bytes(
      reinterpret_cast<const unsigned char*>(out.data()), out.size());
  put_u64(out, sum);
  return out;
}

[[noreturn]] void throw_corrupt(const std::string& path, std::size_t record,
                                const std::string& what) {
  throw SimError(SimError::Kind::kJournalCorrupt,
                 "campaign journal '" + path + "': record " +
                     std::to_string(record) + " " + what +
                     " (bit rot or concurrent writer?)");
}

/// Writer-side syscall failure: a full disk (ENOSPC), a dying device (EIO)
/// or any other host I/O fault while appending. Structured as kIoError —
/// non-transient by contract (minisc::is_transient), so campaign retry loops
/// do not hammer a disk that cannot get better — with the errno text
/// preserved for the operator.
[[noreturn]] void throw_io(const std::string& path, const char* op) {
  throw SimError(SimError::Kind::kIoError,
                 "campaign journal '" + path + "': " + op + " failed: " +
                     std::strerror(errno));
}

/// write() until the whole record is in the file (it may write less).
void write_all(int fd, const std::string& path, const std::string& rec) {
  for (std::size_t off = 0; off < rec.size();) {
    const ssize_t n = ::write(fd, rec.data() + off, rec.size() - off);
    if (n < 0) throw_io(path, "write");
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

std::string identity_mismatch(const JournalHeader& got,
                              const JournalHeader& want) {
  std::string out;
  const auto field = [&out](const char* name, const std::string& g,
                            const std::string& w) {
    if (g == w) return;
    if (!out.empty()) out += ", ";
    out += std::string(name) + " " + g + " (want " + w + ")";
  };
  const auto num = [&field](const char* name, std::uint64_t g,
                            std::uint64_t w) {
    field(name, std::to_string(g), std::to_string(w));
  };
  num("base_seed", got.base_seed, want.base_seed);
  num("runs", got.runs, want.runs);
  num("scenario_digest", got.scenario_digest, want.scenario_digest);
  field("tag", "'" + got.tag + "'", "'" + want.tag + "'");
  return out;
}

JournalContents read_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw SimError(SimError::Kind::kBadConfig,
                   "campaign journal '" + path + "': cannot open for reading");
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());
  const std::size_t size = bytes.size();

  JournalContents out;
  std::size_t pos = 0;
  std::size_t record = 0;  // 0 = header, 1.. = run records
  bool have_header = false;
  while (pos < size) {
    // Framing: type(1) + len(4) + payload(len) + checksum(8). Anything that
    // runs past EOF is a torn append — drop it, remember the tail.
    if (size - pos < 1 + 4) break;
    const char type = static_cast<char>(data[pos]);
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= std::uint32_t(data[pos + 1 + i]) << (8 * i);
    }
    const std::size_t total = 1 + 4 + std::size_t(len) + 8;
    if (size - pos < total) break;

    const std::uint64_t want = fnv1a_bytes(data + pos, 1 + 4 + len);
    std::uint64_t got = 0;
    for (int i = 0; i < 8; ++i) {
      got |= std::uint64_t(data[pos + 1 + 4 + len + i]) << (8 * i);
    }
    if (got != want) throw_corrupt(path, record, "fails its checksum");

    Cursor c{data + pos + 1 + 4, len};
    if (!have_header) {
      if (type != kHeaderType) {
        throw_corrupt(path, record, "is not the expected header record");
      }
      out.header.version = c.u32();
      if (out.header.version != JournalHeader::kVersion) {
        throw SimError(
            SimError::Kind::kShardVersionMismatch,
            "campaign journal '" + path + "': format version " +
                std::to_string(out.header.version) +
                ", but this build reads only version " +
                std::to_string(JournalHeader::kVersion) +
                " — journals from different releases refuse to mix; delete "
                "the file to re-run its campaign");
      }
      out.header.base_seed = c.u64();
      out.header.runs = c.u64();
      out.header.scenario_digest = c.u64();
      out.header.tag = c.str();
      if (!c.done()) throw_corrupt(path, record, "has a malformed header");
      have_header = true;
    } else if (type == kDecisionType) {
      JournalDecision d;
      const std::uint8_t method = c.u8();
      const std::uint8_t outcome = c.u8();
      if (method > 1 || outcome > 2) {
        throw_corrupt(path, record, "has an out-of-range decision enum");
      }
      d.spec.method = static_cast<SmcMethod>(method);
      d.verdict.outcome = static_cast<SmcOutcome>(outcome);
      d.spec.use_weights = c.u8() != 0;
      d.verdict.samples_used = c.u64();
      d.executed = c.u64();
      d.verdict.log_ratio = c.f64();
      d.verdict.bound = c.f64();
      d.verdict.estimate = c.f64();
      d.verdict.ess = c.f64();
      d.spec.threshold = c.f64();
      d.spec.delta = c.f64();
      d.spec.alpha = c.f64();
      d.spec.beta = c.f64();
      d.spec.min_samples = static_cast<std::size_t>(c.u64());
      d.spec.window = static_cast<std::size_t>(c.u64());
      if (!c.done()) {
        throw_corrupt(path, record, "has a malformed decision payload");
      }
      // Last one wins: a resumed writer could in principle append a second
      // decision; later records supersede earlier ones, like run records.
      out.decision = d;
    } else {
      if (type != kRunType) {
        throw_corrupt(path, record, "has an unknown record type");
      }
      JournalRecord rec;
      rec.index = static_cast<std::size_t>(c.u64());
      rec.result.seed = c.u64();
      rec.result.completed = c.u8() != 0;
      rec.result.attempts = c.u32();
      rec.result.error = c.str();
      rec.result.makespan = minisc::Time::ps(c.u64());
      rec.result.deadline_total = c.u64();
      rec.result.deadline_missed = c.u64();
      const std::uint32_t samples = c.u32();
      if (!c.need(std::size_t(samples) * 8)) {
        throw_corrupt(path, record, "has a malformed recovery-sample list");
      }
      rec.result.recovery_latencies_ns.reserve(samples);
      for (std::uint32_t i = 0; i < samples; ++i) {
        rec.result.recovery_latencies_ns.push_back(c.f64());
      }
      rec.result.faults_injected = c.u64();
      rec.result.log_weight = c.f64();
      rec.result.energy_pj = c.f64();
      rec.result.fault_energy_pj = c.f64();
      rec.result.value_hash = c.u64();
      if (!c.done()) throw_corrupt(path, record, "has a malformed payload");
      // Readers place records by index: one outside the header's slots is
      // corruption, whoever reads it.
      if (rec.index >= out.header.runs) {
        throw_corrupt(path, record,
                      "has run index " + std::to_string(rec.index) +
                          ", past the header's " +
                          std::to_string(out.header.runs) + " runs");
      }
      out.records.push_back(std::move(rec));
    }
    pos += total;
    ++record;
  }
  if (!have_header) {
    if (size == 0) {
      throw SimError(SimError::Kind::kBadConfig,
                     "campaign journal '" + path + "': file is empty");
    }
    // Bytes but no intact header: the writer died inside its very first
    // write. Unlike a torn *run* record (tolerated — that seed re-runs),
    // a torn header leaves nothing to trust about the file's identity, so
    // this is corruption, not a resumable tail.
    throw SimError(SimError::Kind::kJournalCorrupt,
                   "campaign journal '" + path +
                       "': header record is torn or truncated (" +
                       std::to_string(size) +
                       " bytes, no intact header) — the journal cannot "
                       "identify its campaign; delete it to start fresh");
  }
  out.valid_bytes = pos;
  out.truncated_tail = pos < size;
  return out;
}

bool detail::sync_parent_dir(const std::string& path) {
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

JournalWriter::JournalWriter(const std::string& path,
                             const JournalHeader& header)
    : path_(path) {
  // O_APPEND: every record lands atomically at EOF, so even a pathological
  // lease-TTL violation (two writers on one shard journal) interleaves whole
  // records rather than tearing them mid-frame.
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
  if (fd_ < 0) throw_io(path, "open");
  write_all(fd_, path_, frame(kHeaderType, encode_header(header)));
  if (::fsync(fd_) != 0) throw_io(path_, "fsync");
  if (!detail::sync_parent_dir(path_)) {
    throw_io(path_, "fsync of its directory");
  }
}

JournalWriter::JournalWriter(const std::string& path,
                             std::uint64_t valid_bytes)
    : path_(path) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND, 0644);
  if (fd_ < 0) throw_io(path, "open");
  // Cut the torn tail before appending: the new record must start exactly
  // where the last intact one ended or the framing chain breaks.
  if (::ftruncate(fd_, static_cast<off_t>(valid_bytes)) != 0) {
    throw_io(path, "ftruncate");
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) throw_io(path, "lseek");
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
  }
}

void JournalWriter::append(std::size_t index, const CampaignRunResult& r) {
  const std::string rec = frame(kRunType, encode_run(index, r));
  std::unique_lock<std::mutex> lock(mu_);
  write_all(fd_, path_, rec);
  if (++unsynced_ >= kFlushEvery) {
    if (::fsync(fd_) != 0) throw_io(path_, "fsync");
    unsynced_ = 0;
  }
}

void JournalWriter::append_decision(const JournalDecision& decision) {
  const std::string rec = frame(kDecisionType, encode_decision(decision));
  std::unique_lock<std::mutex> lock(mu_);
  // Sync-before-append makes the decision record the commit point: a
  // decision that survives a crash proves every run record it covers was
  // already durable when it was written.
  if (::fsync(fd_) != 0) throw_io(path_, "fsync");
  write_all(fd_, path_, rec);
  if (::fsync(fd_) != 0) throw_io(path_, "fsync");
  unsynced_ = 0;
}

void JournalWriter::sync() {
  std::unique_lock<std::mutex> lock(mu_);
  if (::fsync(fd_) != 0) throw_io(path_, "fsync");
  unsynced_ = 0;
}

}  // namespace sctrace
