#pragma once

// Shared pieces of the repository benchmark: what a workload reports, the
// digest over its simulated statistics, and the tracing layer the traced run
// observes the library with. Tracing uses only calls and hooks the library
// already exposes: spans are opened by the benchmark's own model code around
// each call into a module, and a forwarding minisc::KernelHook sits between
// the simulator and the Estimator (the way scfault::FaultInjector chains).

#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kernel/hooks.hpp"
#include "kernel/simulator.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// FNV-1a fold over every simulated statistic of a workload (sim_digest).
/// Host times never enter it, so a host-only change leaves it unchanged.
class Digest {
 public:
  void add_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ull;
    }
  }
  void add(std::uint64_t v) { add_bytes(&v, sizeof v); }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    add_bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// splitmix64: derives a workload's inputs from the --seed argument.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// A figure with its unit, as the report prints it.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The q-quantile (0..1) of `v` by linear interpolation; 0 when empty.
double quantile(std::vector<double> v, double q);

/// Items every phase times at least, so that ten lie beyond latency_p90_ms.
inline constexpr std::uint64_t kMinItems = 100;

/// What one timed phase of a workload measured. Items are the workload's
/// unit of work: a vocoder window, a campaign seed, a HW segment.
/// One slice of fixed, benchmark-owned work (calibrate.cpp), timed: about a
/// millisecond on an unloaded 4-core Xeon host. Every item runs one next to
/// it, and its time scales the item's host time to reference time.
double calibrate();

/// The slice's duration that defines reference time: an item that takes as
/// long as k slices takes k reference milliseconds.
inline constexpr double kCalibrationRefSeconds = 1e-3;

/// What one timed phase of a workload measured. Items are the workload's
/// unit of work: a vocoder window, a campaign seed, a HW segment. A phase is
/// timed in blocks (a rotation over the run's inputs, or one campaign); its
/// throughput is the median block rate.
struct Phase {
  std::uint64_t items = 0;
  double seconds = 0.0;             ///< host time of all blocks
  std::vector<double> item_ms;      ///< host time of each item
  std::vector<double> item_ref_ms;  ///< the same in reference time
  std::vector<double> block_rates;      ///< items per host second
  std::vector<double> block_ref_rates;  ///< items per reference second
  std::vector<Metric> named;        ///< workload-specific figures

  /// Records one item and the calibration slice timed next to it.
  void add_item(double ms, double calibration_s) {
    ++items;
    item_ms.push_back(ms);
    item_ref_ms.push_back(ms * kCalibrationRefSeconds / calibration_s);
    block_cal_s_ += calibration_s;
    ++block_cal_n_;
  }
  /// Closes a block of `n` items that took `s` host seconds.
  void add_block(std::uint64_t n, double s) {
    seconds += s;
    const double cal = block_cal_n_ ? block_cal_s_ / block_cal_n_ : 0.0;
    block_rates.push_back(s > 0 ? static_cast<double>(n) / s : 0.0);
    block_ref_rates.push_back(
        s > 0 && cal > 0 ? n / (s * kCalibrationRefSeconds / cal) : 0.0);
    block_cal_s_ = 0.0;
    block_cal_n_ = 0;
  }
  double throughput() const;      ///< median block rate, items/s
  double ref_throughput() const;  ///< the same in reference time

 private:
  double block_cal_s_ = 0.0;
  std::uint64_t block_cal_n_ = 0;
};

/// Output checks: operations attempted and those whose check failed.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> messages;  ///< first few failures, for the log

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }
  void fail(const std::string& what) {
    ++failed;
    if (messages.size() < 8) messages.push_back(what);
  }
};

/// Counters a workload gathers from the library's own reports while it runs;
/// the per-layer metrics divide span times by them.
struct LayerCounts {
  std::uint64_t ops = 0;       ///< Report ops_executed, summed
  std::uint64_t segments = 0;  ///< Report segments_executed, summed
  std::uint64_t deltas = 0;    ///< Simulator::delta_count, summed
  std::array<std::uint64_t, 3> cache{};        ///< segment cache hit/miss/bypass
  std::uint64_t dfg_nodes = 0;                 ///< sizes of recorded DFGs
  std::uint64_t iss_instructions = 0;
  std::array<std::uint64_t, 3> block_cache{};  ///< ISS block cache hit/miss/bypass
  std::uint64_t design_points = 0;  ///< allocations design_space evaluates
  std::uint64_t faults_injected = 0;
  std::uint64_t journal_records = 0;  ///< records the merges folded
  std::size_t pool_threads = 0;
  double est_err_pct_max = 0.0;  ///< simulated, so it repeats for a seed
};

/// One workload: set-up happens in the constructor (timed as setup_s), then
/// run() measures for a host-time budget, checking outputs as it goes.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs items until `seconds` of host time have passed.
  virtual Phase run(double seconds, Checks& checks) = 0;
  /// Checks that run once per process (paper-table cross-checks).
  virtual void final_checks(Checks& checks) = 0;
  /// Digest of the simulated statistics of the seed's fixed first pass.
  virtual std::uint64_t sim_digest() const = 0;
  /// Library counters of the last run() call.
  virtual LayerCounts counts() const = 0;
  /// Context lines for the log (thread counts, filesystems, ...).
  virtual std::map<std::string, std::string> context() const { return {}; }
};

// ---------------------------------------------------------------- tracing

/// What a span wraps. Self times are accumulated per kind.
enum class Kind : std::uint8_t {
  kSimRun,     ///< Simulator::run; its self time is kernel time
  kBody,       ///< a model process body (model code between calls)
  kChannel,    ///< one Fifo / FaultyFifo call in the model code
  kNode,       ///< an Estimator callback, timed by the inner hook
  kInjector,   ///< a FaultInjector callback, timed by the outer hook
  kAnnot,      ///< one annotated-kernel call (SW charge or HW tracking)
  kRef,        ///< the plain C++ reference over the same inputs
  kLibRun,     ///< building a Simulator .. reading its Report
  kIssFrame,   ///< IssVocoder::process_frame
  kHlsExtremes,     ///< strip_control + asap_chained + sequential_schedule
  kHlsDesignSpace,  ///< hls::design_space
  kHlsForceDirected,  ///< hls::force_directed
  kScenario,   ///< scfault::FaultScenario construction
  kRunFn,      ///< the campaign run function
  kCampaign,   ///< sctrace::run_sharded_campaign
  kMerge,      ///< sctrace::merge_shard_dir
  kCalibrate,  ///< a calibration slice run inside a campaign (not the library)
  kCount_,
};

inline constexpr std::size_t kKinds = static_cast<std::size_t>(Kind::kCount_);
const char* to_string(Kind k);

/// Spans nest per execution context: each minisc process (a coroutine) and
/// each host thread's own stack. Group ids tie together the spans of one
/// frame, seed or segment; kInherit takes the enclosing span's group.
inline constexpr std::uint64_t kInherit = ~0ull;

/// Aggregates over every thread, collected after the traced phase.
struct Totals {
  std::array<std::int64_t, kKinds> self_ns{};
  std::array<std::uint64_t, kKinds> count{};
  std::uint64_t dispatches = 0;
  /// [begin, end] of every run-function, campaign, merge and calibration
  /// span.
  std::vector<std::pair<std::int64_t, std::int64_t>> run_fn, campaign, merge,
      calibrate;
  std::uint64_t spans_kept = 0;
  std::uint64_t spans_dropped = 0;

  double self_s(Kind k) const {
    return self_ns[static_cast<std::size_t>(k)] * 1e-9;
  }
  std::uint64_t n(Kind k) const { return count[static_cast<std::size_t>(k)]; }
};

bool tracing();
/// Turns span recording on or off for the whole process; resets totals.
void set_tracing(bool on);
/// Flushes the calling thread and returns the totals of every thread that
/// recorded since set_tracing(true). Worker threads flush when they exit.
Totals collect();
/// Writes every kept span to `path` (tab-separated, one span per line).
bool write_spans(const std::string& path);

/// RAII span; a no-op while tracing is off.
class Span {
 public:
  explicit Span(Kind kind, std::uint64_t group = kInherit) {
    if (tracing()) begin(kind, group);
  }
  ~Span() {
    if (open_) end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void begin(Kind kind, std::uint64_t group);
  void end();
  bool open_ = false;
  std::uint32_t ctx_ = 0;  ///< execution context the span was opened in
};

/// Runs the simulator inside a kSimRun span and attributes the host time of
/// its processes: while a process runs, time goes to its innermost open
/// span; time between a process's last observed event and the next dispatch
/// (its yield and the scheduler loop), and from a dispatch to the resumed
/// process's first event (the switch in), is kernel time. The one exception
/// is a yield that follows an Estimator or injector callback entry with no
/// event in between: that interval holds the segment close, which no hook
/// can split from the yield, and is charged to the callback.
minisc::StopReason traced_run(minisc::Simulator& sim, std::uint64_t group,
                              minisc::Time limit = minisc::Time::max());

/// Forwarding kernel hook: installs itself in front of the simulator's
/// current hook, times every callback as a span of `kind`, and (when it is
/// the outermost hook) records each dispatch for the kernel accounting.
class TraceHook final : public minisc::KernelHook {
 public:
  TraceHook(minisc::Simulator& sim, Kind kind, bool outermost);
  ~TraceHook() override;
  TraceHook(const TraceHook&) = delete;
  TraceHook& operator=(const TraceHook&) = delete;

  void process_started(minisc::Process& p) override;
  void process_finished(minisc::Process& p) override;
  void process_resumed(minisc::Process& p) override;
  void node_reached(minisc::Process& p, minisc::NodeKind kind,
                    const char* label) override;
  void node_done(minisc::Process& p, minisc::NodeKind kind,
                 const char* label) override;

 private:
  minisc::Simulator& sim_;
  minisc::KernelHook* inner_;
  Kind kind_;
  bool outermost_;
};

/// Traced channel calls: a kChannel span around the library call.
template <typename Ch, typename T>
void ch_write(Ch& ch, T v) {
  Span s(Kind::kChannel);
  ch.write(std::move(v));
}
template <typename Ch>
auto ch_read(Ch& ch) {
  Span s(Kind::kChannel);
  return ch.read();
}
template <typename Ch>
auto ch_read_for(Ch& ch, minisc::Time timeout) {
  Span s(Kind::kChannel);
  return ch.read_for(timeout);
}

/// Read counters through members a later library version may drop: the
/// benchmark keeps compiling and reports zero instead.
template <typename Est>
std::array<std::uint64_t, 3> segment_cache_counts(const Est& est) {
  if constexpr (requires { est.segment_cache_stats(); }) {
    const auto s = est.segment_cache_stats();
    return {s.hits, s.misses, s.bypassed};
  } else {
    return {0, 0, 0};
  }
}
template <typename Machine>
std::array<std::uint64_t, 3> block_cache_counts(const Machine& m) {
  if constexpr (requires { m.block_cache_stats(); }) {
    const auto s = m.block_cache_stats();
    return {s.hits, s.misses, s.bypassed};
  } else {
    return {0, 0, 0};
  }
}

double ratio(double num, double den);

/// Workload factories (setup happens in the constructors).
struct Env {
  std::uint64_t seed = 0;
  std::string tmp_dir;  ///< this process's fresh scratch directory
};
std::unique_ptr<Workload> make_vocoder_sw(const Env& env);
std::unique_ptr<Workload> make_fault_fleet(const Env& env);
std::unique_ptr<Workload> make_hw_explore(const Env& env);

}  // namespace perfbench
