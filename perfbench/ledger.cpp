// Span recording and self-time accounting for the traced run (see bench.hpp
// for the attribution rule). Every host thread keeps its own ledger; worker
// threads fold theirs into the global totals when they exit, the calling
// thread when collect() runs.

#include <atomic>
#include <cstdio>
#include <mutex>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {
namespace {

std::atomic<bool> g_tracing{false};
/// Spans kept for the spans file; accounting continues past the cap.
constexpr std::uint64_t kMaxKeptSpans = 200000;
std::atomic<std::uint64_t> g_kept{0};

struct StoredSpan {
  Kind kind;
  std::uint32_t thread;
  std::uint64_t id, parent, group;
  std::int64_t begin, end, self;
};

struct Global {
  std::mutex mu;
  Totals totals;
  std::vector<StoredSpan> spans;
  std::uint32_t threads = 0;
};

Global& global() {
  static Global g;
  return g;
}

struct Open {
  Kind kind;
  std::uint64_t id, parent, group;
  std::int64_t begin;
  std::int64_t self;
};

void append(std::vector<std::pair<std::int64_t, std::int64_t>>& to,
            const std::vector<std::pair<std::int64_t, std::int64_t>>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

class Ledger {
 public:
  Ledger() {
    std::lock_guard<std::mutex> lk(global().mu);
    thread_ = global().threads++;
  }
  ~Ledger() { flush(); }
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  std::uint32_t begin(Kind k, std::uint64_t group) {
    const std::int64_t t = now_ns();
    const std::uint32_t c = event_ctx();
    advance(t, false);
    ensure(c);
    const std::vector<Open>& outer =
        ctxs_[c].empty() ? ctxs_[0] : ctxs_[c];  // a process's outermost
    std::uint64_t parent = 0;                    // span is caused by the run
    if (!outer.empty()) {
      parent = outer.back().id;
      if (group == kInherit) group = outer.back().group;
    }
    if (group == kInherit) group = 0;
    ctxs_[c].push_back(Open{k, next_id(), parent, group, t, 0});
    hook_entry_ = k == Kind::kNode || k == Kind::kInjector;
    just_resumed_ = false;
    return c;
  }

  void end(std::uint32_t c) {
    const std::int64_t t = now_ns();
    advance(t, false);
    hook_entry_ = false;
    just_resumed_ = false;
    if (c >= ctxs_.size() || ctxs_[c].empty()) return;
    const Open o = ctxs_[c].back();
    ctxs_[c].pop_back();
    close(o, t);
  }

  void dispatch(std::size_t pid) {
    const std::int64_t t = now_ns();
    advance(t, true);
    cur_ = static_cast<std::int64_t>(pid) + 1;
    ensure(static_cast<std::uint32_t>(cur_));
    just_resumed_ = true;
    hook_entry_ = false;
    ++totals_.dispatches;
  }

  void run_begin(std::uint64_t group) {
    ctxs_.resize(1);  // process contexts of an earlier simulator are gone
    begin(Kind::kSimRun, group);
    in_run_ = true;
    cur_ = -1;
  }

  void run_end() {
    const std::int64_t t = now_ns();
    advance(t, true);
    in_run_ = false;
    cur_ = -1;
    just_resumed_ = false;
    hook_entry_ = false;
    if (ctxs_[0].empty()) return;
    const Open o = ctxs_[0].back();
    ctxs_[0].pop_back();
    close(o, t);
  }

  void flush() {
    Global& g = global();
    std::lock_guard<std::mutex> lk(g.mu);
    for (std::size_t k = 0; k < kKinds; ++k) {
      g.totals.self_ns[k] += totals_.self_ns[k];
      g.totals.count[k] += totals_.count[k];
    }
    g.totals.dispatches += totals_.dispatches;
    append(g.totals.run_fn, totals_.run_fn);
    append(g.totals.campaign, totals_.campaign);
    append(g.totals.merge, totals_.merge);
    append(g.totals.calibrate, totals_.calibrate);
    g.totals.spans_dropped += totals_.spans_dropped;
    g.spans.insert(g.spans.end(), spans_.begin(), spans_.end());
    totals_ = Totals{};
    spans_.clear();
  }

 private:
  /// Context index of the code emitting an event: 0 is this thread's own
  /// stack, 1 + id the minisc process with that id.
  std::uint32_t event_ctx() const {
    if (in_run_) return cur_ > 0 ? static_cast<std::uint32_t>(cur_) : 0;
    // Outside run(): a process being unwound by the simulator's teardown.
    minisc::Simulator* sim = minisc::Simulator::current_or_null();
    if (sim != nullptr && sim->in_process_context()) {
      return 1 + static_cast<std::uint32_t>(sim->current_process().id());
    }
    return 0;
  }

  void ensure(std::uint32_t c) {
    if (c >= ctxs_.size()) ctxs_.resize(c + 1);
  }

  /// Charges the time since the previous event to one open span.
  void advance(std::int64_t t, bool switch_event) {
    const std::int64_t dt = t - t_last_;
    t_last_ = t;
    std::uint32_t owner = 0;  // this thread's stack: kernel time during run()
    if (in_run_ && cur_ > 0 && !just_resumed_ && (!switch_event || hook_entry_)) {
      owner = static_cast<std::uint32_t>(cur_);
    }
    if (owner != 0 && ctxs_[owner].empty()) owner = 0;
    if (!ctxs_[owner].empty()) ctxs_[owner].back().self += dt;
  }

  std::uint64_t next_id() {
    return (static_cast<std::uint64_t>(thread_) << 40) | ++local_id_;
  }

  void close(const Open& o, std::int64_t t) {
    const auto k = static_cast<std::size_t>(o.kind);
    totals_.self_ns[k] += o.self;
    ++totals_.count[k];
    if (o.kind == Kind::kRunFn) totals_.run_fn.emplace_back(o.begin, t);
    if (o.kind == Kind::kCampaign) totals_.campaign.emplace_back(o.begin, t);
    if (o.kind == Kind::kMerge) totals_.merge.emplace_back(o.begin, t);
    if (o.kind == Kind::kCalibrate) totals_.calibrate.emplace_back(o.begin, t);
    if (g_kept.fetch_add(1, std::memory_order_relaxed) < kMaxKeptSpans) {
      spans_.push_back(StoredSpan{o.kind, thread_, o.id, o.parent, o.group,
                                  o.begin, t, o.self});
    } else {
      ++totals_.spans_dropped;
    }
  }

  std::uint32_t thread_ = 0;
  std::uint64_t local_id_ = 0;
  std::vector<std::vector<Open>> ctxs_ = std::vector<std::vector<Open>>(1);
  std::int64_t t_last_ = now_ns();
  bool in_run_ = false;
  std::int64_t cur_ = -1;  ///< context of the dispatched process, -1 none
  bool just_resumed_ = false;  ///< no event since the last dispatch
  bool hook_entry_ = false;    ///< the last event entered a hook callback
  Totals totals_;
  std::vector<StoredSpan> spans_;
};

Ledger& ledger() {
  thread_local Ledger l;
  return l;
}

}  // namespace

const char* to_string(Kind k) {
  switch (k) {
    case Kind::kSimRun: return "kernel.run";
    case Kind::kBody: return "workloads.body";
    case Kind::kChannel: return "kernel.channel";
    case Kind::kNode: return "core.node";
    case Kind::kInjector: return "fault.injector";
    case Kind::kAnnot: return "core.annotated";
    case Kind::kRef: return "workloads.ref";
    case Kind::kLibRun: return "core.lib_run";
    case Kind::kIssFrame: return "iss.process_frame";
    case Kind::kHlsExtremes: return "hls.extremes";
    case Kind::kHlsDesignSpace: return "hls.design_space";
    case Kind::kHlsForceDirected: return "hls.force_directed";
    case Kind::kScenario: return "fault.scenario";
    case Kind::kRunFn: return "trace.run_fn";
    case Kind::kCampaign: return "trace.campaign";
    case Kind::kMerge: return "trace.merge";
    case Kind::kCalibrate: return "perfbench.calibrate";
    case Kind::kCount_: break;
  }
  return "?";
}

bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

void set_tracing(bool on) {
  if (on) {
    ledger().flush();
    std::lock_guard<std::mutex> lk(global().mu);
    global().totals = Totals{};
    global().spans.clear();
    g_kept = 0;
  }
  g_tracing = on;
}

Totals collect() {
  ledger().flush();
  std::lock_guard<std::mutex> lk(global().mu);
  Totals t = global().totals;
  t.spans_kept = global().spans.size();
  return t;
}

bool write_spans(const std::string& path) {
  std::lock_guard<std::mutex> lk(global().mu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t epoch = 0;
  for (const StoredSpan& s : global().spans) {
    if (epoch == 0 || s.begin < epoch) epoch = s.begin;
  }
  std::fprintf(f, "id\tparent\tgroup\tthread\tname\tstart_ns\tend_ns\tself_ns\n");
  for (const StoredSpan& s : global().spans) {
    std::fprintf(f, "%llu\t%llu\t%llu\t%u\t%s\t%lld\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.group), s.thread,
                 to_string(s.kind), static_cast<long long>(s.begin - epoch),
                 static_cast<long long>(s.end - epoch),
                 static_cast<long long>(s.self));
  }
  return std::fclose(f) == 0;
}

void Span::begin(Kind kind, std::uint64_t group) {
  ctx_ = ledger().begin(kind, group);
  open_ = true;
}

void Span::end() { ledger().end(ctx_); }

minisc::StopReason traced_run(minisc::Simulator& sim, std::uint64_t group,
                              minisc::Time limit) {
  if (!tracing()) return sim.run(limit);
  ledger().run_begin(group);
  struct RunEnd {
    ~RunEnd() { ledger().run_end(); }
  } run_end;
  return sim.run(limit);
}

TraceHook::TraceHook(minisc::Simulator& sim, Kind kind, bool outermost)
    : sim_(sim), inner_(sim.hook()), kind_(kind), outermost_(outermost) {
  if (inner_ == nullptr) {
    throw std::logic_error("TraceHook: no kernel hook to forward to");
  }
  sim_.set_hook(this);
}

TraceHook::~TraceHook() { sim_.set_hook(inner_); }

void TraceHook::process_started(minisc::Process& p) {
  Span s(kind_);
  inner_->process_started(p);
}

void TraceHook::process_finished(minisc::Process& p) {
  Span s(kind_);
  inner_->process_finished(p);
}

void TraceHook::process_resumed(minisc::Process& p) {
  if (outermost_ && tracing()) ledger().dispatch(p.id());
  inner_->process_resumed(p);
}

void TraceHook::node_reached(minisc::Process& p, minisc::NodeKind kind,
                             const char* label) {
  Span s(kind_);
  inner_->node_reached(p, kind, label);
}

void TraceHook::node_done(minisc::Process& p, minisc::NodeKind kind,
                          const char* label) {
  Span s(kind_);
  inner_->node_done(p, kind, label);
}

}  // namespace perfbench
