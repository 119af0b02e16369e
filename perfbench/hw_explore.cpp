// hw_explore: the HW path of Tables 2/4 and Fig. 4. FIR-sample, Euler and
// vocoder post-processing segments run annotated on a 100 MHz HW resource
// with ready tracking and DFG recording, fed by an untimed testbench over
// channels with a seeded stream of samples (one segment execution each);
// each recorded DFG then goes through hls::strip_control, asap_chained,
// sequential_schedule, design_space and force_directed at the Fig. 4
// deadlines. One item is one segment estimated and fully explored.

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "core/scperf.hpp"
#include "hls/schedule.hpp"
#include "workloads/data.hpp"
#include "workloads/vocoder/frames.hpp"
#include "workloads/vocoder/kernels.hpp"

namespace perfbench {
namespace {

using scperf::garray;
using scperf::gint;

constexpr double kClockMhz = 100.0;
constexpr double kClockNs = 1000.0 / kClockMhz;
constexpr int kFirTaps = 4;
constexpr int kEulerSteps = 8;
constexpr int kSamples = 4000;  ///< segment executions per item
constexpr int kVariants = 4;    ///< seeded input streams per segment shape

namespace vc = workloads::vocoder;

enum class Shape { kFir, kEuler, kPostProc };

const char* to_string(Shape s) {
  switch (s) {
    case Shape::kFir: return "FIR";
    case Shape::kEuler: return "Euler";
    case Shape::kPostProc: return "PostProc";
  }
  return "?";
}

/// One item's inputs: per-item parameters (pre-segment state of the HW
/// process) and the sample stream the testbench feeds it.
struct Stream {
  Shape shape;
  std::vector<std::int32_t> params;
  std::vector<std::int32_t> samples;
  std::vector<std::int32_t> expected;  ///< plain C++ outputs, from set-up
};

// ---- the segment between the input read and the output write, annotated
// (state kept in the HW process across samples) and in plain C++ ----

struct AnnotState {
  explicit AnnotState(const Stream& s)
      : a(vc::kOrder), b(vc::kOrder), p(s.params) {
    for (int i = 0; i < vc::kOrder; ++i) {
      const auto u = static_cast<std::size_t>(i);
      a.at_raw(u).set_raw(i < static_cast<int>(p.size()) ? p[u] : 0);
      b.at_raw(u).set_raw(0);
    }
  }
  garray<int> a;  ///< FIR taps / post-processing coefficients
  garray<int> b;  ///< FIR delay line / post-processing filter memory
  std::vector<std::int32_t> p;
};

std::int32_t step_annot(Shape shape, AnnotState& st, std::int32_t sample) {
  gint x(scperf::detail::RawTag{}, sample);
  switch (shape) {
    case Shape::kFir: {  // y[n] = sum h[k] x[n-k], balanced accumulation
      garray<int>& h = st.a;
      garray<int>& d = st.b;
      gint j = kFirTaps - 1;
      while (j > 0) {
        d[j] = d[j - 1];
        j = j - 1;
      }
      d[0] = x;
      garray<int> prod(kFirTaps);
      gint i = 0;
      while (i < kFirTaps) {
        prod[i] = d[i] * h[i];
        i = i + 1;
      }
      gint stride = 1;
      while (stride < kFirTaps) {
        gint k = 0;
        while (k < kFirTaps) {
          prod[k] = prod[k] + prod[k + stride];
          k = k + (stride << 1);
        }
        stride = stride << 1;
      }
      gint y = prod[0] >> 12;
      return y.value();
    }
    case Shape::kEuler: {  // Q12 y' = b - a*y from y0 = sample
      gint a(scperf::detail::RawTag{}, st.p[0]);
      gint b(scperf::detail::RawTag{}, st.p[1]);
      gint h(scperf::detail::RawTag{}, st.p[2]);
      gint y = x;
      gint k = 0;
      while (k < kEulerSteps) {
        gint ay = (a * y) >> 12;
        gint deriv = b - ay;
        gint delta = (h * deriv) >> 12;
        y = y + delta;
        k = k + 1;
      }
      return y.value();
    }
    case Shape::kPostProc: {  // one sample of the vocoder synthesis filter
      garray<int>& subc = st.a;
      garray<int>& mem = st.b;
      gint acc = x << 12;
      gint i = 0;
      while (i < vc::kOrder) {
        acc = acc - subc[i] * mem[i];
        i = i + 1;
      }
      gint y = acc >> 12;
      if (y > 4095) y = 4095;
      if (y < -4096) y = -4096;
      gint j = vc::kOrder - 1;
      while (j > 0) {
        mem[j] = mem[j - 1];
        j = j - 1;
      }
      mem[0] = y;
      return y.value();
    }
  }
  return 0;
}

/// Plain form over a whole stream; `clipped` reports whether the
/// post-processing filter saturated (which would change the op stream).
std::vector<std::int32_t> run_plain(const Stream& s, bool* clipped = nullptr) {
  std::vector<std::int32_t> out;
  out.reserve(s.samples.size());
  std::int32_t a[vc::kOrder] = {};
  std::int32_t b[vc::kOrder] = {};
  for (std::size_t i = 0; i < s.params.size() && i < vc::kOrder; ++i) {
    a[i] = s.params[i];
  }
  bool clip = false;
  for (const std::int32_t x : s.samples) {
    switch (s.shape) {
      case Shape::kFir: {
        for (int j = kFirTaps - 1; j > 0; --j) b[j] = b[j - 1];
        b[0] = x;
        std::int32_t prod[kFirTaps];
        for (int i = 0; i < kFirTaps; ++i) prod[i] = b[i] * a[i];
        for (int st = 1; st < kFirTaps; st <<= 1) {
          for (int k = 0; k < kFirTaps; k += st << 1) prod[k] += prod[k + st];
        }
        out.push_back(prod[0] >> 12);
        break;
      }
      case Shape::kEuler: {
        std::int32_t y = x;
        for (int k = 0; k < kEulerSteps; ++k) {
          const std::int32_t deriv = a[1] - ((a[0] * y) >> 12);
          y = y + ((a[2] * deriv) >> 12);
        }
        out.push_back(y);
        break;
      }
      case Shape::kPostProc: {
        std::int32_t acc = x << 12;
        for (int i = 0; i < vc::kOrder; ++i) acc -= a[i] * b[i];
        std::int32_t y = acc >> 12;
        if (y > 4095 || y < -4096) clip = true;
        y = std::clamp(y, -4096, 4095);
        for (int j = vc::kOrder - 1; j > 0; --j) b[j] = b[j - 1];
        b[0] = y;
        out.push_back(y);
        break;
      }
    }
  }
  if (clipped != nullptr) *clipped = clip;
  return out;
}

/// Seeded inputs of one item. Post-processing streams are attenuated until
/// the filter never saturates, so every execution of the segment runs the
/// same operations and its estimate compares exactly with the synthesized
/// schedule of the recorded DFG.
Stream make_stream(Shape shape, std::uint64_t seed) {
  Stream s{shape, {}, {}, {}};
  const auto u32 = static_cast<std::uint32_t>(seed);
  switch (shape) {
    case Shape::kFir:
      s.params = workloads::random_vector(kFirTaps, u32, -1024, 1023);
      s.samples = workloads::random_vector(kSamples, u32 ^ 0x5bd1e995u, -2048,
                                           2047);
      break;
    case Shape::kEuler: {
      workloads::Lcg r(u32);
      s.params = {r.in_range(512, 1536), r.in_range(1024, 3072),
                  r.in_range(200, 600)};
      s.samples = workloads::random_vector(kSamples, u32 ^ 0x5bd1e995u, 2048,
                                           8192);
      break;
    }
    case Shape::kPostProc: {
      const int first = static_cast<int>(seed % 100000);
      const auto frame0 = vc::synth_frame(first);
      std::int32_t lpc[vc::kOrder];
      vc::ref::lsp_estimation(frame0.data(), lpc);
      std::int32_t prev[vc::kOrder] = {};
      std::int32_t subc[vc::kSubframes * vc::kOrder];
      vc::ref::lpc_interpolation(prev, lpc, subc);
      s.params.assign(subc, subc + vc::kOrder);
      std::vector<std::int32_t> speech;
      for (int f = first; speech.size() < kSamples; ++f) {
        const auto fr = vc::synth_frame(f);
        speech.insert(speech.end(), fr.begin(), fr.end());
      }
      speech.resize(kSamples);
      for (int shift = 2; shift < 24; ++shift) {
        s.samples.clear();
        for (std::int32_t v : speech) s.samples.push_back(v >> shift);
        bool clipped = false;
        run_plain(s, &clipped);
        if (!clipped) break;
      }
      break;
    }
  }
  s.expected = run_plain(s);
  return s;
}

class HwExplore final : public Workload {
 public:
  explicit HwExplore(const Env& env) : lib_(hls::default_fu_library()) {
    for (int v = 0; v < kVariants; ++v) {
      for (Shape s : {Shape::kFir, Shape::kEuler, Shape::kPostProc}) {
        streams_.push_back(make_stream(s, mix64(env.seed * 16 + streams_.size())));
      }
    }
  }

  Phase run(double seconds, Checks& checks) override {
    Phase ph;
    c_ = LayerCounts{};
    double annot_s = 0.0;
    const std::int64_t start = now_ns();
    std::int64_t t = start;
    double block_s = 0.0;
    // Items differ in size by shape, so a phase covers whole rotations over
    // the streams: the mix, and with it every figure, is the same each run.
    while ((t - start) * 1e-9 < seconds || ph.items < kMinItems ||
           next_ % streams_.size() != 0) {
      const double cal = calibrate();
      t = now_ns();
      const std::size_t idx = next_++ % streams_.size();
      Digest d;
      annot_s += explore(streams_[idx], idx, checks, d);
      if (digests_.size() < streams_.size()) digests_.push_back(d.value());
      if (d.value() != digests_[idx]) {
        checks.fail(std::string("a repeated ") + to_string(streams_[idx].shape) +
                    " segment explored differently (determinism)");
      }
      const std::int64_t t1 = now_ns();
      ph.add_item((t1 - t) * 1e-6, cal);
      block_s += (t1 - t) * 1e-9;
      t = t1;
      if (next_ % streams_.size() == 0) {
        ph.add_block(streams_.size(), block_s);
        block_s = 0.0;
      }
    }
    c_.est_err_pct_max = err_pct_max_;
    ph.named = {
        {"segments_per_s", ph.throughput(), "segments/s"},
        {"est_err_pct_max", err_pct_max_, "%"},
        {"annotated_share", ratio(annot_s, ph.seconds), "ratio"},
    };
    return ph;
  }

  void final_checks(Checks&) override {}

  std::uint64_t sim_digest() const override {
    Digest d;
    for (std::uint64_t v : digests_) d.add(v);
    return d.value();
  }

  LayerCounts counts() const override { return c_; }

 private:
  /// Estimates one segment over its sample stream and explores its recorded
  /// DFG; returns the host seconds of the annotated run.
  double explore(const Stream& in, std::size_t idx, Checks& checks,
                 Digest& d) {
    const std::uint64_t group = idx;
    const char* name = to_string(in.shape);
    scperf::SegmentStats seg;
    std::vector<std::int32_t> outputs;
    scperf::Dfg dfg;
    const std::int64_t t0 = now_ns();
    {
      minisc::Simulator sim;
      scperf::Estimator est(sim);
      auto& hw = est.add_hw_resource("asic", kClockMhz,
                                     scperf::asic_hw_cost_table(),
                                     {.k = 0.0, .record_dfg = true});
      est.map("hw", hw);
      std::optional<TraceHook> hook;
      if (tracing()) hook.emplace(sim, Kind::kNode, true);
      minisc::Fifo<std::int32_t> fin("in", 4);
      minisc::Fifo<std::int32_t> fout("out", 4);
      sim.spawn("tb_src", [&] {  // untimed testbench (environment)
        Span body(Kind::kBody, group);
        for (const std::int32_t x : in.samples) ch_write(fin, x);
      });
      sim.spawn("tb_sink", [&] {
        Span body(Kind::kBody, group);
        for (std::size_t i = 0; i < in.samples.size(); ++i) {
          outputs.push_back(ch_read(fout));
        }
      });
      sim.spawn("hw", [&] {
        Span body(Kind::kBody, group);
        AnnotState st(in);
        for (std::size_t i = 0; i < in.samples.size(); ++i) {
          const std::int32_t x = ch_read(fin);
          std::int32_t y = 0;
          {
            Span k(Kind::kAnnot);
            y = step_annot(in.shape, st, x);
          }
          ch_write(fout, y);
        }
      });
      if (traced_run(sim, group) != minisc::StopReason::kFinished) {
        throw std::runtime_error(std::string(name) +
                                 ": HW simulation did not finish");
      }
      for (const scperf::SegmentStats& st : est.segment_stats("hw")) {
        if (st.id() == "in:r->out:w") seg = st;
      }
      dfg = est.segment_dfg("hw", "in:r->out:w");
      for (const auto& row : est.report().processes) {
        c_.ops += row.ops_executed;
        c_.segments += row.segments_executed;
      }
      c_.deltas += sim.delta_count();
      const auto cache = segment_cache_counts(est);
      for (int i = 0; i < 3; ++i) c_.cache[i] += cache[i];
    }
    const double annot_s = (now_ns() - t0) * 1e-9;
    {
      Span s(Kind::kRef, group);
      checks.expect(run_plain(in) == in.expected && outputs == in.expected,
                    std::string(name) +
                        ": annotated outputs differ from the plain ones");
    }
    c_.dfg_nodes += dfg.size();

    scperf::Dfg stripped;
    hls::ScheduleResult bc, wc;
    {
      Span s(Kind::kHlsExtremes, group);
      stripped = hls::strip_control(dfg);
      bc = hls::asap_chained(stripped, lib_, kClockNs);
      wc = hls::sequential_schedule(stripped, lib_, kClockNs);
    }
    std::vector<hls::DesignPoint> pareto;
    {
      Span s(Kind::kHlsDesignSpace, group);
      pareto = hls::design_space(stripped, lib_, kClockNs);
    }
    std::uint64_t grid = 1;  // the allocations design_space enumerates
    for (hls::FuKind k :
         {hls::FuKind::kAlu, hls::FuKind::kMul, hls::FuKind::kMem}) {
      grid *= std::max(bc.used[k], 1u);
    }
    c_.design_points += grid;
    std::vector<double> fd_area;
    {
      Span s(Kind::kHlsForceDirected, group);
      for (std::uint32_t dl :
           {wc.cycles, (wc.cycles + bc.cycles) / 2,
            (wc.cycles + 3 * bc.cycles) / 4, bc.cycles + 1}) {
        try {
          fd_area.push_back(
              hls::force_directed(stripped, lib_, kClockNs, dl).area(lib_));
        } catch (const std::invalid_argument&) {
          fd_area.push_back(0.0);  // deadline below the unchained critical path
        }
      }
    }

    bool bounded = !pareto.empty();
    for (const hls::DesignPoint& p : pareto) {
      bounded = bounded && p.cycles >= bc.cycles && p.cycles <= wc.cycles;
    }
    checks.expect(bounded, std::string(name) +
                               ": a Pareto point lies outside [asap_chained, "
                               "sequential_schedule]");
    // Every execution runs the same operations (checked: min == max), so
    // the mean estimate is the estimate of the recorded DFG.
    checks.expect(seg.count == in.samples.size() &&
                      seg.cycles_min == seg.cycles_max,
                  std::string(name) + ": segment executions differ");
    const double bc_est = seg.bc_cycles_sum / static_cast<double>(seg.count);
    const double wc_est = seg.wc_cycles_sum / static_cast<double>(seg.count);
    err_pct_max_ = std::max(
        {err_pct_max_, 100.0 * std::abs(bc_est * kClockNs - bc.ns) / bc.ns,
         100.0 * std::abs(wc_est * kClockNs - wc.ns) / wc.ns});

    d.add(seg.bc_cycles_sum);
    d.add(seg.wc_cycles_sum);
    d.add(seg.cycles_sum);
    d.add(static_cast<std::uint64_t>(dfg.size()));
    d.add(static_cast<std::uint64_t>(stripped.size()));
    d.add(static_cast<std::uint64_t>(bc.cycles));
    d.add(static_cast<std::uint64_t>(wc.cycles));
    for (const hls::DesignPoint& p : pareto) {
      d.add(static_cast<std::uint64_t>(p.cycles));
      d.add(p.area);
    }
    for (double a : fd_area) d.add(a);
    return annot_s;
  }

  hls::FuLibrary lib_;
  std::vector<Stream> streams_;
  std::size_t next_ = 0;
  std::vector<std::uint64_t> digests_;
  double err_pct_max_ = 0.0;
  LayerCounts c_;
};

}  // namespace

std::unique_ptr<Workload> make_hw_explore(const Env& env) {
  return std::make_unique<HwExplore>(env);
}

}  // namespace perfbench
