// vocoder_sw: the paper's Table 3 mapping. The five annotated vocoder
// processes run on one 50 MHz SW CPU with an 80-cycle RTOS switch, fed
// windows of consecutive synth_frame frames from seed-chosen start indices;
// the same frames then go through the orsim ISS (IssVocoder) and through the
// plain C++ kernels. One item is one window through all three forms.

#include <array>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "core/scperf.hpp"
#include "workloads/vocoder/frames.hpp"
#include "workloads/vocoder/kernels.hpp"
#include "workloads/vocoder/kernels_asm.hpp"
#include "workloads/vocoder/pipeline.hpp"

namespace perfbench {
namespace {

using namespace workloads::vocoder;
using scperf::garray;
using scperf::gint;
using Frame = std::vector<std::int32_t>;

constexpr int kWindow = 20;  // frames per item: the Table 3 run length
constexpr double kCpuMhz = 50.0;
constexpr double kRtosCycles = 80.0;

struct Token {
  std::array<std::int32_t, kFrame> frame{};
  std::array<std::int32_t, kOrder> lpc{};
  std::array<std::int32_t, kSubframes * kOrder> subc{};
  std::array<std::int32_t, kSubframes> gain{};
  std::array<std::int32_t, kSubframes> lag{};
  std::array<std::int32_t, kSubframes * kTracks> pulses{};
};

void marshal_in(garray<int>& dst, const std::int32_t* src, int n) {
  for (int i = 0; i < n; ++i) {
    dst.at_raw(static_cast<std::size_t>(i)).set_raw(src[i]);
  }
}

void marshal_out(std::int32_t* dst, const garray<int>& src, int n) {
  for (int i = 0; i < n; ++i) {
    dst[i] = src.at_raw(static_cast<std::size_t>(i)).value();
  }
}

struct LibResult {
  long checksum = 0;
  std::array<double, 5> cycles{};
  minisc::Time end;
  double host_s = 0.0;  ///< Simulator construction .. Report read
  std::uint64_t ops = 0, segments = 0, deltas = 0;
  std::array<std::uint64_t, 3> cache{};
  std::string csv;  ///< the Report's segment, process and resource CSVs
};

/// The pipeline of workloads::vocoder::run_annotated, process for process
/// and channel for channel, over pre-generated frames.
LibResult run_lib(const std::vector<Frame>& frames, std::uint64_t group) {
  LibResult out;
  const std::int64_t t0 = now_ns();
  Span lib_span(Kind::kLibRun, group);
  minisc::Simulator sim;
  scperf::Estimator est(sim);
  auto& cpu = est.add_sw_resource("cpu", kCpuMhz, scperf::orsim_sw_cost_table(),
                                  {.rtos_cycles_per_switch = kRtosCycles});
  for (int p = 0; p < 5; ++p) est.map(kProcessNames[p], cpu);
  std::optional<TraceHook> hook;
  if (tracing()) hook.emplace(sim, Kind::kNode, true);

  minisc::Fifo<Token> f0("in", 2), f1("lsp2int", 2), f2("int2acb", 2),
      f3("acb2icb", 2), f4("icb2post", 2);
  minisc::Fifo<long> fout("out", 2);
  const int n = static_cast<int>(frames.size());
  const auto g = [group](int f) { return group + static_cast<std::uint64_t>(f); };

  sim.spawn("source", [&] {
    Span body(Kind::kBody, group);
    for (int f = 0; f < n; ++f) {
      Token t;
      std::copy(frames[static_cast<std::size_t>(f)].begin(),
                frames[static_cast<std::size_t>(f)].end(), t.frame.begin());
      Span frame(Kind::kBody, g(f));
      ch_write(f0, t);
    }
  });

  sim.spawn(kProcessNames[0], [&] {  // LSP estimation
    Span body(Kind::kBody, group);
    garray<int> gframe(kFrame), glpc(kOrder);
    for (int f = 0; f < n; ++f) {
      Span frame(Kind::kBody, g(f));
      Token t = ch_read(f0);
      marshal_in(gframe, t.frame.data(), kFrame);
      {
        Span k(Kind::kAnnot);
        annot::lsp_estimation(gframe, glpc);
      }
      marshal_out(t.lpc.data(), glpc, kOrder);
      ch_write(f1, t);
    }
  });

  sim.spawn(kProcessNames[1], [&] {  // LPC interpolation
    Span body(Kind::kBody, group);
    garray<int> gprev(kOrder), gcur(kOrder), gsubc(kSubframes * kOrder);
    for (int i = 0; i < kOrder; ++i) {
      gprev.at_raw(static_cast<std::size_t>(i)).set_raw(0);
    }
    for (int f = 0; f < n; ++f) {
      Span frame(Kind::kBody, g(f));
      Token t = ch_read(f1);
      marshal_in(gcur, t.lpc.data(), kOrder);
      {
        Span k(Kind::kAnnot);
        annot::lpc_interpolation(gprev, gcur, gsubc);
        gint i = 0;
        while (i < kOrder) {  // keep the current set for the next frame
          gprev[i] = gcur[i];
          i = i + 1;
        }
      }
      marshal_out(t.subc.data(), gsubc, kSubframes * kOrder);
      ch_write(f2, t);
    }
  });

  sim.spawn(kProcessNames[2], [&] {  // adaptive-codebook search
    Span body(Kind::kBody, group);
    garray<int> gframe(kFrame), ghist(kHist);
    for (int i = 0; i < kHist; ++i) {
      ghist.at_raw(static_cast<std::size_t>(i)).set_raw(0);
    }
    for (int f = 0; f < n; ++f) {
      Span frame(Kind::kBody, g(f));
      Token t = ch_read(f2);
      marshal_in(gframe, t.frame.data(), kFrame);
      for (int s = 0; s < kSubframes; ++s) {
        Span k(Kind::kAnnot);
        gint lag(scperf::detail::RawTag{}, 0);
        gint gain = annot::acb_search(gframe, s * kSub, ghist, lag);
        annot::update_history(ghist, gframe, s * kSub);
        t.gain[static_cast<std::size_t>(s)] = gain.value();
        t.lag[static_cast<std::size_t>(s)] = lag.value();
      }
      ch_write(f3, t);
    }
  });

  sim.spawn(kProcessNames[3], [&] {  // innovative-codebook search
    Span body(Kind::kBody, group);
    garray<int> gframe(kFrame), gpulses(kSubframes * kTracks);
    for (int f = 0; f < n; ++f) {
      Span frame(Kind::kBody, g(f));
      Token t = ch_read(f3);
      marshal_in(gframe, t.frame.data(), kFrame);
      for (int s = 0; s < kSubframes; ++s) {
        Span k(Kind::kAnnot);
        (void)annot::icb_search(gframe, s * kSub, gpulses, s * kTracks);
      }
      marshal_out(t.pulses.data(), gpulses, kSubframes * kTracks);
      ch_write(f4, t);
    }
  });

  sim.spawn(kProcessNames[4], [&] {  // post-processing
    Span body(Kind::kBody, group);
    garray<int> gframe(kFrame), gsubc(kSubframes * kOrder),
        gpulses(kSubframes * kTracks), gexc(kSub), gout(kSub), gmem(kOrder);
    for (int i = 0; i < kOrder; ++i) {
      gmem.at_raw(static_cast<std::size_t>(i)).set_raw(0);
    }
    for (int f = 0; f < n; ++f) {
      Span frame(Kind::kBody, g(f));
      Token t = ch_read(f4);
      marshal_in(gframe, t.frame.data(), kFrame);
      marshal_in(gsubc, t.subc.data(), kSubframes * kOrder);
      marshal_in(gpulses, t.pulses.data(), kSubframes * kTracks);
      long frame_checksum = 0;
      for (int s = 0; s < kSubframes; ++s) {
        Span k(Kind::kAnnot);
        gint gain(scperf::detail::RawTag{},
                  t.gain[static_cast<std::size_t>(s)]);
        annot::build_excitation(gframe, s * kSub, gain, gpulses, s * kTracks,
                                gexc);
        gint cs = annot::postproc(gsubc, s * kOrder, gexc, gmem, gout);
        frame_checksum += cs.value();
      }
      ch_write(fout, frame_checksum);
    }
  });

  long total = 0;
  sim.spawn("sink", [&] {
    Span body(Kind::kBody, group);
    for (int f = 0; f < n; ++f) {
      Span frame(Kind::kBody, g(f));
      total += ch_read(fout);
    }
  });

  const auto reason = traced_run(sim, group);
  if (reason != minisc::StopReason::kFinished) {
    throw std::runtime_error(std::string("vocoder pipeline did not finish: ") +
                             minisc::to_string(reason));
  }
  out.checksum = total;
  out.end = sim.now();
  for (int p = 0; p < 5; ++p) out.cycles[p] = est.process_cycles(kProcessNames[p]);
  const scperf::Report rep = est.report();
  out.host_s = (now_ns() - t0) * 1e-9;
  for (const auto& row : rep.processes) {
    out.ops += row.ops_executed;
    out.segments += row.segments_executed;
  }
  out.deltas = sim.delta_count();
  out.cache = segment_cache_counts(est);
  std::ostringstream csv;
  rep.write_csv(csv);
  rep.write_process_csv(csv);
  rep.write_resource_csv(csv);
  out.csv = csv.str();
  return out;
}

/// workloads::vocoder::run_reference over the given frames.
long run_plain(const std::vector<Frame>& frames) {
  std::int32_t prev[kOrder] = {};
  std::int32_t hist[kHist] = {};
  std::int32_t mem[kOrder] = {};
  long total = 0;
  for (const Frame& frame : frames) {
    std::int32_t lpc[kOrder];
    ref::lsp_estimation(frame.data(), lpc);
    std::int32_t subc[kSubframes * kOrder];
    ref::lpc_interpolation(prev, lpc, subc);
    for (int i = 0; i < kOrder; ++i) prev[i] = lpc[i];
    std::int32_t gain[kSubframes];
    std::int32_t lag[kSubframes];
    std::int32_t pulses[kSubframes * kTracks];
    for (int s = 0; s < kSubframes; ++s) {
      gain[s] = ref::acb_search(frame.data() + s * kSub, hist, &lag[s]);
      ref::update_history(hist, frame.data() + s * kSub);
    }
    for (int s = 0; s < kSubframes; ++s) {
      (void)ref::icb_search(frame.data() + s * kSub, pulses + s * kTracks);
    }
    for (int s = 0; s < kSubframes; ++s) {
      std::int32_t exc[kSub];
      std::int32_t out[kSub];
      ref::build_excitation(frame.data() + s * kSub, gain[s],
                            pulses + s * kTracks, exc);
      total += ref::postproc(subc + s * kOrder, exc, mem, out);
    }
  }
  return total;
}

struct IssResult {
  long checksum = 0;
  std::array<std::uint64_t, 5> cycles{};
  std::uint64_t instructions = 0;
  std::array<std::uint64_t, 3> block_cache{};
  double host_s = 0.0;
};

IssResult run_iss(const std::vector<Frame>& frames, std::uint64_t group) {
  IssResult out;
  const std::int64_t t0 = now_ns();
  IssVocoder vc;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    Span s(Kind::kIssFrame, group + f);
    out.checksum += vc.process_frame(frames[f]);
  }
  out.host_s = (now_ns() - t0) * 1e-9;
  const StageCycles& c = vc.cycles();
  out.cycles = {c.lsp, c.lpc_int, c.acb, c.icb, c.post};
  out.instructions = vc.machine().stats().instructions;
  out.block_cache = block_cache_counts(vc.machine());
  return out;
}

/// Seed-chosen windows per run: the segment cache's hit ratio depends on the
/// frames, so a run averages several windows rather than repeating one. With
/// eight, one seed's windows ran 4-8% slower than other seeds' on every try.
constexpr int kWindows = 16;

class VocoderSw final : public Workload {
 public:
  explicit VocoderSw(const Env& env) {
    for (int w = 0; w < kWindows; ++w) {
      const int first = static_cast<int>(
          mix64(env.seed * kWindows + static_cast<std::uint64_t>(w)) % 100000);
      Window win{first, {}, 0};
      for (int f = 0; f < kWindow; ++f) win.frames.push_back(synth_frame(first + f));
      win.expected = run_plain(win.frames);
      windows_.push_back(std::move(win));
    }
    for (int f = 0; f < kWindow; ++f) table3_frames_.push_back(synth_frame(f));
  }

  Phase run(double seconds, Checks& checks) override {
    Phase ph;
    c_ = LayerCounts{};
    double lib_s = 0, iss_s = 0, ref_s = 0;
    const std::int64_t start = now_ns();
    std::int64_t t = start;
    double block_s = 0.0;
    while ((t - start) * 1e-9 < seconds || ph.items < kMinItems ||
           next_ % windows_.size() != 0) {
      const double cal = calibrate();
      t = now_ns();
      const std::size_t idx = next_++ % windows_.size();
      const Window& win = windows_[idx];
      const std::uint64_t group = (static_cast<std::uint64_t>(next_) << 24) |
                                  static_cast<std::uint64_t>(win.first);
      const LibResult lib = run_lib(win.frames, group);
      const IssResult iss = run_iss(win.frames, group);
      const std::int64_t r0 = now_ns();
      long plain = 0;
      {
        Span s(Kind::kRef, group);
        plain = run_plain(win.frames);
      }
      const std::int64_t t1 = now_ns();
      ref_s += (t1 - r0) * 1e-9;
      lib_s += lib.host_s;
      iss_s += iss.host_s;
      ph.add_item((t1 - t) * 1e-6, cal);
      block_s += (t1 - t) * 1e-9;
      t = t1;
      if (next_ % windows_.size() == 0) {
        ph.add_block(windows_.size(), block_s);
        block_s = 0.0;
      }

      checks.expect(lib.checksum == win.expected &&
                        iss.checksum == win.expected && plain == win.expected,
                    "window checksums differ across annotated, ISS and plain "
                    "forms");
      Digest d;
      d.add(static_cast<std::uint64_t>(lib.checksum));
      for (double c : lib.cycles) d.add(c);
      d.add(static_cast<std::uint64_t>(lib.end.to_ps()));
      d.add(lib.csv);
      for (std::uint64_t c : iss.cycles) d.add(c);
      if (digests_.size() < windows_.size()) digests_.push_back(d.value());
      if (d.value() != digests_[idx]) {
        checks.fail("a repeated window simulated differently (determinism)");
      }
      for (int p = 0; p < 5; ++p) {
        const double ref = static_cast<double>(iss.cycles[p]);
        err_pct_max_ = std::max(err_pct_max_,
                                100.0 * std::abs(lib.cycles[p] - ref) / ref);
      }
      c_.ops += lib.ops;
      c_.segments += lib.segments;
      c_.deltas += lib.deltas;
      for (int i = 0; i < 3; ++i) c_.cache[i] += lib.cache[i];
      c_.iss_instructions += iss.instructions;
      for (int i = 0; i < 3; ++i) c_.block_cache[i] += iss.block_cache[i];
    }
    c_.est_err_pct_max = err_pct_max_;
    const double frames = static_cast<double>(ph.items) * kWindow;
    ph.named = {
        {"lib_frames_per_s", frames / lib_s, "frames/s"},
        {"iss_frames_per_s", frames / iss_s, "frames/s"},
        {"spec_frames_per_s", frames / ref_s, "frames/s"},
        {"est_err_pct_max", err_pct_max_, "%"},
    };
    return ph;
  }

  void final_checks(Checks& checks) override {
    // The benchmark's copy of the model must reproduce the paper table's
    // pipeline bit for bit on frames 0-19.
    const AnnotatedResult paper = run_annotated(
        {.frames = kWindow, .cpu_mhz = kCpuMhz,
         .rtos_cycles_per_switch = kRtosCycles});
    const LibResult mine = run_lib(table3_frames_, 0);
    bool same = paper.checksum == mine.checksum && paper.sim_time == mine.end;
    for (int p = 0; p < 5; ++p) {
      same = same && paper.process_cycles.at(kProcessNames[p]) == mine.cycles[p];
    }
    checks.expect(same,
                  "frames 0-19 do not reproduce workloads::vocoder::run_annotated");
  }

  std::uint64_t sim_digest() const override {
    Digest d;
    for (std::uint64_t v : digests_) d.add(v);
    return d.value();
  }

  LayerCounts counts() const override { return c_; }

 private:
  struct Window {
    int first;  ///< synth_frame index of the window's first frame
    std::vector<Frame> frames;
    long expected;  ///< plain C++ checksum, from set-up
  };

  std::vector<Window> windows_;
  std::vector<Frame> table3_frames_;
  std::size_t next_ = 0;
  std::vector<std::uint64_t> digests_;
  double err_pct_max_ = 0.0;
  LayerCounts c_;
};

}  // namespace

std::unique_ptr<Workload> make_vocoder_sw(const Env& env) {
  return std::make_unique<VocoderSw>(env);
}

}  // namespace perfbench
