#include "workloads/vocoder/pipeline.hpp"

#include <vector>

#include "core/scperf.hpp"
#include "workloads/vocoder/frames.hpp"
#include "workloads/vocoder/kernels.hpp"

namespace workloads::vocoder {
namespace {

/// The unit of data flowing through the pipeline; fields are filled in as
/// the token passes each stage. Marshalling between tokens and annotated
/// arrays uses the uncharged raw accessors: moving data across a channel is
/// the communication model's business (RTOS overhead at the node), not
/// computation of the segment.
struct Token {
  std::array<std::int32_t, kFrame> frame{};
  std::array<std::int32_t, kOrder> lpc{};
  std::array<std::int32_t, kSubframes * kOrder> subc{};
  std::array<std::int32_t, kSubframes> gain{};
  std::array<std::int32_t, kSubframes> lag{};
  std::array<std::int32_t, kSubframes * kTracks> pulses{};
};

using scperf::garray;
using scperf::gint;

void marshal_in(garray<int>& dst, const std::int32_t* src, int n) {
  for (int i = 0; i < n; ++i) dst.at_raw(static_cast<std::size_t>(i)).set_raw(src[i]);
}

void marshal_out(std::int32_t* dst, const garray<int>& src, int n) {
  for (int i = 0; i < n; ++i) dst[i] = src.at_raw(static_cast<std::size_t>(i)).value();
}

}  // namespace

AnnotatedResult run_annotated(const PipelineConfig& cfg) {
  AnnotatedResult result;
  minisc::Simulator sim;
  scperf::Estimator est(sim);
  auto& cpu = est.add_sw_resource(
      "cpu", cfg.cpu_mhz, scperf::orsim_sw_cost_table(),
      {.rtos_cycles_per_switch = cfg.rtos_cycles_per_switch});
  if (cfg.with_energy) cpu.set_energy_table(scperf::orsim_energy_table());
  for (int p = 0; p < 5; ++p) est.map(kProcessNames[p], cpu);
  if (cfg.num_cpus >= 2) {
    auto& cpu1 = est.add_sw_resource(
        "cpu1", cfg.cpu_mhz, scperf::orsim_sw_cost_table(),
        {.rtos_cycles_per_switch = cfg.rtos_cycles_per_switch});
    if (cfg.with_energy) cpu1.set_energy_table(scperf::orsim_energy_table());
    est.map(kProcessNames[2], cpu1);  // the ACB search dominates: own CPU
  }
  if (cfg.postproc_on_hw) {
    auto& hw = est.add_hw_resource("hw", 100.0, scperf::asic_hw_cost_table(),
                                   {.k = cfg.hw_k});
    if (cfg.with_energy) hw.set_energy_table(scperf::asic_energy_table());
    est.map(kProcessNames[4], hw);
  }

  minisc::Fifo<Token> f0("in", 2), f1("lsp2int", 2), f2("int2acb", 2),
      f3("acb2icb", 2), f4("icb2post", 2);
  minisc::Fifo<long> fout("out", 2);
  const int frames = cfg.frames;

  sim.spawn("source", [&] {
    for (int f = 0; f < frames; ++f) {
      Token t;
      const auto s = synth_frame(f);
      for (int i = 0; i < kFrame; ++i) t.frame[static_cast<std::size_t>(i)] = s[static_cast<std::size_t>(i)];
      f0.write(t);
    }
  });

  sim.spawn(kProcessNames[0], [&] {  // LSP estimation
    garray<int> gframe(kFrame), glpc(kOrder);
    for (int f = 0; f < frames; ++f) {
      Token t = f0.read();
      marshal_in(gframe, t.frame.data(), kFrame);
      annot::lsp_estimation(gframe, glpc);
      marshal_out(t.lpc.data(), glpc, kOrder);
      f1.write(t);
    }
  });

  sim.spawn(kProcessNames[1], [&] {  // LPC interpolation
    garray<int> gprev(kOrder), gcur(kOrder), gsubc(kSubframes * kOrder);
    for (int f = 0; f < frames; ++f) {
      Token t = f1.read();
      marshal_in(gcur, t.lpc.data(), kOrder);
      annot::lpc_interpolation(gprev, gcur, gsubc);
      gint i = 0;
      while (i < kOrder) {  // keep the current set for the next frame
        gprev[i] = gcur[i];
        i = i + 1;
      }
      marshal_out(t.subc.data(), gsubc, kSubframes * kOrder);
      f2.write(t);
    }
  });

  sim.spawn(kProcessNames[2], [&] {  // adaptive-codebook search
    garray<int> gframe(kFrame), ghist(kHist);
    for (int f = 0; f < frames; ++f) {
      Token t = f2.read();
      marshal_in(gframe, t.frame.data(), kFrame);
      for (int s = 0; s < kSubframes; ++s) {
        gint lag(scperf::detail::RawTag{}, 0);
        gint gain = annot::acb_search(gframe, s * kSub, ghist, lag);
        annot::update_history(ghist, gframe, s * kSub);
        t.gain[static_cast<std::size_t>(s)] = gain.value();
        t.lag[static_cast<std::size_t>(s)] = lag.value();
      }
      f3.write(t);
    }
  });

  sim.spawn(kProcessNames[3], [&] {  // innovative-codebook search
    garray<int> gframe(kFrame), gpulses(kSubframes * kTracks);
    for (int f = 0; f < frames; ++f) {
      Token t = f3.read();
      marshal_in(gframe, t.frame.data(), kFrame);
      for (int s = 0; s < kSubframes; ++s) {
        (void)annot::icb_search(gframe, s * kSub, gpulses, s * kTracks);
      }
      marshal_out(t.pulses.data(), gpulses, kSubframes * kTracks);
      f4.write(t);
    }
  });

  sim.spawn(kProcessNames[4], [&] {  // post-processing
    garray<int> gframe(kFrame), gsubc(kSubframes * kOrder),
        gpulses(kSubframes * kTracks), gexc(kSub), gout(kSub), gmem(kOrder);
    for (int f = 0; f < frames; ++f) {
      Token t = f4.read();
      marshal_in(gframe, t.frame.data(), kFrame);
      marshal_in(gsubc, t.subc.data(), kSubframes * kOrder);
      marshal_in(gpulses, t.pulses.data(), kSubframes * kTracks);
      long frame_checksum = 0;
      for (int s = 0; s < kSubframes; ++s) {
        gint gain(scperf::detail::RawTag{},
                  t.gain[static_cast<std::size_t>(s)]);
        annot::build_excitation(gframe, s * kSub, gain, gpulses,
                                s * kTracks, gexc);
        gint cs = annot::postproc(gsubc, s * kOrder, gexc, gmem, gout);
        frame_checksum += cs.value();
      }
      fout.write(frame_checksum);
    }
  });

  long total = 0;
  sim.spawn("sink", [&] {
    for (int f = 0; f < frames; ++f) total += fout.read();
  });

  const auto reason = sim.run();
  if (reason != minisc::StopReason::kFinished) {
    throw std::runtime_error(std::string("vocoder pipeline did not finish: ") +
                             minisc::to_string(reason));
  }

  result.checksum = total;
  result.sim_time = sim.now();
  for (const char* name : kProcessNames) {
    result.process_cycles[name] = est.process_cycles(name);
    if (cfg.with_energy) {
      result.process_energy_pj[name] = est.process_energy_pj(name);
    }
  }
  result.report = est.report();
  return result;
}

long run_reference(int frames) {
  std::int32_t prev[kOrder] = {};
  std::int32_t hist[kHist] = {};
  std::int32_t mem[kOrder] = {};
  long total = 0;
  for (int f = 0; f < frames; ++f) {
    const auto frame = synth_frame(f);
    std::int32_t lpc[kOrder];
    ref::lsp_estimation(frame.data(), lpc);
    std::int32_t subc[kSubframes * kOrder];
    ref::lpc_interpolation(prev, lpc, subc);
    std::int32_t i = 0;
    while (i < kOrder) {
      prev[i] = lpc[i];
      i = i + 1;
    }
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

IssPipelineResult run_iss(int frames) {
  IssPipelineResult r;
  IssVocoder vc;
  for (int f = 0; f < frames; ++f) {
    r.checksum += vc.process_frame(synth_frame(f));
  }
  r.cycles = vc.cycles();
  return r;
}

}  // namespace workloads::vocoder
