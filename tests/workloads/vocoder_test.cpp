#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/scperf.hpp"
#include "kernel/hash.hpp"
#include "workloads/data.hpp"
#include "workloads/vocoder/frames.hpp"
#include "workloads/vocoder/kernels.hpp"
#include "workloads/vocoder/kernels_asm.hpp"
#include "workloads/vocoder/pipeline.hpp"

namespace workloads::vocoder {
namespace {

// ---- frame synthesis ---------------------------------------------------------

TEST(Frames, DeterministicAndBounded) {
  const auto a = synth_frame(5);
  const auto b = synth_frame(5);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), static_cast<std::size_t>(kFrame));
  for (std::int32_t s : a) {
    EXPECT_LE(s, 2047);
    EXPECT_GE(s, -2047);
  }
}

TEST(Frames, DifferentIndicesDiffer) {
  EXPECT_NE(synth_frame(0), synth_frame(1));
}

// ---- kernel equivalence: reference vs annotated ------------------------------

TEST(VocoderKernels, LspEstimationRefVsAnnot) {
  const auto frame = synth_frame(2);
  std::int32_t lpc_ref[kOrder];
  ref::lsp_estimation(frame.data(), lpc_ref);

  scperf::garray<int> gframe(kFrame), glpc(kOrder);
  for (int i = 0; i < kFrame; ++i) {
    gframe.at_raw(static_cast<std::size_t>(i))
        .set_raw(frame[static_cast<std::size_t>(i)]);
  }
  annot::lsp_estimation(gframe, glpc);
  for (int i = 0; i < kOrder; ++i) {
    EXPECT_EQ(glpc.at_raw(static_cast<std::size_t>(i)).value(), lpc_ref[i])
        << "coefficient " << i;
  }
}

using scperf::garray;
using scperf::gint;

/// The seven kernels, in the order a frame passes them.
enum Kernel {
  kLsp, kLpcInt, kAcb, kUpdateHistory, kIcb, kExcitation, kPostproc
};
constexpr const char* kKernelNames[] = {
    "lsp_estimation", "lpc_interpolation", "acb_search", "update_history",
    "icb_search",     "build_excitation",  "postproc"};

/// FNV-1a, over frames 0..19, of each kernel's annotated op histogram: the
/// 25 per-kind counts, space-separated in Op order.
constexpr std::uint64_t kKernelHistogramFnv1a[] = {
    0x1b6020b554b6c6a6ull, 0x2bcdd9eeeed4cd98ull, 0xe11d622cadf31fd2ull,
    0x646e7ebb9282258bull, 0x513f96ce31bf6ac4ull, 0x3b4fdec9d0646fddull,
    0xc21eb9121015bca8ull};

garray<int> load(const std::int32_t* p, int n) {
  return workloads::load({p, static_cast<std::size_t>(n)});
}

std::vector<std::int32_t> words(const std::int32_t* p, int n) {
  return {p, p + n};
}

std::vector<std::int32_t> words(const garray<int>& g) {
  std::vector<std::int32_t> v(g.size());
  for (std::size_t i = 0; i < g.size(); ++i) v[i] = g.at_raw(i).value();
  return v;
}

/// Runs the reference pipeline over frames 0..19 and, at every call of the
/// kernel under test, runs its annotated form on the same inputs and
/// compares every output element, so an adapter that writes at a wrong
/// offset or drops an out-parameter fails here even where the pipeline's
/// checksum would not notice.
class VocoderKernelForms : public ::testing::TestWithParam<int> {};

TEST_P(VocoderKernelForms, RefMatchesAnnotOnFramesZeroToNineteen) {
  const int kernel = GetParam();
  const scperf::CostTable table = scperf::orsim_sw_cost_table();
  scperf::SegmentAccum acc;
  acc.table = &table;
  // The annotated call under test runs with `acc` active, the rest without.
  const auto annotated = [&](auto&& call) {
    scperf::tl_accum = &acc;
    call();
    scperf::tl_accum = nullptr;
  };
  std::int32_t prev[kOrder] = {}, hist[kHist] = {}, mem[kOrder] = {};
  for (int f = 0; f < 20; ++f) {
    SCOPED_TRACE("frame " + std::to_string(f));
    const auto frame = synth_frame(f);
    const garray<int> gframe = load(frame.data(), kFrame);
    std::int32_t lpc[kOrder];
    ref::lsp_estimation(frame.data(), lpc);
    if (kernel == kLsp) {
      garray<int> glpc(kOrder);
      annotated([&] { annot::lsp_estimation(gframe, glpc); });
      EXPECT_EQ(words(glpc), words(lpc, kOrder));
    }
    std::int32_t subc[kSubframes * kOrder];
    if (kernel == kLpcInt) {
      const garray<int> gprev = load(prev, kOrder), gcur = load(lpc, kOrder);
      garray<int> gsubc(kSubframes * kOrder);
      annotated([&] { annot::lpc_interpolation(gprev, gcur, gsubc); });
      ref::lpc_interpolation(prev, lpc, subc);
      EXPECT_EQ(words(gsubc), words(subc, kSubframes * kOrder));
    } else {
      ref::lpc_interpolation(prev, lpc, subc);
    }
    std::copy(lpc, lpc + kOrder, prev);
    std::int32_t gain[kSubframes], lag[kSubframes];
    std::int32_t pulses[kSubframes * kTracks] = {};
    for (int s = 0; s < kSubframes; ++s) {
      const std::int32_t* sub = frame.data() + s * kSub;
      if (kernel == kAcb) {
        const garray<int> ghist = load(hist, kHist);
        gint glag(scperf::detail::RawTag{}, 0);
        std::int32_t ggain = 0;
        annotated([&] {
          ggain = annot::acb_search(gframe, s * kSub, ghist, glag).value();
        });
        gain[s] = ref::acb_search(sub, hist, &lag[s]);
        EXPECT_EQ(ggain, gain[s]) << "subframe " << s;
        EXPECT_EQ(glag.value(), lag[s]) << "subframe " << s;
      } else {
        gain[s] = ref::acb_search(sub, hist, &lag[s]);
      }
      if (kernel == kUpdateHistory) {
        garray<int> ghist = load(hist, kHist);
        annotated([&] { annot::update_history(ghist, gframe, s * kSub); });
        ref::update_history(hist, sub);
        EXPECT_EQ(words(ghist), words(hist, kHist)) << "subframe " << s;
      } else {
        ref::update_history(hist, sub);
      }
    }
    for (int s = 0; s < kSubframes; ++s) {
      const std::int32_t* sub = frame.data() + s * kSub;
      if (kernel == kIcb) {
        garray<int> gpulses = load(pulses, kSubframes * kTracks);
        std::int32_t gtotal = 0;
        annotated([&] {
          gtotal = annot::icb_search(gframe, s * kSub, gpulses, s * kTracks)
                       .value();
        });
        EXPECT_EQ(gtotal, ref::icb_search(sub, pulses + s * kTracks))
            << "subframe " << s;
        EXPECT_EQ(words(gpulses), words(pulses, kSubframes * kTracks))
            << "subframe " << s;
      } else {
        (void)ref::icb_search(sub, pulses + s * kTracks);
      }
    }
    const garray<int> gsubc = load(subc, kSubframes * kOrder);
    const garray<int> gpulses = load(pulses, kSubframes * kTracks);
    for (int s = 0; s < kSubframes; ++s) {
      const std::int32_t* sub = frame.data() + s * kSub;
      std::int32_t exc[kSub], out[kSub] = {};
      if (kernel == kExcitation) {
        const gint ggain(scperf::detail::RawTag{}, gain[s]);
        garray<int> gexc(kSub);
        annotated([&] {
          annot::build_excitation(gframe, s * kSub, ggain, gpulses,
                                  s * kTracks, gexc);
        });
        ref::build_excitation(sub, gain[s], pulses + s * kTracks, exc);
        EXPECT_EQ(words(gexc), words(exc, kSub)) << "subframe " << s;
      } else {
        ref::build_excitation(sub, gain[s], pulses + s * kTracks, exc);
      }
      if (kernel == kPostproc) {
        const garray<int> gexc = load(exc, kSub);
        garray<int> gmem = load(mem, kOrder), gout = load(out, kSub);
        std::int32_t gchecksum = 0;
        annotated([&] {
          gchecksum =
              annot::postproc(gsubc, s * kOrder, gexc, gmem, gout).value();
        });
        EXPECT_EQ(gchecksum, ref::postproc(subc + s * kOrder, exc, mem, out))
            << "subframe " << s;
        EXPECT_EQ(words(gmem), words(mem, kOrder)) << "subframe " << s;
        EXPECT_EQ(words(gout), words(out, kSub)) << "subframe " << s;
      } else {
        (void)ref::postproc(subc + s * kOrder, exc, mem, out);
      }
    }
  }
  std::string counts;
  for (const std::uint64_t n : acc.op_histogram) {
    counts += std::to_string(n) + " ";
  }
  EXPECT_EQ(minisc::fnv1a(counts), kKernelHistogramFnv1a[kernel]) << counts;
}

INSTANTIATE_TEST_SUITE_P(
    SevenKernels, VocoderKernelForms, ::testing::Range(0, 7),
    [](const ::testing::TestParamInfo<int>& info) {
      return std::string(kKernelNames[info.param]);
    });

TEST(VocoderKernels, LpcCoefficientsBounded) {
  // The Levinson recursion clips intermediate values; outputs must respect
  // the documented bound whatever the input frame.
  for (int f = 0; f < 20; ++f) {
    const auto frame = synth_frame(f);
    std::int32_t lpc[kOrder];
    ref::lsp_estimation(frame.data(), lpc);
    for (int i = 0; i < kOrder; ++i) {
      EXPECT_LE(lpc[i], 32767);
      EXPECT_GE(lpc[i], -32767);
    }
  }
}

TEST(VocoderKernels, AcbSearchStaysInHistoryBounds) {
  // Regression test for the out-of-bounds lag window: the minimum lag must
  // keep hist[kHist - lag + n] inside the buffer for all n < kSub.
  static_assert(kMinLag >= kSub);
  static_assert(kHist - kMinLag + kSub <= kHist);
}

TEST(VocoderKernels, AcbGainNonNegativeAndClipped) {
  std::int32_t hist[kHist];
  for (int i = 0; i < kHist; ++i) hist[i] = (i * 37) % 4001 - 2000;
  for (int f = 0; f < 8; ++f) {
    const auto frame = synth_frame(f);
    std::int32_t lag = 0;
    const std::int32_t gain = ref::acb_search(frame.data(), hist, &lag);
    EXPECT_GE(gain, 0);
    EXPECT_LE(gain, 8191);
    EXPECT_GE(lag, kMinLag);
    EXPECT_LE(lag, kMaxLag);
  }
}

TEST(VocoderKernels, IcbPulsesOnDistinctTracks) {
  const auto frame = synth_frame(4);
  std::int32_t pulses[kTracks];
  ref::icb_search(frame.data(), pulses);
  for (int t = 0; t < kTracks; ++t) {
    const std::int32_t pos = pulses[t] >> 1;
    EXPECT_GE(pos, 0);
    EXPECT_LT(pos, kSub);
    EXPECT_EQ(pos % kTracks, t) << "pulse " << t << " off its track";
  }
}

TEST(VocoderKernels, PostprocOutputClipped) {
  const auto frame = synth_frame(6);
  std::int32_t lpc[kOrder];
  ref::lsp_estimation(frame.data(), lpc);
  std::int32_t prev[kOrder] = {};
  std::int32_t subc[kSubframes * kOrder];
  ref::lpc_interpolation(prev, lpc, subc);
  std::int32_t exc[kSub];
  for (int n = 0; n < kSub; ++n) exc[n] = frame[static_cast<std::size_t>(n)];
  std::int32_t mem[kOrder] = {};
  std::int32_t out[kSub];
  (void)ref::postproc(subc, exc, mem, out);
  for (int n = 0; n < kSub; ++n) {
    EXPECT_LE(out[n], 4095);
    EXPECT_GE(out[n], -4096);
  }
}

TEST(VocoderKernels, UpdateHistoryShiftsAndAppends) {
  std::int32_t hist[kHist];
  for (int i = 0; i < kHist; ++i) hist[i] = i;
  std::int32_t sub[kSub];
  for (int i = 0; i < kSub; ++i) sub[i] = 1000 + i;
  ref::update_history(hist, sub);
  EXPECT_EQ(hist[0], kSub);           // shifted left by one subframe
  EXPECT_EQ(hist[kHist - kSub - 1], kHist - 1);
  EXPECT_EQ(hist[kHist - kSub], 1000);  // appended
  EXPECT_EQ(hist[kHist - 1], 1000 + kSub - 1);
}

// ---- full-pipeline agreement across the three forms --------------------------

TEST(VocoderPipeline, ChecksumsAgreeAcrossForms) {
  constexpr int kFrames = 4;
  const long ref_checksum = run_reference(kFrames);
  const IssPipelineResult iss = run_iss(kFrames);
  const AnnotatedResult ann = run_annotated({.frames = kFrames});
  EXPECT_EQ(ref_checksum, iss.checksum);
  EXPECT_EQ(ref_checksum, ann.checksum);
}

TEST(VocoderPipeline, IssChargesEveryStage) {
  const IssPipelineResult iss = run_iss(2);
  EXPECT_GT(iss.cycles.lsp, 0u);
  EXPECT_GT(iss.cycles.lpc_int, 0u);
  EXPECT_GT(iss.cycles.acb, 0u);
  EXPECT_GT(iss.cycles.icb, 0u);
  EXPECT_GT(iss.cycles.post, 0u);
}

TEST(VocoderPipeline, LibraryTracksIssPerProcessWithinTenPercent) {
  // Table 3's accuracy claim at test scale: every process estimate within
  // 10% of the ISS (the shipped calibration achieves ~5%).
  constexpr int kFrames = 4;
  const AnnotatedResult ann = run_annotated({.frames = kFrames});
  const IssPipelineResult iss = run_iss(kFrames);
  const std::uint64_t iss_cycles[5] = {iss.cycles.lsp, iss.cycles.lpc_int,
                                       iss.cycles.acb, iss.cycles.icb,
                                       iss.cycles.post};
  for (int p = 0; p < 5; ++p) {
    const double lib = ann.process_cycles.at(kProcessNames[p]);
    const double ref = static_cast<double>(iss_cycles[p]);
    EXPECT_NEAR(lib, ref, 0.10 * ref) << kProcessNames[p];
  }
}

TEST(VocoderPipeline, MakespanAtLeastBottleneckProcess) {
  const AnnotatedResult ann = run_annotated({.frames = 3, .cpu_mhz = 50.0});
  double total_cycles = 0;
  for (const auto& [name, cyc] : ann.process_cycles) total_cycles += cyc;
  // All five share one CPU: the makespan cannot be shorter than the summed
  // computation time.
  const double total_ms = total_cycles / 50.0 / 1e6 * 1e3;
  EXPECT_GE(ann.sim_time.to_ms_d() * 1.0001, total_ms);
}

TEST(VocoderPipeline, RtosOverheadIncreasesMakespan) {
  const AnnotatedResult base =
      run_annotated({.frames = 2, .rtos_cycles_per_switch = 0.0});
  const AnnotatedResult rtos =
      run_annotated({.frames = 2, .rtos_cycles_per_switch = 500.0});
  EXPECT_EQ(base.checksum, rtos.checksum);
  EXPECT_GT(rtos.sim_time, base.sim_time);
}

TEST(VocoderPipeline, PostprocOnHwShortensMakespan) {
  const AnnotatedResult sw = run_annotated({.frames = 3});
  const AnnotatedResult hw =
      run_annotated({.frames = 3, .postproc_on_hw = true, .hw_k = 0.0});
  EXPECT_EQ(sw.checksum, hw.checksum);
  EXPECT_LT(hw.sim_time, sw.sim_time);
}

TEST(VocoderIss, StageCyclesAccumulateAcrossFrames) {
  IssVocoder vc;
  vc.process_frame(synth_frame(0));
  const std::uint64_t after_one = vc.cycles().total();
  vc.process_frame(synth_frame(1));
  EXPECT_GT(vc.cycles().total(), after_one);
}

}  // namespace
}  // namespace workloads::vocoder
