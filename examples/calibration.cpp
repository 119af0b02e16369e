// The platform-vendor workflow behind the shipped cost table (paper §5:
// "Library weights were obtained analyzing assembler code from several
// functions specifically developed for this purpose and taking into account
// microprocessor architectural characteristics").
//
// Automated here: run every calibration kernel in annotated form (collecting
// the per-C++-object operation histogram) and on the cycle-accurate ISS
// (collecting the ground-truth cycle count), then fit per-operation weights
// minimising the worst relative error — random multi-start plus coordinate
// descent. The result is a CostTable ready to paste into a platform
// description; compare with scperf::orsim_sw_cost_table().

#include <array>
#include <cmath>
#include <cstdio>
#include <random>
#include <vector>

#include "core/scperf.hpp"
#include "workloads/table1.hpp"

namespace {

struct Sample {
  std::string name;
  double iss_cycles = 0;
  std::array<double, scperf::kNumOps> hist{};
};

Sample measure(const workloads::Benchmark& b) {
  Sample s;
  s.name = b.name;
  scperf::CostTable table;  // all-zero: we only need the histogram
  scperf::SegmentAccum accum;
  accum.table = &table;
  scperf::tl_accum = &accum;
  (void)b.annotated();
  scperf::tl_accum = nullptr;
  for (std::size_t i = 0; i < scperf::kNumOps; ++i) {
    s.hist[i] = static_cast<double>(accum.op_histogram[i]);
  }
  s.iss_cycles = static_cast<double>(b.iss({}).cycles);
  return s;
}

/// The free parameters of the fit: groups of ops sharing one weight, with
/// search bounds reflecting architectural plausibility.
struct Param {
  const char* name;
  std::vector<scperf::Op> ops;
  double lo, hi;
};

using scperf::Op;
const std::vector<Param>& params() {
  static const std::vector<Param> kParams = {
      {"assign(lvalue)", {Op::kAssign}, 0.0, 4.0},
      {"assign(result)", {Op::kAssignRes}, 0.0, 4.0},
      {"add", {Op::kAdd}, 0.05, 2.0},
      {"sub/neg", {Op::kSub, Op::kNeg}, 0.05, 2.5},
      {"mul", {Op::kMul}, 2.0, 6.0},
      {"compare",
       {Op::kEq, Op::kNe, Op::kLt, Op::kLe, Op::kGt, Op::kGe,
        Op::kLogicalNot},
       0.05, 2.0},
      {"shift", {Op::kShl, Op::kShr}, 0.3, 2.5},
      {"bitwise", {Op::kBitAnd, Op::kBitOr, Op::kBitXor, Op::kBitNot}, 0.3,
       2.0},
      {"branch", {Op::kBranch}, 0.5, 4.5},
      {"index", {Op::kIndex}, 0.05, 2.5},
      {"call", {Op::kCall}, 2.0, 12.0},
      {"return", {Op::kReturn}, 1.0, 6.0},
  };
  return kParams;
}

double estimate(const Sample& s, const std::vector<double>& w) {
  double est = 0.0;
  // Fixed architectural latencies for rare ops not in the fit.
  est += s.hist[static_cast<std::size_t>(Op::kDiv)] * 20.0;
  est += s.hist[static_cast<std::size_t>(Op::kMod)] * 21.0;
  for (std::size_t p = 0; p < params().size(); ++p) {
    for (Op op : params()[p].ops) {
      est += s.hist[static_cast<std::size_t>(op)] * w[p];
    }
  }
  return est;
}

double worst_error(const std::vector<Sample>& samples,
                   const std::vector<double>& w) {
  double worst = 0.0;
  for (const Sample& s : samples) {
    const double e =
        std::fabs(estimate(s, w) - s.iss_cycles) / s.iss_cycles;
    worst = std::max(worst, e);
  }
  return worst;
}

}  // namespace

int main() {
  std::printf("Cost-table calibration against the orsim ISS\n\n");
  std::vector<Sample> samples;
  for (const auto& b : workloads::table1_suite()) {
    samples.push_back(measure(b));
    std::printf("  measured %-12s iss = %10.0f cycles, %8.0f annotated ops\n",
                samples.back().name.c_str(), samples.back().iss_cycles,
                [&] {
                  double n = 0;
                  for (double h : samples.back().hist) n += h;
                  return n;
                }());
  }

  const std::size_t np = params().size();
  std::mt19937 rng(20040216);  // the paper's conference date
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::vector<double> best(np, 1.0);
  double best_err = worst_error(samples, best);

  // Multi-start random search...
  for (int it = 0; it < 200000; ++it) {
    std::vector<double> w(np);
    for (std::size_t p = 0; p < np; ++p) {
      w[p] = params()[p].lo + (params()[p].hi - params()[p].lo) * uni(rng);
    }
    const double e = worst_error(samples, w);
    if (e < best_err) {
      best_err = e;
      best = w;
    }
  }
  // ...then coordinate descent.
  double step = 0.25;
  while (step > 0.001) {
    bool improved = false;
    for (std::size_t p = 0; p < np; ++p) {
      for (double d : {-step, step}) {
        std::vector<double> w = best;
        w[p] = std::max(0.0, w[p] + d);
        const double e = worst_error(samples, w);
        if (e < best_err) {
          best_err = e;
          best = w;
          improved = true;
        }
      }
    }
    if (!improved) step *= 0.5;
  }

  std::printf("\nfitted weights (worst error %.2f%%):\n", best_err * 100.0);
  for (std::size_t p = 0; p < np; ++p) {
    std::printf("  %-16s %6.3f cycles\n", params()[p].name, best[p]);
  }
  std::printf("\nper-benchmark residuals:\n");
  for (const Sample& s : samples) {
    std::printf("  %-12s est %10.0f  iss %10.0f  err %+6.2f%%\n",
                s.name.c_str(), estimate(s, best), s.iss_cycles,
                100.0 * (estimate(s, best) - s.iss_cycles) / s.iss_cycles);
  }
  std::printf("\nPaste into a CostTable (cf. scperf::orsim_sw_cost_table(),\n"
              "which was additionally fitted against the vocoder kernels).\n");
  return 0;
}
