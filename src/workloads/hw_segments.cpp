#include "workloads/hw_segments.hpp"

#include <cstdint>
#include <vector>

#include "core/annot.hpp"
#include "workloads/data.hpp"

namespace workloads {
namespace {

constexpr int kTaps = 16;

long fir_sample_body() {
  scperf::garray<int> x = load(random_vector(kTaps, 61, -2048, 2047));
  scperf::garray<int> h = load(random_vector(kTaps, 62, -1024, 1023));

  // Balanced accumulation: products pair-wise summed so the recorded DFG
  // exposes the parallelism behavioural synthesis can exploit. (A straight
  // serial accumulation would make BC equal WC by construction.)
  scperf::garray<int> prod(kTaps);
  scperf::gint i = 0;
  while (i < kTaps) {
    prod[i] = x[i] * h[i];
    i = i + 1;
  }
  scperf::gint stride = 1;
  while (stride < kTaps) {
    scperf::gint j = 0;
    while (j < kTaps) {
      prod[j] = prod[j] + prod[j + stride];
      j = j + (stride << 1);
    }
    stride = stride << 1;
  }
  scperf::gint y = prod[0] >> 12;
  return y.value();
}

constexpr int kEulerSteps = 8;

long euler_body() {
  // Q12 fixed point: y' = (b - a*y); y += h * y' with h, a, b constants.
  scperf::gint y(scperf::detail::RawTag{}, 4096);  // y0 = 1.0
  scperf::gint a(scperf::detail::RawTag{}, 1024);  // a  = 0.25
  scperf::gint b(scperf::detail::RawTag{}, 2048);  // b  = 0.5
  scperf::gint h(scperf::detail::RawTag{}, 410);   // h  = 0.1
  scperf::gint k = 0;
  while (k < kEulerSteps) {
    scperf::gint ay = (a * y) >> 12;
    scperf::gint deriv = b - ay;
    scperf::gint delta = (h * deriv) >> 12;
    y = y + delta;
    k = k + 1;
  }
  return y.value();
}

}  // namespace

HwSegment fir_hw_segment() { return {"FIR", fir_sample_body}; }
HwSegment euler_hw_segment() { return {"Euler", euler_body}; }

}  // namespace workloads
