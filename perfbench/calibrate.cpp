// Host-speed calibration. On a shared machine the speed this process gets
// drifts by tens of percent over seconds as other tenants load the cores.
// A fixed slice of benchmark-owned work, timed right before each item, slows
// the same way; dividing the item's time by it removes most of the drift.
//
// The slice is fixed-point DSP (the vocoder kernels' shape): autocorrelation
// and Levinson-Durbin over one frame, repeated. On the shared 4-core Xeon
// host the drift came as fast and slow stretches of a few seconds. In the
// slow ones every workload's items took 1.27-1.58x as long; this DSP loop
// took 1.28-1.34x (once 1.68x). A branchy dispatch loop, independent
// multiply chains and libc coroutine switches took only 1.07-1.24x, and a
// slice mixing all four (1.10-1.19x) left a third to a half of the swing in
// the figures. DSP over 64 or 1024 distinct frames, a sort, random writes
// over 1 MiB and std::map churn tracked no better than this loop.

#include <array>
#include <cstdint>

#include "bench.hpp"

namespace perfbench {
namespace {

constexpr int kLen = 160;
constexpr int kOrder = 10;
/// Frames per slice: about a millisecond on an unloaded host of that kind.
constexpr int kReps = 1024;

std::array<std::int32_t, kLen> make_frame() {
  std::array<std::int32_t, kLen> f{};
  std::uint32_t s = 12345;
  for (int i = 0; i < kLen; ++i) {
    s = s * 1664525u + 1013904223u;
    f[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(s >> 21) - 1024;
  }
  return f;
}

/// Autocorrelation + Levinson-Durbin over one frame; returns a checksum.
std::int32_t dsp(const std::array<std::int32_t, kLen>& x, std::int32_t salt) {
  std::int32_t r[kOrder + 1];
  for (int k = 0; k <= kOrder; ++k) {
    std::int32_t acc = 0;
    for (int n = k; n < kLen; ++n) {
      acc += (((x[static_cast<std::size_t>(n)] ^ salt) >> 2) *
              (x[static_cast<std::size_t>(n - k)] >> 2)) >> 6;
    }
    r[k] = acc;
  }
  while (r[0] >= 32768) {
    for (int i = 0; i <= kOrder; ++i) r[i] >>= 1;
  }
  if (r[0] < 1) r[0] = 1;
  std::int32_t a[kOrder + 1] = {4096};
  std::int32_t err = r[0];
  for (int i = 1; i <= kOrder; ++i) {
    std::int32_t acc = r[i];
    for (int j = 1; j < i; ++j) acc -= (a[j] * r[i - j]) >> 12;
    if (acc > 32767) acc = 32767;
    if (acc < -32767) acc = -32767;
    std::int32_t ki = -((acc << 12) / err);
    if (ki > 4095) ki = 4095;
    if (ki < -4095) ki = -4095;
    std::int32_t tmp[kOrder + 1];
    for (int j = 1; j < i; ++j) {
      const std::int32_t v = a[j] + ((ki * a[i - j]) >> 12);
      tmp[j] = v > 32767 ? 32767 : (v < -32767 ? -32767 : v);
    }
    for (int j = 1; j < i; ++j) a[j] = tmp[j];
    a[i] = ki;
    err -= (((ki * ki) >> 12) * err) >> 12;
    if (err < 1) err = 1;
  }
  std::int32_t sum = 0;
  for (int i = 1; i <= kOrder; ++i) sum += a[i];
  return sum;
}

const std::array<std::int32_t, kLen> kFrame = make_frame();

}  // namespace

double calibrate() {
  const std::int64_t t0 = now_ns();
  std::uint64_t sink = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    sink += static_cast<std::uint64_t>(dsp(kFrame, rep));
  }
  asm volatile("" : : "r"(sink));
  return (now_ns() - t0) * 1e-9;
}

}  // namespace perfbench
