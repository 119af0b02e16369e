#include <cstdint>
#include <vector>

#include "core/annot.hpp"
#include "iss/machine.hpp"
#include "workloads/data.hpp"
#include "workloads/table1.hpp"

namespace workloads {
namespace {

constexpr int kTaps = 16;
constexpr int kSamples = 256;
constexpr std::uint32_t kSeedX = 11;
constexpr std::uint32_t kSeedH = 12;

std::vector<std::int32_t> fir_x() {
  return random_vector(kSamples + kTaps, kSeedX, -2048, 2047);
}
std::vector<std::int32_t> fir_h() {
  return random_vector(kTaps, kSeedH, -1024, 1023);
}

template <class V, class A>
long fir(const A& x, const A& h) {
  V checksum = 0;
  V i = 0;
  while (i < kSamples) {
    V acc = 0;
    V j = 0;
    while (j < kTaps) {
      acc = acc + x[i + j] * h[j];
      j = j + 1;
    }
    acc = acc >> 12;  // Q12 scaling
    checksum = checksum + acc;
    i = i + 1;
  }
  return value_of(checksum);
}

// fir(r3 = &x, r4 = &h, r5 = &y, r6 = n, r7 = taps) -> r11 = checksum
constexpr const char* kFirAsm = R"(
fir:
  li   r11, 0            # checksum
  li   r13, 0            # i
fir_outer:
  sflt r13, r6
  bnf  fir_done
  li   r14, 0            # acc
  li   r15, 0            # j
  slli r16, r13, 2
  add  r16, r16, r3      # &x[i]
  mov  r17, r4           # &h[0]
fir_inner:
  sflt r15, r7
  bnf  fir_inner_done
  lw   r18, 0(r16)
  lw   r19, 0(r17)
  mul  r20, r18, r19
  add  r14, r14, r20
  addi r16, r16, 4
  addi r17, r17, 4
  addi r15, r15, 1
  j    fir_inner
fir_inner_done:
  srai r14, r14, 12
  slli r20, r13, 2
  add  r20, r20, r5
  sw   r14, 0(r20)
  add  r11, r11, r14
  addi r13, r13, 1
  j    fir_outer
fir_done:
  ret
)";

IssResult fir_iss(const IssCacheConfig& cfg) {
  return run_on_iss(cfg, kFirAsm, "fir", [](iss::Machine& m) {
    constexpr std::uint32_t kXAddr = 0x1000;
    constexpr std::uint32_t kHAddr = 0x2000;
    constexpr std::uint32_t kYAddr = 0x3000;
    store_words(m, kXAddr, fir_x());
    store_words(m, kHAddr, fir_h());
    m.set_reg(3, kXAddr);
    m.set_reg(4, kHAddr);
    m.set_reg(5, kYAddr);
    m.set_reg(6, kSamples);
    m.set_reg(7, kTaps);
  });
}

}  // namespace

Benchmark make_fir() {
  return {"FIR", [] { return fir<std::int32_t>(fir_x(), fir_h()); },
          [] { return fir<scperf::gint>(load(fir_x()), load(fir_h())); },
          fir_iss};
}

}  // namespace workloads
