#include <cstdint>
#include <vector>

#include "core/annot.hpp"
#include "iss/machine.hpp"
#include "workloads/data.hpp"
#include "workloads/table1.hpp"

namespace workloads {
namespace {

constexpr int kWords = 1024;

/// Runs of small symbol values, the natural input for run-length encoding.
std::vector<std::int32_t> compress_input() {
  Lcg rng(31);
  std::vector<std::int32_t> v;
  v.reserve(kWords);
  while (v.size() < kWords) {
    const std::int32_t symbol = rng.in_range(0, 7);
    const std::int32_t run = rng.in_range(1, 12);
    for (std::int32_t r = 0; r < run && v.size() < kWords; ++r) {
      v.push_back(symbol);
    }
  }
  return v;
}

// RLE: emit (symbol, run-length) pairs; checksum folds both streams so a
// mis-encoded run is caught.
template <class V, class A>
long compress(const A& in) {
  V checksum = 0;
  V pairs = 0;
  V i = 0;
  while (i < kWords) {
    V symbol = in[i];
    V run = 1;
    while ((i + run < kWords) && (in[i + run] == symbol)) {
      run = run + 1;
    }
    checksum = checksum + (symbol << 4) + run;
    pairs = pairs + 1;
    i = i + run;
  }
  return value_of(checksum * 100 + pairs);
}

// compress(r3 = &in, r4 = n) -> r11 = checksum*100 + pairs
constexpr const char* kCompressAsm = R"(
compress:
  li   r13, 0           # i
  li   r14, 0           # checksum
  li   r15, 0           # pairs
c_outer:
  sflt r13, r4
  bnf  c_done
  slli r16, r13, 2
  add  r16, r16, r3
  lw   r17, 0(r16)      # symbol
  li   r18, 1           # run
c_run:
  add  r19, r13, r18
  sflt r19, r4
  bnf  c_run_done
  slli r20, r19, 2
  add  r20, r20, r3
  lw   r21, 0(r20)
  sfeq r21, r17
  bnf  c_run_done
  addi r18, r18, 1
  j    c_run
c_run_done:
  slli r22, r17, 4      # symbol * 16
  add  r22, r22, r18
  add  r14, r14, r22
  addi r15, r15, 1
  add  r13, r13, r18
  j    c_outer
c_done:
  li   r23, 100
  mul  r11, r14, r23
  add  r11, r11, r15
  ret
)";

IssResult compress_iss(const IssCacheConfig& cfg) {
  return run_on_iss(cfg, kCompressAsm, "compress", [](iss::Machine& m) {
    constexpr std::uint32_t kInAddr = 0x1000;
    store_words(m, kInAddr, compress_input());
    m.set_reg(3, kInAddr);
    m.set_reg(4, kWords);
  });
}

}  // namespace

Benchmark make_compress() {
  return {"Compress", [] { return compress<std::int32_t>(compress_input()); },
          [] { return compress<scperf::gint>(load(compress_input())); },
          compress_iss};
}

}  // namespace workloads
