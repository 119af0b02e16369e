#include <cstdint>
#include <vector>

#include "core/annot.hpp"
#include "iss/machine.hpp"
#include "workloads/data.hpp"
#include "workloads/table1.hpp"

// Out-of-sample validation workload: 24x24 integer matrix multiply. It is
// deliberately NOT part of table1_suite() (the paper's table has exactly six
// rows) and NOT part of the cost-table calibration set, so its estimation
// error measures how the calibrated weights generalise to unseen code.

namespace workloads {
namespace {

constexpr int kN = 24;

std::vector<std::int32_t> mat_a() {
  return random_vector(kN * kN, 71, -100, 100);
}
std::vector<std::int32_t> mat_b() {
  return random_vector(kN * kN, 72, -100, 100);
}

// Row-base and column-stride indices are hoisted, the usual DSP source style
// (and what a compiler's strength reduction produces anyway). The naive
// `a[i*N+k]` form over-estimates by ~30% because the library charges the
// per-iteration address multiplies the compiler eliminates — measured in
// OutOfSample.NaiveIndexingOverestimates.
template <class V, class A>
long matrix(const A& a, const A& b) {
  auto c = scratch<A, kN * kN>();
  V i = 0;
  while (i < kN) {
    V arow = i * kN;
    V j = 0;
    while (j < kN) {
      V acc = 0;
      V bidx = j;
      V k = 0;
      while (k < kN) {
        acc = acc + a[arow + k] * b[bidx];
        bidx = bidx + kN;
        k = k + 1;
      }
      c[arow + j] = acc;
      j = j + 1;
    }
    i = i + 1;
  }
  V checksum = 0;
  V n = 0;
  while (n < kN * kN) {
    checksum = checksum + (c[n] >> 4);
    n = n + 1;
  }
  return value_of(checksum);
}

// matmul(r3 = &a, r4 = &b, r5 = &c, r6 = n) -> r11 = checksum
constexpr const char* kMatrixAsm = R"(
matmul:
  li   r13, 0           # i
m_i:
  sflt r13, r6
  bnf  m_chk
  li   r14, 0           # j
m_j:
  sflt r14, r6
  bnf  m_i_next
  li   r15, 0           # acc
  li   r16, 0           # k
  # &a[i*n]
  mul  r17, r13, r6
  slli r17, r17, 2
  add  r17, r17, r3
  # &b[j] walking with stride 4n
  slli r18, r14, 2
  add  r18, r18, r4
  slli r19, r6, 2       # stride in bytes
m_k:
  sflt r16, r6
  bnf  m_k_done
  lw   r20, 0(r17)
  lw   r21, 0(r18)
  mul  r22, r20, r21
  add  r15, r15, r22
  addi r17, r17, 4
  add  r18, r18, r19
  addi r16, r16, 1
  j    m_k
m_k_done:
  mul  r20, r13, r6
  add  r20, r20, r14
  slli r20, r20, 2
  add  r20, r20, r5
  sw   r15, 0(r20)      # c[i*n+j] = acc
  addi r14, r14, 1
  j    m_j
m_i_next:
  addi r13, r13, 1
  j    m_i
m_chk:
  li   r11, 0
  li   r13, 0
  mul  r14, r6, r6
m_c:
  sflt r13, r14
  bnf  m_done
  slli r15, r13, 2
  add  r15, r15, r5
  lw   r16, 0(r15)
  srai r16, r16, 4
  add  r11, r11, r16
  addi r13, r13, 1
  j    m_c
m_done:
  ret
)";

IssResult matrix_iss(const IssCacheConfig& cfg) {
  return run_on_iss(cfg, kMatrixAsm, "matmul", [](iss::Machine& m) {
    constexpr std::uint32_t kAAddr = 0x10000;
    constexpr std::uint32_t kBAddr = 0x20000;
    constexpr std::uint32_t kCAddr = 0x30000;
    store_words(m, kAAddr, mat_a());
    store_words(m, kBAddr, mat_b());
    m.set_reg(3, kAAddr);
    m.set_reg(4, kBAddr);
    m.set_reg(5, kCAddr);
    m.set_reg(6, kN);
  });
}

}  // namespace

Benchmark make_matrix() {
  return {"Matrix", [] { return matrix<std::int32_t>(mat_a(), mat_b()); },
          [] { return matrix<scperf::gint>(load(mat_a()), load(mat_b())); },
          matrix_iss};
}

}  // namespace workloads
