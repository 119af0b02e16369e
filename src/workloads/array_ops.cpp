#include <cstdint>
#include <vector>

#include "core/annot.hpp"
#include "iss/machine.hpp"
#include "workloads/data.hpp"
#include "workloads/table1.hpp"

namespace workloads {
namespace {

constexpr int kN = 256;

std::vector<std::int32_t> array_a() {
  return random_vector(kN, 51, -1000, 1000);
}
std::vector<std::int32_t> array_b() {
  return random_vector(kN, 52, 1, 500);
}

// c[i] = ((a[i]*b[i]) >> 4) + (a[i] - b[i]); checksum = sum(c) with an
// extra conditional accumulation to exercise data-dependent branches.
template <class V, class A>
long array(const A& a, const A& b) {
  V checksum = 0;
  V i = 0;
  while (i < kN) {
    V c = ((a[i] * b[i]) >> 4) + (a[i] - b[i]);
    if (c > 0) {
      checksum = checksum + c;
    } else {
      checksum = checksum - c;
    }
    i = i + 1;
  }
  return value_of(checksum);
}

// array(r3 = &a, r4 = &b, r5 = n) -> r11
constexpr const char* kArrayAsm = R"(
array:
  li   r11, 0
  li   r13, 0           # i
a_loop:
  sflt r13, r5
  bnf  a_done
  slli r14, r13, 2
  add  r15, r14, r3
  lw   r16, 0(r15)      # a[i]
  add  r17, r14, r4
  lw   r18, 0(r17)      # b[i]
  mul  r19, r16, r18
  srai r19, r19, 4
  sub  r20, r16, r18
  add  r21, r19, r20    # c
  sfgti r21, 0
  bnf  a_neg
  add  r11, r11, r21
  j    a_next
a_neg:
  sub  r11, r11, r21
a_next:
  addi r13, r13, 1
  j    a_loop
a_done:
  ret
)";

IssResult array_iss(const IssCacheConfig& cfg) {
  return run_on_iss(cfg, kArrayAsm, "array", [](iss::Machine& m) {
    constexpr std::uint32_t kAAddr = 0x1000;
    constexpr std::uint32_t kBAddr = 0x2000;
    store_words(m, kAAddr, array_a());
    store_words(m, kBAddr, array_b());
    m.set_reg(3, kAAddr);
    m.set_reg(4, kBAddr);
    m.set_reg(5, kN);
  });
}

}  // namespace

Benchmark make_array() {
  return {"Array", [] { return array<std::int32_t>(array_a(), array_b()); },
          [] { return array<scperf::gint>(load(array_a()), load(array_b())); },
          array_iss};
}

}  // namespace workloads
