#include <cstdint>
#include <type_traits>

#include "core/annot.hpp"
#include "iss/machine.hpp"
#include "workloads/data.hpp"
#include "workloads/table1.hpp"

namespace workloads {
namespace {

// Recursive Fibonacci: deliberately call-heavy, the stress test for the
// library's function-call weight t_fc (paper Fig. 3's largest single cost).
constexpr int kFibArg = 18;

template <class V>
V fib(const V& n) {
  // The annotated form charges the call cost t_fc here and the return cost
  // on exit; the plain form has no guard.
  struct NoGuard {};
  [[maybe_unused]] std::conditional_t<std::is_same_v<V, scperf::gint>,
                                      scperf::FuncGuard, NoGuard> fg;
  if (n <= 1) {
    return n;
  }
  return fib<V>(n - 1) + fib<V>(n - 2);
}

// fib(r3 = n) -> r11
constexpr const char* kFibAsm = R"(
fib:
  sfgti r3, 1
  bf   fib_rec
  mov  r11, r3          # fib(0) = 0, fib(1) = 1
  ret
fib_rec:
  addi r1, r1, -12      # frame: link, n, fib(n-1)
  sw   r9, 0(r1)
  sw   r3, 4(r1)
  addi r3, r3, -1
  jal  fib
  sw   r11, 8(r1)
  lw   r3, 4(r1)
  addi r3, r3, -2
  jal  fib
  lw   r13, 8(r1)
  add  r11, r11, r13
  lw   r9, 0(r1)
  addi r1, r1, 12
  ret
)";

IssResult fib_iss(const IssCacheConfig& cfg) {
  return run_on_iss(cfg, kFibAsm, "fib", [](iss::Machine& m) {
    m.set_reg(3, kFibArg);
  });
}

}  // namespace

Benchmark make_fibonacci() {
  return {"Fibonacci", [] { return value_of(fib<std::int32_t>(kFibArg)); },
          [] {
            const scperf::gint n(scperf::detail::RawTag{}, kFibArg);
            return value_of(fib(n));
          },
          fib_iss};
}

}  // namespace workloads
