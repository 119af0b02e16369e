#include <cstdint>
#include <vector>

#include "core/annot.hpp"
#include "iss/machine.hpp"
#include "workloads/data.hpp"
#include "workloads/table1.hpp"

namespace workloads {
namespace {

constexpr int kQuickN = 512;
constexpr int kBubbleN = 128;

std::vector<std::int32_t> quick_input() {
  return random_vector(kQuickN, 41, 0, 999);
}
std::vector<std::int32_t> bubble_input() {
  return random_vector(kBubbleN, 42, 0, 999);
}

// ---- quicksort (explicit-stack Lomuto partition) ---------------------------

/// Sorts `a`; returns its position-weighted checksum, which catches both
/// wrong contents and wrong order.
template <class V, class A>
long quick(A a) {
  auto stack = scratch<A, 256>();
  V sp = 0;
  stack[sp] = 0;
  stack[sp + 1] = kQuickN - 1;
  sp = sp + 2;
  while (sp > 0) {
    sp = sp - 2;
    V lo = stack[sp];
    V hi = stack[sp + 1];
    if (lo >= hi) continue;
    V pivot = a[hi];
    V i = lo;
    V j = lo;
    while (j < hi) {
      if (a[j] <= pivot) {
        V t = a[i];
        a[i] = a[j];
        a[j] = t;
        i = i + 1;
      }
      j = j + 1;
    }
    V t = a[i];
    a[i] = a[hi];
    a[hi] = t;
    stack[sp] = lo;
    stack[sp + 1] = i - 1;
    sp = sp + 2;
    stack[sp] = i + 1;
    stack[sp + 1] = hi;
    sp = sp + 2;
  }

  V checksum = 0;
  V k = 0;
  while (k < kQuickN) {
    checksum = checksum + a[k] * (k + 1);
    k = k + 1;
  }
  return value_of(checksum);
}

// quicksort(r3 = &a, r4 = n, r5 = &stack) -> r11 = position checksum
constexpr const char* kQuickAsm = R"(
quicksort:
  li   r13, 0           # sp (word index)
  slli r14, r13, 2
  add  r14, r14, r5
  sw   r0, 0(r14)       # stack[0] = 0
  addi r15, r4, -1
  sw   r15, 4(r14)      # stack[1] = n-1
  li   r13, 2
q_loop:
  sfgti r13, 0
  bnf  q_done
  addi r13, r13, -2
  slli r14, r13, 2
  add  r14, r14, r5
  lw   r16, 0(r14)      # lo
  lw   r17, 4(r14)      # hi
  sfge r16, r17
  bf   q_loop           # lo >= hi: skip
  slli r18, r17, 2
  add  r18, r18, r3
  lw   r19, 0(r18)      # pivot = a[hi]
  mov  r20, r16         # i = lo
  mov  r21, r16         # j = lo
q_part:
  sflt r21, r17
  bnf  q_part_done
  slli r22, r21, 2
  add  r22, r22, r3
  lw   r23, 0(r22)      # a[j]
  sfle r23, r19
  bnf  q_no_swap
  slli r24, r20, 2
  add  r24, r24, r3
  lw   r25, 0(r24)      # t = a[i]
  sw   r23, 0(r24)      # a[i] = a[j]
  sw   r25, 0(r22)      # a[j] = t
  addi r20, r20, 1
q_no_swap:
  addi r21, r21, 1
  j    q_part
q_part_done:
  slli r24, r20, 2
  add  r24, r24, r3
  lw   r25, 0(r24)      # t = a[i]
  lw   r26, 0(r18)      # a[hi]
  sw   r26, 0(r24)
  sw   r25, 0(r18)
  slli r14, r13, 2
  add  r14, r14, r5
  sw   r16, 0(r14)      # push lo
  addi r27, r20, -1
  sw   r27, 4(r14)      # push i-1
  addi r13, r13, 2
  slli r14, r13, 2
  add  r14, r14, r5
  addi r27, r20, 1
  sw   r27, 0(r14)      # push i+1
  sw   r17, 4(r14)      # push hi
  addi r13, r13, 2
  j    q_loop
q_done:
  li   r11, 0
  li   r13, 0
q_chk:
  sflt r13, r4
  bnf  q_chk_done
  slli r14, r13, 2
  add  r14, r14, r3
  lw   r15, 0(r14)
  addi r16, r13, 1
  mul  r17, r15, r16
  add  r11, r11, r17
  addi r13, r13, 1
  j    q_chk
q_chk_done:
  ret
)";

IssResult quick_iss(const IssCacheConfig& cfg) {
  return run_on_iss(cfg, kQuickAsm, "quicksort", [](iss::Machine& m) {
    constexpr std::uint32_t kAAddr = 0x1000;
    constexpr std::uint32_t kStackAddr = 0x8000;
    store_words(m, kAAddr, quick_input());
    m.set_reg(3, kAAddr);
    m.set_reg(4, kQuickN);
    m.set_reg(5, kStackAddr);
  });
}

// ---- bubble sort -------------------------------------------------------------

/// Sorts `a`; returns its position-weighted checksum.
template <class V, class A>
long bubble(A a) {
  V i = 0;
  while (i < kBubbleN - 1) {
    V j = 0;
    while (j < kBubbleN - 1 - i) {
      if (a[j] > a[j + 1]) {
        V t = a[j];
        a[j] = a[j + 1];
        a[j + 1] = t;
      }
      j = j + 1;
    }
    i = i + 1;
  }

  V checksum = 0;
  V k = 0;
  while (k < kBubbleN) {
    checksum = checksum + a[k] * (k + 1);
    k = k + 1;
  }
  return value_of(checksum);
}

// bubble(r3 = &a, r4 = n) -> r11 = position checksum
constexpr const char* kBubbleAsm = R"(
bubble:
  li   r13, 0           # i
  addi r14, r4, -1      # n-1
b_outer:
  sflt r13, r14
  bnf  b_done
  li   r15, 0           # j
  sub  r16, r14, r13    # n-1-i
b_inner:
  sflt r15, r16
  bnf  b_inner_done
  slli r17, r15, 2
  add  r17, r17, r3
  lw   r18, 0(r17)      # a[j]
  lw   r19, 4(r17)      # a[j+1]
  sfgt r18, r19
  bnf  b_no_swap
  sw   r19, 0(r17)
  sw   r18, 4(r17)
b_no_swap:
  addi r15, r15, 1
  j    b_inner
b_inner_done:
  addi r13, r13, 1
  j    b_outer
b_done:
  li   r11, 0
  li   r13, 0
b_chk:
  sflt r13, r4
  bnf  b_chk_done
  slli r17, r13, 2
  add  r17, r17, r3
  lw   r18, 0(r17)
  addi r19, r13, 1
  mul  r20, r18, r19
  add  r11, r11, r20
  addi r13, r13, 1
  j    b_chk
b_chk_done:
  ret
)";

IssResult bubble_iss(const IssCacheConfig& cfg) {
  return run_on_iss(cfg, kBubbleAsm, "bubble", [](iss::Machine& m) {
    constexpr std::uint32_t kAAddr = 0x1000;
    store_words(m, kAAddr, bubble_input());
    m.set_reg(3, kAAddr);
    m.set_reg(4, kBubbleN);
  });
}

}  // namespace

Benchmark make_quicksort() {
  return {"Quick sort", [] { return quick<std::int32_t>(quick_input()); },
          [] { return quick<scperf::gint>(load(quick_input())); }, quick_iss};
}

Benchmark make_bubble() {
  return {"Bubble", [] { return bubble<std::int32_t>(bubble_input()); },
          [] { return bubble<scperf::gint>(load(bubble_input())); },
          bubble_iss};
}

}  // namespace workloads
