#pragma once

// Loop-heavy orsim kernel shared by ablation_iss_cache's campaign, engagement
// and speedup gates and bench/layers' BM_IssInstruction: nested
// multiply-accumulate with the outer trip count in r3 — the shape of the
// Table-1 FIR workload, parameterisable per seed.
inline constexpr const char* kIssGateKernelAsm = R"(
kernel:
  li   r11, 0
  li   r13, 0
outer:
  sflt r13, r3
  bnf  done
  li   r14, 0
  li   r15, 0
inner:
  sflti r15, 16
  bnf  inner_done
  mul  r20, r15, r13
  add  r14, r14, r20
  addi r15, r15, 1
  j    inner
inner_done:
  srai r14, r14, 4
  add  r11, r11, r14
  addi r13, r13, 1
  j    outer
done:
  ret
)";
