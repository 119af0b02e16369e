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

// Memory-heavy sibling for bench/layers' BM_IssInstructionMem, whose loads
// and stores the gate kernel above lacks: per outer trip (r3 of them) the
// vocoder's `acb` inner loop (two streamed word loads, multiply, accumulate
// over 40 elements) and `pp`'s filter-memory shift (nine lw/sw pairs plus
// one store), about 17% loads and 2% stores. Its arrays are at 0x1000,
// 0x2000 and 0x3000.
inline constexpr const char* kIssMemKernelAsm = R"(
kernel:
  li   r11, 0
  li   r13, 0
outer:
  sflt r13, r3
  bnf  done
  li   r14, 0
  li   r15, 0
  li   r20, 0x1000
  li   r21, 0x2000
corr:
  sflti r15, 40
  bnf  corr_done
  lw   r22, 0(r20)
  lw   r23, 0(r21)
  mul  r24, r23, r22
  srai r24, r24, 6
  add  r14, r14, r24
  addi r20, r20, 4
  addi r21, r21, 4
  addi r15, r15, 1
  j    corr
corr_done:
  li   r17, 9
  li   r25, 0x3000
shift:
  sfgti r17, 0
  bnf  shift_done
  slli r20, r17, 2
  add  r21, r20, r25
  lw   r22, -4(r21)
  sw   r22, 0(r21)
  addi r17, r17, -1
  j    shift
shift_done:
  sw   r14, 0(r25)
  add  r11, r11, r14
  addi r13, r13, 1
  j    outer
done:
  ret
)";
