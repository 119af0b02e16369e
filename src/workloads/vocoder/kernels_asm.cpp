#include "workloads/vocoder/kernels_asm.hpp"

#include "iss/assembler.hpp"
#include "workloads/data.hpp"
#include "workloads/vocoder/kernels.hpp"

namespace workloads::vocoder {
namespace {

// Memory layout (word-aligned regions, all within the 1 MiB default).
constexpr std::uint32_t kFrameAddr = 0x01000;   // frame[160]
constexpr std::uint32_t kLpcAddr = 0x02000;     // lpc[10] (current)
constexpr std::uint32_t kPrevAddr = 0x02100;    // prev lpc[10]
constexpr std::uint32_t kSubcAddr = 0x03000;    // subc[40]
constexpr std::uint32_t kHistAddr = 0x04000;    // hist[200]
constexpr std::uint32_t kPulsesAddr = 0x05000;  // pulses[4] per subframe
constexpr std::uint32_t kExcAddr = 0x06000;     // exc[40]
constexpr std::uint32_t kMemAddr = 0x07000;     // filter mem[10]
constexpr std::uint32_t kOutAddr = 0x07800;     // out[40]
constexpr std::uint32_t kScratch = 0x08000;     // lsp scratch: r/a/tmp
constexpr std::uint32_t kLagAddr = 0x09000;     // best-lag out cell
constexpr std::uint32_t kImpAddr = 0x09100;     // impulse rom[8]

// The five kernels plus helpers, mirroring kernels.cpp statement for
// statement (see there for the algorithmic commentary).
constexpr const char* kVocoderAsm = R"(
# ---- lsp_estimation(r3=&frame, r4=&lpc, r5=&scratch) ----
# scratch: r[11] at +0, a[11] at +64, tmp[11] at +128
lsp:
  li   r13, 0
lsp_k:
  sfgti r13, 10
  bf   lsp_norm
  li   r14, 0
  mov  r15, r13
  # strength-reduced access: walk &frame[n] and &frame[n-k]
  slli r16, r13, 2
  add  r16, r16, r3      # &frame[k]
  mov  r18, r3           # &frame[0]
lsp_n:
  sflti r15, 160
  bnf  lsp_k_done
  lw   r17, 0(r16)
  lw   r19, 0(r18)
  srai r17, r17, 2
  srai r19, r19, 2
  mul  r20, r17, r19
  srai r20, r20, 6
  add  r14, r14, r20
  addi r16, r16, 4
  addi r18, r18, 4
  addi r15, r15, 1
  j    lsp_n
lsp_k_done:
  slli r16, r13, 2
  add  r16, r16, r5
  sw   r14, 0(r16)
  addi r13, r13, 1
  j    lsp_k
lsp_norm:
  lw   r14, 0(r5)
  li   r15, 32768
  sflt r14, r15
  bf   lsp_norm_done
  li   r16, 0
lsp_norm_i:
  sfgti r16, 10
  bf   lsp_norm
  slli r17, r16, 2
  add  r17, r17, r5
  lw   r18, 0(r17)
  srai r18, r18, 1
  sw   r18, 0(r17)
  addi r16, r16, 1
  j    lsp_norm_i
lsp_norm_done:
  lw   r14, 0(r5)
  sfgti r14, 0
  bf   lsp_r0_ok
  li   r14, 1
  sw   r14, 0(r5)
lsp_r0_ok:
  addi r21, r5, 64
  li   r16, 4096
  sw   r16, 0(r21)
  li   r16, 1
lsp_ainit:
  sfgti r16, 10
  bf   lsp_lev
  slli r17, r16, 2
  add  r17, r17, r21
  sw   r0, 0(r17)
  addi r16, r16, 1
  j    lsp_ainit
lsp_lev:
  lw   r22, 0(r5)
  li   r23, 1
lsp_i:
  sfgti r23, 10
  bf   lsp_out
  slli r16, r23, 2
  add  r16, r16, r5
  lw   r24, 0(r16)
  li   r25, 1
lsp_j1:
  sflt r25, r23
  bnf  lsp_j1_done
  slli r16, r25, 2
  add  r16, r16, r21
  lw   r17, 0(r16)
  sub  r18, r23, r25
  slli r18, r18, 2
  add  r18, r18, r5
  lw   r19, 0(r18)
  mul  r20, r17, r19
  srai r20, r20, 12
  sub  r24, r24, r20
  addi r25, r25, 1
  j    lsp_j1
lsp_j1_done:
  li   r15, 32767
  sfgt r24, r15
  bnf  lsp_c1
  mov  r24, r15
lsp_c1:
  li   r15, -32767
  sflt r24, r15
  bnf  lsp_c2
  mov  r24, r15
lsp_c2:
  slli r24, r24, 12
  div  r24, r24, r22
  sub  r24, r0, r24
  li   r15, 4095
  sfgt r24, r15
  bnf  lsp_kc1
  mov  r24, r15
lsp_kc1:
  li   r15, -4095
  sflt r24, r15
  bnf  lsp_kc2
  mov  r24, r15
lsp_kc2:
  addi r26, r5, 128
  li   r25, 1
lsp_j2:
  sflt r25, r23
  bnf  lsp_j2_done
  slli r16, r25, 2
  add  r17, r16, r21
  lw   r18, 0(r17)
  sub  r19, r23, r25
  slli r19, r19, 2
  add  r19, r19, r21
  lw   r20, 0(r19)
  mul  r20, r24, r20
  srai r20, r20, 12
  add  r18, r18, r20
  li   r27, 32767
  sfgt r18, r27
  bnf  lsp_t1
  mov  r18, r27
lsp_t1:
  li   r27, -32767
  sflt r18, r27
  bnf  lsp_t2
  mov  r18, r27
lsp_t2:
  add  r16, r16, r26
  sw   r18, 0(r16)
  addi r25, r25, 1
  j    lsp_j2
lsp_j2_done:
  li   r25, 1
lsp_j3:
  sflt r25, r23
  bnf  lsp_j3_done
  slli r16, r25, 2
  add  r17, r16, r26
  lw   r18, 0(r17)
  add  r17, r16, r21
  sw   r18, 0(r17)
  addi r25, r25, 1
  j    lsp_j3
lsp_j3_done:
  slli r16, r23, 2
  add  r16, r16, r21
  sw   r24, 0(r16)
  mul  r15, r24, r24
  srai r15, r15, 12
  mul  r15, r15, r22
  srai r15, r15, 12
  sub  r22, r22, r15
  sfgti r22, 0
  bf   lsp_err_ok
  li   r22, 1
lsp_err_ok:
  addi r23, r23, 1
  j    lsp_i
lsp_out:
  li   r16, 0
lsp_cp:
  sfgti r16, 9
  bf   lsp_ret
  addi r17, r16, 1
  slli r17, r17, 2
  add  r17, r17, r21
  lw   r18, 0(r17)
  slli r17, r16, 2
  add  r17, r17, r4
  sw   r18, 0(r17)
  addi r16, r16, 1
  j    lsp_cp
lsp_ret:
  ret

# ---- lpc_interpolation(r3=&prev, r4=&cur, r5=&subc) ----
lint:
  li   r13, 0
lint_s:
  sfgei r13, 4
  bf   lint_ret
  li   r14, 0
  li   r15, 3
  sub  r15, r15, r13
  addi r16, r13, 1
  li   r17, 10
  mul  r17, r17, r13
  slli r17, r17, 2
  add  r17, r17, r5
  mov  r18, r3
  mov  r19, r4
lint_i:
  sfgei r14, 10
  bf   lint_s_done
  lw   r20, 0(r18)
  mul  r20, r20, r15
  lw   r21, 0(r19)
  mul  r21, r21, r16
  add  r20, r20, r21
  srai r20, r20, 2
  sw   r20, 0(r17)
  addi r17, r17, 4
  addi r18, r18, 4
  addi r19, r19, 4
  addi r14, r14, 1
  j    lint_i
lint_s_done:
  addi r13, r13, 1
  j    lint_s
lint_ret:
  ret

# ---- copyv(r3=&src, r4=&dst, r5=n): dst[i] = src[i] ----
copyv:
  li   r13, 0
copyv_l:
  sflt r13, r5
  bnf  copyv_ret
  slli r14, r13, 2
  add  r15, r14, r3
  lw   r16, 0(r15)
  add  r15, r14, r4
  sw   r16, 0(r15)
  addi r13, r13, 1
  j    copyv_l
copyv_ret:
  ret

# ---- acb_search(r3=&sub, r4=&hist, r5=&best_lag_cell) -> r11 = gain ----
acb:
  li   r13, 40
  li   r14, 40
  li   r15, -1
  li   r16, 1
acb_lag:
  sfgti r13, 105
  bf   acb_done
  li   r17, 0
  li   r18, 1
  li   r19, 0
  li   r20, 200
  sub  r20, r20, r13
  slli r20, r20, 2
  add  r20, r20, r4
  mov  r21, r3
acb_n:
  sflti r19, 40
  bnf  acb_n_done
  lw   r22, 0(r20)
  lw   r23, 0(r21)
  mul  r24, r23, r22
  srai r24, r24, 6
  add  r17, r17, r24
  mul  r24, r22, r22
  srai r24, r24, 6
  add  r18, r18, r24
  addi r20, r20, 4
  addi r21, r21, 4
  addi r19, r19, 1
  j    acb_n
acb_n_done:
  sfgt r17, r15
  bnf  acb_next
  mov  r15, r17
  mov  r16, r18
  mov  r14, r13
acb_next:
  addi r13, r13, 1
  j    acb_lag
acb_done:
  sflti r15, 0
  bnf  acb_pos
  li   r15, 0
acb_pos:
  slli r15, r15, 8
  div  r11, r15, r16
  li   r17, 8191
  sfgt r11, r17
  bnf  acb_clip
  mov  r11, r17
acb_clip:
  sw   r14, 0(r5)
  ret

# ---- update_history(r3=&hist, r4=&sub) ----
uh:
  li   r13, 0
uh_1:
  sfgei r13, 160
  bf   uh_2a
  slli r14, r13, 2
  add  r15, r14, r3
  lw   r16, 160(r15)
  sw   r16, 0(r15)
  addi r13, r13, 1
  j    uh_1
uh_2a:
  li   r13, 0
uh_2:
  sfgei r13, 40
  bf   uh_ret
  slli r14, r13, 2
  add  r15, r14, r4
  lw   r16, 0(r15)
  add  r15, r14, r3
  sw   r16, 640(r15)
  addi r13, r13, 1
  j    uh_2
uh_ret:
  ret

# ---- icb_search(r3=&sub, r4=&pulses, r5=&impulse) -> r11 = metric ----
icb:
  li   r11, 0
  li   r13, 0
icb_t:
  sfgei r13, 4
  bf   icb_ret
  slli r14, r13, 1
  li   r15, -1
  mov  r16, r13
icb_p:
  sfgei r16, 40
  bf   icb_t_done
  li   r17, 0
  addi r18, r16, 8
  sflei r18, 40
  bf   icb_end_ok
  li   r18, 40
icb_end_ok:
  mov  r19, r16
  slli r20, r16, 2
  add  r20, r20, r3
  mov  r21, r5
icb_n:
  sflt r19, r18
  bnf  icb_n_done
  lw   r22, 0(r20)
  lw   r23, 0(r21)
  mul  r24, r22, r23
  srai r24, r24, 6
  add  r17, r17, r24
  addi r20, r20, 4
  addi r21, r21, 4
  addi r19, r19, 1
  j    icb_n
icb_n_done:
  mov  r25, r17
  sfgei r25, 0
  bf   icb_abs_ok
  sub  r25, r0, r25
icb_abs_ok:
  sfgt r25, r15
  bnf  icb_next_p
  mov  r15, r25
  slli r14, r16, 1
  sfgei r17, 0
  bf   icb_next_p
  ori  r14, r14, 1
icb_next_p:
  addi r16, r16, 4
  j    icb_p
icb_t_done:
  slli r26, r13, 2
  add  r26, r26, r4
  sw   r14, 0(r26)
  add  r11, r11, r15
  addi r13, r13, 1
  j    icb_t
icb_ret:
  ret

# ---- build_excitation(r3=&sub, r4=gain, r5=&pulses, r6=&exc) ----
bex:
  li   r13, 0
bex_1:
  sfgei r13, 40
  bf   bex_2a
  slli r14, r13, 2
  add  r15, r14, r3
  lw   r16, 0(r15)
  mul  r16, r16, r4
  srai r16, r16, 12
  add  r15, r14, r6
  sw   r16, 0(r15)
  addi r13, r13, 1
  j    bex_1
bex_2a:
  li   r13, 0
bex_2:
  sfgei r13, 4
  bf   bex_ret
  slli r14, r13, 2
  add  r15, r14, r5
  lw   r16, 0(r15)
  andi r17, r16, 1
  srai r18, r16, 1
  slli r18, r18, 2
  add  r18, r18, r6
  lw   r19, 0(r18)
  sfeqi r17, 0
  bf   bex_plus
  addi r19, r19, -512
  j    bex_store
bex_plus:
  addi r19, r19, 512
bex_store:
  sw   r19, 0(r18)
  addi r13, r13, 1
  j    bex_2
bex_ret:
  ret

# ---- postproc(r3=&subc, r4=&exc, r5=&mem, r6=&out) -> r11 = checksum ----
pp:
  li   r11, 0
  li   r13, 0
pp_n:
  sfgei r13, 40
  bf   pp_ret
  slli r14, r13, 2
  add  r15, r14, r4
  lw   r16, 0(r15)
  slli r16, r16, 12
  li   r17, 0
  mov  r18, r3
  mov  r19, r5
pp_i:
  sfgei r17, 10
  bf   pp_i_done
  lw   r20, 0(r18)
  lw   r21, 0(r19)
  mul  r22, r20, r21
  sub  r16, r16, r22
  addi r18, r18, 4
  addi r19, r19, 4
  addi r17, r17, 1
  j    pp_i
pp_i_done:
  srai r16, r16, 12
  li   r20, 4095
  sfgt r16, r20
  bnf  pp_c1
  mov  r16, r20
pp_c1:
  li   r20, -4096
  sflt r16, r20
  bnf  pp_c2
  mov  r16, r20
pp_c2:
  li   r17, 9
pp_shift:
  sfgti r17, 0
  bnf  pp_shift_done
  slli r20, r17, 2
  add  r21, r20, r5
  lw   r22, -4(r21)
  sw   r22, 0(r21)
  addi r17, r17, -1
  j    pp_shift
pp_shift_done:
  sw   r16, 0(r5)
  add  r21, r14, r6
  sw   r16, 0(r21)
  add  r11, r11, r16
  addi r13, r13, 1
  j    pp_n
pp_ret:
  ret
)";

}  // namespace

IssVocoder::IssVocoder(const iss::BlockCacheConfig& blocks) {
  m_.set_block_cache_config(blocks);
  m_.load_program(iss::assemble(kVocoderAsm));
  store_words(m_, kImpAddr, kImpulse);
}

std::int32_t IssVocoder::timed_call(const char* fn, std::uint64_t* bucket) {
  const std::uint64_t before = m_.stats().cycles;
  const std::int32_t r = m_.call(fn);
  *bucket += m_.stats().cycles - before;
  return r;
}

long IssVocoder::process_frame(const std::vector<std::int32_t>& frame) {
  store_words(m_, kFrameAddr, frame);

  // P1: LSP estimation.
  m_.set_reg(3, kFrameAddr);
  m_.set_reg(4, kLpcAddr);
  m_.set_reg(5, kScratch);
  timed_call("lsp", &cycles_.lsp);

  // P2: LPC interpolation + keep the current set as next frame's "previous".
  m_.set_reg(3, kPrevAddr);
  m_.set_reg(4, kLpcAddr);
  m_.set_reg(5, kSubcAddr);
  timed_call("lint", &cycles_.lpc_int);
  m_.set_reg(3, kLpcAddr);
  m_.set_reg(4, kPrevAddr);
  m_.set_reg(5, kOrder);
  timed_call("copyv", &cycles_.lpc_int);

  long checksum = 0;
  std::int32_t gains[kSubframes];
  for (int s = 0; s < kSubframes; ++s) {
    const std::uint32_t sub_addr =
        kFrameAddr + static_cast<std::uint32_t>(4 * kSub * s);

    // P3: adaptive-codebook search + history update.
    m_.set_reg(3, static_cast<std::int32_t>(sub_addr));
    m_.set_reg(4, kHistAddr);
    m_.set_reg(5, kLagAddr);
    gains[s] = timed_call("acb", &cycles_.acb);
    m_.set_reg(3, kHistAddr);
    m_.set_reg(4, static_cast<std::int32_t>(sub_addr));
    timed_call("uh", &cycles_.acb);

    // P4: innovative-codebook search.
    m_.set_reg(3, static_cast<std::int32_t>(sub_addr));
    m_.set_reg(4, kPulsesAddr);
    m_.set_reg(5, kImpAddr);
    timed_call("icb", &cycles_.icb);

    // P5: excitation + synthesis filter.
    m_.set_reg(3, static_cast<std::int32_t>(sub_addr));
    m_.set_reg(4, gains[s]);
    m_.set_reg(5, kPulsesAddr);
    m_.set_reg(6, kExcAddr);
    timed_call("bex", &cycles_.post);
    m_.set_reg(3, static_cast<std::int32_t>(
                      kSubcAddr + static_cast<std::uint32_t>(4 * kOrder * s)));
    m_.set_reg(4, kExcAddr);
    m_.set_reg(5, kMemAddr);
    m_.set_reg(6, kOutAddr);
    checksum += timed_call("pp", &cycles_.post);
  }
  return checksum;
}

}  // namespace workloads::vocoder
