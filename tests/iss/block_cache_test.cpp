#include "iss/block_cache.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "iss/assembler.hpp"
#include "iss/machine.hpp"

namespace iss {
namespace {

/// Nested multiply-accumulate loop: enough repeated blocks for the block path
/// to matter, with the outer trip count parameterised through r3.
constexpr const char* kLoopAsm = R"(
kernel:
  li   r11, 0
  li   r13, 0
outer:
  sflt r13, r3
  bnf  done
  li   r14, 0
  li   r15, 0
inner:
  sflti r15, 12
  bnf  inner_done
  mul  r20, r15, r13
  add  r14, r14, r20
  addi r15, r15, 1
  j    inner
inner_done:
  srai r14, r14, 2
  add  r11, r11, r14
  addi r13, r13, 1
  j    outer
done:
  ret
)";

/// Loop with a store/load pair in the body: under a d-cache model these
/// blocks' cost depends on the cache state, which is charged live.
constexpr const char* kMemAsm = R"(
kernel:
  li   r11, 0
  li   r13, 0
  li   r16, 0x400
loop:
  sflt r13, r3
  bnf  done
  sw   r13, 0(r16)
  lw   r14, 0(r16)
  add  r11, r11, r14
  addi r13, r13, 1
  j    loop
done:
  ret
)";

/// Deterministic fingerprint of one execution: final checksum plus exact
/// cycle/instruction counts. The block path must reproduce all three.
struct RunFingerprint {
  std::int32_t result = 0;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;

  bool operator==(const RunFingerprint& o) const = default;
};

/// The machine after one call of `kernel` in `src`, with 25 trips in r3.
Machine run_kernel(const char* src, const BlockCacheConfig& cfg,
                   bool with_icache = false, bool with_dcache = false) {
  Machine m;
  m.set_block_cache_config(cfg);
  if (with_icache) m.enable_icache({64, 16, 20});
  if (with_dcache) m.enable_dcache({64, 16, 20});
  m.load_program(assemble(src));
  m.set_reg(3, 25);
  m.call("kernel");
  return m;
}

RunFingerprint run_loop(const char* src, const BlockCacheConfig& cfg,
                        bool with_icache = false, bool with_dcache = false) {
  const Machine m = run_kernel(src, cfg, with_icache, with_dcache);
  return {m.reg(11), m.stats().cycles, m.stats().instructions};
}

/// Block-path counters after one call of `kernel` with the path on.
BlockCacheStats stats_after(const char* src, bool with_icache = false,
                            bool with_dcache = false) {
  return run_kernel(src, {}, with_icache, with_dcache).block_cache_stats();
}

BlockCacheConfig cfg_off() { return {.enabled = false}; }

// ---- byte-identity with the per-instruction path ----------------------------

TEST(IssBlockCache, CachedRunMatchesUncachedAndValidate) {
  EXPECT_EQ(run_loop(kLoopAsm, BlockCacheConfig{}),
            run_loop(kLoopAsm, cfg_off()));
}

TEST(IssBlockCache, CacheEngagesOnRepeatedBlocks) {
  const BlockCacheStats s = stats_after(kLoopAsm);
  EXPECT_GT(s.misses, 0u);  // blocks built, once per entry PC
  EXPECT_GT(s.hits, s.misses);
  EXPECT_EQ(s.bypassed, 0u);
}

TEST(IssBlockCache, IcacheChargedLiveStaysExact) {
  const RunFingerprint off = run_loop(kLoopAsm, cfg_off(), /*icache=*/true);
  const RunFingerprint on =
      run_loop(kLoopAsm, BlockCacheConfig{}, /*icache=*/true);
  EXPECT_EQ(on, off);
  // The i-cache is replayed over each block's fetch-order PCs when the
  // block is priced, so its miss penalties never keep a block off the block
  // path.
  const BlockCacheStats s = stats_after(kLoopAsm, /*icache=*/true);
  EXPECT_GT(s.hits, 0u);
  EXPECT_EQ(s.bypassed, 0u);
}

// ---- what runs on the block path --------------------------------------------

TEST(IssBlockCache, DcacheMemBlocksRunOnBlockPath) {
  const RunFingerprint off =
      run_loop(kMemAsm, cfg_off(), /*icache=*/false, /*dcache=*/true);
  const RunFingerprint on =
      run_loop(kMemAsm, BlockCacheConfig{}, /*icache=*/false, /*dcache=*/true);
  EXPECT_EQ(on, off);
  // Loads and stores charge the d-cache as they run, in their handlers on
  // the block path and in exec_arch per instruction.
  const BlockCacheStats s =
      stats_after(kMemAsm, /*icache=*/false, /*dcache=*/true);
  EXPECT_GT(s.hits, 0u);
  EXPECT_EQ(s.bypassed, 0u);
}

TEST(IssBlockCache, BranchToItsOwnFallThroughRunsOnBlockPath) {
  // `bf next` leaves to the same PC whether or not it is taken, but the two
  // outcomes cost differently; the block is priced by the outcome its
  // terminator takes. Taken on even r13: 13 of the 25 trips.
  constexpr const char* kSelfFallThroughAsm = R"(
kernel:
  li   r11, 0
  li   r13, 0
loop:
  sflt r13, r3
  bnf  done
  andi r14, r13, 1
  sfeqi r14, 0
  bf   next
next:
  add  r11, r11, r13
  addi r13, r13, 1
  j    loop
done:
  ret
)";
  const RunFingerprint off = run_loop(kSelfFallThroughAsm, cfg_off());
  EXPECT_EQ(run_loop(kSelfFallThroughAsm, BlockCacheConfig{}), off);
  EXPECT_EQ(off.cycles, 259u);
  const BlockCacheStats s = stats_after(kSelfFallThroughAsm);
  EXPECT_GT(s.hits, 0u);
  EXPECT_EQ(s.bypassed, 0u);
}

TEST(IssBlockCache, TraceRingBypassesCacheEntirely) {
  Machine m;
  m.set_block_cache_config(BlockCacheConfig{});
  m.enable_trace(8);
  m.load_program(assemble(kLoopAsm));
  m.set_reg(3, 25);
  const std::int32_t traced = m.call("kernel");
  const BlockCacheStats s = m.block_cache_stats();
  EXPECT_EQ(s.hits + s.misses + s.bypassed, 0u);
  EXPECT_EQ(traced, run_loop(kLoopAsm, cfg_off()).result);
}

TEST(IssBlockCache, MaxStepsTruncationStaysExact) {
  // Stopping mid-loop must leave identical architectural state and counts
  // whether or not blocks ran on the block path.
  for (const std::uint64_t max_steps : {50ull, 333ull, 1000ull}) {
    std::array<RunFingerprint, 2> fp;
    std::array<bool, 2> halted{};
    int i = 0;
    for (const bool cached : {false, true}) {
      Machine m;
      m.set_block_cache_config(cached ? BlockCacheConfig{} : cfg_off());
      m.load_program(assemble(kLoopAsm));
      m.set_reg(3, 1000000);  // far more trips than max_steps allows
      const Machine::RunResult r = m.run_from(0, max_steps);
      halted[i] = r.halted;
      fp[i] = {m.reg(11), r.cycles, r.instructions};
      ++i;
    }
    EXPECT_FALSE(halted[0]) << "truncation run unexpectedly halted";
    EXPECT_EQ(halted[0], halted[1]);
    EXPECT_EQ(fp[0], fp[1]) << "max_steps " << max_steps;
  }
}

// ---- invalidation on reconfiguration ----------------------------------------

TEST(IssBlockCache, TimingReconfigurationDropsEntries) {
  Machine m;
  m.set_block_cache_config(BlockCacheConfig{});
  m.load_program(assemble(kLoopAsm));
  m.set_reg(3, 25);
  m.call("kernel");
  EXPECT_GT(m.block_cache_stats().hits, 0u);

  // New prices: blocks priced with the old model must be dropped.
  CycleModel slow;
  slow.mul = 11;
  m.set_cycle_model(slow);
  EXPECT_EQ(m.block_cache_stats().hits, 0u);

  // And the machine still matches the per-instruction path under the new
  // model.
  m.reset_stats();
  m.set_reg(3, 25);
  const std::int32_t cached = m.call("kernel");
  const std::uint64_t cached_cycles = m.stats().cycles;

  Machine ref;
  ref.set_block_cache_config(cfg_off());
  ref.set_cycle_model(slow);
  ref.load_program(assemble(kLoopAsm));
  ref.set_reg(3, 25);
  const std::int32_t expect = ref.call("kernel");
  EXPECT_EQ(cached, expect);
  EXPECT_EQ(cached_cycles, ref.stats().cycles);
}

TEST(IssBlockCache, LongStraightLineSplitsAtMaxBlockLen) {
  // 150 additions and `ret`: 151 instructions on one static path, which
  // splits into blocks of 64, 64 and 23.
  std::string src = "kernel:\n";
  for (int i = 0; i < 150; ++i) src += "  addi r11, r11, 1\n";
  src += "  ret\n";
  const RunFingerprint off = run_loop(src.c_str(), cfg_off());
  EXPECT_EQ(off.result, 150);
  EXPECT_EQ(run_loop(src.c_str(), BlockCacheConfig{}), off);
  static_assert(BlockCache::kMaxBlockLen == 64);
  const BlockCacheStats s = stats_after(src.c_str());
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.bypassed, 0u);
}

}  // namespace
}  // namespace iss
