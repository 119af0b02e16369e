// The threaded block path against the per-instruction reference. Seeded
// random programs use every opcode and run with the block path on and off,
// with and without I/D caches; every architectural and timing result must
// match, and the block-path counters must be those of running one block at
// a time (a model that walks the reference's PC sequence through a fresh
// BlockCache). Edge cases: truncation of a chained loop at every step
// budget, an out-of-bounds access in the middle of a chained block, and a
// Machine copied after a warm run.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "iss/assembler.hpp"
#include "iss/block_cache.hpp"
#include "iss/machine.hpp"

namespace iss {
namespace {

constexpr std::size_t kMemBytes = 4096;
constexpr std::int32_t kDataBase = 0x800;  ///< r2 in random programs
constexpr std::uint8_t kBase = 2, kLink = 9, kJump = 28, kTrips = 30;

/// Emits instructions one by one, patching forward targets.
struct Emitter {
  Program p;
  std::uint32_t here() const {
    return static_cast<std::uint32_t>(p.instrs.size());
  }
  void emit(Opcode op, std::uint8_t rd = 0, std::uint8_t ra = 0,
            std::uint8_t rb = 0, std::int32_t imm = 0,
            std::uint32_t target = 0) {
    p.instrs.push_back({op, rd, ra, rb, imm, target});
  }
};

/// A seeded program: random register values, then a loop of `trips` over a
/// random body, a halt, and one subroutine. The body mixes every ALU,
/// memory and compare opcode (r0 destinations included), in-bounds loads
/// and stores at r2, forward `bf`/`bnf` (some to their own fall-through),
/// forward `j`, `jal` to the subroutine (which returns by `jr r9`), a `jr`
/// through r28, `nop`, and a straight run longer than kMaxBlockLen. Every
/// transfer but the loop's is forward, so the program halts.
Program random_program(std::uint32_t seed) {
  std::mt19937 rng(seed);
  const auto pick = [&](std::uint32_t n) {
    return static_cast<std::uint32_t>(rng() % n);
  };
  const auto dest = [&]() -> std::uint8_t {
    // r0 often; never the base, link, jump or trip registers.
    static constexpr std::uint8_t kDests[] = {0,  0,  3,  4,  5,  6,  7,
                                              8,  10, 11, 12, 13, 14, 15,
                                              16, 17, 20, 24, 29, 31};
    return kDests[pick(std::size(kDests))];
  };
  const auto src = [&]() { return static_cast<std::uint8_t>(pick(32)); };
  const auto value = [&]() -> std::int32_t {
    static constexpr std::int32_t kEdges[] = {
        0, 1, -1, 2, 31, 32, std::numeric_limits<std::int32_t>::min(),
        std::numeric_limits<std::int32_t>::max()};
    return pick(3) == 0 ? kEdges[pick(std::size(kEdges))]
                        : static_cast<std::int32_t>(rng());
  };
  const auto imm16 = [&]() {
    return static_cast<std::int32_t>(pick(65536)) - 32768;
  };

  Emitter e;
  const auto alu = [&] {
    const auto op = static_cast<Opcode>(pick(18));  // kAdd .. kMovhi
    if (op < Opcode::kAddi) {
      e.emit(op, dest(), src(), src());
    } else {
      e.emit(op, dest(), src(), 0, pick(4) == 0 ? value() : imm16());
    }
  };
  for (std::uint8_t r = 3; r < 32; ++r) {
    if (r == kLink || r == kJump || r == kTrips) continue;
    const auto v = static_cast<std::uint32_t>(value());
    e.emit(Opcode::kMovhi, r, 0, 0, static_cast<std::int32_t>(v >> 16));
    e.emit(Opcode::kOri, r, r, 0, static_cast<std::int32_t>(v & 0xffff));
  }
  e.emit(Opcode::kAddi, kBase, 0, 0, kDataBase);
  e.emit(Opcode::kAddi, kTrips, 0, 0, 3 + static_cast<std::int32_t>(pick(6)));

  std::vector<std::uint32_t> calls;  // jal sites, patched to the subroutine
  const std::uint32_t loop = e.here();
  const std::uint32_t segments = 30 + pick(60);
  for (std::uint32_t s = 0; s < segments; ++s) {
    switch (pick(12)) {
      case 0:
      case 1:
      case 2:
        alu();
        break;
      case 3: {  // a load or a store, in bounds
        static constexpr Opcode kMem[] = {Opcode::kLw, Opcode::kSw,
                                          Opcode::kLb, Opcode::kSb};
        const Opcode op = kMem[pick(4)];
        const bool store = op == Opcode::kSw || op == Opcode::kSb;
        e.emit(op, store ? src() : dest(), kBase, 0,
               static_cast<std::int32_t>(pick(253)));
        break;
      }
      case 4:
      case 5: {  // a compare, then a forward branch over k instructions
        const auto cmp = static_cast<Opcode>(
            static_cast<std::uint32_t>(Opcode::kSfeq) + pick(12));
        e.emit(cmp, 0, src(), src(), pick(2) == 0 ? value() : imm16());
        const std::uint32_t k = pick(4);  // 0: its own fall-through
        e.emit(pick(2) == 0 ? Opcode::kBf : Opcode::kBnf, 0, 0, 0, 0,
               e.here() + 1 + k);
        for (std::uint32_t i = 0; i < k; ++i) alu();
        break;
      }
      case 6: {  // an in-path jump over k dead instructions
        const std::uint32_t k = pick(3);
        e.emit(Opcode::kJ, 0, 0, 0, 0, e.here() + 1 + k);
        for (std::uint32_t i = 0; i < k; ++i) alu();
        break;
      }
      case 7:
        e.emit(Opcode::kNop);
        break;
      case 8:
        calls.push_back(e.here());
        e.emit(Opcode::kJal);
        break;
      case 9: {  // a jr through r28 over k dead instructions
        const std::uint32_t k = pick(3);
        e.emit(Opcode::kAddi, kJump, 0, 0,
               static_cast<std::int32_t>(e.here() + 2 + k));
        e.emit(Opcode::kJr, 0, kJump);
        for (std::uint32_t i = 0; i < k; ++i) alu();
        break;
      }
      case 10:
        if (pick(4) == 0) {  // a straight run longer than one block
          for (std::uint32_t i = 0; i < BlockCache::kMaxBlockLen + 9; ++i) {
            alu();
          }
        }
        break;
      default:
        e.emit(static_cast<Opcode>(pick(2) == 0 ? Opcode::kMul : Opcode::kDiv),
               dest(), src(), src());
        break;
    }
  }
  e.emit(Opcode::kAddi, kTrips, kTrips, 0, -1);
  e.emit(Opcode::kSfgti, 0, kTrips, 0, 0);
  e.emit(Opcode::kBf, 0, 0, 0, 0, loop);
  e.emit(Opcode::kHalt);
  const std::uint32_t sub = e.here();
  for (std::uint32_t i = 0, n = 1 + pick(5); i < n; ++i) alu();
  e.emit(Opcode::kJr, 0, kLink);
  for (const std::uint32_t c : calls) e.p.instrs[c].target = sub;
  return e.p;
}

struct Caches {
  bool icache = false;
  bool dcache = false;
};
constexpr Caches kCacheConfigs[] = {
    {false, false}, {true, false}, {false, true}, {true, true}};

Machine make_machine(const Program& p, bool blocks, Caches c) {
  Machine m(kMemBytes);
  m.set_block_cache_config({.enabled = blocks});
  if (c.icache) m.enable_icache({16, 16, 7});
  if (c.dcache) m.enable_dcache({16, 16, 5});
  m.load_program(p);
  return m;
}

/// The block-path counters of running one block at a time: the outer loop
/// of the block path replayed over the reference's executed PCs.
BlockCacheStats model_stats(const Machine& ref,
                            const std::vector<std::uint32_t>& pcs,
                            std::uint64_t max_steps) {
  BlockCache bc;
  bc.reset(ref.program().instrs.size());
  const std::array<const void*, static_cast<std::size_t>(Opcode::kHalt) + 1>
      no_handlers{};
  for (std::size_t i = 0; i < pcs.size();) {
    const BlockCache::Block* b = bc.at(ref.program(), CycleModel{},
                                       no_handlers.data(), pcs[i],
                                       max_steps - i);
    i += b != nullptr ? b->len : 1;
  }
  return bc.stats();
}

/// The executed PCs of a per-instruction run of `p` from 0.
std::vector<std::uint32_t> executed_pcs(const Program& p,
                                        std::uint64_t max_steps) {
  Machine m = make_machine(p, false, {});
  m.enable_trace(1 << 20);
  m.run_from(0, max_steps);
  std::vector<std::uint32_t> pcs;
  for (const Machine::TraceRecord& t : m.trace_window()) pcs.push_back(t.pc);
  return pcs;
}

void expect_same_state(const Machine& a, const Machine& b) {
  for (unsigned r = 0; r < 32; ++r) EXPECT_EQ(a.reg(r), b.reg(r)) << "r" << r;
  EXPECT_EQ(a.flag(), b.flag());
  EXPECT_EQ(a.pc(), b.pc());
  EXPECT_EQ(a.stats().instructions, b.stats().instructions);
  EXPECT_EQ(a.stats().cycles, b.stats().cycles);
  EXPECT_EQ(a.stats().per_class, b.stats().per_class);
  for (const auto& [ca, cb] : {std::pair{a.icache(), b.icache()},
                               std::pair{a.dcache(), b.dcache()}}) {
    ASSERT_EQ(ca == nullptr, cb == nullptr);
    if (ca != nullptr) {
      EXPECT_EQ(ca->hits(), cb->hits());
      EXPECT_EQ(ca->misses(), cb->misses());
    }
  }
}

void expect_same_memory(const Machine& a, const Machine& b) {
  for (std::uint32_t addr = 0; addr < kMemBytes; ++addr) {
    if (a.read_byte(addr) != b.read_byte(addr)) {
      ADD_FAILURE() << "memory differs at " << addr;
      return;
    }
  }
}

void expect_same_stats(const BlockCacheStats& a, const BlockCacheStats& b) {
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.bypassed, b.bypassed);
}

TEST(IssDifferential, RandomProgramsMatchTheReference) {
  std::uint64_t chained = 0;
  for (std::uint32_t seed = 1; seed <= 150; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Program p = random_program(seed);
    const std::vector<std::uint32_t> pcs = executed_pcs(p, 1'000'000);
    for (const Caches c : kCacheConfigs) {
      SCOPED_TRACE(std::string("icache ") + (c.icache ? "on" : "off") +
                   ", dcache " + (c.dcache ? "on" : "off"));
      Machine ref = make_machine(p, false, c);
      Machine blk = make_machine(p, true, c);
      const Machine::RunResult a = ref.run_from(0, 1'000'000);
      const Machine::RunResult b = blk.run_from(0, 1'000'000);
      ASSERT_TRUE(a.halted);
      EXPECT_TRUE(b.halted);
      EXPECT_EQ(a.instructions, b.instructions);
      EXPECT_EQ(a.cycles, b.cycles);
      expect_same_state(ref, blk);
      expect_same_memory(ref, blk);
      EXPECT_EQ(pcs.size(), a.instructions);
      const BlockCacheStats s = blk.block_cache_stats();
      expect_same_stats(s, model_stats(ref, pcs, 1'000'000));
      expect_same_stats(ref.block_cache_stats(), {});
      chained += s.hits;
    }
  }
  EXPECT_GT(chained, 0u);
}

/// A loop of one chained block that adds, loads, stores and branches back,
/// and a second, conditional exit: enough to stop mid-chain at any budget.
constexpr const char* kChainAsm = R"(
  li   r2, 0x100
  li   r5, 0
loop:
  addi r5, r5, 1
  sw   r5, 0(r2)
  lw   r6, 0(r2)
  add  r7, r7, r6
  andi r8, r5, 3
  sfeqi r8, 0
  bf   skip
  xori r7, r7, 5
skip:
  sfgti r5, 1000
  bnf  loop
  halt
)";

TEST(IssDifferential, TruncatedChainMatchesAtEveryBudget) {
  const Program p = assemble(kChainAsm);
  for (const Caches c : {Caches{}, Caches{true, true}}) {
    for (std::uint64_t max_steps = 1; max_steps <= 200; ++max_steps) {
      SCOPED_TRACE("max_steps " + std::to_string(max_steps));
      Machine ref = make_machine(p, false, c);
      Machine blk = make_machine(p, true, c);
      const Machine::RunResult a = ref.run_from(0, max_steps);
      const Machine::RunResult b = blk.run_from(0, max_steps);
      EXPECT_FALSE(b.halted);
      EXPECT_EQ(a.instructions, max_steps);
      EXPECT_EQ(b.instructions, max_steps);
      EXPECT_EQ(a.cycles, b.cycles);
      expect_same_state(ref, blk);
      expect_same_memory(ref, blk);
      expect_same_stats(blk.block_cache_stats(),
                        model_stats(ref, executed_pcs(p, max_steps),
                                    max_steps));
    }
  }
}

TEST(IssDifferential, FaultMidChainLeavesTheReferenceState) {
  // Each trip moves the base by 60 bytes; the load of the fifth trip is
  // outside a 256-byte memory, in the middle of a block chained to itself.
  constexpr const char* kFaultAsm = R"(
  li   r2, 0
loop:
  addi r3, r3, 1
  addi r2, r2, 60
  sfgti r3, 2
  lw   r4, 0(r2)
  add  r5, r5, r4
  j    loop
)";
  for (const Caches c : kCacheConfigs) {
    std::array<std::string, 2> what;
    std::array<std::unique_ptr<Machine>, 2> m;
    for (const bool blocks : {false, true}) {
      m[blocks] = std::make_unique<Machine>(256);
      m[blocks]->set_block_cache_config({.enabled = blocks});
      if (c.icache) m[blocks]->enable_icache({4, 8, 7});
      if (c.dcache) m[blocks]->enable_dcache({4, 8, 5});
      m[blocks]->load_program(assemble(kFaultAsm));
      try {
        m[blocks]->run();
      } catch (const std::out_of_range& e) {
        what[blocks] = e.what();
      }
    }
    EXPECT_EQ(what[0], "iss: memory access at 0x12c outside memory");
    EXPECT_EQ(what[1], what[0]);
    for (unsigned r = 0; r < 32; ++r) EXPECT_EQ(m[0]->reg(r), m[1]->reg(r));
    EXPECT_EQ(m[1]->pc(), 4u);  // the lw
    EXPECT_EQ(m[0]->pc(), m[1]->pc());
    EXPECT_EQ(m[0]->flag(), m[1]->flag());
    for (const auto& [ca, cb] : {std::pair{m[0]->icache(), m[1]->icache()},
                                 std::pair{m[0]->dcache(), m[1]->dcache()}}) {
      if (ca == nullptr) continue;
      EXPECT_EQ(ca->hits(), cb->hits());
      EXPECT_EQ(ca->misses(), cb->misses());
    }
    EXPECT_GT(m[1]->block_cache_stats().hits, 1u);  // the fault was chained
  }
}

TEST(IssDifferential, CopiedWarmMachineRunsLikeTheOriginal) {
  const Program p = assemble(kChainAsm);
  auto original =
      std::make_unique<Machine>(make_machine(p, true, {true, true}));
  original->run_from(0, 3000);  // warm: every block built, successors linked
  Machine copy = *original;
  const Machine::RunResult a = original->run_from(0, 5000);
  const BlockCacheStats sa = original->block_cache_stats();
  Machine kept = *original;
  original.reset();  // a link into the original's blocks would now dangle
  const Machine::RunResult b = copy.run_from(0, 5000);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.halted, b.halted);
  expect_same_state(kept, copy);
  expect_same_memory(kept, copy);
  expect_same_stats(copy.block_cache_stats(), sa);
}

}  // namespace
}  // namespace iss
