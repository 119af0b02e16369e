#include "iss/machine.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "iss/assembler.hpp"

namespace iss {
namespace {

Machine run_asm(const std::string& src) {
  Machine m;
  m.load_program(assemble(src));
  const auto res = m.run();
  EXPECT_TRUE(res.halted);
  return m;
}

TEST(Machine, ArithmeticBasics) {
  Machine m = run_asm(
      "li r3, 7\n"
      "li r4, 5\n"
      "add r5, r3, r4\n"
      "sub r6, r3, r4\n"
      "mul r7, r3, r4\n"
      "div r8, r3, r4\n"
      "halt\n");
  EXPECT_EQ(m.reg(5), 12);
  EXPECT_EQ(m.reg(6), 2);
  EXPECT_EQ(m.reg(7), 35);
  EXPECT_EQ(m.reg(8), 1);
}

TEST(Machine, R0IsHardwiredZero) {
  Machine m = run_asm(
      "addi r0, r0, 99\n"
      "add r3, r0, r0\n"
      "halt\n");
  EXPECT_EQ(m.reg(0), 0);
  EXPECT_EQ(m.reg(3), 0);
}

TEST(Machine, LogicAndShifts) {
  Machine m = run_asm(
      "li r3, 0xf0\n"
      "li r4, 0x0f\n"
      "and r5, r3, r4\n"
      "or  r6, r3, r4\n"
      "xor r7, r3, r4\n"
      "slli r8, r4, 4\n"
      "srli r10, r3, 4\n"
      "li r11, -8\n"
      "srai r12, r11, 1\n"
      "halt\n");
  EXPECT_EQ(m.reg(5), 0x00);
  EXPECT_EQ(m.reg(6), 0xff);
  EXPECT_EQ(m.reg(7), 0xff);
  EXPECT_EQ(m.reg(8), 0xf0);
  EXPECT_EQ(m.reg(10), 0x0f);
  EXPECT_EQ(m.reg(12), -4);
}

TEST(Machine, MovhiBuildsUpperHalf) {
  Machine m = run_asm(
      "movhi r3, 0x1234\n"
      "ori r3, r3, 0x5678\n"
      "halt\n");
  EXPECT_EQ(m.reg(3), 0x12345678);
}

TEST(Machine, DivideByZeroYieldsZero) {
  Machine m = run_asm(
      "li r3, 10\n"
      "div r4, r3, r0\n"
      "halt\n");
  EXPECT_EQ(m.reg(4), 0);
}

TEST(Machine, GuestArithmeticWrapsAndNeverTraps) {
  // Sums, differences, products and load/store addresses wrap in two's
  // complement, and INT32_MIN / -1 is INT32_MIN: no host trap, no host
  // undefined behaviour, on either path.
  for (const bool blocks : {false, true}) {
    SCOPED_TRACE(blocks ? "block path" : "per instruction");
    Machine m(256);
    m.set_block_cache_config({.enabled = blocks});
    m.load_program(assemble(
        "movhi r3, 0x8000\n"             // INT32_MIN
        "li r4, -1\n"
        "li r5, 0x7fffffff\n"            // INT32_MAX
        "div r11, r3, r4\n"
        "addi r12, r5, 1\n"
        "add r13, r5, r5\n"
        "sub r14, r3, r5\n"
        "mul r15, r5, r5\n"
        "sw r5, -2147483632(r3)\n"       // 0x80000000 + 0x80000010 = 16
        "lw r16, 16(r0)\n"
        "lb r17, -2147483629(r3)\n"      // 19, the top byte
        "halt\n"));
    EXPECT_TRUE(m.run().halted);
    constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
    EXPECT_EQ(m.reg(11), kMin);
    EXPECT_EQ(m.reg(12), kMin);
    EXPECT_EQ(m.reg(13), -2);
    EXPECT_EQ(m.reg(14), 1);
    EXPECT_EQ(m.reg(15), 1);
    EXPECT_EQ(m.reg(16), std::numeric_limits<std::int32_t>::max());
    EXPECT_EQ(m.reg(17), 0x7f);
  }
}

TEST(Machine, LoadStoreWord) {
  Machine m = run_asm(
      "li r2, 0x100\n"
      "li r3, -123456\n"
      "sw r3, 4(r2)\n"
      "lw r4, 4(r2)\n"
      "halt\n");
  EXPECT_EQ(m.reg(4), -123456);
  EXPECT_EQ(m.read_word(0x104), -123456);
}

TEST(Machine, LoadStoreByteSignExtends) {
  Machine m = run_asm(
      "li r2, 0x200\n"
      "li r3, -2\n"
      "sb r3, (r2)\n"
      "lb r4, (r2)\n"
      "halt\n");
  EXPECT_EQ(m.reg(4), -2);
}

TEST(Machine, CompareAndBranchLoop) {
  // sum 1..10
  Machine m = run_asm(
      "  li r3, 0\n"   // sum
      "  li r4, 1\n"   // i
      "loop:\n"
      "  add r3, r3, r4\n"
      "  addi r4, r4, 1\n"
      "  sflei r4, 10\n"
      "  bf loop\n"
      "  halt\n");
  EXPECT_EQ(m.reg(3), 55);
}

TEST(Machine, AllCompareVariants) {
  Machine m = run_asm(
      "li r3, 5\n"
      "li r4, 5\n"
      "li r5, 0\n"
      "sfeq r3, r4\n"
      "bf t1\n"
      "j end\n"
      "t1: addi r5, r5, 1\n"
      "sfne r3, r4\n"
      "bnf t2\n"
      "j end\n"
      "t2: addi r5, r5, 1\n"
      "sflti r3, 6\n"
      "bf t3\n"
      "j end\n"
      "t3: addi r5, r5, 1\n"
      "sfgti r3, 4\n"
      "bf t4\n"
      "j end\n"
      "t4: addi r5, r5, 1\n"
      "sfgei r3, 5\n"
      "bf t5\n"
      "j end\n"
      "t5: addi r5, r5, 1\n"
      "end: halt\n");
  EXPECT_EQ(m.reg(5), 5);
}

TEST(Machine, JalAndJrImplementCalls) {
  Machine m = run_asm(
      "  li r3, 20\n"
      "  jal double_it\n"
      "  mov r6, r11\n"
      "  halt\n"
      "double_it:\n"
      "  add r11, r3, r3\n"
      "  ret\n");
  EXPECT_EQ(m.reg(6), 40);
}

TEST(Machine, CallHelperInvokesSubroutine) {
  Machine m;
  m.load_program(assemble(
      "main: halt\n"
      "square:\n"
      "  mul r11, r3, r3\n"
      "  ret\n"));
  m.set_reg(3, 9);
  EXPECT_EQ(m.call("square"), 81);
}

TEST(Machine, StackPointerInitialisedAtTopOfMemory) {
  Machine m(1 << 16);
  m.load_program(assemble("halt\n"));
  m.run();
  EXPECT_EQ(m.reg(1), (1 << 16) - 16);
}

TEST(Machine, MaxStepsStopsRunawayProgram) {
  Machine m;
  m.load_program(assemble("loop: j loop\n"));
  const auto res = m.run(1000);
  EXPECT_FALSE(res.halted);
  EXPECT_EQ(res.instructions, 1000u);
}

// Runs one `op` at effective address `base + off` on a 256-byte Machine, on
// the block path or per instruction. Returns the std::out_of_range message,
// or "" when the access ran; a throw must leave pc() at the access.
std::string access_error(bool blocks, const std::string& op, std::int32_t base,
                         std::int32_t off = 0) {
  Machine m(256);
  m.set_block_cache_config({.enabled = blocks});
  m.load_program(assemble("li r2, " + std::to_string(base) + "\n" +
                          "access: " + op + " r3, " + std::to_string(off) +
                          "(r2)\n"
                          "halt\n"));
  try {
    EXPECT_TRUE(m.run().halted);
    return "";
  } catch (const std::out_of_range& e) {
    EXPECT_EQ(m.pc(), m.program().label("access")) << op << " at " << base;
    return e.what();
  }
}

TEST(Machine, OutOfBoundsMemoryThrows) {
  for (const bool blocks : {false, true}) {
    SCOPED_TRACE(blocks ? "block path" : "per instruction");
    for (const char* op : {"lw", "sw"}) {
      EXPECT_EQ(access_error(blocks, op, 252), "") << op;
      EXPECT_NE(access_error(blocks, op, 253), "") << op;
      EXPECT_NE(access_error(blocks, op, 254), "") << op;
      // -4 + 2 wraps to 0xfffffffe; a 32-bit bound sum would wrap to 2.
      EXPECT_EQ(access_error(blocks, op, -4, 2),
                "iss: memory access at 0xfffffffe outside memory")
          << op;
    }
    for (const char* op : {"lb", "sb"}) {
      EXPECT_EQ(access_error(blocks, op, 255), "") << op;
      EXPECT_NE(access_error(blocks, op, 256), "") << op;
      EXPECT_NE(access_error(blocks, op, -4, 2), "") << op;
    }
    EXPECT_EQ(access_error(blocks, "lw", 300),
              "iss: memory access at 0x12c outside memory");
  }
  Machine m(256);
  EXPECT_NO_THROW(m.write_word(252, 7));
  EXPECT_EQ(m.read_word(252), 7);
  EXPECT_THROW(m.read_word(253), std::out_of_range);
  EXPECT_THROW(m.write_word(253, 7), std::out_of_range);
  EXPECT_NO_THROW(m.write_byte(255, 7));
  EXPECT_EQ(m.read_byte(255), 7);
  EXPECT_THROW(m.read_byte(256), std::out_of_range);
  EXPECT_THROW(m.write_byte(256, 7), std::out_of_range);
}

// ---- cycle accounting --------------------------------------------------------

TEST(Cycles, AluOpsAreSingleCycle) {
  Machine m;
  m.load_program(assemble(
      "addi r3, r0, 1\n"
      "addi r4, r0, 2\n"
      "add r5, r3, r4\n"
      "halt\n"));
  const auto res = m.run();
  EXPECT_EQ(res.cycles, 3u);
  EXPECT_EQ(res.instructions, 3u);
}

TEST(Cycles, MulDivLoadCostMore) {
  Machine m;
  CycleModel cm;  // defaults: mul 3, div 20, load 2
  m.set_cycle_model(cm);
  m.load_program(assemble(
      "mul r3, r4, r5\n"
      "div r6, r4, r5\n"
      "lw r7, 0(r0)\n"
      "halt\n"));
  const auto res = m.run();
  EXPECT_EQ(res.cycles, 3u + 20u + 2u);
}

TEST(Cycles, TakenBranchCostsPenalty) {
  CycleModel cm;
  Machine taken;
  taken.set_cycle_model(cm);
  taken.load_program(assemble(
      "sfeq r0, r0\n"   // flag := true
      "bf target\n"
      "target: halt\n"));
  const auto rt = taken.run();

  Machine not_taken;
  not_taken.set_cycle_model(cm);
  not_taken.load_program(assemble(
      "sfne r0, r0\n"   // flag := false
      "bf target\n"
      "target: halt\n"));
  const auto rn = not_taken.run();

  EXPECT_EQ(rt.cycles - rn.cycles, cm.branch_taken - cm.branch_not_taken);
}

TEST(Cycles, StatsAccumulatePerClass) {
  Machine m;
  m.load_program(assemble(
      "addi r3, r0, 5\n"
      "mul r4, r3, r3\n"
      "sw r4, 0(r0)\n"
      "lw r5, 0(r0)\n"
      "sfeq r4, r5\n"
      "bf done\n"
      "done: halt\n"));
  m.run();
  EXPECT_EQ(m.stats().count(InstrClass::kAlu), 1u);
  EXPECT_EQ(m.stats().count(InstrClass::kMul), 1u);
  EXPECT_EQ(m.stats().count(InstrClass::kStore), 1u);
  EXPECT_EQ(m.stats().count(InstrClass::kLoad), 1u);
  EXPECT_EQ(m.stats().count(InstrClass::kCompare), 1u);
  EXPECT_EQ(m.stats().count(InstrClass::kBranch), 1u);
  EXPECT_EQ(m.stats().instructions, 6u);
}

TEST(Cycles, CustomCycleModelApplied) {
  Machine m;
  CycleModel cm;
  cm.alu = 2;
  m.set_cycle_model(cm);
  m.load_program(assemble(
      "addi r3, r0, 1\n"
      "addi r4, r0, 2\n"
      "halt\n"));
  EXPECT_EQ(m.run().cycles, 4u);
}

// ---- execution trace -----------------------------------------------------------

TEST(Trace, DisabledByDefault) {
  Machine m;
  m.load_program(assemble("addi r3, r0, 1\nhalt\n"));
  m.run();
  EXPECT_TRUE(m.trace_window().empty());
}

TEST(Trace, RecordsExecutedInstructionsInOrder) {
  Machine m;
  m.enable_trace(16);
  m.load_program(assemble(
      "addi r3, r0, 5\n"
      "addi r4, r0, 7\n"
      "add r5, r3, r4\n"
      "halt\n"));
  m.run();
  const auto w = m.trace_window();
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[0].pc, 0u);
  EXPECT_EQ(w[0].instr.op, Opcode::kAddi);
  EXPECT_EQ(w[0].rd_value, 5);
  EXPECT_EQ(w[2].instr.op, Opcode::kAdd);
  EXPECT_EQ(w[2].rd_value, 12);
}

TEST(Trace, RingKeepsOnlyMostRecent) {
  Machine m;
  m.enable_trace(4);
  m.load_program(assemble(
      "  li r3, 0\n"
      "loop:\n"
      "  addi r3, r3, 1\n"
      "  sflti r3, 10\n"
      "  bf loop\n"
      "  halt\n"));
  m.run();
  const auto w = m.trace_window();
  ASSERT_EQ(w.size(), 4u);
  // The final four executed instructions end with the not-taken branch.
  EXPECT_EQ(w[3].instr.op, Opcode::kBf);
  EXPECT_FALSE(w[3].flag);
  EXPECT_EQ(w[2].instr.op, Opcode::kSflti);
  EXPECT_EQ(w[1].instr.op, Opcode::kAddi);
  EXPECT_EQ(w[1].rd_value, 10);
}

TEST(Trace, ReEnablingRestartsTheRing) {
  Machine m;
  m.load_program(assemble(
      "  li r11, 0\n"
      "loop:\n"
      "  addi r11, r11, 1\n"
      "  sflti r11, 100\n"
      "  bf loop\n"
      "  halt\n"));
  m.enable_trace(8);
  m.run_from(0, 5);  // stops with a partly filled ring
  m.enable_trace(8);
  m.run(9);  // fills the new ring and wraps it once
  const auto w = m.trace_window();
  ASSERT_EQ(w.size(), 8u);
  const std::uint32_t pcs[8] = {3, 1, 2, 3, 1, 2, 3, 1};
  for (std::size_t i = 0; i < w.size(); ++i) EXPECT_EQ(w[i].pc, pcs[i]) << i;
  EXPECT_EQ(w[1].rd_value, 3);
  EXPECT_EQ(w[4].rd_value, 4);
  EXPECT_EQ(w[7].rd_value, 5);
}

// ---- caches -------------------------------------------------------------------

TEST(Cache, FirstAccessMissesThenHits) {
  DirectMappedCache c({.lines = 4, .line_bytes = 16, .miss_penalty = 10});
  EXPECT_EQ(c.access(0x00), 10u);  // miss
  EXPECT_EQ(c.access(0x04), 0u);   // same line: hit
  EXPECT_EQ(c.access(0x0c), 0u);
  EXPECT_EQ(c.misses(), 1u);
  EXPECT_EQ(c.hits(), 2u);
}

TEST(Cache, ConflictingLinesEvict) {
  DirectMappedCache c({.lines = 4, .line_bytes = 16, .miss_penalty = 10});
  // 4 lines * 16 bytes = 64-byte cache: addresses 0 and 64 conflict.
  EXPECT_EQ(c.access(0), 10u);
  EXPECT_EQ(c.access(64), 10u);
  EXPECT_EQ(c.access(0), 10u);  // evicted: miss again
}

TEST(Cache, NonPowerOfTwoGeometryIsRejected) {
  // The index/offset math is mask-based; a release build with a vanished
  // assert would silently alias lines, so the ctor rejects bad geometry.
  EXPECT_THROW(
      DirectMappedCache({.lines = 3, .line_bytes = 16, .miss_penalty = 10}),
      std::invalid_argument);
  EXPECT_THROW(
      DirectMappedCache({.lines = 4, .line_bytes = 12, .miss_penalty = 10}),
      std::invalid_argument);
  EXPECT_THROW(
      DirectMappedCache({.lines = 0, .line_bytes = 16, .miss_penalty = 10}),
      std::invalid_argument);
}

TEST(Cache, HitRateComputed) {
  DirectMappedCache c({.lines = 2, .line_bytes = 8, .miss_penalty = 5});
  c.access(0);
  c.access(0);
  c.access(0);
  c.access(0);
  EXPECT_DOUBLE_EQ(c.hit_rate(), 0.75);
}

TEST(Cache, DcacheMissesAddCycles) {
  Machine fast;
  fast.load_program(assemble(
      "lw r3, 0(r0)\n"
      "lw r4, 0(r0)\n"
      "halt\n"));
  const auto base = fast.run();

  Machine slow;
  slow.enable_dcache({.lines = 16, .line_bytes = 16, .miss_penalty = 25});
  slow.load_program(assemble(
      "lw r3, 0(r0)\n"
      "lw r4, 0(r0)\n"
      "halt\n"));
  const auto res = slow.run();
  EXPECT_EQ(res.cycles, base.cycles + 25);  // one cold miss, one hit
  EXPECT_EQ(slow.dcache()->misses(), 1u);
  EXPECT_EQ(slow.dcache()->hits(), 1u);
}

TEST(Cache, IcacheLoopMostlyHits) {
  Machine m;
  m.enable_icache({.lines = 64, .line_bytes = 16, .miss_penalty = 10});
  m.load_program(assemble(
      "  li r3, 0\n"
      "loop:\n"
      "  addi r3, r3, 1\n"
      "  sflti r3, 100\n"
      "  bf loop\n"
      "  halt\n"));
  m.run();
  EXPECT_GT(m.icache()->hit_rate(), 0.98);
}

}  // namespace
}  // namespace iss
