#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "iss/block_cache.hpp"
#include "iss/cache.hpp"
#include "iss/cycle_model.hpp"
#include "iss/isa.hpp"

namespace iss {

/// Per-class execution statistics of one run.
struct ExecStats {
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::array<std::uint64_t, static_cast<std::size_t>(InstrClass::kCount_)>
      per_class{};

  std::uint64_t count(InstrClass c) const {
    return per_class[static_cast<std::size_t>(c)];
  }
};

/// The orsim interpreter: architectural state, flat little-endian memory,
/// parameterised cycle model and optional I/D cache timing models. Plays the
/// role of the paper's "OpenRISC architectural simulator modified to supply
/// cycle accurate estimations" (§5).
class Machine {
 public:
  explicit Machine(std::size_t mem_bytes = 1 << 20);

  void load_program(Program program);
  const Program& program() const { return program_; }

  // ---- architectural state ----
  std::int32_t reg(unsigned r) const { return regs_[r]; }
  void set_reg(unsigned r, std::int32_t v) {
    if (r != 0) regs_[r] = v;
  }
  bool flag() const { return flag_; }
  std::uint32_t pc() const { return pc_; }

  std::int32_t read_word(std::uint32_t addr) const;
  void write_word(std::uint32_t addr, std::int32_t v);
  std::int8_t read_byte(std::uint32_t addr) const;
  void write_byte(std::uint32_t addr, std::int8_t v);

  // ---- timing configuration ----
  void set_cycle_model(const CycleModel& m) {
    model_ = m;
    blocks_.reset(program_.instrs.size());  // priced with the old model
  }
  void enable_icache(DirectMappedCache::Config cfg) { icache_.emplace(cfg); }
  void enable_dcache(DirectMappedCache::Config cfg) { dcache_.emplace(cfg); }
  const DirectMappedCache* icache() const {
    return icache_ ? &*icache_ : nullptr;
  }
  const DirectMappedCache* dcache() const {
    return dcache_ ? &*dcache_ : nullptr;
  }

  // ---- block path (iss/block_cache.hpp) ----

  /// Replaces the block-path switch (default: on) and drops every block
  /// built so far. Blocks are also dropped by load_program and
  /// set_cycle_model, whose program and prices they were built from.
  void set_block_cache_config(const BlockCacheConfig& cfg) {
    bc_cfg_ = cfg;
    blocks_.reset(program_.instrs.size());
  }
  /// Counters of the block path since the blocks were last dropped.
  BlockCacheStats block_cache_stats() const { return blocks_.stats(); }

  // ---- execution tracing (debugging aid) ----

  /// One executed instruction: where it was, what it was, what it wrote.
  struct TraceRecord {
    std::uint32_t pc = 0;
    Instr instr;
    std::int32_t rd_value = 0;  ///< value of rd after execution (0 if none)
    bool flag = false;          ///< compare flag after execution
  };

  /// Keeps the most recent `depth` executed instructions (0 disables) and
  /// starts a new window. The ring is O(1) per instruction; intended for
  /// post-mortem inspection of misbehaving programs, not for full-run
  /// logging. While tracing is enabled every instruction runs on the
  /// per-instruction path, so that each one passes through the ring.
  void enable_trace(std::size_t depth) {
    trace_depth_ = depth;
    trace_.clear();
    trace_next_ = 0;
  }
  /// Oldest-to-newest window of the last executed instructions.
  std::vector<TraceRecord> trace_window() const;

  // ---- execution ----
  struct RunResult {
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    bool halted = false;  ///< false: max_steps exhausted
  };

  /// Runs from `entry` (default: instruction 0) until halt or `max_steps`
  /// instructions. Sets up r1 (stack pointer) at the top of memory if it is
  /// still zero. Statistics accumulate across calls; see reset_stats().
  RunResult run(std::uint64_t max_steps = 200'000'000);
  RunResult run_from(std::uint32_t entry,
                     std::uint64_t max_steps = 200'000'000);

  const ExecStats& stats() const { return stats_; }
  void reset_stats();

  /// Convenience: calls the subroutine at label `fn` (arguments already in
  /// r3..r8) by jumping there with r9 pointing at a halt stub appended by
  /// load_program. Returns r11.
  std::int32_t call(const std::string& fn,
                    std::uint64_t max_steps = 200'000'000);

 private:
  /// Executes one instruction architecturally (registers, memory, flag,
  /// d-cache timing) and returns the next PC: the per-instruction path, the
  /// reference the block path is tested against.
  std::uint32_t exec_arch(const Instr& in, std::uint64_t& cycles, bool& taken);

  /// Runs the block at pc_ and every block chained after it on the threaded
  /// path, adding to `res`; returns false, having run nothing, when the
  /// instruction at pc_ must run per instruction.
  bool run_blocks(std::uint64_t max_steps, RunResult& res);

  Program program_;
  /// r0..r31, then BlockCache::kSinkReg, which takes the block path's writes
  /// to r0.
  std::array<std::int32_t, BlockCache::kSinkReg + 1> regs_{};
  bool flag_ = false;
  std::uint32_t pc_ = 0;
  std::vector<std::uint8_t> mem_;
  CycleModel model_;
  std::optional<DirectMappedCache> icache_;
  std::optional<DirectMappedCache> dcache_;
  ExecStats stats_;
  BlockCacheConfig bc_cfg_;
  BlockCache blocks_;
  std::uint32_t halt_stub_ = 0;  ///< index of the appended halt instruction
  std::size_t trace_depth_ = 0;
  std::size_t trace_next_ = 0;  ///< ring-buffer write position
  std::vector<TraceRecord> trace_;
};

}  // namespace iss
