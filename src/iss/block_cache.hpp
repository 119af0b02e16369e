#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "iss/cycle_model.hpp"
#include "iss/isa.hpp"

namespace iss {

/// The block path's on/off switch (Machine::set_block_cache_config); on by
/// default.
struct BlockCacheConfig {
  bool enabled = true;
};

/// Block-path counters (Machine::block_cache_stats).
struct BlockCacheStats {
  std::uint64_t hits = 0;      ///< blocks run on the block path
  std::uint64_t misses = 0;    ///< blocks built
  std::uint64_t bypassed = 0;  ///< instructions run per instruction instead
};

/// Static blocks for the orsim interpreter. A block is the longest statically
/// deterministic path from an entry PC: a straight-line run extended across
/// unconditional jumps (their targets are immediates), ending at the first
/// conditional branch, `jr`, halt, loop closure or kMaxBlockLen instructions.
/// Each block is built once, on first arrival at its entry PC. It stores its
/// length, its per-class counts, its pipeline cycles for both outcomes of its
/// final branch, its instructions' PCs in fetch order, and its path decoded
/// into a run of ops for the Machine's threaded interpreter. None of it
/// depends on the cache models, which the Machine charges while it runs the
/// block: the d-cache inside every load and store, the i-cache over the
/// fetch-order PCs. So there is nothing to memoize and nothing to validate;
/// the per-instruction path stays the reference the block path is tested
/// against (DESIGN.md §4, "Below the segment").
class BlockCache {
 public:
  static constexpr std::uint32_t kMaxBlockLen = 64;
  /// The register slot an op writes in place of r0, so that no handler
  /// tests its destination; the Machine's register file has 33 slots.
  static constexpr std::uint8_t kSinkReg = 32;
  /// A successor the chain does not enter: a halt, a PC outside the program
  /// or a block whose path leaves it.
  static constexpr std::uint32_t kNoBlock = ~0u;
  static constexpr std::uint32_t kUnresolved = ~0u - 1;

  /// One pre-decoded op: the address of the Machine handler that runs it
  /// and its operands. A block's run holds its path with every `j` and `nop`
  /// dropped (the block's price covers them) and every `jal` a link op, then
  /// one terminator: the `bf`, `bnf` or `jr` that ends the path, or a jump
  /// to the block's static successor (after a final `j`, `jal` or a
  /// fall-through).
  struct Op {
    const void* handler = nullptr;
    std::uint8_t rd = 0;     ///< destination (r0 as kSinkReg), or stored
    std::uint8_t ra = 0;
    std::uint8_t rb = 0;
    std::uint8_t fetch = 0;  ///< position of its instruction in fetch order
    std::int32_t imm = 0;    ///< immediate or offset; a link op's return PC
  };

  /// The Machine's handler addresses, indexed by Opcode. The kJ entry is the
  /// static-successor terminator and the kJal entry the link op.
  using Handlers = const void* const*;

  struct Block {
    bool built = false;
    bool runs = false;      ///< false: the path leaves the program
    std::uint32_t len = 0;  ///< instructions, the final transfer included
    std::array<std::uint32_t, static_cast<std::size_t>(InstrClass::kCount_)>
        per_class{};
    /// Pipeline cycles of the whole block, indexed by whether its final
    /// instruction was taken (equal unless it is a conditional branch).
    std::array<std::uint64_t, 2> cycles{};
    std::uint32_t first_op = 0;     ///< start of its run in ops()
    std::uint32_t first_fetch = 0;  ///< start of its `len` PCs in fetch_pcs()
    /// The successor PC by outcome (0: not taken or static, 1: taken), and
    /// the index of the successor block once a chain first leaves that way:
    /// the successor's entry PC, or kNoBlock.
    std::array<std::uint32_t, 2> next_pc{};
    std::array<std::uint32_t, 2> next{kUnresolved, kUnresolved};
  };

  /// Drops every block and counter; sized for a program of `n_instrs`.
  void reset(std::size_t n_instrs) {
    blocks_.assign(n_instrs, Block{});
    ops_.clear();
    fetch_pcs_.clear();
    stats_ = {};
  }

  /// The block at `pc` (inside the program, not a halt), built on first use,
  /// or nullptr when the next instruction must run per instruction: the path
  /// leaves the program, or fewer than its length remain of the step budget.
  const Block* at(const Program& program, const CycleModel& model,
                  Handlers handlers, std::uint32_t pc,
                  std::uint64_t remaining_steps) {
    Block& b = blocks_[pc];
    if (!b.built) build(b, program, model, handlers, pc);
    if (b.runs && remaining_steps >= b.len) {
      ++stats_.hits;
      return &b;
    }
    ++stats_.bypassed;
    return nullptr;
  }

  /// The index of the block a chain enters at `pc`, built on first arrival,
  /// or kNoBlock. Counts nothing: a chain that stops leaves `pc` to at().
  std::uint32_t resolve(const Program& program, const CycleModel& model,
                        Handlers handlers, std::uint32_t pc) {
    if (pc >= program.instrs.size() ||
        program.instrs[pc].op == Opcode::kHalt) {
      return kNoBlock;
    }
    Block& b = blocks_[pc];
    if (!b.built) build(b, program, model, handlers, pc);
    return b.runs ? pc : kNoBlock;
  }

  /// Resolves and stores `from.next[taken]`, which a chain reads first and
  /// resolves only while it is kUnresolved. An index, never a pointer, so a
  /// copied Machine follows its own blocks.
  std::uint32_t link(const Block& from, bool taken, const Program& program,
                     const CycleModel& model, Handlers handlers) {
    const std::uint32_t next =
        resolve(program, model, handlers, from.next_pc[taken]);
    blocks_[static_cast<std::size_t>(&from - blocks_.data())].next[taken] =
        next;
    return next;
  }

  /// The block at index `i` if it fits the remaining step budget (counted
  /// as a hit), else nullptr.
  const Block* enter(std::uint32_t i, std::uint64_t remaining_steps) {
    const Block& b = blocks_[i];
    if (remaining_steps < b.len) return nullptr;
    ++stats_.hits;
    return &b;
  }

  const Op* ops() const { return ops_.data(); }
  const std::uint32_t* fetch_pcs() const { return fetch_pcs_.data(); }
  const BlockCacheStats& stats() const { return stats_; }

 private:
  void build(Block& b, const Program& program, const CycleModel& model,
             Handlers handlers, std::uint32_t entry);

  std::vector<Block> blocks_;  ///< indexed by entry PC
  std::vector<Op> ops_;        ///< every built block's run, back to back
  std::vector<std::uint32_t> fetch_pcs_;
  BlockCacheStats stats_;
};

}  // namespace iss
