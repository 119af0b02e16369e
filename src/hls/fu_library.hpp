#pragma once

#include <array>
#include <cstdint>

#include "core/op.hpp"

namespace hls {

/// Functional-unit kinds the synthesis engine allocates.
enum class FuKind : std::uint8_t {
  kAlu,   ///< add/sub/compare/logic/shift
  kMul,
  kDiv,
  kMem,   ///< memory port (array accesses)
  kNone,  ///< free (wiring: assignments, control folded into the FSM)
  kCount_,
};

inline constexpr std::size_t kNumFuKinds =
    static_cast<std::size_t>(FuKind::kCount_);

const char* to_string(FuKind k);

/// Which FU executes each C++-level operation.
FuKind fu_kind_of(scperf::Op op);

/// Technology characterisation of the functional units: propagation delay in
/// nanoseconds (used for operator chaining) and area in equivalent-gate
/// units. This is the "standard cell library" side of the paper's platform
/// characterisation; the estimation library's asic_hw_cost_table() is derived
/// from these delays rounded up to whole clock cycles.
struct FuLibrary {
  struct Entry {
    double delay_ns = 0.0;
    double area = 0.0;
  };
  std::array<Entry, kNumFuKinds> entries{};

  const Entry& operator[](FuKind k) const {
    return entries[static_cast<std::size_t>(k)];
  }
  Entry& operator[](FuKind k) { return entries[static_cast<std::size_t>(k)]; }

  /// Delay of one operation (the delay of the FU kind executing it).
  double op_delay_ns(scperf::Op op) const {
    return (*this)[fu_kind_of(op)].delay_ns;
  }
};

/// The default 0.18um-ish characterisation used across this repository:
/// ALU 8 ns / 100 units, multiplier 16 ns / 620 units, divider 75 ns /
/// 1500 units, memory port 10 ns / 150 units.
FuLibrary default_fu_library();

/// Per-kind FU allocation for resource-constrained scheduling.
struct Allocation {
  std::array<std::uint32_t, kNumFuKinds> count{};

  std::uint32_t operator[](FuKind k) const {
    return count[static_cast<std::size_t>(k)];
  }
  std::uint32_t& operator[](FuKind k) {
    return count[static_cast<std::size_t>(k)];
  }

  /// One FU of every kind: the paper's "only one ALU" worst-case end of the
  /// design space.
  static Allocation minimal();

  double area(const FuLibrary& lib) const;
};

}  // namespace hls
