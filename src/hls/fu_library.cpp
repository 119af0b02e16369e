#include "hls/fu_library.hpp"

namespace hls {

const char* to_string(FuKind k) {
  switch (k) {
    case FuKind::kAlu:
      return "ALU";
    case FuKind::kMul:
      return "MUL";
    case FuKind::kDiv:
      return "DIV";
    case FuKind::kMem:
      return "MEM";
    case FuKind::kNone:
      return "-";
    case FuKind::kCount_:
      break;
  }
  return "?";
}

FuKind fu_kind_of(scperf::Op op) {
  using scperf::Op;
  switch (op) {
    case Op::kMul:
      return FuKind::kMul;
    case Op::kDiv:
    case Op::kMod:
      return FuKind::kDiv;
    case Op::kIndex:
      return FuKind::kMem;
    case Op::kAssign:
    case Op::kAssignRes:
    case Op::kBranch:
    case Op::kCall:
    case Op::kReturn:
      return FuKind::kNone;  // wiring / FSM control: no datapath FU
    default:
      return FuKind::kAlu;
  }
}

FuLibrary default_fu_library() {
  FuLibrary lib;
  lib[FuKind::kAlu] = {8.0, 100.0};
  lib[FuKind::kMul] = {16.0, 620.0};
  lib[FuKind::kDiv] = {75.0, 1500.0};
  lib[FuKind::kMem] = {10.0, 150.0};
  lib[FuKind::kNone] = {0.0, 0.0};
  return lib;
}

Allocation Allocation::minimal() {
  Allocation a;
  a[FuKind::kAlu] = 1;
  a[FuKind::kMul] = 1;
  a[FuKind::kDiv] = 1;
  a[FuKind::kMem] = 1;
  return a;
}

double Allocation::area(const FuLibrary& lib) const {
  double total = 0.0;
  for (std::size_t i = 0; i < kNumFuKinds; ++i) {
    const auto k = static_cast<FuKind>(i);
    if (k == FuKind::kNone) continue;
    total += static_cast<double>(count[i]) * lib[k].area;
  }
  return total;
}

}  // namespace hls
