#pragma once

#include <algorithm>
#include <array>
#include <cstdint>

#include "core/cost_table.hpp"
#include "core/dfg.hpp"
#include "core/op.hpp"

namespace scperf {

/// Provenance stamp carried by every annotated value.
///
/// `ready` is the value's completion time in cycles relative to the start of
/// the segment that produced it (the online critical-path computation for the
/// paper's HW best case); `node` is its producer in the recorded DFG. Both
/// are only meaningful while `epoch` matches the active segment's epoch —
/// values surviving across a segment boundary are inputs of the new segment
/// (ready = 0, node = external).
struct Stamp {
  std::uint64_t epoch = 0;
  double ready = 0.0;
  std::uint32_t node = 0;
};

/// Per-segment accounting: everything the overloaded operators write into.
///
/// - op_histogram: how many times each operation kind executed, cumulative
///   over the process's life (energy is its dot product with the energy
///   table). A charge is one increment of it and nothing else.
/// - sum_cycles(): the segment's sequential time, priced at the close as the
///   dot product of the histogram's growth since reset() with the cost
///   table, in fixed op order — so it does not depend on the order the ops
///   executed in. This is the SW segment time and the HW worst case
///   (single-ALU sequential execution, §3).
/// - max_ready: the running DAG critical path. This is the HW best case
///   ("critical path of the sequence of operations", §3).
/// - dfg: the segment's operation graph, recorded by every HW op; the
///   estimator keeps it at the close for the behavioural-synthesis
///   substitute when the resource asks for it, and reset() drops it.
namespace detail {
/// Forwards to Simulator::probe_wall_clock() (defined in estimator.cpp so
/// this header stays free of the kernel include): converts an unbounded
/// compute segment into a kWallClockBudget SimError instead of a hang.
void annotation_watchdog_probe();
}  // namespace detail

struct SegmentAccum {
  const CostTable* table = nullptr;
  /// HW resources propagate value ready-times and record the DFG.
  bool track_ready = false;

  double max_ready = 0.0;
  std::array<std::uint64_t, kNumOps> op_histogram{};
  /// op_histogram as it stood when the current segment started.
  std::array<std::uint64_t, kNumOps> segment_start{};
  /// Fault-injection pulse cycles charged into the current segment.
  double pulse_cycles = 0.0;
  /// Cumulative cycles charged by fault injection (pulse glitches) — like
  /// op_histogram this survives reset(): it feeds the process's energy
  /// figure, not any single segment's time.
  double fault_cycles = 0.0;
  std::uint64_t epoch = 1;
  Dfg dfg;

  SegmentAccum() = default;
  SegmentAccum(const SegmentAccum&) = delete;
  SegmentAccum& operator=(const SegmentAccum&) = delete;

  /// Starts a fresh segment; bumping the epoch invalidates every stamp
  /// produced by earlier segments without touching the values themselves.
  void reset() {
    segment_start = op_histogram;
    pulse_cycles = 0.0;
    max_ready = 0.0;
    ++epoch;
    dfg.nodes.clear();
  }

  [[gnu::always_inline]] void charge(Op op) {
    // A segment that never reaches a node never passes through the
    // scheduler, so the kernel's wall-clock watchdog would sleep through an
    // in-segment hang; probe it from here, amortised to every 4096th charge
    // of each op kind (a hung loop charges some kind forever).
    if ((++op_histogram[static_cast<std::size_t>(op)] & 0xFFFu) == 0u) {
      detail::annotation_watchdog_probe();
    }
  }

  /// Cycles of the current segment: its ops priced by the cost table plus
  /// its fault pulses.
  double sum_cycles() const {
    double sum = 0.0;
    for (std::size_t i = 0; i < kNumOps; ++i) {
      sum += static_cast<double>(op_histogram[i] - segment_start[i]) *
             (*table)[static_cast<Op>(i)];
    }
    return sum + pulse_cycles;
  }

  /// Charges a fault-injection pulse into the current segment. On a HW
  /// resource it stretches both the sequential sum and the critical path, so
  /// the segment's [Tmin, Tmax] interval, and with it T = Tmin +
  /// (Tmax - Tmin) * k, grows by the full pulse for every k.
  void charge_pulse(double cycles) {
    pulse_cycles += cycles;
    if (track_ready) max_ready += cycles;
    fault_cycles += cycles;
  }

  /// Operations charged in the current segment.
  std::uint64_t op_count() const {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < kNumOps; ++i) {
      n += op_histogram[i] - segment_start[i];
    }
    return n;
  }
};

/// The accumulator of the process currently executing, switched by the
/// estimator at every scheduler dispatch; nullptr when the running process is
/// unmapped or no estimator is installed. Annotated operators are no-ops in
/// the nullptr case — this is what keeps the library "completely transparent
/// for the user" at near-zero cost when estimation is off. constinit spares
/// every access the TLS-init wrapper call.
extern thread_local constinit SegmentAccum* tl_accum;

namespace detail {

inline double ready_of(const SegmentAccum& acc, const Stamp& s) {
  return s.epoch == acc.epoch ? s.ready : 0.0;
}
inline std::uint32_t node_of(const SegmentAccum& acc, const Stamp& s) {
  return s.epoch == acc.epoch ? s.node : 0u;
}

/// An operand with no provenance: a constant or a pre-segment input.
inline constexpr Stamp kNoStamp{};

/// HW ready tracking and DFG recording for one charged operation: every HW op
/// extends the critical path and appends its node. Inline by contract, like
/// every operator that calls it (see Annot).
///
/// `out` may be an operand (`x = x`, `v[i] = v[j]` with i == j), so both
/// operands are read before `out` is written: writing its epoch first would
/// pass a value from an earlier segment off as a current one. The DFG append
/// goes last: the compiler must assume that its one-byte Op store and its
/// reallocation may alias `out` and `acc`, so every field used after it
/// would be read from memory again.
[[gnu::always_inline]] inline void track_hw(SegmentAccum& acc, Op op,
                                            const Stamp& a, const Stamp& b,
                                            Stamp& out) {
  const double ready_a = ready_of(acc, a);
  const double ready_b = ready_of(acc, b);
  const std::uint32_t node_a = node_of(acc, a);
  const std::uint32_t node_b = node_of(acc, b);
  out.epoch = acc.epoch;
  out.ready = std::max(ready_a, ready_b) + (*acc.table)[op];
  acc.max_ready = std::max(acc.max_ready, out.ready);
  acc.dfg.nodes.push_back({op, node_a, node_b});
  out.node = static_cast<std::uint32_t>(acc.dfg.nodes.size());
}

/// Charges a binary operation and computes the result's stamp.
[[gnu::always_inline]] inline void charge_binary(Op op, const Stamp& a,
                                                 const Stamp& b, Stamp& out) {
  SegmentAccum* acc = tl_accum;
  if (acc == nullptr) return;
  acc->charge(op);
  if (acc->track_ready) track_hw(*acc, op, a, b, out);
}

/// Charges a unary operation (including assignment, where `a` is the source).
[[gnu::always_inline]] inline void charge_unary(Op op, const Stamp& a,
                                                Stamp& out) {
  charge_binary(op, a, kNoStamp, out);
}

/// Charges an operation with no tracked result (branch conditions, indexing):
/// contributes to the histogram and the critical path but produces no
/// stamped value.
[[gnu::always_inline]] inline void charge_effect(Op op, const Stamp& a) {
  SegmentAccum* acc = tl_accum;
  if (acc == nullptr) return;
  acc->charge(op);
  if (acc->track_ready) {
    Stamp discard;
    track_hw(*acc, op, a, kNoStamp, discard);
  }
}

}  // namespace detail
}  // namespace scperf
