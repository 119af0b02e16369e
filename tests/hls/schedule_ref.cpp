// Reference forms of hls's ALAP, list-scheduling, force-directed and
// design-space code: the direct loops that src/hls replaced with cheaper
// ones performing the same floating-point operations in the same order.
// oracle_test.cpp compares the two bit for bit. Test-only. The bodies are
// unchanged except that calls to the reference's own functions name
// hls_ref:: (argument-dependent lookup would also find the hls:: ones).

#include "schedule_ref.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

namespace hls_ref {

using hls::Allocation;
using hls::DesignPoint;
using hls::FuKind;
using hls::FuLibrary;
using hls::ScheduleResult;
using hls::asap_chained;
using hls::fu_kind_of;
using hls::kNumFuKinds;
using hls::to_string;

namespace {

/// Whole clock cycles an operation occupies its FU (chaining off).
std::uint32_t op_cycles(const FuLibrary& lib, scperf::Op op, double clock_ns) {
  const double d = lib.op_delay_ns(op);
  if (d <= 0.0) return 0;
  return static_cast<std::uint32_t>(std::ceil(d / clock_ns - 1e-9));
}

/// Peak number of simultaneously-busy FUs per kind for a given schedule,
/// where node i is busy during [start[i], start[i] + cycles_of(i)).
Allocation peak_usage(const scperf::Dfg& dfg, const FuLibrary& lib,
                      double clock_ns,
                      const std::vector<std::uint32_t>& start,
                      std::uint32_t horizon) {
  Allocation used;
  if (horizon == 0) return used;
  std::array<std::vector<std::uint32_t>, kNumFuKinds> busy;
  for (auto& v : busy) v.assign(horizon, 0);
  for (std::size_t i = 0; i < dfg.size(); ++i) {
    const FuKind k = fu_kind_of(dfg.nodes[i].op);
    if (k == FuKind::kNone) continue;
    const std::uint32_t len = std::max(1u, op_cycles(lib, dfg.nodes[i].op,
                                                     clock_ns));
    for (std::uint32_t c = start[i]; c < start[i] + len && c < horizon; ++c) {
      ++busy[static_cast<std::size_t>(k)][c];
    }
  }
  for (std::size_t k = 0; k < kNumFuKinds; ++k) {
    for (std::uint32_t v : busy[k]) {
      used.count[k] = std::max(used.count[k], v);
    }
  }
  return used;
}

}  // namespace

std::vector<std::uint32_t> alap_cycles(const scperf::Dfg& dfg,
                                       const FuLibrary& lib, double clock_ns,
                                       std::uint32_t deadline) {
  const std::size_t n = dfg.size();
  std::vector<std::uint32_t> late(n, deadline);
  // Nodes are stored in topological (execution) order; walk backwards.
  for (std::size_t i = n; i-- > 0;) {
    const std::uint32_t len =
        std::max(1u, op_cycles(lib, dfg.nodes[i].op, clock_ns));
    // Latest start so the op finishes by its consumers' latest starts.
    std::uint32_t latest = deadline >= len ? deadline - len : 0;
    for (std::size_t j = i + 1; j < n; ++j) {
      const scperf::DfgNode& c = dfg.nodes[j];
      if (c.a == i + 1 || c.b == i + 1) {
        latest = std::min(latest, late[j] >= len ? late[j] - len : 0u);
      }
    }
    late[i] = latest;
  }
  return late;
}

ScheduleResult list_schedule(const scperf::Dfg& dfg, const FuLibrary& lib,
                             double clock_ns, const Allocation& alloc) {
  ScheduleResult res;
  const std::size_t n = dfg.size();
  res.start_cycle.assign(n, 0);
  if (n == 0) return res;

  for (const auto& nd : dfg.nodes) {
    const FuKind k = fu_kind_of(nd.op);
    if (k != FuKind::kNone && alloc[k] == 0) {
      throw std::invalid_argument(
          std::string("hls: allocation has no ") + to_string(k) +
          " but the DFG needs one");
    }
  }

  // Priority: ALAP against the sequential-bound deadline (smaller = more
  // urgent, i.e. on the critical path).
  std::uint32_t seq_bound = 0;
  for (const auto& nd : dfg.nodes) {
    seq_bound += std::max(1u, op_cycles(lib, nd.op, clock_ns));
  }
  const std::vector<std::uint32_t> priority =
      hls_ref::alap_cycles(dfg, lib, clock_ns, std::max(seq_bound, 1u));

  std::vector<std::uint32_t> finish(n, 0);
  std::vector<bool> scheduled(n, false);
  std::size_t remaining = n;
  std::uint32_t cycle = 0;
  // Busy-until per FU instance, per kind.
  std::array<std::vector<std::uint32_t>, kNumFuKinds> fu_free;
  for (std::size_t k = 0; k < kNumFuKinds; ++k) {
    const std::uint32_t cnt =
        std::min<std::uint32_t>(alloc.count[k], 4096u);
    fu_free[k].assign(cnt, 0);
  }

  while (remaining > 0) {
    // Within one cycle, keep sweeping until nothing more can start: a
    // zero-latency wiring op completing "now" may unblock its consumers in
    // the same cycle.
    bool progress = true;
    while (progress && remaining > 0) {
      progress = false;
      // Collect ready, unscheduled ops; most urgent first, ties by index.
      std::vector<std::size_t> ready;
      for (std::size_t i = 0; i < n; ++i) {
        if (scheduled[i]) continue;
        const scperf::DfgNode& nd = dfg.nodes[i];
        const bool a_ok = nd.a == 0 || (scheduled[nd.a - 1] &&
                                        finish[nd.a - 1] <= cycle);
        const bool b_ok = nd.b == 0 || (scheduled[nd.b - 1] &&
                                        finish[nd.b - 1] <= cycle);
        if (a_ok && b_ok) ready.push_back(i);
      }
      std::sort(ready.begin(), ready.end(),
                [&](std::size_t x, std::size_t y) {
                  return priority[x] != priority[y]
                             ? priority[x] < priority[y]
                             : x < y;
                });
      for (std::size_t i : ready) {
        const scperf::DfgNode& nd = dfg.nodes[i];
        const FuKind k = fu_kind_of(nd.op);
        const std::uint32_t len =
            std::max(1u, op_cycles(lib, nd.op, clock_ns));
        if (k == FuKind::kNone) {
          // Wiring: completes instantly once operands are ready.
          scheduled[i] = true;
          res.start_cycle[i] = cycle;
          finish[i] = cycle;
          --remaining;
          progress = true;
          continue;
        }
        auto& frees = fu_free[static_cast<std::size_t>(k)];
        for (std::uint32_t& f : frees) {
          if (f <= cycle) {
            f = cycle + len;
            scheduled[i] = true;
            res.start_cycle[i] = cycle;
            finish[i] = cycle + len;
            --remaining;
            progress = true;
            break;
          }
        }
      }
    }
    ++cycle;
    assert(cycle < 10'000'000 && "list_schedule failed to converge");
  }

  for (std::size_t i = 0; i < n; ++i) {
    res.cycles = std::max(res.cycles, finish[i]);
  }
  res.ns = res.cycles * clock_ns;
  res.used = peak_usage(dfg, lib, clock_ns, res.start_cycle,
                        std::max(res.cycles, 1u));
  return res;
}

ScheduleResult force_directed(const scperf::Dfg& dfg, const FuLibrary& lib,
                              double clock_ns,
                              std::uint32_t deadline_cycles) {
  ScheduleResult res;
  const std::size_t n = dfg.size();
  res.start_cycle.assign(n, 0);
  if (n == 0) return res;

  const auto len_of = [&](std::size_t i) -> std::uint32_t {
    if (fu_kind_of(dfg.nodes[i].op) == FuKind::kNone) return 0;  // wiring
    return std::max(1u, op_cycles(lib, dfg.nodes[i].op, clock_ns));
  };

  // Consumers lists for range propagation.
  std::vector<std::vector<std::size_t>> consumers(n);
  for (std::size_t i = 0; i < n; ++i) {
    const scperf::DfgNode& nd = dfg.nodes[i];
    if (nd.a != 0) consumers[nd.a - 1].push_back(i);
    if (nd.b != 0) consumers[nd.b - 1].push_back(i);
  }

  std::vector<std::uint32_t> asap(n, 0), alap(n, 0);
  const auto recompute_ranges = [&](const std::vector<bool>& fixed,
                                    const std::vector<std::uint32_t>& start) {
    for (std::size_t i = 0; i < n; ++i) {
      if (fixed[i]) {
        asap[i] = start[i];
        continue;
      }
      std::uint32_t s = 0;
      const scperf::DfgNode& nd = dfg.nodes[i];
      if (nd.a != 0) s = std::max(s, asap[nd.a - 1] + len_of(nd.a - 1));
      if (nd.b != 0) s = std::max(s, asap[nd.b - 1] + len_of(nd.b - 1));
      asap[i] = s;
    }
    for (std::size_t i = n; i-- > 0;) {
      if (fixed[i]) {
        alap[i] = start[i];
        continue;
      }
      std::uint32_t latest = deadline_cycles - std::min(deadline_cycles,
                                                        len_of(i));
      for (std::size_t c : consumers[i]) {
        const std::uint32_t bound =
            alap[c] >= len_of(i) ? alap[c] - len_of(i) : 0u;
        latest = std::min(latest, bound);
      }
      alap[i] = latest;
      if (alap[i] < asap[i]) {
        throw std::invalid_argument(
            "hls: force_directed deadline below the critical path");
      }
    }
  };

  std::vector<bool> fixed(n, false);
  std::vector<std::uint32_t> start(n, 0);
  recompute_ranges(fixed, start);

  // Distribution graphs per FU kind: expected activity per cycle, assuming a
  // uniform start distribution over [asap, alap].
  const auto distribution = [&](std::array<std::vector<double>, kNumFuKinds>&
                                    dg) {
    for (auto& v : dg) v.assign(deadline_cycles + 1, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const FuKind k = fu_kind_of(dfg.nodes[i].op);
      if (k == FuKind::kNone) continue;
      const std::uint32_t len = len_of(i);
      const double p = 1.0 / (alap[i] - asap[i] + 1);
      for (std::uint32_t s = asap[i]; s <= alap[i]; ++s) {
        for (std::uint32_t c = s; c < s + len && c <= deadline_cycles; ++c) {
          dg[static_cast<std::size_t>(k)][c] += p;
        }
      }
    }
  };

  // Wiring ops are zero-length pass-throughs: they stay unfixed (their
  // ranges follow their neighbours) and are never selected for placement.
  std::size_t remaining = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (fu_kind_of(dfg.nodes[i].op) != FuKind::kNone) ++remaining;
  }

  while (remaining > 0) {
    std::array<std::vector<double>, kNumFuKinds> dg;
    distribution(dg);
    double best_force = 0.0;
    std::size_t best_op = SIZE_MAX;
    std::uint32_t best_start = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (fixed[i]) continue;
      const FuKind k = fu_kind_of(dfg.nodes[i].op);
      if (k == FuKind::kNone) continue;  // wiring floats
      const std::uint32_t len = len_of(i);
      const double p = 1.0 / (alap[i] - asap[i] + 1);
      for (std::uint32_t s = asap[i]; s <= alap[i]; ++s) {
        // Self force: concentrate the op at s, relieve its spread-out share.
        double force = 0.0;
        for (std::uint32_t c = s; c < s + len && c <= deadline_cycles; ++c) {
          force += dg[static_cast<std::size_t>(k)][c];
        }
        // Subtract the op's own expected contribution over the window.
        for (std::uint32_t ss = asap[i]; ss <= alap[i]; ++ss) {
          for (std::uint32_t c = ss; c < ss + len && c <= deadline_cycles;
               ++c) {
            if (c >= s && c < s + len) force -= p;
          }
        }
        if (best_op == SIZE_MAX || force < best_force) {
          best_force = force;
          best_op = i;
          best_start = s;
        }
      }
    }
    fixed[best_op] = true;
    start[best_op] = best_start;
    --remaining;
    recompute_ranges(fixed, start);
  }

  // Wiring ops settle at their final ASAP position.
  for (std::size_t i = 0; i < n; ++i) {
    if (!fixed[i]) start[i] = asap[i];
  }
  res.start_cycle = start;
  res.cycles = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (fu_kind_of(dfg.nodes[i].op) == FuKind::kNone) continue;
    res.cycles = std::max(res.cycles, start[i] + len_of(i));
  }
  res.ns = res.cycles * clock_ns;
  res.used = peak_usage(dfg, lib, clock_ns, res.start_cycle,
                        std::max(res.cycles, 1u));
  return res;
}

std::vector<DesignPoint> design_space(const scperf::Dfg& dfg,
                                      const FuLibrary& lib, double clock_ns) {
  // Upper bound on useful parallelism: the unconstrained schedule's peak use.
  const ScheduleResult fastest = asap_chained(dfg, lib, clock_ns);
  Allocation max_useful = fastest.used;
  for (std::size_t k = 0; k < kNumFuKinds; ++k) {
    max_useful.count[k] = std::max(max_useful.count[k], 1u);
  }
  max_useful[FuKind::kNone] = 0;

  // Enumerate the (small) allocation grid and keep the Pareto frontier.
  std::vector<DesignPoint> points;
  for (std::uint32_t alu = 1; alu <= max_useful[FuKind::kAlu]; ++alu) {
    for (std::uint32_t mul = 1; mul <= max_useful[FuKind::kMul]; ++mul) {
      for (std::uint32_t mem = 1; mem <= max_useful[FuKind::kMem]; ++mem) {
        Allocation a;
        a[FuKind::kAlu] = alu;
        a[FuKind::kMul] = mul;
        a[FuKind::kDiv] = std::max(max_useful[FuKind::kDiv], 1u);
        a[FuKind::kMem] = mem;
        const ScheduleResult r = hls_ref::list_schedule(dfg, lib, clock_ns, a);
        points.push_back({a, r.cycles, r.ns, a.area(lib)});
      }
    }
  }
  // Pareto filter: keep points not dominated in (area, time).
  std::vector<DesignPoint> pareto;
  for (const DesignPoint& p : points) {
    bool dominated = false;
    for (const DesignPoint& q : points) {
      if ((q.area < p.area && q.cycles <= p.cycles) ||
          (q.area <= p.area && q.cycles < p.cycles)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) pareto.push_back(p);
  }
  std::sort(pareto.begin(), pareto.end(),
            [](const DesignPoint& x, const DesignPoint& y) {
              return x.area != y.area ? x.area < y.area : x.cycles < y.cycles;
            });
  // Drop duplicate (area, cycles) pairs.
  pareto.erase(std::unique(pareto.begin(), pareto.end(),
                           [](const DesignPoint& x, const DesignPoint& y) {
                             return x.area == y.area && x.cycles == y.cycles;
                           }),
               pareto.end());
  return pareto;
}

}  // namespace hls_ref
