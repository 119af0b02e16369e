#include "hls/schedule.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

namespace hls {

namespace {

/// Whole clock cycles an operation occupies its FU (chaining off).
std::uint32_t op_cycles(const FuLibrary& lib, scperf::Op op, double clock_ns) {
  const double d = lib.op_delay_ns(op);
  if (d <= 0.0) return 0;
  return static_cast<std::uint32_t>(std::ceil(d / clock_ns - 1e-9));
}

/// Refuses node i (0-based) unless each operand is an external input (0) or
/// an earlier node (1..i): every pass below indexes per-node arrays by
/// operand id and relies on the nodes being in topological order.
void check_operands(std::uint32_t i, const scperf::DfgNode& nd) {
  for (const auto& [name, id] : {std::pair{'a', nd.a}, std::pair{'b', nd.b}}) {
    if (id > i) {
      throw std::invalid_argument(
          "hls: DFG node " + std::to_string(i + 1) + " operand " + name +
          " = " + std::to_string(id) + " is not an earlier node");
    }
  }
}

/// What the schedulers read per node, worked out once per call instead of
/// inside their inner loops: the FU kind, the whole cycles the op holds it
/// (at least one, wiring included; chaining off) and the nodes that consume
/// its result. Building one validates the DFG (check_operands).
struct Graph {
  Graph(const scperf::Dfg& dfg, const FuLibrary& lib, double clock_ns)
      : kind(dfg.size()), len(dfg.size()), consumers(dfg.size()) {
    for (std::uint32_t i = 0; i < dfg.size(); ++i) {
      const scperf::DfgNode& nd = dfg.nodes[i];
      check_operands(i, nd);
      kind[i] = fu_kind_of(nd.op);
      len[i] = std::max(1u, op_cycles(lib, nd.op, clock_ns));
      if (nd.a != 0) consumers[nd.a - 1].push_back(i);
      if (nd.b != 0) consumers[nd.b - 1].push_back(i);
    }
  }
  std::size_t size() const { return kind.size(); }

  std::vector<FuKind> kind;
  std::vector<std::uint32_t> len;
  std::vector<std::vector<std::uint32_t>> consumers;
};

/// Peak number of simultaneously-busy FUs per kind for a given schedule,
/// where node i is busy during [start[i], start[i] + g.len[i]).
Allocation peak_usage(const Graph& g, const std::vector<std::uint32_t>& start,
                      std::uint32_t horizon) {
  Allocation used;
  if (horizon == 0) return used;
  std::array<std::vector<std::uint32_t>, kNumFuKinds> busy;
  for (auto& v : busy) v.assign(horizon, 0);
  for (std::size_t i = 0; i < g.size(); ++i) {
    const FuKind k = g.kind[i];
    if (k == FuKind::kNone) continue;
    for (std::uint32_t c = start[i]; c < start[i] + g.len[i] && c < horizon;
         ++c) {
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

/// alap_cycles on a prepared graph.
std::vector<std::uint32_t> alap(const Graph& g, std::uint32_t deadline) {
  const std::size_t n = g.size();
  std::vector<std::uint32_t> late(n, deadline);
  // Nodes are stored in topological (execution) order; walk backwards.
  for (std::size_t i = n; i-- > 0;) {
    const std::uint32_t len = g.len[i];
    // Latest start so the op finishes by its consumers' latest starts.
    std::uint32_t latest = deadline >= len ? deadline - len : 0;
    for (std::uint32_t j : g.consumers[i]) {
      latest = std::min(latest, late[j] >= len ? late[j] - len : 0u);
    }
    late[i] = latest;
  }
  return late;
}

/// List-scheduling priority: ALAP against the sequential-bound deadline
/// (smaller = more urgent, i.e. on the critical path). It does not depend
/// on the allocation.
std::vector<std::uint32_t> list_priority(const Graph& g) {
  std::uint32_t seq_bound = 0;
  for (std::uint32_t len : g.len) seq_bound += len;
  return alap(g, std::max(seq_bound, 1u));
}

/// list_schedule with its priority given. Fills start_cycle and cycles.
ScheduleResult list_core(const scperf::Dfg& dfg, const Graph& g,
                         const std::vector<std::uint32_t>& priority,
                         const Allocation& alloc) {
  ScheduleResult res;
  const std::size_t n = g.size();
  res.start_cycle.assign(n, 0);
  if (n == 0) return res;

  for (FuKind k : g.kind) {
    if (k != FuKind::kNone && alloc[k] == 0) {
      throw std::invalid_argument(
          std::string("hls: allocation has no ") + to_string(k) +
          " but the DFG needs one");
    }
  }

  // Candidates are the unscheduled ops whose operands are all placed; an op
  // joins once its count of unplaced operands drops to zero, and is ready
  // from the cycle its last operand finishes.
  std::vector<std::uint32_t> unplaced(n), ready_at(n, 0), finish(n, 0);
  std::vector<std::uint32_t> candidates;
  for (std::uint32_t i = 0; i < n; ++i) {
    unplaced[i] = (dfg.nodes[i].a != 0) + (dfg.nodes[i].b != 0);
    if (unplaced[i] == 0) candidates.push_back(i);
  }
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
  const auto place = [&](std::uint32_t i, std::uint32_t done) {
    scheduled[i] = true;
    res.start_cycle[i] = cycle;
    finish[i] = done;
    --remaining;
    for (std::uint32_t c : g.consumers[i]) {
      ready_at[c] = std::max(ready_at[c], done);
      if (--unplaced[c] == 0) candidates.push_back(c);
    }
  };

  std::vector<std::uint32_t> ready;
  while (remaining > 0) {
    // Within one cycle, keep sweeping until nothing more can start: a
    // zero-latency wiring op completing "now" may unblock its consumers in
    // the same cycle. Each sweep sees the ops ready when it starts, so an op
    // unblocked during a sweep waits for the next one.
    bool progress = true;
    while (progress && remaining > 0) {
      progress = false;
      // Most urgent first, ties by index.
      ready.clear();
      for (std::uint32_t i : candidates) {
        if (ready_at[i] <= cycle) ready.push_back(i);
      }
      std::sort(ready.begin(), ready.end(),
                [&](std::uint32_t x, std::uint32_t y) {
                  return priority[x] != priority[y]
                             ? priority[x] < priority[y]
                             : x < y;
                });
      for (std::uint32_t i : ready) {
        const FuKind k = g.kind[i];
        if (k == FuKind::kNone) {
          // Wiring: completes instantly once operands are ready.
          place(i, cycle);
          progress = true;
          continue;
        }
        for (std::uint32_t& f : fu_free[static_cast<std::size_t>(k)]) {
          if (f <= cycle) {
            f = cycle + g.len[i];
            place(i, f);
            progress = true;
            break;
          }
        }
      }
      std::erase_if(candidates,
                    [&](std::uint32_t i) { return scheduled[i]; });
    }
    ++cycle;
    assert(cycle < 10'000'000 && "list_schedule failed to converge");
  }

  for (std::size_t i = 0; i < n; ++i) {
    res.cycles = std::max(res.cycles, finish[i]);
  }
  return res;
}

}  // namespace

scperf::Dfg strip_control(const scperf::Dfg& dfg) {
  using scperf::Op;
  const std::size_t n = dfg.size();
  const auto is_cmp = [](Op op) {
    return op == Op::kEq || op == Op::kNe || op == Op::kLt || op == Op::kLe ||
           op == Op::kGt || op == Op::kGe;
  };
  // A comparison is control if every consumer is a branch (or it has no
  // consumer at all — a condition whose boolean was used and discarded).
  std::vector<bool> data_consumed(n, false);
  for (std::uint32_t i = 0; i < n; ++i) {
    const scperf::DfgNode& nd = dfg.nodes[i];
    check_operands(i, nd);
    if (nd.op == Op::kBranch) continue;
    if (nd.a != 0) data_consumed[nd.a - 1] = true;
    if (nd.b != 0) data_consumed[nd.b - 1] = true;
  }
  std::vector<bool> drop(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const Op op = dfg.nodes[i].op;
    if (op == Op::kBranch) drop[i] = true;
    if (is_cmp(op) && !data_consumed[i]) drop[i] = true;
  }
  // Rebuild with remapped indices; dropped inputs become external.
  scperf::Dfg out;
  std::vector<std::uint32_t> remap(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (drop[i]) continue;
    scperf::DfgNode nd = dfg.nodes[i];
    nd.a = remap[nd.a];
    nd.b = remap[nd.b];
    out.nodes.push_back(nd);
    remap[i + 1] = static_cast<std::uint32_t>(out.nodes.size());
  }
  return out;
}

ScheduleResult asap_chained(const scperf::Dfg& dfg, const FuLibrary& lib,
                            double clock_ns) {
  const Graph g(dfg, lib, clock_ns);
  ScheduleResult res;
  const std::size_t n = dfg.size();
  res.start_cycle.assign(n, 0);
  if (n == 0) return res;

  // Boundary-aware chained ASAP: start[i] = max(finish of operands), then
  //  - zero-delay wiring passes through;
  //  - a multi-cycle op (delay > clock) starts at the next boundary and
  //    holds ceil(delay / clock) whole cycles;
  //  - a sub-cycle op chains at its ready time unless it would cross a
  //    cycle boundary, in which case a register is inserted and it starts
  //    at the boundary.
  std::vector<double> finish_ns(n, 0.0);
  double cp = 0.0;
  const auto next_boundary = [clock_ns](double t) {
    return std::ceil(t / clock_ns - 1e-9) * clock_ns;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const scperf::DfgNode& nd = dfg.nodes[i];
    double ready = 0.0;
    if (nd.a != 0) ready = std::max(ready, finish_ns[nd.a - 1]);
    if (nd.b != 0) ready = std::max(ready, finish_ns[nd.b - 1]);
    const double delay = lib.op_delay_ns(nd.op);
    double start = ready;
    if (delay <= 0.0) {
      finish_ns[i] = ready;
    } else if (delay > clock_ns) {
      start = next_boundary(ready);
      finish_ns[i] = start + std::ceil(delay / clock_ns - 1e-9) * clock_ns;
    } else {
      const double boundary_after =
          std::floor(start / clock_ns + 1e-9) * clock_ns + clock_ns;
      if (start + delay > boundary_after + 1e-9) start = boundary_after;
      finish_ns[i] = start + delay;
    }
    cp = std::max(cp, finish_ns[i]);
    res.start_cycle[i] =
        static_cast<std::uint32_t>(std::floor(start / clock_ns + 1e-9));
  }
  res.cycles = static_cast<std::uint32_t>(std::ceil(cp / clock_ns - 1e-9));
  res.ns = res.cycles * clock_ns;
  res.used = peak_usage(g, res.start_cycle, std::max(res.cycles, 1u));
  return res;
}

ScheduleResult sequential_schedule(const scperf::Dfg& dfg,
                                   const FuLibrary& lib, double clock_ns) {
  ScheduleResult res;
  const std::size_t n = dfg.size();
  res.start_cycle.assign(n, 0);
  std::uint32_t cycle = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const FuKind k = fu_kind_of(dfg.nodes[i].op);
    res.start_cycle[i] = cycle;
    if (k == FuKind::kNone) continue;
    cycle += std::max(1u, op_cycles(lib, dfg.nodes[i].op, clock_ns));
  }
  res.cycles = cycle;
  res.ns = res.cycles * clock_ns;
  // One shared universal FU: report it as one ALU-equivalent of each kind
  // actually used.
  for (const auto& nd : dfg.nodes) {
    const FuKind k = fu_kind_of(nd.op);
    if (k != FuKind::kNone) res.used[k] = 1;
  }
  return res;
}

std::vector<std::uint32_t> alap_cycles(const scperf::Dfg& dfg,
                                       const FuLibrary& lib, double clock_ns,
                                       std::uint32_t deadline) {
  return alap(Graph(dfg, lib, clock_ns), deadline);
}

ScheduleResult list_schedule(const scperf::Dfg& dfg, const FuLibrary& lib,
                             double clock_ns, const Allocation& alloc) {
  const Graph g(dfg, lib, clock_ns);
  ScheduleResult res = list_core(dfg, g, list_priority(g), alloc);
  res.ns = res.cycles * clock_ns;
  res.used = peak_usage(g, res.start_cycle, std::max(res.cycles, 1u));
  return res;
}

ScheduleResult force_directed(const scperf::Dfg& dfg, const FuLibrary& lib,
                              double clock_ns,
                              std::uint32_t deadline_cycles) {
  ScheduleResult res;
  const std::size_t n = dfg.size();
  res.start_cycle.assign(n, 0);
  if (n == 0) return res;

  const Graph g(dfg, lib, clock_ns);
  // Cycles each op occupies here; wiring passes values through in none.
  std::vector<std::uint32_t> len(n);
  for (std::size_t i = 0; i < n; ++i) {
    len[i] = g.kind[i] == FuKind::kNone ? 0 : g.len[i];
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
      if (nd.a != 0) s = std::max(s, asap[nd.a - 1] + len[nd.a - 1]);
      if (nd.b != 0) s = std::max(s, asap[nd.b - 1] + len[nd.b - 1]);
      asap[i] = s;
    }
    for (std::size_t i = n; i-- > 0;) {
      if (fixed[i]) {
        alap[i] = start[i];
        continue;
      }
      std::uint32_t latest = deadline_cycles - std::min(deadline_cycles,
                                                        len[i]);
      for (std::uint32_t c : g.consumers[i]) {
        latest = std::min(latest, alap[c] >= len[i] ? alap[c] - len[i] : 0u);
      }
      alap[i] = latest;
      // The second test catches an op longer than the whole deadline, whose
      // latest start the clamp above pins to cycle 0.
      if (alap[i] < asap[i] || asap[i] + len[i] > deadline_cycles) {
        throw std::invalid_argument(
            "hls: force_directed deadline below the critical path");
      }
    }
  };

  std::vector<bool> fixed(n, false);
  std::vector<std::uint32_t> start(n, 0);
  recompute_ranges(fixed, start);

  // Distribution graphs per FU kind: expected activity per cycle, assuming a
  // uniform start distribution over [asap, alap]. Rebuilt after every
  // placement into the same buffers.
  std::array<std::vector<double>, kNumFuKinds> dg;
  const auto distribution = [&] {
    for (auto& v : dg) v.assign(deadline_cycles + 1, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const FuKind k = g.kind[i];
      if (k == FuKind::kNone) continue;
      const double p = 1.0 / (alap[i] - asap[i] + 1);
      for (std::uint32_t s = asap[i]; s <= alap[i]; ++s) {
        for (std::uint32_t c = s; c < s + len[i] && c <= deadline_cycles;
             ++c) {
          dg[static_cast<std::size_t>(k)][c] += p;
        }
      }
    }
  };

  // Wiring ops are zero-length pass-throughs: they stay unfixed (their
  // ranges follow their neighbours) and are never selected for placement.
  std::size_t remaining = 0;
  for (FuKind k : g.kind) {
    if (k != FuKind::kNone) ++remaining;
  }

  while (remaining > 0) {
    distribution();
    double best_force = 0.0;
    std::size_t best_op = SIZE_MAX;
    std::uint32_t best_start = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (fixed[i]) continue;
      const FuKind k = g.kind[i];
      if (k == FuKind::kNone) continue;  // wiring floats
      const std::vector<double>& d = dg[static_cast<std::size_t>(k)];
      const std::uint32_t lo = asap[i], hi = alap[i], w = len[i];
      const double p = 1.0 / (hi - lo + 1);
      for (std::uint32_t s = lo; s <= hi; ++s) {
        // Self force: concentrate the op at s, relieve its spread-out share.
        // That share is p for every start ss in [lo, hi] whose window
        // [ss, ss + w) covers a cell c of [s, s + w). Counting those (ss, c)
        // pairs cell by cell and subtracting p that many times after the sum
        // performs the same subtractions as walking every ss.
        double force = 0.0;
        if (w == 1) {
          // One cell, covered by the start s alone: the sum below is
          // 0.0 + d[s] - p, and 0.0 + d[s] is d[s] since a cell only ever
          // gains positive shares.
          force = d[s] - p;
        } else {
          std::uint32_t overlap = 0;
          for (std::uint32_t c = s; c < s + w && c <= deadline_cycles; ++c) {
            force += d[c];
            const std::uint32_t from =
                std::max(lo, c + 1 > w ? c + 1 - w : 0u);
            overlap += std::min(hi, c) - from + 1;
          }
          for (; overlap > 0; --overlap) force -= p;
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
    if (g.kind[i] == FuKind::kNone) continue;
    res.cycles = std::max(res.cycles, start[i] + len[i]);
  }
  res.ns = res.cycles * clock_ns;
  res.used = peak_usage(g, res.start_cycle, std::max(res.cycles, 1u));
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
        points.push_back({a, UINT32_MAX, 0.0, a.area(lib)});
      }
    }
  }

  // Every list schedule is at least the unchained critical path (wiring
  // takes no cycle) and at least each FU kind's busy cycles spread over its
  // units.
  const Graph g(dfg, lib, clock_ns);
  std::uint32_t critical = 0;
  std::array<std::uint32_t, kNumFuKinds> work{};
  std::vector<std::uint32_t> finish(g.size(), 0);
  for (std::size_t i = 0; i < g.size(); ++i) {
    const scperf::DfgNode& nd = dfg.nodes[i];
    const std::uint32_t len = g.kind[i] == FuKind::kNone ? 0 : g.len[i];
    finish[i] = std::max(nd.a != 0 ? finish[nd.a - 1] : 0u,
                         nd.b != 0 ? finish[nd.b - 1] : 0u) + len;
    critical = std::max(critical, finish[i]);
    work[static_cast<std::size_t>(g.kind[i])] += len;
  }
  const auto lower_bound = [&](const Allocation& a) {
    std::uint32_t lb = critical;
    for (std::size_t k = 0; k < kNumFuKinds; ++k) {
      if (work[k] != 0) {
        lb = std::max(lb, (work[k] + a.count[k] - 1) / a.count[k]);
      }
    }
    return lb;
  };

  // Schedule in increasing area, skipping an allocation whose bound is no
  // shorter than a strictly cheaper schedule already found. That schedule
  // dominates it, and so everything it would dominate: the frontier is the
  // same. Equal areas must not bound each other. A skipped point keeps
  // UINT32_MAX cycles, so the filter below drops it and passes the
  // survivors on in grid order, as it did when every point was scheduled.
  std::vector<std::size_t> by_area(points.size());
  std::iota(by_area.begin(), by_area.end(), std::size_t{0});
  std::sort(by_area.begin(), by_area.end(), [&](std::size_t x, std::size_t y) {
    return points[x].area < points[y].area;
  });
  const std::vector<std::uint32_t> priority = list_priority(g);
  std::uint32_t best = UINT32_MAX;          // over all scheduled points
  std::uint32_t best_cheaper = UINT32_MAX;  // over strictly cheaper ones
  for (std::size_t j = 0; j < by_area.size(); ++j) {
    DesignPoint& p = points[by_area[j]];
    if (j > 0 && points[by_area[j - 1]].area < p.area) best_cheaper = best;
    if (lower_bound(p.alloc) >= best_cheaper) continue;
    p.cycles = list_core(dfg, g, priority, p.alloc).cycles;
    p.ns = p.cycles * clock_ns;
    best = std::min(best, p.cycles);
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

}  // namespace hls
