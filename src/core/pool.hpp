#pragma once

#include <cstddef>
#include <functional>
#include <span>

namespace scperf {

/// Runs body(indices[j]) for every position j, on the calling thread plus
/// `threads - 1` std::jthreads started for this call (threads <= 1 starts
/// none), and returns once every claimed position has finished. Positions
/// are claimed one at a time, in ascending order, from one atomic counter,
/// but may run in any interleaving: determinism must come from per-index
/// isolation (body(i) writes only state reachable from i, DESIGN.md §7),
/// not from execution order. If a body throws, unclaimed positions are
/// skipped, running ones finish, and the first exception is rethrown here.
void parallel_for(std::size_t threads, std::span<const std::size_t> indices,
                  const std::function<void(std::size_t)>& body);

}  // namespace scperf
