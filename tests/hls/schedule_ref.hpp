#pragma once

// Reference forms of four schedulers in hls/schedule.hpp: list scheduling
// rescans every node on every sweep and recomputes its priority per call,
// ALAP scans every later node for consumers, and force-directed scheduling
// walks an op's whole start window for every candidate start. Same
// signatures and contracts as the hls:: functions of the same names, except
// that force_directed here accepts a deadline shorter than a single
// operation and then returns a schedule longer than the deadline.

#include <cstdint>
#include <vector>

#include "hls/schedule.hpp"

namespace hls_ref {

std::vector<std::uint32_t> alap_cycles(const scperf::Dfg& dfg,
                                       const hls::FuLibrary& lib,
                                       double clock_ns,
                                       std::uint32_t deadline);

hls::ScheduleResult list_schedule(const scperf::Dfg& dfg,
                                  const hls::FuLibrary& lib, double clock_ns,
                                  const hls::Allocation& alloc);

hls::ScheduleResult force_directed(const scperf::Dfg& dfg,
                                   const hls::FuLibrary& lib, double clock_ns,
                                   std::uint32_t deadline_cycles);

std::vector<hls::DesignPoint> design_space(const scperf::Dfg& dfg,
                                           const hls::FuLibrary& lib,
                                           double clock_ns);

}  // namespace hls_ref
