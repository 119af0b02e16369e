#pragma once

#include <iosfwd>

#include "core/capture.hpp"

namespace sctrace {

/// Renders capture-point event lists as a Value Change Dump so the timing
/// behaviour of the strict-timed simulation can be inspected in any waveform
/// viewer (GTKWave etc.). Every capture point becomes one real-valued
/// variable; event times are emitted with 1 ns resolution.
void write_vcd(std::ostream& os, const scperf::CaptureRegistry& registry);

}  // namespace sctrace
