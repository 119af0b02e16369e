#include "trace/vcd.hpp"

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace sctrace {

namespace {

/// VCD identifier codes: printable ASCII starting at '!'.
std::string id_code(std::size_t index) {
  std::string code;
  do {
    code += static_cast<char>('!' + index % 94);
    index /= 94;
  } while (index != 0);
  return code;
}

std::string sanitise(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == ' ' || c == '\t') c = '_';
  }
  return out;
}

void write_header(std::ostream& os) {
  os << "$date scperf strict-timed simulation $end\n";
  os << "$version scperf vcd writer $end\n";
  os << "$timescale 1ns $end\n";
}

}  // namespace

void write_vcd(std::ostream& os, const scperf::CaptureRegistry& registry) {
  write_header(os);
  os << "$scope module captures $end\n";
  const auto& points = registry.points();
  for (std::size_t i = 0; i < points.size(); ++i) {
    os << "$var real 64 " << id_code(i) << ' ' << sanitise(points[i]->name())
       << " $end\n";
  }
  os << "$upscope $end\n$enddefinitions $end\n";

  // Merge all events into one time-ordered stream.
  struct Entry {
    std::uint64_t t_ns;
    std::size_t point;
    double value;
  };
  std::vector<Entry> entries;
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (const auto& e : points[i]->events()) {
      entries.push_back({e.time.to_ps() / 1000u, i, e.value});
    }
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) { return a.t_ns < b.t_ns; });

  bool first = true;
  std::uint64_t current = 0;
  for (const Entry& e : entries) {
    if (first || e.t_ns != current) {
      os << '#' << e.t_ns << '\n';
      current = e.t_ns;
      first = false;
    }
    os << 'r' << e.value << ' ' << id_code(e.point) << '\n';
  }
}

}  // namespace sctrace
