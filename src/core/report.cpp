#include "core/report.hpp"

#include <cmath>
#include <cstdio>
#include <iomanip>
#include <ostream>

namespace scperf {

double SegmentStats::variance() const {
  if (count < 2) return 0.0;
  return cycles_m2 / (static_cast<double>(count) - 1.0);
}

double SegmentStats::ci95_halfwidth() const {
  if (count < 2) return 0.0;
  return 1.96 * std::sqrt(variance() / static_cast<double>(count));
}

void Report::print(std::ostream& os) const {
  os << "=== scperf report (simulated time: " << sim_time.str() << ") ===\n";
  os << "\n-- processes --\n";
  bool any_energy = false;
  for (const auto& p : processes) any_energy |= p.energy_pj > 0.0;
  os << std::left << std::setw(16) << "process" << std::setw(10) << "resource"
     << std::right << std::setw(14) << "cycles" << std::setw(14) << "time"
     << std::setw(10) << "segments" << std::setw(12) << "ops";
  if (any_energy) os << std::setw(14) << "energy";
  os << "\n";
  for (const auto& p : processes) {
    os << std::left << std::setw(16) << p.process << std::setw(10)
       << p.resource << std::right << std::setw(14) << std::fixed
       << std::setprecision(1) << p.total_cycles << std::setw(14)
       << p.total_time.str() << std::setw(10) << p.segments_executed
       << std::setw(12) << p.ops_executed;
    if (any_energy) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2f uJ", p.energy_pj / 1e6);
      os << std::setw(14) << buf;
    }
    os << "\n";
  }
  os << "\n-- resources --\n";
  os << std::left << std::setw(16) << "resource" << std::setw(6) << "kind"
     << std::right << std::setw(14) << "busy" << std::setw(14) << "rtos"
     << std::setw(12) << "util" << "\n";
  for (const auto& r : resources) {
    os << std::left << std::setw(16) << r.resource << std::setw(6) << r.kind
       << std::right << std::setw(14) << r.busy.str() << std::setw(14)
       << r.rtos.str() << std::setw(11) << std::setprecision(1)
       << r.utilization * 100.0 << "%\n";
  }
  os << "\n-- segments --\n";
  os << std::left << std::setw(16) << "process" << std::setw(26) << "segment"
     << std::right << std::setw(8) << "count" << std::setw(12) << "mean"
     << std::setw(12) << "min" << std::setw(12) << "max" << std::setw(10)
     << "ci95" << "\n";
  for (const auto& s : segments) {
    os << std::left << std::setw(16) << s.process << std::setw(26)
       << s.stats.id() << std::right << std::setw(8) << s.stats.count
       << std::setw(12) << std::setprecision(1) << s.stats.mean()
       << std::setw(12) << s.stats.cycles_min << std::setw(12)
       << s.stats.cycles_max << std::setw(10) << std::setprecision(2)
       << s.stats.ci95_halfwidth() << "\n";
  }
  os.unsetf(std::ios::fixed);
}

void Report::write_csv(std::ostream& os) const {
  os << "process,segment,count,mean_cycles,min_cycles,max_cycles,"
        "ci95_halfwidth,bc_cycles_mean,wc_cycles_mean\n";
  for (const auto& s : segments) {
    const double n = static_cast<double>(s.stats.count);
    os << s.process << ',' << s.stats.id() << ',' << s.stats.count << ','
       << s.stats.mean() << ',' << s.stats.cycles_min << ','
       << s.stats.cycles_max << ',' << s.stats.ci95_halfwidth() << ','
       << (n > 0 ? s.stats.bc_cycles_sum / n : 0.0) << ','
       << (n > 0 ? s.stats.wc_cycles_sum / n : 0.0) << "\n";
  }
}

void Report::write_process_csv(std::ostream& os) const {
  os << "process,resource,total_cycles,total_time_ns,segments,ops,"
        "energy_pj\n";
  for (const auto& p : processes) {
    os << p.process << ',' << p.resource << ',' << p.total_cycles << ','
       << p.total_time.to_ns_d() << ',' << p.segments_executed << ','
       << p.ops_executed << ',' << p.energy_pj << "\n";
  }
}

void Report::write_resource_csv(std::ostream& os) const {
  os << "resource,kind,busy_ns,rtos_ns,utilization\n";
  for (const auto& r : resources) {
    os << r.resource << ',' << r.kind << ',' << r.busy.to_ns_d() << ','
       << r.rtos.to_ns_d() << ',' << r.utilization << "\n";
  }
}

}  // namespace scperf
