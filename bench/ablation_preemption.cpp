// Ablation: non-preemptive (the paper's model) vs preemptive fixed-priority
// scheduling on a periodic task set. The non-preemptive blocking term —
// visible as inflated high-priority response times — disappears under
// preemption, at the cost of extra RTOS switches. Functional checksums are
// asserted invariant.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/scperf.hpp"
#include "trace/stats.hpp"

namespace {

constexpr double kMhz = 100.0;

struct Spec {
  const char* name;
  int items;
  minisc::Time period;
  double priority;
  int jobs;
};

struct Row {
  double worst_r_us = 0;
  long checksum = 0;
  std::uint64_t switches = 0;
  double rtos_ms = 0;
};

Row run(bool preemptive, std::vector<double>* worst_rs) {
  const Spec specs[] = {
      {"ctrl", 120, minisc::Time::us(50), 3.0, 40},
      {"comms", 230, minisc::Time::us(120), 2.0, 16},
      {"logger", 850, minisc::Time::us(400), 1.0, 5},
  };
  minisc::Simulator sim;
  scperf::Estimator est(sim);
  auto& cpu = est.add_sw_resource(
      "cpu", kMhz, scperf::orsim_sw_cost_table(),
      {.rtos_cycles_per_switch = 40,
       .policy = preemptive ? scperf::SchedulingPolicy::kPreemptivePriority
                            : scperf::SchedulingPolicy::kPriority});

  scperf::CaptureRegistry reg;
  std::vector<std::unique_ptr<scperf::CapturePoint>> rel, done;
  Row row;
  long* checksum = &row.checksum;
  for (const Spec& s : specs) {
    rel.push_back(std::make_unique<scperf::CapturePoint>(
        std::string(s.name) + ".rel", reg));
    done.push_back(std::make_unique<scperf::CapturePoint>(
        std::string(s.name) + ".done", reg));
    est.map(s.name, cpu, s.priority);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    const Spec& s = specs[i];
    sim.spawn(s.name, [&, i, s] {
      for (int j = 0; j < s.jobs; ++j) {
        const minisc::Time t0 = minisc::now();
        rel[i]->record(j);
        scperf::gint acc(scperf::detail::RawTag{}, 0);
        scperf::gint k = 0;
        while (k < s.items) {
          acc = acc + ((k * 3) >> 1);
          k = k + 1;
        }
        *checksum += acc.value();
        minisc::wait(minisc::Time::zero());
        done[i]->record(j);
        const minisc::Time elapsed = minisc::now() - t0;
        if (elapsed < s.period) minisc::wait(s.period - elapsed);
      }
    });
  }
  sim.run();
  for (std::size_t i = 0; i < 3; ++i) {
    const auto rts =
        sctrace::response_times_ns(rel[i]->events(), done[i]->events());
    double worst = 0;
    for (double r : rts) worst = std::max(worst, r / 1000.0);
    worst_rs->push_back(worst);
  }
  row.switches = cpu.preempt_switches();
  row.rtos_ms = cpu.rtos_time().to_ms_d();
  return row;
}

}  // namespace

int main() {
  std::printf("Ablation: non-preemptive vs preemptive fixed priorities\n");
  std::printf("(three periodic tasks, priorities ctrl > comms > logger)\n\n");

  std::vector<double> np_r, p_r;
  const Row np = run(false, &np_r);
  const Row p = run(true, &p_r);

  std::printf("%-8s | %22s | %22s\n", "task", "non-preemptive worst R",
              "preemptive worst R (us)");
  const char* names[3] = {"ctrl", "comms", "logger"};
  for (int i = 0; i < 3; ++i) {
    std::printf("%-8s | %19.2f us | %19.2f us\n", names[i], np_r[static_cast<std::size_t>(i)],
                p_r[static_cast<std::size_t>(i)]);
  }
  std::printf("\nRTOS time: %.3f ms non-preemptive vs %.3f ms preemptive "
              "(%llu switches)\n",
              np.rtos_ms, p.rtos_ms,
              static_cast<unsigned long long>(p.switches));
  std::printf("checksums: %ld vs %ld -> %s\n", np.checksum, p.checksum,
              np.checksum == p.checksum ? "identical (deterministic spec)"
                                        : "MISMATCH!");
  std::printf(
      "\nPreemption removes the blocking term from the high-priority task's\n"
      "response time (ctrl drops to ~its own C) and pushes the cost onto\n"
      "the lowest-priority task and the RTOS switch budget.\n");
  return 0;
}
