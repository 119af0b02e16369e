#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/annot.hpp"
#include "core/context.hpp"
#include "core/report.hpp"
#include "core/resource.hpp"
#include "kernel/simulator.hpp"

namespace scperf {

/// The performance-analysis library's engine (the paper's contribution).
///
/// Installs itself as the kernel hook of a minisc::Simulator and, during an
/// otherwise ordinary simulation:
///
///  1. tracks the running process's segment via the node callbacks emitted by
///     channels and timed waits (§2, process segmentation);
///  2. receives the per-C++-object cost charges from the annotated types
///     (§3, segment estimation);
///  3. at the end of each segment, back-annotates the estimated delay,
///     turning the untimed delta-cycle execution into a strict-timed one —
///     serialising segments of processes mapped to the same sequential
///     resource and charging the RTOS overhead at every context switch (§4).
///
/// Usage:
///     minisc::Simulator sim;
///     scperf::Estimator est(sim);
///     auto& cpu = est.add_sw_resource("cpu0", 50.0, orsim_sw_cost_table(),
///                                     {.rtos_cycles_per_switch = 90});
///     est.map("producer", cpu);
///     sim.spawn("producer", [...]{ ... });   // ordinary annotated SystemC-ish code
///     sim.run();
///     est.report().print(std::cout);
class Estimator final : public minisc::KernelHook {
 public:
  /// Installs this estimator as `sim`'s kernel hook. The estimator keeps a
  /// reference to the simulator and detaches in its destructor, so it must
  /// not outlive `sim` — declare the Simulator first, the Estimator second.
  explicit Estimator(minisc::Simulator& sim);
  ~Estimator() override;
  Estimator(const Estimator&) = delete;
  Estimator& operator=(const Estimator&) = delete;

  // ---- platform description (architectural mapping, §2) ----

  SwResource& add_sw_resource(std::string name, double clock_mhz,
                              CostTable table, SwResource::Options opts = {});
  HwResource& add_hw_resource(std::string name, double clock_mhz,
                              CostTable table, HwResource::Options opts = {});
  EnvResource& add_env_resource(std::string name);

  /// Maps the process with this name (at spawn time) onto `r`. Unmapped
  /// processes are treated as environment components: executed untimed,
  /// not analysed. `priority` matters only on SW resources with the
  /// kPriority scheduling policy (higher value = more urgent).
  void map(const std::string& process_name, Resource& r,
           double priority = 0.0);

  const std::vector<std::unique_ptr<Resource>>& resources() const {
    return resources_;
  }

  /// The resource a process name is mapped to (nullptr when unmapped) —
  /// the seam layered tools (fault injection, tracing) use to translate
  /// process-level callbacks into resource-level effects.
  Resource* mapped_resource(const std::string& process_name) const;

  /// A resource by name (nullptr when absent), any kind.
  Resource* find_resource(const std::string& name) const;

  // ---- results ----

  Report report() const;

  /// Estimated total computation time of one process (Time it spent executing
  /// segments, excluding blocking). Zero for unmapped processes.
  minisc::Time process_time(const std::string& process_name) const;
  double process_cycles(const std::string& process_name) const;

  /// Estimated energy of one process in picojoules: the dot product of its
  /// cumulative operation histogram with its resource's energy table, plus
  /// any fault cycles priced at the resource's fault-energy rate.
  /// Zero when the resource has no energy characterisation.
  double process_energy_pj(const std::string& process_name) const;

  /// The fault-injection share of process_energy_pj: pulse glitch cycles
  /// charged into this process, priced at its resource's per-cycle fault
  /// energy rate (set_fault_energy_per_cycle_pj). Campaigns report this as
  /// the energy overhead of recovery.
  double process_fault_energy_pj(const std::string& process_name) const;

  /// Total fault energy across the platform: per-process pulse charges plus
  /// resource-level outage lockup cycles.
  double fault_energy_pj() const;

  /// Total estimated energy across processes and resource-level fault
  /// charges — the campaign CSV's energy column.
  double total_energy_pj() const;

  /// Per-segment stats of one process, ordered by first execution.
  std::vector<SegmentStats> segment_stats(
      const std::string& process_name) const;

  /// Last DFG recorded for the given segment of a process mapped to a HW
  /// resource with record_dfg enabled; empty if none.
  const Dfg& segment_dfg(const std::string& process_name,
                         const std::string& segment_id) const;

  // ---- instantaneous segment values (§4: "All instantaneous segment
  // values of execution time parameters can be provided if required") ----

  struct SegmentExecution {
    std::string segment;    ///< "from->to" id
    double cycles = 0.0;    ///< this execution's estimated cycles
    minisc::Time at;        ///< simulated time when the segment ended
  };

  /// Enables per-execution recording for the named process (call before the
  /// process first runs). Off by default: the aggregate statistics are free,
  /// the full list is opt-in.
  void record_instantaneous(const std::string& process_name);
  const std::vector<SegmentExecution>& instantaneous(
      const std::string& process_name) const;

  // ---- KernelHook ----

  void process_started(minisc::Process& p) override;
  void process_finished(minisc::Process& p) override;
  void process_resumed(minisc::Process& p) override;
  void node_reached(minisc::Process& p, minisc::NodeKind kind,
                    const char* label) override;
  void node_done(minisc::Process& p, minisc::NodeKind kind,
                 const char* label) override;

 private:
  /// Nodes are interned to ids; these three exist from the start and a
  /// channel's read and write nodes ("<label>:r", "<label>:w") get theirs at
  /// the first access to its label.
  static constexpr std::uint32_t kEntryNode = 0;
  static constexpr std::uint32_t kExitNode = 1;
  static constexpr std::uint32_t kWaitNode = 2;

  /// One distinct segment of a process, keyed by its (from, to) node ids.
  struct Segment {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    SegmentStats stats;
    Dfg dfg;  ///< last non-empty DFG recorded for it
  };

  struct ProcessCtx {
    std::string name;
    Resource* resource = nullptr;
    double priority = 0.0;
    SegmentAccum accum;
    std::uint32_t seg_from = kEntryNode;
    double total_cycles = 0.0;
    minisc::Time total_time;
    std::uint64_t segments_executed = 0;
    std::uint64_t ops_executed = 0;
    std::vector<Segment> segments;  ///< in first-execution order
    bool record_instantaneous = false;
    std::vector<SegmentExecution> executions;
  };

  /// A channel label and its two node ids.
  struct ChannelNodes {
    std::string label;
    std::uint32_t read = 0;
    std::uint32_t write = 0;
  };

  /// A label pointer seen at a node and the index of its ChannelNodes.
  struct LabelSlot {
    const char* label = nullptr;
    std::uint32_t channel = 0;
  };

  ProcessCtx* ctx_of(minisc::Process& p) const {
    return static_cast<ProcessCtx*>(p.user_data);
  }

  std::uint32_t node_id(minisc::NodeKind kind, const char* label);
  /// The process's segment from its current node to `to`, added at the end
  /// of its table at first execution.
  Segment& segment_to(ProcessCtx& ctx, std::uint32_t to);

  /// Ends the current segment at node `to`: records stats and back-annotates
  /// the estimated delay according to the resource type (§4).
  void close_segment(ProcessCtx& ctx, std::uint32_t to);
  void back_annotate_sw(ProcessCtx& ctx, SwResource& cpu, minisc::Time delay);
  void back_annotate_sw_preemptive(ProcessCtx& ctx, SwResource& cpu,
                                   minisc::Time delay);

  minisc::Simulator& sim_;
  std::vector<std::unique_ptr<Resource>> resources_;
  std::map<std::string, std::pair<Resource*, double>> mapping_;
  std::set<std::string> instantaneous_requested_;
  std::vector<std::unique_ptr<ProcessCtx>> contexts_;

  std::vector<std::string> node_names_{"entry", "exit", "wait"};  ///< by id
  std::vector<ChannelNodes> channels_;  ///< in first-access order
  /// Direct-mapped by label address: a channel's label stays put while the
  /// channel lives, so a node finds its ids without hashing the text.
  std::array<LabelSlot, 64> label_slots_{};
};

}  // namespace scperf
