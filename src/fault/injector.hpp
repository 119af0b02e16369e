#pragma once

#include <cstdint>
#include <cstddef>
#include <string>
#include <vector>

#include "core/estimator.hpp"
#include "fault/scenario.hpp"
#include "kernel/hooks.hpp"
#include "kernel/simulator.hpp"

namespace scfault {

/// Injects a FaultScenario into a running estimation session without touching
/// the user's specification. Installed as the simulator's kernel hook, it
/// wraps the previously installed hook (normally the scperf::Estimator) and
/// forwards every callback — so estimation semantics are unchanged — while
/// adding the scenario's faults through the existing seams:
///
///  - Pulses: when a process mapped to the pulsed resource reaches its next
///    node after the pulse time, the extra cycles are charged into the
///    closing segment's accumulator (scperf::tl_accum) before the estimator
///    sees it. The back-annotation then naturally extends the occupation
///    (SW) or the estimate (HW) — statistics, contention and energy all see
///    the fault as ordinary work.
///  - Outages: on SW resources a driver process pins busy_until to the
///    outage end, so every occupation request issued during the window
///    stalls until it closes (in-flight occupations complete). A preemptive
///    SW resource never reads busy_until, so an outage or storm spec naming
///    one makes the constructor throw minisc::SimError(kBadConfig). On HW and
///    ENV resources the window is registered as resource downtime at
///    construction: HW segments overlapping the window stretch by the
///    overlap during back-annotation, ENV processes reaching a node inside
///    the window stall until it closes. Outage lockup cycles are charged as
///    resource-level fault energy; pulse cycles as per-process fault energy.
///  - Crashes: a driver process calls Simulator::kill / kill_and_restart at
///    the scheduled times.
///  - Channel faults are NOT applied here: they live in FaultyFifo /
///    FaultyRendezvous, which pull their per-channel streams from the same
///    scenario (see fault/channels.hpp).
///
/// Construct AFTER the estimator (declaration order: Simulator, Estimator,
/// FaultInjector), after the platform's resources are added (HW/ENV outage
/// windows are registered at construction), and before run(). The
/// destructor restores the inner hook.
/// When no injector is constructed, fault support costs nothing: the kernel
/// and estimator run exactly the code they ran before the subsystem existed.
class FaultInjector final : public minisc::KernelHook {
 public:
  FaultInjector(minisc::Simulator& sim, scperf::Estimator& est,
                const FaultScenario& scenario);
  ~FaultInjector() override;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // ---- injection counters (observability for reports and tests) ----

  std::uint64_t pulses_injected() const { return pulses_injected_; }
  double extra_cycles_injected() const { return extra_cycles_injected_; }
  std::uint64_t outages_applied() const { return outages_applied_; }
  std::uint64_t crashes_applied() const { return crashes_applied_; }

  // ---- KernelHook (forwarders + pulse drain) ----

  void process_started(minisc::Process& p) override;
  void process_finished(minisc::Process& p) override;
  void process_resumed(minisc::Process& p) override;
  void node_reached(minisc::Process& p, minisc::NodeKind kind,
                    const char* label) override;
  void node_done(minisc::Process& p, minisc::NodeKind kind,
                 const char* label) override;

 private:
  void spawn_drivers();
  /// Passes the cycles of every pulse due by now that targets `r` to
  /// `charge`, in time order, and marks it delivered.
  template <typename Charge>
  void take_due_pulses(const scperf::Resource& r, Charge&& charge);
  void drain_pulses(const scperf::Resource& r);
  void apply_env_faults(scperf::Resource& env);

  minisc::Simulator& sim_;
  scperf::Estimator& est_;
  const FaultScenario& scenario_;
  minisc::KernelHook* inner_ = nullptr;

  std::size_t next_pulse_ = 0;  ///< scenario pulses are sorted by time
  std::vector<bool> consumed_;  ///< per-pulse delivered flag
  /// Per pulse, the resource it names (nullptr when there is none).
  std::vector<const scperf::Resource*> pulse_target_;
  /// By Process::id(): the resource the process is mapped to, resolved when
  /// it starts (nullptr when unmapped).
  std::vector<scperf::Resource*> resource_of_;
  std::uint64_t pulses_injected_ = 0;
  double extra_cycles_injected_ = 0.0;
  std::uint64_t outages_applied_ = 0;
  std::uint64_t crashes_applied_ = 0;
};

}  // namespace scfault
