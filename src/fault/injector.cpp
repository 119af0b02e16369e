#include "fault/injector.hpp"

#include <algorithm>

#include "core/context.hpp"
#include "core/resource.hpp"
#include "kernel/error.hpp"

namespace scfault {

FaultInjector::FaultInjector(minisc::Simulator& sim, scperf::Estimator& est,
                             const FaultScenario& scenario)
    : sim_(sim), est_(est), scenario_(scenario),
      consumed_(scenario.pulses().size(), false) {
  // A SW outage stalls claims by pinning busy_until, which the preemptive
  // scheduler never reads: it would be counted and charged as fault energy
  // without moving simulated time. Refuse it before the hook is installed.
  const auto refuse_preemptive = [this](const std::string& name) {
    const auto* sw =
        dynamic_cast<const scperf::SwResource*>(est_.find_resource(name));
    if (sw != nullptr && sw->preemptive()) {
      throw minisc::SimError(
          minisc::SimError::Kind::kBadConfig,
          "FaultInjector: outages on preemptive SW resource '" + name +
              "' are not supported (they would move no simulated time)");
    }
  };
  for (const OutageSpec& o : scenario_.config().outages) {
    refuse_preemptive(o.resource);
  }
  for (const StormSpec& s : scenario_.config().storms) {
    refuse_preemptive(s.resource);
  }
  for (const Pulse& pulse : scenario_.pulses()) {
    pulse_target_.push_back(est_.find_resource(pulse.resource));
  }
  inner_ = sim_.hook();
  sim_.set_hook(this);
  spawn_drivers();
}

FaultInjector::~FaultInjector() {
  if (sim_.hook() == this) sim_.set_hook(inner_);
}

void FaultInjector::spawn_drivers() {
  // HW and ENV outage windows are fully determined at t = 0: register them
  // as resource downtime up front (the estimator stretches HW segments over
  // the windows; node_reached stalls ENV processes inside one). Only SW
  // outages need a driver, because their effect rides the busy_until claim
  // protocol. Either way the lockup cycles are charged as fault energy.
  bool any_sw = false;
  for (const Outage& o : scenario_.outages()) {
    scperf::Resource* r = est_.find_resource(o.resource);
    if (r == nullptr) continue;  // unknown target: no effect
    if (r->kind() == scperf::ResourceKind::kSw) {
      any_sw = true;
      continue;
    }
    r->add_downtime(o.start, o.start + o.length);
    r->add_fault_cycles(o.length.to_ns_d() / r->period_ns());
    ++outages_applied_;
  }
  if (any_sw) {
    sim_.spawn("fault.outages", [this] {
      for (const Outage& o : scenario_.outages()) {
        const minisc::Time t = sim_.now();
        if (o.start > t) sim_.raw_wait(o.start - t);
        auto* sw = dynamic_cast<scperf::SwResource*>(
            est_.find_resource(o.resource));
        if (sw == nullptr) continue;  // HW/ENV: already registered above
        // Claims require busy_until <= now, so pinning it to the window end
        // stalls every occupation issued inside the window. An occupation
        // already running keeps its own (earlier) raw_wait and finishes, but
        // its successor on the same processor waits out the outage too.
        const minisc::Time end = o.start + o.length;
        if (sw->busy_until() < end) sw->set_busy_until(end);
        sw->add_fault_cycles(o.length.to_ns_d() / sw->period_ns());
        ++outages_applied_;
      }
    });
  }
  if (!scenario_.crashes().empty()) {
    sim_.spawn("fault.crashes", [this] {
      for (const CrashSpec& c : scenario_.crashes()) {
        const minisc::Time t = sim_.now();
        if (c.at > t) sim_.raw_wait(c.at - t);
        minisc::Process* victim = sim_.find_process(c.process);
        if (victim == nullptr || victim->terminated()) continue;
        if (c.restart_after == minisc::Time::max()) {
          sim_.kill(*victim);
        } else {
          sim_.kill_and_restart(*victim, c.restart_after);
        }
        ++crashes_applied_;
      }
    });
  }
}

template <typename Charge>
void FaultInjector::take_due_pulses(const scperf::Resource& r,
                                    Charge&& charge) {
  // Pulses are sorted, and next_pulse_ skips the fully-consumed prefix;
  // within the due window we scan for matches so cross-resource ordering
  // cannot starve a pulse whose resource's processes reach their nodes later
  // than another resource's. Due pulses for OTHER resources stay pending
  // until one of their own processes reaches a node — a pulse hits the first
  // segment boundary on its resource after the fault instant.
  const minisc::Time now = sim_.now();
  const auto& pulses = scenario_.pulses();
  for (std::size_t i = next_pulse_; i < pulses.size(); ++i) {
    const Pulse& pulse = pulses[i];
    if (pulse.at > now) break;
    if (consumed_[i] || pulse_target_[i] != &r) continue;
    charge(pulse.extra_cycles);
    consumed_[i] = true;
    ++pulses_injected_;
    extra_cycles_injected_ += pulse.extra_cycles;
  }
  while (next_pulse_ < pulses.size() && consumed_[next_pulse_]) ++next_pulse_;
}

void FaultInjector::drain_pulses(const scperf::Resource& r) {
  // Every due pulse on the resource this process runs on is charged into the
  // segment the estimator is about to close.
  scperf::SegmentAccum* acc = scperf::tl_accum;
  if (acc == nullptr) return;
  take_due_pulses(r, [acc](double cycles) { acc->charge_pulse(cycles); });
}

void FaultInjector::apply_env_faults(scperf::Resource& env) {
  // Environment components are untimed, so there is no segment to charge:
  // a due pulse becomes a direct stall of its cycle cost at the ENV clock,
  // and an open outage window parks the process until the window closes —
  // the testbench goes quiet exactly while its resource is down.
  minisc::Time stall;
  take_due_pulses(env, [&](double cycles) {
    stall += env.cycles_to_time(cycles);
    env.add_fault_cycles(cycles);
  });
  const minisc::Time now = sim_.now();
  const minisc::Time outage_end = env.downtime_stall_end(now);
  if (outage_end > now) {
    env.add_stalled(outage_end - now);
    stall += outage_end - now;
  }
  if (!stall.is_zero()) sim_.raw_wait(stall);
}

void FaultInjector::process_started(minisc::Process& p) {
  if (p.id() >= resource_of_.size()) resource_of_.resize(p.id() + 1, nullptr);
  resource_of_[p.id()] = est_.mapped_resource(p.name());
  if (inner_ != nullptr) inner_->process_started(p);
}

void FaultInjector::process_finished(minisc::Process& p) {
  if (inner_ != nullptr) inner_->process_finished(p);
}

void FaultInjector::process_resumed(minisc::Process& p) {
  if (inner_ != nullptr) inner_->process_resumed(p);
}

void FaultInjector::node_reached(minisc::Process& p, minisc::NodeKind kind,
                                 const char* label) {
  // A process that started before this injector was installed stays
  // untouched, as an unmapped one does.
  scperf::Resource* r =
      p.id() < resource_of_.size() ? resource_of_[p.id()] : nullptr;
  if (r != nullptr) {
    if (r->kind() == scperf::ResourceKind::kEnv) {
      apply_env_faults(*r);
    } else {
      drain_pulses(*r);
    }
  }
  if (inner_ != nullptr) inner_->node_reached(p, kind, label);
}

void FaultInjector::node_done(minisc::Process& p, minisc::NodeKind kind,
                              const char* label) {
  if (inner_ != nullptr) inner_->node_done(p, kind, label);
}

}  // namespace scfault
