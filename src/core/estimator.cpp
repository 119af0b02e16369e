#include "core/estimator.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace scperf {

constinit thread_local SegmentAccum* tl_accum = nullptr;

namespace detail {

void annotation_watchdog_probe() {
  if (minisc::Simulator* sim = minisc::Simulator::current_or_null()) {
    sim->probe_wall_clock();
  }
}

}  // namespace detail

Estimator::Estimator(minisc::Simulator& sim) : sim_(sim) {
  if (sim_.hook() != nullptr) {
    throw std::logic_error("scperf: simulator already has a hook installed");
  }
  sim_.set_hook(this);
}

Estimator::~Estimator() {
  sim_.set_hook(nullptr);
  tl_accum = nullptr;
}

SwResource& Estimator::add_sw_resource(std::string name, double clock_mhz,
                                       CostTable table,
                                       SwResource::Options opts) {
  auto r = std::make_unique<SwResource>(std::move(name), clock_mhz, table,
                                        opts);
  SwResource& ref = *r;
  resources_.push_back(std::move(r));
  return ref;
}

HwResource& Estimator::add_hw_resource(std::string name, double clock_mhz,
                                       CostTable table,
                                       HwResource::Options opts) {
  auto r = std::make_unique<HwResource>(std::move(name), clock_mhz, table,
                                        opts);
  HwResource& ref = *r;
  resources_.push_back(std::move(r));
  return ref;
}

EnvResource& Estimator::add_env_resource(std::string name) {
  auto r = std::make_unique<EnvResource>(std::move(name));
  EnvResource& ref = *r;
  resources_.push_back(std::move(r));
  return ref;
}

void Estimator::map(const std::string& process_name, Resource& r,
                    double priority) {
  mapping_[process_name] = {&r, priority};
}

Resource* Estimator::mapped_resource(const std::string& process_name) const {
  const auto it = mapping_.find(process_name);
  return it == mapping_.end() ? nullptr : it->second.first;
}

Resource* Estimator::find_resource(const std::string& name) const {
  for (const auto& r : resources_) {
    if (r->name() == name) return r.get();
  }
  return nullptr;
}

std::uint32_t Estimator::node_id(minisc::NodeKind kind, const char* label) {
  if (kind == minisc::NodeKind::kTimedWait) return kWaitNode;
  LabelSlot& slot = label_slots_[(reinterpret_cast<std::uintptr_t>(label) >> 4) %
                                 label_slots_.size()];
  // The text is compared too: a channel built where a destroyed one lived
  // may reuse its label's address under another name.
  if (slot.label != label || channels_[slot.channel].label != label) {
    // First sight of this address: intern by content, so two channels that
    // share a label are one node.
    std::size_t i = 0;
    while (i < channels_.size() && channels_[i].label != label) ++i;
    if (i == channels_.size()) {
      const auto id = static_cast<std::uint32_t>(node_names_.size());
      channels_.push_back({label, id, id + 1});
      node_names_.push_back(std::string(label) + ":r");
      node_names_.push_back(std::string(label) + ":w");
    }
    slot = {label, static_cast<std::uint32_t>(i)};
  }
  const ChannelNodes& c = channels_[slot.channel];
  return kind == minisc::NodeKind::kChannelRead ? c.read : c.write;
}

void Estimator::process_started(minisc::Process& p) {
  const auto it = mapping_.find(p.name());
  if (it == mapping_.end() ||
      it->second.first->kind() == ResourceKind::kEnv) {
    // Environment component: executed untimed, not analysed (§2).
    p.user_data = nullptr;
    tl_accum = nullptr;
    return;
  }
  // A crash-restarted process (Simulator::kill_and_restart) re-enters here:
  // continue accumulating into its existing context — re-executed work is
  // real work — but drop the partial segment the crash interrupted.
  for (const auto& existing : contexts_) {
    if (existing->name == p.name()) {
      existing->accum.reset();
      existing->seg_from = kEntryNode;
      p.user_data = existing.get();
      tl_accum = &existing->accum;
      return;
    }
  }
  auto ctx = std::make_unique<ProcessCtx>();
  ctx->name = p.name();
  ctx->resource = it->second.first;
  ctx->priority = it->second.second;
  ctx->accum.table = &ctx->resource->cost_table();
  ctx->accum.track_ready = ctx->resource->kind() == ResourceKind::kHw;
  ctx->record_instantaneous = instantaneous_requested_.count(p.name()) != 0;
  p.user_data = ctx.get();
  tl_accum = &ctx->accum;
  contexts_.push_back(std::move(ctx));
}

void Estimator::process_resumed(minisc::Process& p) {
  ProcessCtx* ctx = ctx_of(p);
  tl_accum = (ctx != nullptr) ? &ctx->accum : nullptr;
}

void Estimator::process_finished(minisc::Process& p) {
  if (ProcessCtx* ctx = ctx_of(p)) close_segment(*ctx, kExitNode);
}

void Estimator::node_reached(minisc::Process& p, minisc::NodeKind kind,
                             const char* label) {
  if (ProcessCtx* ctx = ctx_of(p)) close_segment(*ctx, node_id(kind, label));
}

void Estimator::node_done(minisc::Process& p, minisc::NodeKind kind,
                          const char* label) {
  // The new segment starts at the node we just completed; close_segment
  // already advanced seg_from at node_reached time, so nothing further is
  // needed here — the callback exists for layered tools (tracing).
  (void)p;
  (void)kind;
  (void)label;
}

Estimator::Segment& Estimator::segment_to(ProcessCtx& ctx, std::uint32_t to) {
  for (Segment& seg : ctx.segments) {
    if (seg.from == ctx.seg_from && seg.to == to) return seg;
  }
  Segment& seg = ctx.segments.emplace_back();
  seg.from = ctx.seg_from;
  seg.to = to;
  seg.stats.from = node_names_[ctx.seg_from];
  seg.stats.to = node_names_[to];
  return seg;
}

void Estimator::close_segment(ProcessCtx& ctx, std::uint32_t to) {
  SegmentAccum& a = ctx.accum;
  Resource& r = *ctx.resource;
  const auto* hw = r.kind() == ResourceKind::kHw
                       ? static_cast<const HwResource*>(&r)
                       : nullptr;

  // The segment is priced here, once: its charges only counted ops.
  const double wc = a.sum_cycles();
  const double bc = a.track_ready ? a.max_ready : wc;
  double cycles = wc;
  if (hw != nullptr) {
    cycles = bc + (wc - bc) * hw->k();  // T = Tmin + (Tmax - Tmin) * k  (§3)
  }

  // ---- segment statistics ----
  Segment& seg = segment_to(ctx, to);
  SegmentStats& st = seg.stats;
  if (st.count == 0) {
    st.cycles_min = cycles;
    st.cycles_max = cycles;
  }
  ++st.count;
  st.cycles_sum += cycles;
  // Welford's update: a segment that always takes the same cycles keeps
  // exactly zero spread, where a raw sum of squares cancels catastrophically.
  const double delta = cycles - st.cycles_running_mean;
  st.cycles_running_mean += delta / static_cast<double>(st.count);
  st.cycles_m2 += delta * (cycles - st.cycles_running_mean);
  st.cycles_min = std::min(st.cycles_min, cycles);
  st.cycles_max = std::max(st.cycles_max, cycles);
  st.bc_cycles_sum += bc;
  st.wc_cycles_sum += wc;
  // Every HW segment records its graph; a resource that keeps it trades it
  // with the slot, whose previous graph becomes the buffer the next segment
  // records into. Either way reset() below clears the buffer.
  if (hw != nullptr && hw->record_dfg() && !a.dfg.empty()) {
    std::swap(seg.dfg, a.dfg);
  }

  ctx.total_cycles += cycles;
  ctx.ops_executed += a.op_count();
  ++ctx.segments_executed;
  if (ctx.record_instantaneous) {
    ctx.executions.push_back({st.id(), cycles, sim_.now()});
  }

  // ---- back-annotation (§4) ----
  const minisc::Time delay = r.cycles_to_time(cycles);
  ctx.total_time += delay;
  if (r.kind() == ResourceKind::kSw) {
    back_annotate_sw(ctx, static_cast<SwResource&>(r), delay);
  } else if (!delay.is_zero()) {
    // Parallel resource: the process simply resumes `delay` after the
    // maximum of its previous segment end and its awakening event — both of
    // which are "now" by construction. Downtime windows (HW outage
    // injection) pause progress, so the occupied interval stretches by
    // exactly the downtime it overlaps — the Tmin/Tmax estimate itself is
    // untouched, only its placement on the timeline.
    r.add_busy(delay);
    const minisc::Time start = sim_.now();
    const minisc::Time finish = r.finish_over_downtime(start, delay);
    r.add_stalled(finish - start - delay);
    sim_.raw_wait(finish - start);
  }

  a.reset();
  ctx.seg_from = to;
}

void Estimator::back_annotate_sw(ProcessCtx& ctx, SwResource& cpu,
                                 minisc::Time delay) {
  if (cpu.preemptive()) {
    back_annotate_sw_preemptive(ctx, cpu, delay);
    return;
  }
  // "When a new segment is awakened, it reads ... the time when the resource
  //  is expected to be empty. If they are greater than the current simulation
  //  time, the process executes one wait to make all times equal. This
  //  process has to be repeated until the resource is empty because another
  //  process can take up the resource while it is waiting." (§4)
  //
  // The contention set implements the resource's scheduling policy on top of
  // the paper's polling loop: when the processor frees while several
  // segments are waiting, the policy decides which contender claims it.
  const minisc::Time rtos = cpu.cycles_to_time(cpu.rtos_cycles_per_switch());
  if (delay.is_zero() && rtos.is_zero()) {
    return;  // an empty segment executes nothing: no processor occupation
  }
  const std::uint64_t ticket = cpu.enter_contention(ctx.priority);
  // A fault-injected crash (Simulator::kill) unwinds this stack out of any
  // of the waits below; the dead ticket must leave the contention set or the
  // policy would starve every other contender forever.
  struct ContentionGuard {
    SwResource& cpu;
    std::uint64_t ticket;
    bool active = true;
    ~ContentionGuard() {
      if (active) cpu.leave_contention(ticket);
    }
  } guard{cpu, ticket};
  // Let every segment released in this same instant register before anyone
  // claims, so simultaneous arrivals contend under the policy instead of
  // under the delta-cycle execution order (which the strict-timed semantics
  // exists to replace).
  sim_.raw_wait(minisc::Time::zero());
  while (true) {
    const minisc::Time t = sim_.now();
    if (cpu.busy_until() > t) {
      sim_.raw_wait(cpu.busy_until() - t);
      continue;
    }
    if (!cpu.is_next(ticket)) {
      // Free, but the policy selects another contender this instant; it
      // will claim during this delta — re-check afterwards.
      sim_.raw_wait(minisc::Time::zero());
      continue;
    }
    break;
  }
  guard.active = false;
  cpu.leave_contention(ticket);
  const minisc::Time total = delay + rtos;
  cpu.set_busy_until(sim_.now() + total);
  cpu.add_busy(delay);
  cpu.add_rtos(rtos);
  if (!total.is_zero()) sim_.raw_wait(total);
}

namespace {

/// Energy of the fault cycles charged into this process's accumulator
/// (pulse glitches re-executed as ordinary work): priced per cycle, since a
/// pulse has no operation breakdown.
double fault_energy_of(const SegmentAccum& accum, const Resource& r) {
  return accum.fault_cycles * r.fault_energy_per_cycle_pj();
}

double energy_of(const SegmentAccum& accum, const Resource& r) {
  double total = fault_energy_of(accum, r);
  if (!r.energy_table().has_value()) return total;
  const EnergyTable& pj = *r.energy_table();
  for (std::size_t i = 0; i < kNumOps; ++i) {
    total += static_cast<double>(accum.op_histogram[i]) *
             pj[static_cast<Op>(i)];
  }
  return total;
}

}  // namespace

void Estimator::back_annotate_sw_preemptive(ProcessCtx& ctx, SwResource& cpu,
                                             minisc::Time delay) {
  // Preemptive fixed-priority processor (extension beyond the paper): the
  // segment's occupation is sliced. A higher-priority arrival preempts the
  // running occupation (its remaining time is preserved); every dispatch —
  // initial or after a preemption — pays the RTOS switch cost.
  const minisc::Time rtos = cpu.cycles_to_time(cpu.rtos_cycles_per_switch());
  if (delay.is_zero() && rtos.is_zero()) return;

  minisc::Time remaining = delay + rtos;
  cpu.add_rtos(rtos);
  SwResource::PreemptJob& me = cpu.preempt_enter(ctx.priority);
  // A crash unwinding out of the waits below must release the job slot, or
  // the scheduler would consider the dead job runnable forever and never
  // dispatch anyone else.
  struct PreemptGuard {
    SwResource& cpu;
    SwResource::PreemptJob& me;
    bool active = true;
    ~PreemptGuard() {
      if (active) cpu.preempt_leave(me);
    }
  } pguard{cpu, me};
  std::uint64_t seen_preemptions = 0;
  while (true) {
    if (!me.running) {
      minisc::wait(me.wake);  // dispatched (or spuriously poked): re-check
      continue;
    }
    if (me.preemptions != seen_preemptions) {
      // Resumption after a preemption: another RTOS switch.
      seen_preemptions = me.preemptions;
      const minisc::Time extra = rtos;
      remaining += extra;
      cpu.add_rtos(extra);
    }
    if (remaining.is_zero()) break;
    const minisc::Time start = sim_.now();
    const bool preempted = minisc::wait(me.wake, remaining);
    const minisc::Time ran = sim_.now() - start;
    remaining -= ran;
    if (!preempted && remaining.is_zero()) break;
  }
  // Pure computation time; the RTOS share was accumulated separately above
  // (utilisation reports busy + rtos).
  cpu.add_busy(delay);
  pguard.active = false;
  cpu.preempt_leave(me);
}

Report Estimator::report() const {
  Report rep;
  rep.sim_time = sim_.now();
  for (const auto& ctx : contexts_) {
    rep.processes.push_back({ctx->name, ctx->resource->name(),
                             ctx->total_cycles, ctx->total_time,
                             ctx->segments_executed, ctx->ops_executed,
                             energy_of(ctx->accum, *ctx->resource)});
    for (const Segment& seg : ctx->segments) {
      rep.segments.push_back({ctx->name, seg.stats});
    }
  }
  for (const auto& r : resources_) {
    Report::ResourceRow row;
    row.resource = r->name();
    row.kind = to_string(r->kind());
    row.busy = r->busy_time();
    if (const auto* sw = dynamic_cast<const SwResource*>(r.get())) {
      row.rtos = sw->rtos_time();
    }
    row.utilization = rep.sim_time.is_zero()
                          ? 0.0
                          : static_cast<double>((row.busy + row.rtos).to_ps()) /
                                static_cast<double>(rep.sim_time.to_ps());
    rep.resources.push_back(row);
  }
  return rep;
}

minisc::Time Estimator::process_time(const std::string& process_name) const {
  for (const auto& ctx : contexts_) {
    if (ctx->name == process_name) return ctx->total_time;
  }
  return minisc::Time::zero();
}

double Estimator::process_cycles(const std::string& process_name) const {
  for (const auto& ctx : contexts_) {
    if (ctx->name == process_name) return ctx->total_cycles;
  }
  return 0.0;
}

double Estimator::process_energy_pj(const std::string& process_name) const {
  for (const auto& ctx : contexts_) {
    if (ctx->name == process_name) return energy_of(ctx->accum, *ctx->resource);
  }
  return 0.0;
}

double Estimator::process_fault_energy_pj(
    const std::string& process_name) const {
  for (const auto& ctx : contexts_) {
    if (ctx->name == process_name) {
      return fault_energy_of(ctx->accum, *ctx->resource);
    }
  }
  return 0.0;
}

double Estimator::fault_energy_pj() const {
  double total = 0.0;
  for (const auto& ctx : contexts_) {
    total += fault_energy_of(ctx->accum, *ctx->resource);
  }
  for (const auto& r : resources_) total += r->fault_energy_pj();
  return total;
}

double Estimator::total_energy_pj() const {
  double total = 0.0;
  for (const auto& ctx : contexts_) {
    total += energy_of(ctx->accum, *ctx->resource);
  }
  for (const auto& r : resources_) total += r->fault_energy_pj();
  return total;
}

std::vector<SegmentStats> Estimator::segment_stats(
    const std::string& process_name) const {
  std::vector<SegmentStats> out;
  for (const auto& ctx : contexts_) {
    if (ctx->name != process_name) continue;
    for (const Segment& seg : ctx->segments) out.push_back(seg.stats);
  }
  return out;
}

void Estimator::record_instantaneous(const std::string& process_name) {
  instantaneous_requested_.insert(process_name);
}

const std::vector<Estimator::SegmentExecution>& Estimator::instantaneous(
    const std::string& process_name) const {
  static const std::vector<SegmentExecution> kEmpty;
  for (const auto& ctx : contexts_) {
    if (ctx->name == process_name) return ctx->executions;
  }
  return kEmpty;
}

const Dfg& Estimator::segment_dfg(const std::string& process_name,
                                  const std::string& segment_id) const {
  static const Dfg kEmpty;
  for (const auto& ctx : contexts_) {
    if (ctx->name != process_name) continue;
    for (const Segment& seg : ctx->segments) {
      if (seg.stats.id() == segment_id) return seg.dfg;
    }
  }
  return kEmpty;
}

}  // namespace scperf
