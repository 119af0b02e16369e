#include "kernel/simulator.hpp"

#include <cassert>
#include <cstdint>
#include <stdexcept>

namespace minisc {

namespace {

thread_local Simulator* g_current = nullptr;

/// Thrown inside a process's wait to unwind its stack when the simulator is
/// destroyed while the process is still live (the role of
/// sc_unwind_exception). Never escapes the trampoline.
struct KillUnwind {};

/// Thrown inside a process to deliver a fault-injection crash
/// (Simulator::kill / kill_and_restart): unwinds the coroutine stack running
/// destructors, then the trampoline either terminates the process or parks
/// it for a restart. Never escapes the trampoline. User code must not
/// swallow it with a bare catch(...).
struct CrashUnwind {};

}  // namespace

const char* to_string(NodeKind k) {
  switch (k) {
    case NodeKind::kChannelRead:
      return "read";
    case NodeKind::kChannelWrite:
      return "write";
    case NodeKind::kTimedWait:
      return "wait";
  }
  return "?";
}

const char* to_string(StopReason r) {
  switch (r) {
    case StopReason::kFinished:
      return "finished";
    case StopReason::kTimeLimit:
      return "time_limit";
    case StopReason::kDeadlock:
      return "deadlock";
    case StopReason::kStopped:
      return "stopped";
  }
  return "?";
}

// ---------------------------------------------------------------- Event ----

Event::Event(std::string name) : name_(std::move(name)) {}

void Event::fire() {
  auto& sim = Simulator::current();
  // make_runnable only queues the process, so the list cannot change under
  // the loop; clearing it afterwards keeps its buffer for the next waits.
  for (const Waiter& w : waiters_) {
    if (w.proc->state_ == Process::State::kWaiting &&
        w.proc->wait_id_ == w.wait_id) {
      sim.make_runnable(*w.proc);
    }
  }
  waiters_.clear();
}

void Event::notify() {
  cancel();
  fire();
}

void Event::notify_delta() {
  if (pending_ == Pending::kDelta) return;
  if (pending_ == Pending::kTimed) cancel();
  pending_ = Pending::kDelta;
  Simulator::current().delta_events_.push_back(this);
}

void Event::notify(Time t) {
  if (t.is_zero()) {
    notify_delta();
    return;
  }
  auto& sim = Simulator::current();
  const Time at = sim.now() + t;
  if (pending_ == Pending::kDelta) return;  // delta is always earlier
  if (pending_ == Pending::kTimed && pending_time_ <= at) return;
  cancel();
  pending_ = Pending::kTimed;
  pending_time_ = at;
  Simulator::TimerEntry e;
  e.t = at;
  e.event = this;
  e.event_generation = generation_;
  sim.schedule_timer(e);
}

void Event::cancel() {
  // Delta entries are filtered at fire time via the pending_ flag; timed
  // entries via the generation counter. Either way, bumping the generation
  // and clearing pending_ invalidates everything in flight.
  ++generation_;
  pending_ = Pending::kNone;
}

// ------------------------------------------------------------ Updatable ----

void Updatable::request_update() {
  if (update_pending_) return;
  update_pending_ = true;
  Simulator::current().update_queue_.push_back(this);
}

// -------------------------------------------------------------- Process ----

Process::Process(Simulator& sim, std::string name, std::function<void()> body,
                 std::size_t id, std::size_t stack_bytes)
    : sim_(sim),
      name_(std::move(name)),
      body_(std::move(body)),
      id_(id),
      // No stack byte is read before it is written: skip the zero-fill.
      stack_(std::make_unique_for_overwrite<std::byte[]>(stack_bytes)),
      ctx_(stack_.get(), stack_bytes, &Process::trampoline, this) {}

void Process::trampoline(void* self) {
  static_cast<Process*>(self)->run_body();
}

void Process::run_body() {
  for (;;) {
    bool crashed = false;
    if (crash_requested_) {
      // Crashed before the (re)started body ever ran: nothing to unwind.
      crash_requested_ = false;
      crashed = true;
    } else {
      if (KernelHook* h = sim_.hook()) h->process_started(*this);
      bool clean_exit = false;
      try {
        body_();
        clean_exit = true;
      } catch (const KillUnwind&) {
        // Simulator teardown: the stack is now unwound; just terminate.
      } catch (const CrashUnwind&) {
        crash_requested_ = false;
        unwinding_ = false;
        crashed = true;
      } catch (...) {
        error_ = std::current_exception();
      }
      if (clean_exit) {
        if (KernelHook* h = sim_.hook()) h->process_finished(*this);
      }
    }
    if (crashed && restart_delay_.has_value()) {
      const Time d = *restart_delay_;
      restart_delay_.reset();
      ++restart_count_;
      // Park until the restart time, then re-run the body from the top
      // (false means the simulator tore down while we were parked).
      if (sim_.wait_for_restart(*this, d)) continue;
    }
    break;
  }
  state_ = State::kTerminated;
  // Never returns: a terminated process is never dispatched again.
  ctx_.exit_to(sim_.main_ctx_);
}

// ------------------------------------------------------------ Simulator ----

Simulator::Simulator() {
  if (g_current != nullptr) {
    throw std::logic_error("minisc: only one Simulator per thread");
  }
  g_current = this;
}

Simulator::~Simulator() {
  kill_all_processes();
  g_current = nullptr;
}

Simulator& Simulator::current() {
  if (g_current == nullptr) {
    // A release-build assert here would return a dangling reference and
    // silently corrupt the run; fail loudly instead.
    throw SimError(SimError::Kind::kNoSimulator,
                   "no Simulator exists on this thread");
  }
  return *g_current;
}

Simulator* Simulator::current_or_null() { return g_current; }

Process& Simulator::spawn(std::string name, std::function<void()> body,
                          std::size_t stack_bytes) {
  if (stack_bytes < kMinStackBytes) {
    // The entry frame is written at the top of the stack right away, so an
    // undersized stack would corrupt the heap below it.
    throw SimError(SimError::Kind::kBadConfig,
                   "process '" + name + "': stack of " +
                       std::to_string(stack_bytes) +
                       " bytes is below the minimum of " +
                       std::to_string(kMinStackBytes));
  }
  processes_.push_back(std::unique_ptr<Process>(
      new Process(*this, std::move(name), std::move(body), processes_.size(),
                  stack_bytes)));
  Process& p = *processes_.back();
  make_runnable(p);
  return p;
}

void Simulator::make_runnable(Process& p) {
  assert(p.state_ != Process::State::kTerminated);
  p.state_ = Process::State::kReady;
  runnable_.push_back(&p);
}

void Simulator::dispatch(Process& p) {
  if (p.state_ != Process::State::kReady) return;  // woken twice in one delta
  p.state_ = Process::State::kRunning;
  p.started_ = true;
  ++p.wait_id_;  // invalidate stale timer/event wakeups
  p.waiting_event_ = nullptr;
  p.wake_at_ = Time::max();
  running_ = &p;
  if (exec_trace_enabled_) {
    exec_trace_.push_back({now_, delta_count_, p.name()});
  }
  if (hook_ != nullptr) hook_->process_resumed(p);
  main_ctx_.switch_to(p.ctx_);
  running_ = nullptr;
  if (p.error_) {
    auto err = p.error_;
    p.error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void Simulator::yield_to_kernel() {
  Process& p = *running_;
  p.ctx_.switch_to(main_ctx_);
  // Resumed. During teardown the kernel resumes us one last time to unwind.
  if (p.kill_requested_) {
    p.unwinding_ = true;
    throw KillUnwind{};
  }
  if (p.crash_requested_) {
    p.crash_requested_ = false;
    p.unwinding_ = true;
    throw CrashUnwind{};
  }
}

void Simulator::schedule_timer(TimerEntry e) {
  e.seq = ++timer_seq_;
  timers_.push(e);
}

bool Simulator::fire_timer_entry(const TimerEntry& e) {
  if (e.event != nullptr) {
    Event& ev = *e.event;
    if (ev.generation_ != e.event_generation ||
        ev.pending_ != Event::Pending::kTimed) {
      return false;  // cancelled or superseded
    }
    ev.pending_ = Event::Pending::kNone;
    ++ev.generation_;
    ev.fire();
    return true;
  }
  Process& p = *e.proc;
  if (p.state_ == Process::State::kWaiting && p.wait_id_ == e.proc_wait_id) {
    make_runnable(p);
    return true;
  }
  return false;
}

StopReason Simulator::run(Time limit) {
  stop_requested_ = false;
  // The Watchdog's budget is one more scope: the tighter deadline wins.
  const RunBudgetScope budget(watchdog_.wall_clock_ms);
  wall_clock_countdown_ = kWallClockCheckStride;
  while (true) {
    // ---- evaluate phase ----
    while (runnable_head_ < runnable_.size()) {
      Process* p = runnable_[runnable_head_++];
      if (runnable_head_ == runnable_.size()) {
        runnable_.clear();
        runnable_head_ = 0;
      } else if (runnable_head_ >= kRunnableCompactAt &&
                 2 * runnable_head_ >= runnable_.size()) {
        // An immediate-notify livelock never drains the queue: drop the
        // dispatched prefix so the buffer stays bounded.
        runnable_.erase(runnable_.begin(),
                        runnable_.begin() +
                            static_cast<std::ptrdiff_t>(runnable_head_));
        runnable_head_ = 0;
      }
      ++dispatches_this_instant_;
      if (watchdog_.max_dispatches_per_instant != 0 &&
          dispatches_this_instant_ > watchdog_.max_dispatches_per_instant) {
        throw_watchdog(
            SimError::Kind::kDispatchStorm,
            std::to_string(dispatches_this_instant_) +
                " dispatches at one instant (budget " +
                std::to_string(watchdog_.max_dispatches_per_instant) +
                "): immediate-notification livelock");
      }
      check_wall_clock();
      dispatch(*p);
    }
    // ---- update phase ----
    // Each phase swaps its queue with a kept buffer: updates and firings
    // queue into the emptied member for the next delta, and neither buffer
    // is ever freed.
    update_batch_.clear();
    update_batch_.swap(update_queue_);
    for (Updatable* u : update_batch_) {
      u->update_pending_ = false;
      u->update();
    }
    // ---- delta-notification phase ----
    delta_batch_.clear();
    delta_batch_.swap(delta_events_);
    for (Event* ev : delta_batch_) {
      if (ev->pending_ != Event::Pending::kDelta) continue;  // cancelled
      ev->pending_ = Event::Pending::kNone;
      ++ev->generation_;
      ev->fire();
    }
    ++delta_count_;
    ++deltas_this_instant_;
    if (watchdog_.max_deltas_per_instant != 0 &&
        deltas_this_instant_ > watchdog_.max_deltas_per_instant) {
      throw_watchdog(SimError::Kind::kDeltaStorm,
                     std::to_string(deltas_this_instant_) +
                         " delta cycles at one instant (budget " +
                         std::to_string(watchdog_.max_deltas_per_instant) +
                         "): delta-notification livelock");
    }
    check_wall_clock();
    if (runnable_head_ < runnable_.size() || !update_queue_.empty()) continue;
    if (stop_requested_) return StopReason::kStopped;

    // ---- timed phase ----
    bool advanced = false;
    while (!timers_.empty()) {
      const TimerEntry e = timers_.top();
      if (e.t > limit) break;
      timers_.pop();
      // Peek-fire everything at the earliest valid time point.
      if (e.event != nullptr &&
          (e.event->generation_ != e.event_generation ||
           e.event->pending_ != Event::Pending::kTimed)) {
        continue;  // stale entry; keep scanning
      }
      if (e.proc != nullptr && (e.proc->state_ != Process::State::kWaiting ||
                                e.proc->wait_id_ != e.proc_wait_id)) {
        continue;  // stale entry
      }
      if (e.t > now_) {
        deltas_this_instant_ = 0;
        dispatches_this_instant_ = 0;
      }
      now_ = e.t;
      if (now_ > watchdog_.sim_time_budget) {
        throw_watchdog(SimError::Kind::kSimTimeBudget,
                       "simulated time exceeded budget " +
                           watchdog_.sim_time_budget.str());
      }
      fire_timer_entry(e);
      advanced = true;
      // Drain co-scheduled entries at the same instant.
      while (!timers_.empty() && timers_.top().t == now_) {
        const TimerEntry e2 = timers_.top();
        timers_.pop();
        fire_timer_entry(e2);
      }
      break;
    }
    if (advanced) continue;

    // Nothing left at or before the horizon.
    if (!timers_.empty()) {
      if (limit > now_) {
        deltas_this_instant_ = 0;
        dispatches_this_instant_ = 0;
      }
      now_ = limit;
      if (now_ > watchdog_.sim_time_budget) {
        throw_watchdog(SimError::Kind::kSimTimeBudget,
                       "simulated time exceeded budget " +
                           watchdog_.sim_time_budget.str());
      }
      return StopReason::kTimeLimit;
    }
    bool any_live = false;
    for (const auto& p : processes_) {
      if (!p->terminated()) any_live = true;
    }
    return any_live ? StopReason::kDeadlock : StopReason::kFinished;
  }
}

std::vector<std::string> Simulator::blocked_process_names() const {
  std::vector<std::string> out;
  for (const auto& p : processes_) {
    if (!p->terminated()) out.push_back(p->name());
  }
  return out;
}

std::vector<ProcessDiagnostic> Simulator::process_diagnostics() const {
  std::vector<ProcessDiagnostic> out;
  for (const auto& p : processes_) {
    if (p->terminated()) continue;
    ProcessDiagnostic d;
    d.name = p->name();
    d.restarts = p->restart_count_;
    switch (p->state_) {
      case Process::State::kCreated:
        d.state = "created";
        break;
      case Process::State::kReady:
        d.state = "ready";
        break;
      case Process::State::kRunning:
        d.state = "running";
        break;
      case Process::State::kWaiting:
        d.state = "waiting";
        break;
      case Process::State::kTerminated:
        d.state = "terminated";
        break;
    }
    if (p->state_ == Process::State::kWaiting) {
      if (p->waiting_event_ != nullptr) {
        d.blocked_on = "event " + p->waiting_event_->name();
        if (p->wake_at_ != Time::max()) {
          d.blocked_on += " (timeout @ " + p->wake_at_.str() + ")";
        }
      } else if (p->wake_at_ != Time::max()) {
        d.blocked_on = "timer @ " + p->wake_at_.str();
      }
    }
    out.push_back(std::move(d));
  }
  return out;
}

void Simulator::kill(Process& p) { kill_impl(p, std::nullopt); }

void Simulator::kill_and_restart(Process& p, Time restart_after) {
  kill_impl(p, restart_after);
}

void Simulator::kill_impl(Process& p, std::optional<Time> restart_after) {
  if (p.terminated()) return;
  p.restart_delay_ = restart_after;
  if (&p == running_) {
    // Self-crash (e.g. a fault-injection hook on this process's own stack):
    // unwind right here. run_body catches and handles the restart.
    p.unwinding_ = true;
    throw CrashUnwind{};
  }
  p.crash_requested_ = true;
  if (p.state_ == Process::State::kWaiting) make_runnable(p);
  // kReady / kCreated: the flag is observed at the next dispatch.
}

Process* Simulator::find_process(const std::string& name) {
  for (const auto& p : processes_) {
    if (!p->terminated() && p->name() == name) return p.get();
  }
  return nullptr;
}

bool Simulator::wait_for_restart(Process& p, Time delay) {
  TimerEntry e;
  e.t = now_ + delay;
  e.proc = &p;
  e.proc_wait_id = p.wait_id_;
  schedule_timer(e);
  p.state_ = Process::State::kWaiting;
  p.wake_at_ = e.t;
  p.ctx_.switch_to(main_ctx_);
  // Resumed by the restart timer — or by teardown, which must not restart.
  return !p.kill_requested_;
}

namespace {
// Innermost active per-run deadline on this thread (RunBudgetScope).
thread_local std::chrono::steady_clock::time_point tl_run_deadline =
    std::chrono::steady_clock::time_point::max();
thread_local std::uint64_t tl_run_budget_ms = 0;
}  // namespace

RunBudgetScope::RunBudgetScope(std::uint64_t budget_ms)
    : saved_deadline_(tl_run_deadline), saved_budget_ms_(tl_run_budget_ms) {
  if (budget_ms == 0) return;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(budget_ms);
  // Nested scopes: the tighter deadline stays in force.
  if (deadline < tl_run_deadline) {
    tl_run_deadline = deadline;
    tl_run_budget_ms = budget_ms;
  }
}

RunBudgetScope::~RunBudgetScope() {
  tl_run_deadline = saved_deadline_;
  tl_run_budget_ms = saved_budget_ms_;
}

bool RunBudgetScope::active() {
  return tl_run_deadline != std::chrono::steady_clock::time_point::max();
}

bool RunBudgetScope::expired() {
  return active() && std::chrono::steady_clock::now() > tl_run_deadline;
}

std::uint64_t RunBudgetScope::budget_ms() { return tl_run_budget_ms; }

void Simulator::check_wall_clock() {
  if (!RunBudgetScope::active()) return;
  if (--wall_clock_countdown_ != 0) return;
  wall_clock_countdown_ = kWallClockCheckStride;
  if (RunBudgetScope::expired()) {
    throw_watchdog(SimError::Kind::kWallClockBudget,
                   "per-run wall-clock budget of " +
                       std::to_string(RunBudgetScope::budget_ms()) +
                       " ms exceeded: the run appears to hang");
  }
}

void Simulator::throw_watchdog(SimError::Kind kind, std::string summary) {
  throw SimError(kind, std::move(summary), now_, delta_count_,
                 process_diagnostics());
}

void Simulator::kill_all_processes() {
  for (auto& p : processes_) {
    if (p->started_ && !p->terminated()) {
      // The process is suspended inside yield_to_kernel(); resuming it with
      // the kill flag set makes it throw KillUnwind there, unwinding any
      // user frames (and their destructors) on its coroutine stack.
      p->kill_requested_ = true;
      p->state_ = Process::State::kRunning;
      running_ = p.get();
      main_ctx_.switch_to(p->ctx_);
      running_ = nullptr;
    }
    // Never-started processes have no frames to unwind.
  }
}

void Simulator::raw_wait(Time t) {
  Process& p = current_process();
  TimerEntry e;
  e.t = now_ + t;
  e.proc = &p;
  e.proc_wait_id = p.wait_id_;
  schedule_timer(e);
  p.state_ = Process::State::kWaiting;
  p.wake_at_ = e.t;
  yield_to_kernel();
}

void Simulator::wait_for(Time t) {
  Process& p = current_process();
  if (hook_ != nullptr) hook_->node_reached(p, NodeKind::kTimedWait, "wait");
  raw_wait(t);
  if (hook_ != nullptr) hook_->node_done(p, NodeKind::kTimedWait, "wait");
}

void Simulator::wait_on(Event& e) {
  Process& p = current_process();
  e.waiters_.push_back({&p, p.wait_id_});
  p.state_ = Process::State::kWaiting;
  p.waiting_event_ = &e;
  yield_to_kernel();
}

bool Simulator::wait_on(Event& e, Time timeout) {
  Process& p = current_process();
  e.waiters_.push_back({&p, p.wait_id_});
  TimerEntry te;
  te.t = now_ + timeout;
  te.proc = &p;
  te.proc_wait_id = p.wait_id_;
  const Time deadline = te.t;
  schedule_timer(te);
  p.state_ = Process::State::kWaiting;
  p.waiting_event_ = &e;
  p.wake_at_ = deadline;
  yield_to_kernel();
  // If we woke before the deadline, it was the event.
  return now_ < deadline;
}

Process& Simulator::current_process() {
  if (running_ == nullptr) {
    throw SimError(SimError::Kind::kNoProcessContext,
                   "operation requires process context");
  }
  return *running_;
}

// ------------------------------------------------------- free functions ----

void wait(Time t) { Simulator::current().wait_for(t); }
void wait(Event& e) { Simulator::current().wait_on(e); }
bool wait(Event& e, Time timeout) {
  return Simulator::current().wait_on(e, timeout);
}
Time now() { return Simulator::current().now(); }

}  // namespace minisc
