#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "kernel/context.hpp"
#include "kernel/error.hpp"
#include "kernel/hooks.hpp"
#include "kernel/time.hpp"

namespace minisc {

class Simulator;
class Process;

/// Dynamic-sensitivity notification object (the role of sc_event).
///
/// An event has at most one pending (delta or timed) notification; an earlier
/// notification overrides a later one, and immediate notification overrides
/// both (SystemC semantics). Processes wait on events dynamically via
/// minisc::wait(Event&); there are no static sensitivity lists, matching the
/// specification methodology the estimation library assumes.
class Event {
 public:
  explicit Event(std::string name = "event");
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  /// Immediate notification: waiters become runnable in the current
  /// evaluation phase. Cancels any pending delta/timed notification.
  void notify();
  /// Notification at the end of the current delta cycle.
  void notify_delta();
  /// Timed notification after delay `t` (delta notification if t == 0).
  void notify(Time t);
  /// Cancels the pending notification, if any.
  void cancel();

  const std::string& name() const { return name_; }

 private:
  friend class Simulator;

  enum class Pending { kNone, kDelta, kTimed };

  struct Waiter {
    Process* proc;
    std::uint64_t wait_id;
  };

  void fire();

  std::string name_;
  std::vector<Waiter> waiters_;
  Pending pending_ = Pending::kNone;
  Time pending_time_;
  std::uint64_t generation_ = 0;  ///< invalidates queued timed notifications
};

/// Base for primitive channels that defer state publication to the update
/// phase (the role of sc_prim_channel::request_update / update).
class Updatable {
 public:
  virtual ~Updatable() = default;

 protected:
  /// Schedules update() to run in the current delta's update phase.
  void request_update();
  virtual void update() = 0;

 private:
  friend class Simulator;
  bool update_pending_ = false;
};

/// A simulation process: a stackful coroutine executing a user body
/// (the role of an SC_THREAD). Created via Simulator::spawn().
class Process {
 public:
  const std::string& name() const { return name_; }
  std::size_t id() const { return id_; }
  bool terminated() const { return state_ == State::kTerminated; }

  /// Times this process crash-restarted (Simulator::kill_and_restart).
  std::uint64_t restart_count() const { return restart_count_; }

  /// Scratch slot for layered libraries (the estimation library stores its
  /// per-process context here to avoid map lookups on the hot path).
  void* user_data = nullptr;

 private:
  friend class Simulator;
  friend class Event;

  enum class State { kCreated, kReady, kRunning, kWaiting, kTerminated };

  Process(Simulator& sim, std::string name, std::function<void()> body,
          std::size_t id, std::size_t stack_bytes);

  static void trampoline(void* self);
  void run_body();

  Simulator& sim_;
  std::string name_;
  std::function<void()> body_;
  std::size_t id_;
  std::unique_ptr<std::byte[]> stack_;
  detail::Context ctx_;
  State state_ = State::kCreated;
  std::uint64_t wait_id_ = 0;  ///< bumped on every wake; stale wakeups ignored
  bool started_ = false;       ///< body entered at least once
  bool kill_requested_ = false;
  bool crash_requested_ = false;  ///< fault-injection kill (may restart)
  std::optional<Time> restart_delay_;
  std::uint64_t restart_count_ = 0;
  /// Diagnostics only: what the process is blocked on while kWaiting. The
  /// event pointer is valid as long as the event outlives the wait — the
  /// same lifetime rule the waiter list already imposes.
  const Event* waiting_event_ = nullptr;
  Time wake_at_ = Time::max();  ///< pending timer deadline (max = none)
  std::exception_ptr error_;
};

/// Reasons Simulator::run() returns.
enum class StopReason {
  kFinished,   ///< every process terminated
  kTimeLimit,  ///< the supplied horizon was reached
  kDeadlock,   ///< live processes remain but nothing can ever wake them
  kStopped,    ///< Simulator::stop() was called from a process
};

const char* to_string(StopReason r);

/// Execution budgets that convert hangs, livelocks and runaway simulations
/// into structured SimError diagnostics instead of a frozen process. All
/// budgets are disabled by default; a zero / Time::max() value means
/// "unlimited". Enforcement happens in the scheduler loop, so a tripped
/// budget reports the state of every live process (what each is blocked on)
/// at the moment of failure.
struct Watchdog {
  /// Delta cycles allowed at a single time instant (catches notify_delta
  /// ping-pong storms that keep the simulation at one instant forever).
  std::uint64_t max_deltas_per_instant = 0;
  /// Process dispatches allowed at a single instant (catches immediate-notify
  /// livelocks that never even complete a delta cycle).
  std::uint64_t max_dispatches_per_instant = 0;
  /// Host wall-clock budget for a single run() call, in milliseconds
  /// (catches anything else that makes the simulator spin).
  std::uint64_t wall_clock_ms = 0;
  /// Simulated-time budget: unlike run(limit), exceeding it is an error,
  /// not a pause — for specs that must converge before a known horizon.
  Time sim_time_budget = Time::max();
};

/// Ambient per-run wall-clock budget, installed around one campaign run.
/// A campaign driver cannot reach inside its run function to configure the
/// Watchdog of a Simulator the function builds for itself — so instead every
/// Simulator on this thread consults the innermost active RunBudgetScope
/// from the same amortised wall-clock check the Watchdog uses (the scheduler
/// loop between dispatches plus the in-segment probe). Exceeding the budget
/// throws the usual kWallClockBudget SimError, converting a hung seed into a
/// failed-with-timeout record instead of a stalled campaign. Scopes are
/// thread_local and nest with the tighter deadline winning; budget_ms == 0
/// makes the scope a no-op, and an inactive scope costs the check one
/// thread_local read.
class RunBudgetScope {
 public:
  explicit RunBudgetScope(std::uint64_t budget_ms);
  ~RunBudgetScope();
  RunBudgetScope(const RunBudgetScope&) = delete;
  RunBudgetScope& operator=(const RunBudgetScope&) = delete;

  /// True when any scope on this thread holds a deadline.
  static bool active();
  /// True when the innermost active deadline has passed.
  static bool expired();
  /// The budget (ms) behind the innermost active deadline — diagnostics.
  static std::uint64_t budget_ms();

 private:
  std::chrono::steady_clock::time_point saved_deadline_;
  std::uint64_t saved_budget_ms_ = 0;
};

/// The discrete-event scheduler (the role of the SystemC kernel).
///
/// Executes the classic evaluate / update / delta-notify cycle, then advances
/// time to the earliest pending timed notification. Exactly one Simulator may
/// exist per thread at a time; it is reachable via Simulator::current() for
/// the benefit of channels and the free wait()/now() functions.
class Simulator {
 public:
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  static Simulator& current();
  static Simulator* current_or_null();

  /// Smallest process stack spawn() accepts. Besides the body's own frames,
  /// a process stack holds the switch's entry frame, the kernel and hook
  /// frames between the body and the switch, the unwinder's frames when a
  /// crash or teardown throws through the body, and the dynamic linker's
  /// lazy-binding trampoline, which saves the vector registers there (a few
  /// KiB with AVX-512). 16 KiB holds all of them with room for a small body,
  /// in sanitizer builds too.
  static constexpr std::size_t kMinStackBytes = 16 * 1024;

  /// Creates a process; it becomes runnable in the next evaluation phase
  /// (immediately, if called from inside a running process). A stack below
  /// kMinStackBytes is a kBadConfig SimError.
  Process& spawn(std::string name, std::function<void()> body,
                 std::size_t stack_bytes = 256 * 1024);

  /// Runs until every process terminates, `limit` is reached, deadlock, or
  /// stop(). May be called repeatedly to continue after kTimeLimit.
  StopReason run(Time limit = Time::max());

  Time now() const { return now_; }
  std::uint64_t delta_count() const { return delta_count_; }

  /// Requests the current run() to return after the ongoing delta completes.
  void stop() { stop_requested_ = true; }

  /// Installs execution budgets; a tripped budget makes run() throw a
  /// SimError naming every live process and what it is blocked on.
  void set_watchdog(const Watchdog& w) { watchdog_ = w; }
  const Watchdog& watchdog() const { return watchdog_; }

  /// Amortised wall-clock budget probe callable from inside a running
  /// process (the estimation library calls it from the annotation hot path).
  /// The scheduler loop only checks the budget between dispatches, so a hang
  /// *inside* one compute segment would otherwise never trip it. Throws the
  /// same kWallClockBudget SimError as the scheduler check; thrown on the
  /// process's coroutine stack, it unwinds the body and propagates out of
  /// run(). No-op outside process context or without a wall-clock budget.
  void probe_wall_clock() {
    if (running_ == nullptr) return;
    check_wall_clock();
  }

  // ---- fault-injection primitives ----

  /// Crash-kills a live process: its coroutine stack unwinds (running the
  /// destructors of every frame) at its next dispatch opportunity —
  /// immediately when called on the running process. The process terminates;
  /// it does NOT count as a clean exit (no process_finished hook).
  void kill(Process& p);
  /// Like kill(), but the process body re-runs from the top `restart_after`
  /// later — the crash-and-restart model of an RTOS respawning a task.
  void kill_and_restart(Process& p, Time restart_after);

  /// The first live process with this name, or nullptr.
  Process* find_process(const std::string& name);

  /// Installs the estimation-library callback (single hook; pass nullptr to
  /// remove). The kernel never times anything itself.
  void set_hook(KernelHook* hook) { hook_ = hook; }
  KernelHook* hook() const { return hook_; }

  // ---- process-context operations (free functions forward here) ----

  /// Timed wait WITHOUT hook callbacks. This is the primitive the estimation
  /// hook itself uses to back-annotate segment delays; user code should call
  /// minisc::wait(Time) instead, which reports a kTimedWait node.
  void raw_wait(Time t);
  /// Hooked timed wait: reports node_reached/node_done around the wait.
  void wait_for(Time t);
  /// Blocks until `e` is notified (no hooks; channels use this internally).
  void wait_on(Event& e);
  /// Blocks until `e` or the timeout; true if the event fired first.
  bool wait_on(Event& e, Time timeout);

  /// The process whose body is executing. Asserts if called from outside.
  Process& current_process();
  bool in_process_context() const { return running_ != nullptr; }

  /// After run() returned kDeadlock: names of the permanently blocked
  /// processes.
  std::vector<std::string> blocked_process_names() const;

  /// State of every live process — name, scheduler state, and what it is
  /// blocked on (event name or timer deadline). This is the payload of every
  /// watchdog SimError and the detail behind kDeadlock.
  std::vector<ProcessDiagnostic> process_diagnostics() const;

  // ---- execution tracing (untimed-vs-timed comparisons, Fig. 5) ----

  struct ExecRecord {
    Time time;
    std::uint64_t delta;
    std::string process;
  };
  void enable_exec_trace(bool on) { exec_trace_enabled_ = on; }
  const std::vector<ExecRecord>& exec_trace() const { return exec_trace_; }

 private:
  friend class Event;
  friend class Updatable;
  friend class Process;

  struct TimerEntry {
    Time t;
    std::uint64_t seq;  ///< tie-break: FIFO among equal times
    // Exactly one of the two targets is set.
    Event* event = nullptr;
    std::uint64_t event_generation = 0;
    Process* proc = nullptr;
    std::uint64_t proc_wait_id = 0;

    bool operator>(const TimerEntry& o) const {
      return t != o.t ? t > o.t : seq > o.seq;
    }
  };

  void make_runnable(Process& p);
  void dispatch(Process& p);
  /// Suspends the running process and returns control to the scheduler.
  void yield_to_kernel();
  void schedule_timer(TimerEntry e);
  void kill_all_processes();
  bool fire_timer_entry(const TimerEntry& e);  ///< true if it woke something
  void kill_impl(Process& p, std::optional<Time> restart_after);
  /// Parks a crashed process until its restart time; false on teardown.
  bool wait_for_restart(Process& p, Time delay);
  /// Periodic wall-clock budget check (amortised: probes the host clock
  /// every kWallClockCheckStride calls).
  void check_wall_clock();
  [[noreturn]] void throw_watchdog(SimError::Kind kind, std::string summary);

  detail::Context main_ctx_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::deque<Process*> runnable_;
  std::vector<Event*> delta_events_;
  std::vector<Updatable*> update_queue_;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>,
                      std::greater<TimerEntry>>
      timers_;
  Process* running_ = nullptr;
  Time now_;
  std::uint64_t delta_count_ = 0;
  std::uint64_t timer_seq_ = 0;
  bool stop_requested_ = false;
  KernelHook* hook_ = nullptr;
  bool exec_trace_enabled_ = false;
  std::vector<ExecRecord> exec_trace_;

  // ---- watchdog bookkeeping ----
  static constexpr std::uint64_t kWallClockCheckStride = 1024;
  Watchdog watchdog_;
  std::uint64_t deltas_this_instant_ = 0;
  std::uint64_t dispatches_this_instant_ = 0;
  std::uint64_t wall_clock_countdown_ = kWallClockCheckStride;
  std::chrono::steady_clock::time_point run_started_;
};

// ---- SystemC-style free functions (valid in process context only) ----

/// Timed wait; reports a kTimedWait node to the installed hook. This is the
/// wait(sc_time) of the specification methodology.
void wait(Time t);
/// Dynamic wait on an event (internal-channel use; the methodology forbids
/// raw events in user processes).
void wait(Event& e);
/// Wait with timeout; true if the event fired before the timeout.
bool wait(Event& e, Time timeout);
/// Current simulated time.
Time now();

}  // namespace minisc
