#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "kernel/simulator.hpp"

namespace minisc {

namespace detail {

/// RAII guard that reports a channel access to the installed kernel hook:
/// node_reached on entry (before any blocking), node_done on exit (after the
/// access completed). This is the mechanism by which the estimation library
/// sees every node of the process graph without any change to user code.
/// An access that a crash or teardown unwinds did not complete and reports
/// no node_done: at teardown the hook may already be destroyed.
class NodeScope {
 public:
  NodeScope(NodeKind kind, const char* label) : kind_(kind), label_(label) {
    Simulator& sim = Simulator::current();
    hook_ = sim.hook();
    if (hook_ != nullptr && sim.in_process_context()) {
      proc_ = &sim.current_process();
      hook_->node_reached(*proc_, kind_, label_);
    }
  }
  ~NodeScope() {
    if (proc_ != nullptr && !proc_->unwinding_) {
      hook_->node_done(*proc_, kind_, label_);
    }
  }
  NodeScope(const NodeScope&) = delete;
  NodeScope& operator=(const NodeScope&) = delete;

 private:
  NodeKind kind_;
  const char* label_;
  KernelHook* hook_ = nullptr;
  Process* proc_ = nullptr;
};

}  // namespace detail

/// Bounded blocking FIFO with sc_fifo semantics: data written in delta cycle
/// d becomes visible to readers in delta d+1 (published in the update phase).
/// Supports any number of readers and writers. This is the KPN-style channel
/// of the specification methodology.
template <typename T>
class Fifo : private Updatable {
 public:
  explicit Fifo(std::string name, std::size_t capacity = 16)
      : name_(std::move(name)),
        capacity_(capacity),
        ring_(capacity),
        data_written_(name_ + ".written"),
        data_read_(name_ + ".read") {
    if (capacity_ == 0) {
      // An assert would vanish in release builds and every write would then
      // block forever; reject the configuration loudly instead.
      throw SimError(SimError::Kind::kBadConfig,
                     "Fifo '" + name_ + "': capacity must be > 0");
    }
  }

  /// Blocking read; pops the oldest visible element.
  T read() {
    detail::NodeScope node(NodeKind::kChannelRead, name_.c_str());
    while (num_available() == 0) wait(data_written_);
    T v = pop();
    ++num_read_;
    request_update();
    return v;
  }

  /// Blocking read with a timeout: nullopt if nothing became visible within
  /// `timeout`. The clock starts after the node's hook callbacks (i.e. after
  /// any back-annotated segment delay), so the timeout is pure waiting-for-
  /// data time — the primitive for building loss-tolerant (resilient)
  /// consumers on top of unreliable producers.
  std::optional<T> read_for(Time timeout) {
    detail::NodeScope node(NodeKind::kChannelRead, name_.c_str());
    Simulator& sim = Simulator::current();
    const Time deadline = sim.now() + timeout;
    while (num_available() == 0) {
      const Time t = sim.now();
      if (t >= deadline) return std::nullopt;
      wait(data_written_, deadline - t);
    }
    T v = pop();
    ++num_read_;
    request_update();
    return v;
  }

  /// Blocking write; waits while the FIFO is full.
  void write(T v) {
    detail::NodeScope node(NodeKind::kChannelWrite, name_.c_str());
    while (num_free() == 0) wait(data_read_);
    push(std::move(v));
    ++num_written_;
    request_update();
  }

  /// Non-blocking read: false if nothing is visible yet.
  bool nb_read(T& out) {
    detail::NodeScope node(NodeKind::kChannelRead, name_.c_str());
    if (num_available() == 0) return false;
    out = pop();
    ++num_read_;
    request_update();
    return true;
  }

  /// Non-blocking write: false if the FIFO is full.
  bool nb_write(T v) {
    detail::NodeScope node(NodeKind::kChannelWrite, name_.c_str());
    if (num_free() == 0) return false;
    push(std::move(v));
    ++num_written_;
    request_update();
    return true;
  }

  /// Elements visible to readers (excludes same-delta writes).
  std::size_t num_available() const { return num_readable_ - num_read_; }
  /// Free slots (accounts for same-delta writes).
  std::size_t num_free() const {
    return capacity_ - num_readable_ - num_written_;
  }
  std::size_t capacity() const { return capacity_; }
  const std::string& name() const { return name_; }

 private:
  void update() override {
    if (num_read_ > 0) data_read_.notify_delta();
    if (num_written_ > 0) data_written_.notify_delta();
    num_readable_ = size_;
    num_read_ = 0;
    num_written_ = 0;
  }

  // The values live in a ring of `capacity_` slots: never more are stored,
  // so a channel access never allocates.
  void push(T v) {
    std::size_t tail = head_ + size_;
    if (tail >= capacity_) tail -= capacity_;
    ring_[tail].emplace(std::move(v));
    ++size_;
  }
  T pop() {
    std::optional<T>& slot = ring_[head_];
    T v = std::move(*slot);
    slot.reset();
    if (++head_ == capacity_) head_ = 0;
    --size_;
    return v;
  }

  std::string name_;
  std::size_t capacity_;
  std::vector<std::optional<T>> ring_;
  std::size_t head_ = 0;  ///< oldest stored value
  std::size_t size_ = 0;  ///< stored values, visible or not
  std::size_t num_readable_ = 0;  ///< visible to readers this delta
  std::size_t num_read_ = 0;      ///< reads performed this delta
  std::size_t num_written_ = 0;   ///< writes performed this delta
  Event data_written_;
  Event data_read_;
};

/// CSP-style rendezvous channel: read and write block until both parties are
/// present, then the value transfers and both continue. Multiple writers and
/// readers are served in arrival order.
template <typename T>
class Rendezvous {
 public:
  explicit Rendezvous(std::string name)
      : name_(std::move(name)),
        data_ready_(name_ + ".data"),
        data_taken_(name_ + ".ack"),
        slot_free_(name_ + ".free") {}

  void write(T v) {
    detail::NodeScope node(NodeKind::kChannelWrite, name_.c_str());
    while (slot_.has_value()) wait(slot_free_);
    slot_ = std::move(v);
    const std::uint64_t my_ticket = ++deposit_seq_;
    data_ready_.notify();
    // Wait until *our* deposit is consumed (another writer may deposit after
    // us once the slot frees up, so match on the ticket).
    while (consumed_seq_ < my_ticket) wait(data_taken_);
  }

  T read() {
    detail::NodeScope node(NodeKind::kChannelRead, name_.c_str());
    while (!slot_.has_value()) wait(data_ready_);
    T v = std::move(*slot_);
    slot_.reset();
    ++consumed_seq_;
    data_taken_.notify();
    slot_free_.notify();
    return v;
  }

  /// Blocking read with a timeout: nullopt if no writer showed up within
  /// `timeout` (same clock-start semantics as Fifo::read_for).
  std::optional<T> read_for(Time timeout) {
    detail::NodeScope node(NodeKind::kChannelRead, name_.c_str());
    Simulator& sim = Simulator::current();
    const Time deadline = sim.now() + timeout;
    while (!slot_.has_value()) {
      const Time t = sim.now();
      if (t >= deadline) return std::nullopt;
      wait(data_ready_, deadline - t);
    }
    T v = std::move(*slot_);
    slot_.reset();
    ++consumed_seq_;
    data_taken_.notify();
    slot_free_.notify();
    return v;
  }

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::optional<T> slot_;
  std::uint64_t deposit_seq_ = 0;
  std::uint64_t consumed_seq_ = 0;
  Event data_ready_;
  Event data_taken_;
  Event slot_free_;
};

/// sc_signal-like channel: write publishes in the update phase; readers see
/// the previous delta's value; value_changed fires as a delta notification
/// when the published value differs from the old one. This is the SR-style
/// channel of the specification methodology.
template <typename T>
class Signal : private Updatable {
 public:
  explicit Signal(std::string name, T initial = T{})
      : name_(std::move(name)),
        cur_(initial),
        next_(initial),
        value_changed_(name_ + ".changed") {}

  T read() const {
    detail::NodeScope node(NodeKind::kChannelRead, name_.c_str());
    return cur_;
  }

  void write(T v) {
    detail::NodeScope node(NodeKind::kChannelWrite, name_.c_str());
    next_ = std::move(v);
    request_update();
  }

  /// Blocks until the signal's published value changes, then returns it.
  T await_change() {
    detail::NodeScope node(NodeKind::kChannelRead, name_.c_str());
    wait(value_changed_);
    return cur_;
  }

  Event& value_changed() { return value_changed_; }
  const std::string& name() const { return name_; }

 private:
  void update() override {
    if (!(next_ == cur_)) {
      cur_ = next_;
      value_changed_.notify_delta();
    }
  }

  std::string name_;
  T cur_;
  T next_;
  Event value_changed_;

  // Signals are read outside process context (e.g. by testbench checks);
  // read() above is const but NodeScope needs the running process, which it
  // resolves safely to "no hook call" in that case.
};

}  // namespace minisc
