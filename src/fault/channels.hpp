#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "fault/scenario.hpp"
#include "kernel/channels.hpp"
#include "kernel/simulator.hpp"

namespace scfault {

namespace detail {

/// Per-channel fault state shared by the wrappers: the spec applying to this
/// channel (nullptr = fault-free), its private deterministic stream, and —
/// when the spec engages the Gilbert–Elliott burst model — the current chain
/// state. Decisions are drawn per write in channel-local order, so a
/// channel's fault sequence depends only on (scenario seed, channel name,
/// number of prior writes on this channel) — never on scheduling order
/// elsewhere. Draw order per write is fixed: emission first, then (burst
/// specs only) the state transition for the next write; delay lengths draw
/// their extra variate in between. Every draw is tallied into `counts` by
/// the state it was made in — the sufficient statistics channel_log_lr needs.
class ChannelFaults {
 public:
  void attach(const FaultScenario& scenario, const std::string& name) {
    spec_ = scenario.channel_spec(name);
    rng_ = scenario.channel_stream(name);
    bad_ = false;
    counts = ChannelFaultCounts{};
  }
  void detach() { spec_ = nullptr; }
  bool active() const { return spec_ != nullptr; }

  enum class Action { kDeliver, kDrop, kDuplicate, kDelay };

  /// Draws the fate of the next write (kDeliver when fault-free).
  Action draw(minisc::Time& delay_out) {
    if (spec_ == nullptr) return Action::kDeliver;
    const std::size_t s =
        bad_ ? ChannelFaultCounts::kBad : ChannelFaultCounts::kGood;
    double drop = spec_->drop_p, dup = spec_->dup_p, delay = spec_->delay_p;
    if (bad_) {
      drop = spec_->burst->bad_drop_p;
      dup = spec_->burst->bad_dup_p;
      delay = spec_->burst->bad_delay_p;
    }
    ++counts.draws[s];
    const double u = rng_.uniform();
    Action action = Action::kDeliver;
    if (u < drop) {
      action = Action::kDrop;
      ++counts.dropped[s];
    } else if (u < drop + dup) {
      action = Action::kDuplicate;
      ++counts.duplicated[s];
    } else if (u < drop + dup + delay) {
      delay_out = rng_.time_in(spec_->min_delay, spec_->max_delay);
      action = Action::kDelay;
      ++counts.delayed[s];
    } else {
      ++counts.delivered[s];
    }
    if (spec_->burst.has_value()) {
      const double v = rng_.uniform();
      if (!bad_ && v < spec_->burst->p_enter) {
        bad_ = true;
        ++counts.to_bad;
      } else if (bad_ && v < spec_->burst->p_exit) {
        bad_ = false;
        ++counts.to_good;
      }
    }
    return action;
  }

  ChannelFaultCounts counts;

 private:
  const ChannelFaultSpec* spec_ = nullptr;
  Rng rng_{0};
  bool bad_ = false;  ///< Gilbert–Elliott state (channels start good)
};

/// The blocking write both wrappers share: draws the write's fate and
/// applies it to `inner`, a Fifo or a Rendezvous.
template <typename Channel, typename T>
void faulty_write(ChannelFaults& faults, Channel& inner, T v) {
  minisc::Time delay;
  switch (faults.draw(delay)) {
    case ChannelFaults::Action::kDrop:
      minisc::wait(minisc::Time::zero());
      return;
    case ChannelFaults::Action::kDuplicate:
      inner.write(v);
      inner.write(std::move(v));
      return;
    case ChannelFaults::Action::kDelay:
      minisc::wait(delay);
      inner.write(std::move(v));
      return;
    case ChannelFaults::Action::kDeliver:
      inner.write(std::move(v));
      return;
  }
}

/// Both fault states' count of one outcome.
inline std::uint64_t both_states(const std::array<std::uint64_t, 2>& n) {
  return n[ChannelFaultCounts::kGood] + n[ChannelFaultCounts::kBad];
}

}  // namespace detail

/// A minisc::Fifo whose WRITE side models an unreliable link: each write may
/// be dropped (the value vanishes; the writer believes it sent), duplicated
/// (delivered twice) or delayed (the writer is held for a drawn latency
/// before the value enters the FIFO — an in-order lossy link, like a flaky
/// on-chip bus or a serial line, not a reordering network).
///
/// Interface-compatible with Fifo, so swapping the type in a spec is the
/// whole integration. Without attach() — or when the scenario has no spec
/// for this channel — every operation forwards straight to the inner Fifo:
/// one pointer test per write, nothing on reads.
///
/// A dropped write still executes a zero-length timed wait so the writer's
/// segment closes at the node like a real (completed) send would; the writer
/// cannot tell a dropped send from an instant one, which is the point.
template <typename T>
class FaultyFifo {
 public:
  explicit FaultyFifo(std::string name, std::size_t capacity = 16)
      : inner_(std::move(name), capacity) {}

  /// Binds this channel to a scenario (typically once per campaign run,
  /// right after construction). Resets nothing else: construct fresh
  /// channels per run for reproducible streams.
  void attach(const FaultScenario& scenario) {
    faults_.attach(scenario, inner_.name());
  }
  void detach() { faults_.detach(); }

  void write(T v) { detail::faulty_write(faults_, inner_, std::move(v)); }

  bool nb_write(T v) {
    minisc::Time delay;
    switch (faults_.draw(delay)) {
      case detail::ChannelFaults::Action::kDrop:
        return true;  // the writer believes the send succeeded
      case detail::ChannelFaults::Action::kDuplicate:
        inner_.nb_write(v);
        return inner_.nb_write(std::move(v));
      case detail::ChannelFaults::Action::kDelay:
        // A non-blocking write cannot be held; model the delay as a drop of
        // the timing fault only (deliver immediately).
        return inner_.nb_write(std::move(v));
      case detail::ChannelFaults::Action::kDeliver:
        return inner_.nb_write(std::move(v));
    }
    return false;  // unreachable
  }

  // Reads are unaffected by link faults: forward verbatim.
  T read() { return inner_.read(); }
  std::optional<T> read_for(minisc::Time timeout) {
    return inner_.read_for(timeout);
  }
  bool nb_read(T& out) { return inner_.nb_read(out); }

  std::size_t num_available() const { return inner_.num_available(); }
  std::size_t num_free() const { return inner_.num_free(); }
  std::size_t capacity() const { return inner_.capacity(); }
  const std::string& name() const { return inner_.name(); }

  std::uint64_t dropped() const {
    return detail::both_states(fault_counts().dropped);
  }
  std::uint64_t duplicated() const {
    return detail::both_states(fault_counts().duplicated);
  }
  std::uint64_t delayed() const {
    return detail::both_states(fault_counts().delayed);
  }
  /// Per-state draw record — feed to channel_log_lr for importance weights.
  const ChannelFaultCounts& fault_counts() const { return faults_.counts; }

 private:
  minisc::Fifo<T> inner_;
  detail::ChannelFaults faults_;
};

/// Rendezvous counterpart of FaultyFifo. Duplication delivers the value to
/// two successive readers (the second rendezvous blocks the writer until a
/// reader shows up, like any rendezvous write).
template <typename T>
class FaultyRendezvous {
 public:
  explicit FaultyRendezvous(std::string name) : inner_(std::move(name)) {}

  void attach(const FaultScenario& scenario) {
    faults_.attach(scenario, inner_.name());
  }
  void detach() { faults_.detach(); }

  void write(T v) { detail::faulty_write(faults_, inner_, std::move(v)); }

  T read() { return inner_.read(); }
  std::optional<T> read_for(minisc::Time timeout) {
    return inner_.read_for(timeout);
  }

  const std::string& name() const { return inner_.name(); }

  std::uint64_t dropped() const {
    return detail::both_states(fault_counts().dropped);
  }
  std::uint64_t duplicated() const {
    return detail::both_states(fault_counts().duplicated);
  }
  std::uint64_t delayed() const {
    return detail::both_states(fault_counts().delayed);
  }
  /// Per-state draw record — feed to channel_log_lr for importance weights.
  const ChannelFaultCounts& fault_counts() const { return faults_.counts; }

 private:
  minisc::Rendezvous<T> inner_;
  detail::ChannelFaults faults_;
};

}  // namespace scfault
