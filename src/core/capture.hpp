#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "kernel/time.hpp"

namespace scperf {

/// One recorded capture event: the simulated time when the capture point
/// executed plus an optional associated value ("It is also possible to
/// associate values of internal signals of the system to these time values",
/// §4).
struct CaptureEvent {
  minisc::Time time;
  double value = 0.0;
};

class CapturePoint;

/// Owns the set of capture points of one analysis session and renders their
/// event lists "prepared for post-processing using mathematical tools" (§4).
/// Concurrency: registration (attach/detach, i.e. CapturePoint construction
/// and destruction) and the whole-registry readers below are mutex-guarded,
/// so capture points may be created and destroyed from campaign threads — in
/// particular against the process-wide global() registry — without racing.
/// Recording itself writes only the point's own event list, which belongs to
/// exactly one run; parallel campaign runs must therefore keep one
/// CaptureRegistry per run (DESIGN.md §7) or their points' events interleave
/// into one shared hash.
class CaptureRegistry {
 public:
  /// Process-wide default registry (capture points register here unless given
  /// an explicit one).
  static CaptureRegistry& global();

  void attach(CapturePoint& p);
  void detach(CapturePoint& p);

  /// Unsynchronised view: only meaningful while no other thread is
  /// attaching or detaching points.
  const std::vector<CapturePoint*>& points() const { return points_; }
  const CapturePoint* find(const std::string& name) const;

  /// time,point,value rows, one per event, chronologically per point.
  void write_csv(std::ostream& os) const;
  /// A Matlab script defining one Nx2 matrix [seconds value] per point.
  void write_matlab(std::ostream& os) const;

  /// Order-insensitive-across-points / order-sensitive-within-point hash of
  /// all captured VALUES (times excluded). Two runs of a deterministic
  /// specification — untimed and strict-timed — must produce equal hashes;
  /// a difference flags nondeterminism (§6).
  std::uint64_t value_sequence_hash() const;

  /// Drops all recorded events (keeps registrations).
  void clear_events();

 private:
  mutable std::mutex mu_;  ///< guards points_ (the pointer list, not events)
  std::vector<CapturePoint*> points_;
};

/// A user-insertable capture point: "The user can insert capture points
/// anywhere inside the code and a list of events corresponding to the
/// concrete times when the capture points were executed is generated" (§4).
class CapturePoint {
 public:
  explicit CapturePoint(std::string name,
                        CaptureRegistry& registry = CaptureRegistry::global());
  ~CapturePoint();
  CapturePoint(const CapturePoint&) = delete;
  CapturePoint& operator=(const CapturePoint&) = delete;

  /// Records an event at the current simulated time.
  void record(double value = 0.0);
  /// Conditional capture ("Capture points can be conditional to a certain
  /// assertion", §4).
  void record_if(bool condition, double value = 0.0);

  const std::string& name() const { return name_; }
  const std::vector<CaptureEvent>& events() const { return events_; }
  void clear() { events_.clear(); }

 private:
  std::string name_;
  CaptureRegistry* registry_;
  std::vector<CaptureEvent> events_;
};

}  // namespace scperf
