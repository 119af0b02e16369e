#include "core/capture.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <ostream>

#include "kernel/hash.hpp"
#include "kernel/simulator.hpp"

namespace scperf {

CaptureRegistry& CaptureRegistry::global() {
  static CaptureRegistry g;
  return g;
}

void CaptureRegistry::attach(CapturePoint& p) {
  const std::lock_guard<std::mutex> lock(mu_);
  points_.push_back(&p);
}

void CaptureRegistry::detach(CapturePoint& p) {
  const std::lock_guard<std::mutex> lock(mu_);
  points_.erase(std::remove(points_.begin(), points_.end(), &p),
                points_.end());
}

const CapturePoint* CaptureRegistry::find(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const CapturePoint* p : points_) {
    if (p->name() == name) return p;
  }
  return nullptr;
}

void CaptureRegistry::write_csv(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mu_);
  os << "time_ns,point,value\n";
  for (const CapturePoint* p : points_) {
    for (const CaptureEvent& e : p->events()) {
      os << e.time.to_ns_d() << ',' << p->name() << ',' << e.value << "\n";
    }
  }
}

void CaptureRegistry::write_matlab(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mu_);
  os << "% scperf capture-point event lists\n";
  for (const CapturePoint* p : points_) {
    // Sanitise the point name into a Matlab identifier.
    std::string var = p->name();
    for (char& c : var) {
      if (!(std::isalnum(static_cast<unsigned char>(c)) != 0)) c = '_';
    }
    os << var << " = [\n";
    for (const CaptureEvent& e : p->events()) {
      os << "  " << e.time.to_ns_d() * 1e-9 << ' ' << e.value << ";\n";
    }
    os << "];\n";
  }
}

std::uint64_t CaptureRegistry::value_sequence_hash() const {
  const std::lock_guard<std::mutex> lock(mu_);
  // FNV-1a per point (order-sensitive within a point), XOR-combined across
  // points (order-insensitive between points, since the strict-timed run may
  // legally interleave independent processes differently).
  std::uint64_t combined = 0;
  for (const CapturePoint* p : points_) {
    // Each name char is sign-extended to a word first.
    std::uint64_t h = minisc::kFnv1aBasis;
    for (char c : p->name()) {
      h = minisc::fnv1a_word(static_cast<std::uint64_t>(c), h);
    }
    for (const CaptureEvent& e : p->events()) {
      h = minisc::fnv1a_word(std::bit_cast<std::uint64_t>(e.value), h);
    }
    combined ^= h;
  }
  return combined;
}

void CaptureRegistry::clear_events() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (CapturePoint* p : points_) p->clear();
}

CapturePoint::CapturePoint(std::string name, CaptureRegistry& registry)
    : name_(std::move(name)), registry_(&registry) {
  registry_->attach(*this);
}

CapturePoint::~CapturePoint() { registry_->detach(*this); }

void CapturePoint::record(double value) {
  const minisc::Simulator* sim = minisc::Simulator::current_or_null();
  const minisc::Time t = sim != nullptr ? sim->now() : minisc::Time::zero();
  events_.push_back({t, value});
}

void CapturePoint::record_if(bool condition, double value) {
  if (condition) record(value);
}

}  // namespace scperf
