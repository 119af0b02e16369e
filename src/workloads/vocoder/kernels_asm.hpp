#pragma once

#include <cstdint>
#include <vector>

#include "iss/machine.hpp"

namespace workloads::vocoder {

/// Per-stage accumulated ISS cycles across all processed frames — the
/// "target platform estimation" reference column of Table 3.
struct StageCycles {
  std::uint64_t lsp = 0;
  std::uint64_t lpc_int = 0;
  std::uint64_t acb = 0;
  std::uint64_t icb = 0;
  std::uint64_t post = 0;

  std::uint64_t total() const { return lsp + lpc_int + acb + icb + post; }
};

/// Drives the five vocoder kernels, hand-compiled to orsim assembly, on a
/// single ISS instance whose memory holds all codec state (LPC sets,
/// excitation history, filter memory) across frames — mirroring exactly the
/// stage sequencing of the annotated pipeline so per-stage cycle counts and
/// the final checksum are directly comparable.
class IssVocoder {
 public:
  /// `blocks` switches the Machine's block path (on by default).
  explicit IssVocoder(const iss::BlockCacheConfig& blocks = {});

  /// Processes one frame through all five stages; returns the frame
  /// checksum (sum of the four subframe checksums from post-processing).
  long process_frame(const std::vector<std::int32_t>& frame);

  const StageCycles& cycles() const { return cycles_; }
  const iss::Machine& machine() const { return m_; }

 private:
  /// Calls `fn` and charges its cycles to `*bucket`.
  std::int32_t timed_call(const char* fn, std::uint64_t* bucket);

  iss::Machine m_;
  StageCycles cycles_;
};

}  // namespace workloads::vocoder
