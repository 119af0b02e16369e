#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "core/report.hpp"
#include "kernel/time.hpp"
#include "workloads/vocoder/kernels_asm.hpp"

namespace workloads::vocoder {

/// Canonical names of the five concurrent processes, in pipeline order —
/// the row labels of the paper's Table 3.
inline constexpr const char* kProcessNames[5] = {
    "LSP estim.", "LPC int.", "ACB sear.", "ICB sear.", "Post Proc."};

struct AnnotatedResult {
  long checksum = 0;
  /// Library-estimated computation cycles per process.
  std::map<std::string, double> process_cycles;
  /// Estimated energy per process in picojoules (filled when
  /// PipelineConfig::with_energy is set).
  std::map<std::string, double> process_energy_pj;
  minisc::Time sim_time;
  scperf::Report report;
};

struct PipelineConfig {
  int frames = 20;
  double cpu_mhz = 50.0;
  double rtos_cycles_per_switch = 0.0;
  /// 1 or 2 processors. With 2, the adaptive-codebook search (the dominant
  /// process) gets its own CPU — a natural architectural-mapping candidate.
  int num_cpus = 1;
  /// When true, "Post Proc." maps to a 100 MHz HW resource instead of the
  /// CPU (the paper's Table 4 configuration) with the given k.
  bool postproc_on_hw = false;
  double hw_k = 0.0;
  /// Attach energy tables to every resource and fill process_energy_pj.
  bool with_energy = false;
};

/// Runs the five-process annotated pipeline on minisc with the estimation
/// library installed: the paper's Table 3 "Library estimation" column (and,
/// with postproc_on_hw, the Table 4 configuration).
AnnotatedResult run_annotated(const PipelineConfig& cfg);

/// Sequential plain-C++ execution of the same dataflow: the functional
/// reference and the host-time baseline.
long run_reference(int frames);

struct IssPipelineResult {
  long checksum = 0;
  StageCycles cycles;
};

/// The same dataflow with every kernel executed on the orsim ISS: the
/// "target platform" reference column of Table 3.
IssPipelineResult run_iss(int frames);

}  // namespace workloads::vocoder
