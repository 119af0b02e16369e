// Fleet flags shared by the fault benches: one parser and one --help block
// for --shard, --shard-dir, --lease-ttl-ms, --max-adoptions, --status,
// --merge and --allow-partial (print_fleet_help says what each does), one
// status printout, one worker summary line and one merge exit code. A unit
// is a campaign shard in ablation_fault_resilience and a sweep cell in
// ablation_fault_correlated.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include "kernel/error.hpp"
#include "trace/shard.hpp"

struct FleetCli {
  bool shard = false;  ///< --shard i/N given
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  std::string shard_dir;  ///< --shard-dir, or the bench's default
  bool shard_dir_given = false;
  std::uint64_t lease_ttl_ms = 10000;
  std::uint64_t max_adoptions = 3;
  bool status = false;
  bool merge = false;
  bool allow_partial = false;

  /// True for a worker process: --shard, or --shard-dir alone (elastic).
  bool worker() const { return shard || shard_dir_given; }

  /// Consumes argv[i], and its value, when it is a fleet flag. A malformed
  /// --shard prints why and exits 1.
  bool parse(int argc, char** argv, int& i) {
    const char* flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (std::strcmp(flag, "--shard") == 0 && has_value) {
      if (std::sscanf(argv[++i], "%zu/%zu", &shard_index, &shard_count) != 2 ||
          shard_count == 0 || shard_index >= shard_count) {
        std::printf("bad --shard '%s' (want i/N with i < N)\n", argv[i]);
        std::exit(1);
      }
      shard = true;
    } else if (std::strcmp(flag, "--shard-dir") == 0 && has_value) {
      shard_dir = argv[++i];
      shard_dir_given = true;
    } else if (std::strcmp(flag, "--lease-ttl-ms") == 0 && has_value) {
      lease_ttl_ms = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(flag, "--max-adoptions") == 0 && has_value) {
      max_adoptions = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(flag, "--status") == 0) {
      status = true;
    } else if (std::strcmp(flag, "--merge") == 0) {
      merge = true;
    } else if (std::strcmp(flag, "--allow-partial") == 0) {
      allow_partial = true;
    } else {
      return false;
    }
    return true;
  }

  /// An elastic worker (--shard-dir alone) reads the layout once, from the
  /// fleet manifest in `dir`: the pinned base seed and run count overwrite
  /// the caller's, and the worker joins as worker 0 of the pinned shard
  /// count. A bench that runs several fleets in turn reads the first one's;
  /// the later fleets share its layout, and a joiner that reaches one before
  /// any other worker has pinned it pins it itself.
  void read_layout(const std::string& dir, std::uint64_t* base_seed,
                   std::size_t* runs) {
    const sctrace::FleetManifest m = sctrace::read_fleet_manifest(dir);
    *base_seed = m.base_seed;
    *runs = m.runs;
    shard_count = m.shards;
  }

  sctrace::ShardOptions worker_options(const std::string& dir) const {
    sctrace::ShardOptions so;
    so.dir = dir;
    so.shard_index = shard_index;
    so.shard_count = shard_count;
    so.lease_ttl_ms = lease_ttl_ms;
    so.max_adoptions = max_adoptions;
    return so;
  }

  sctrace::MergeOptions merge_options() const {
    sctrace::MergeOptions mo;
    mo.allow_partial = allow_partial;
    return mo;
  }

  /// --status: prints the fleet in `dir` without touching it
  /// (sctrace::fleet_status) and returns true once every unit is done or
  /// quarantined. A directory no fleet has pinned prints why: not done.
  bool print_status(const std::string& dir) const {
    try {
      const sctrace::FleetStatus st = sctrace::fleet_status(dir, lease_ttl_ms);
      std::ostringstream os;
      sctrace::print_fleet_status(os, st);
      std::fputs(os.str().c_str(), stdout);
      return st.fleet_done();
    } catch (const minisc::SimError& e) {
      std::printf("  %s\n", e.what());
      return false;
    }
  }
};

inline void print_fleet_help() {
  std::printf(
      "fleet (a unit is one lease-claimable shard, or one sweep cell):\n"
      "  --shard i/N        run as worker i of an N-shard fleet; the first\n"
      "                     worker pins the layout in the fleet's manifest.\n"
      "                     A sweep fleet's units are its grid cells: i is\n"
      "                     the preferred first cell and N is unused\n"
      "  --shard-dir DIR    fleet directory; given ALONE it runs an elastic\n"
      "                     worker that reads the layout from the manifest.\n"
      "                     A layout never changes once pinned: grow a fleet\n"
      "                     by pinning more shards than workers\n"
      "  --lease-ttl-ms MS  lease staleness threshold (default 10000)\n"
      "  --max-adoptions K  quarantine a unit after K adoptions (default 3;\n"
      "                     0 = adopt forever)\n"
      "  --status           read-only progress of every unit (exit 0 once\n"
      "                     each is done or quarantined, 1 before)\n"
      "  --merge            fold the unit journals into the byte-identical\n"
      "                     single-process report and CSV\n"
      "  --allow-partial    with a merge: DEGRADED output (exit 3) instead\n"
      "                     of refusing an unfinished or quarantined fleet\n");
}

/// One worker's summary line, e.g. "worker 0/2: 3 shards run, adopted 1,
/// ..., campaign complete". Sweep workers count "cells" of a "sweep".
inline void print_worker_summary(const std::string& who,
                                 const sctrace::ShardProgress& p,
                                 const char* units = "shards",
                                 const char* whole = "campaign") {
  std::printf(
      "%s: %zu %s run, adopted %zu, %zu runs executed, %zu lease conflicts, "
      "%zu %s lost, %zu abandoned, %zu quarantined, %s %s\n",
      who.c_str(), p.shards_run, units, p.shards_adopted, p.runs_executed,
      p.lease_conflicts, p.shards_lost, units, p.shards_abandoned,
      p.shards_quarantined, whole,
      p.campaign_complete ? "complete"
                          : (p.fleet_done ? "done (degraded)" : "incomplete"));
}

/// Prints what a degraded campaign merge lacks, each line led by `who`, and
/// returns the exit code: 0 for a complete merge, 3 for a degraded one
/// (distinct so scripts can tell "publishable" from "salvaged").
inline int merge_exit_code(const std::string& who,
                           const sctrace::MergedCampaign& merged) {
  if (merged.complete) return 0;
  std::printf("%sDEGRADED merge: %zu of %zu runs recorded\n", who.c_str(),
              merged.results.size(), merged.runs);
  for (const sctrace::MergedUnit& u : merged.units) {
    if (u.state == sctrace::UnitState::kComplete) continue;
    std::printf("%s%s %s (%zu/%zu runs)%s%s\n", who.c_str(), u.name.c_str(),
                sctrace::to_string(u.state), u.records, u.runs,
                u.error.empty() ? "" : ": ", u.error.c_str());
  }
  return 3;
}
