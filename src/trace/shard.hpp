#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "trace/campaign.hpp"
#include "trace/journal.hpp"

namespace sctrace {

/// Sharded fleet-scale campaigns over a shared journal directory.
///
/// One campaign of `total_runs` seeds is split into `shard_count` contiguous
/// chunks; N independent *worker processes* — different PIDs, potentially
/// different machines on a shared filesystem — each claim disjoint shards,
/// run them through the ordinary FaultCampaign journal machinery, and a
/// final merge step folds the shard journals back into the byte-identical
/// single-process report()/write_csv() output. A CampaignSweep grid — the
/// paper's mapping×scenario design-space exploration — fleets the same way
/// with one shard per grid *cell* (run_sharded_sweep), and a sweep fleet is
/// the one durable way to run a sweep.
///
/// One layout: the first worker pins `<dir>/fleet.manifest` (FleetManifest),
/// and the manifest alone names every *unit* — one shard of one cell, with
/// one lease, one journal, one quarantine tombstone and the JournalHeader
/// its journal must carry. A unit's journal is an ordinary campaign journal
/// over the unit's seeds: its header pins the slot by base seed and run
/// count, the file name (unit_file) carries the unit's index and count, and
/// nothing else records the layout. The workers, both merges and fleet_status all derive that
/// unit table from the manifest and read each unit the same way, so no two
/// readers of a fleet directory can disagree about it: a file outside the
/// pinned layout is ignored, and a journal whose header is not its unit's
/// (identity_mismatch) never counts as complete. A slow-but-alive worker
/// keeps its unit; only a worker whose heartbeat stops for a full TTL loses
/// it, to adoption.
///
/// Coordination is filesystem-only, built from two atomic primitives:
///
///   - claim:  open(lease, O_CREAT | O_EXCL) — exactly one creator wins;
///   - adopt:  a stale lease (heartbeat mtime older than the TTL: its worker
///     is dead) is replaced by rename(new lease, lease), which never leaves
///     the path empty. Racing adopters first O_EXCL-create a marker named
///     after the adoption generation, so exactly one survivor re-checks the
///     stale lease and replaces it; the others see the marker or the new
///     lease and back off.
///
/// A held lease is heartbeaten by refreshing its mtime from a background
/// thread. The TTL contract: a worker whose heartbeat stays fresher than
/// `lease_ttl_ms` owns its shard exclusively; a worker paused for longer
/// (SIGSTOP, VM freeze) may be adopted away and must treat its shard as
/// lost — the heartbeat thread detects the takeover (the lease file no
/// longer names this worker) and the next run raises LeaseLostError, which
/// aborts the shard instead of recording anything further. A heartbeat mtime
/// in the *future* beyond the TTL (restored snapshot, clock skew) is treated
/// as stale too — a lease no live worker is refreshing must never become
/// unadoptable just because a clock once lied forward.
///
/// Self-healing: adoption alone cannot save a fleet from a *poison* shard —
/// a seed that crashes every process that touches it, a full disk, a wedged
/// host — because each adopter dies in turn and the fleet crash-loops
/// forever. The lease file therefore records an adoption counter; a claim
/// that would adopt a shard past `max_adoptions` instead *quarantines* it:
/// the stale lease is atomically renamed to a `*.quarantined` tombstone
/// (exactly one winner, like adoption) recording the last owner, the
/// adoption count and the last recorded SimError. Quarantine is a
/// first-class terminal state, not an error — workers skip quarantined
/// shards, the fleet converges on everything else, `--allow-partial` merges
/// produce a clearly-marked degraded report, and fleet_status() names the
/// quarantined shard with its recorded error.
///
/// Determinism makes adoption safe: every run is a pure function of its
/// seed (DESIGN.md §7), and seeds are derived as base_seed + global index,
/// so the seeds a survivor re-runs produce bit-identical records to the
/// ones the dead worker would have written. Adoption resumes the dead
/// worker's journal and executes only the missing indices — the merged
/// output cannot tell who ran what.
///
/// Elastic layout: the fleet directory, not the command line, is the
/// authority on layout, and the pinned manifest never changes. A campaign
/// worker launched with shard_count == 0 takes the shard count from the
/// manifest. A fleet grows by over-partitioning: lay it out with more shards
/// than workers, and every worker that joins later claims the shards nobody
/// holds yet.

/// Half-open global run-index range [begin, end) of one shard.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const { return end - begin; }
  bool empty() const { return begin == end; }
};

/// Canonical contiguous partition of [0, total_runs) into shard_count
/// chunks: the first total_runs % shard_count shards get one extra run.
/// Every participant derives it from the pinned manifest; a shard journal's
/// header carries its slot as base seed (manifest base seed + begin) and run
/// count.
ShardRange shard_range(std::size_t shard, std::size_t shard_count,
                       std::size_t total_runs);

/// "<dir>/unit_<i>_of_<n><ext>": unit i's journal (".journal"), lease
/// (".lease") or quarantine tombstone (".quarantined") in a fleet of n
/// units. The unit count is in every name, so the files of one layout can
/// never be mistaken for those of another.
std::string unit_file(const std::string& dir, std::size_t unit,
                      std::size_t units, const char* ext);

/// Parsed content of a lease file (or of the quarantine tombstone it became).
/// The format is line-based, one key per line:
///
///   owner <worker id>
///   adoptions <count>
///   error <last recorded SimError text, single sanitized line>   (optional)
///
/// Missing keys parse as their defaults and unknown keys are ignored (a
/// tombstone adds "quarantined-by <worker>"). Content with no owner line
/// parses as owner "", which names no worker: nobody's lease.
struct LeaseInfo {
  std::string owner;
  std::uint64_t adoptions = 0;
  std::string error;  ///< last recorded permanent SimError ("" = none)
};

/// Reads and parses the lease (or tombstone) at `path`. Returns false when
/// the file does not exist or cannot be read — never throws; status and
/// merge probes must not fail on a racing unlink.
bool read_lease_info(const std::string& path, LeaseInfo* out);

/// Thrown between runs when the heartbeat observed this worker's lease
/// taken over (the worker was paused past the TTL and a survivor adopted
/// the shard). Deliberately NOT a minisc::SimError: the campaign machinery
/// records SimErrors as failed-run data points, but a lost lease must abort
/// the shard — the adopter owns those records now.
struct LeaseLostError : std::runtime_error {
  explicit LeaseLostError(const std::string& what) : std::runtime_error(what) {}
};

/// One held shard lease: created by claim_shard_lease, heartbeaten by a
/// background thread, released (file unlinked) on destruction — unless the
/// lease was observed lost, in which case the file belongs to the adopter
/// and is left alone, or the lease was abandon()ed, in which case it is
/// deliberately left to go stale so another worker can adopt it (and the
/// adoption counter can eventually quarantine it).
class ShardLease {
 public:
  ~ShardLease();
  ShardLease(const ShardLease&) = delete;
  ShardLease& operator=(const ShardLease&) = delete;

  const std::string& path() const { return path_; }
  const std::string& worker_id() const { return worker_id_; }
  /// True when this claim adopted a stale lease from a dead worker.
  bool adopted() const { return adoptions_ > 0; }
  /// How many times this shard has been adopted, this claim included.
  std::uint64_t adoptions() const { return adoptions_; }
  /// True once a probe saw another worker's id (or no owner) in the lease
  /// file.
  bool lost() const { return lost_.load(std::memory_order_acquire); }
  /// Non-empty once the heartbeat failed to refresh the lease mtime: the
  /// errno text of the failed utimensat (EIO, ENOSPC, ...). The fleet loop
  /// surfaces it as a structured minisc::SimError(kIoError) between runs.
  std::string io_error() const;

  /// Rewrites the lease content with `error` recorded (atomic rename, so a
  /// concurrent ownership probe reads either the old or the new content,
  /// never a torn one). The error survives adoption: each adopter carries
  /// it forward, and the quarantine tombstone records the last one.
  void record_error(const std::string& error);

  /// Synchronous loss probe: re-reads the lease and throws LeaseLostError
  /// (marking the lease lost) unless it still names this worker. The fleet
  /// loop installs this as the campaign's pre-append hook. It is adoption's
  /// guard against a displaced owner's appends: a worker paused past the
  /// TTL and adopted away aborts *before* its next record lands on disk,
  /// so the unit's journal only ever grows under the lease that owns it.
  /// Thread-safe.
  void assert_still_mine();

  /// Stops the heartbeat and unlinks the lease (no-op if lost or released).
  void release();

  /// Stops the heartbeat but leaves the lease file in place: the shard is
  /// deliberately surrendered to go stale, so any worker (this one included)
  /// can adopt it after the TTL — and the adoption counter keeps counting
  /// toward quarantine. This is how a worker walks away from a shard whose
  /// execution failed permanently without crash-looping on it.
  void abandon();

 private:
  friend std::unique_ptr<ShardLease> claim_shard_lease(
      const std::string& path, const std::string& worker_id,
      std::uint64_t lease_ttl_ms, std::uint64_t heartbeat_ms,
      std::uint64_t max_adoptions);

  ShardLease(std::string path, std::string worker_id, std::uint64_t ttl_ms,
             std::uint64_t heartbeat_ms, std::uint64_t adoptions,
             std::string carried_error);
  void beat_loop(std::uint64_t heartbeat_ms);
  void stop_beat();
  /// Probe helper shared by assert_still_mine, the heartbeat and release:
  /// true when the lease file still names this worker. This worker only
  /// ever replaces its lease by atomic rename, so the probe never sees its
  /// own lease missing.
  bool still_mine() const;

  std::string path_;
  std::string worker_id_;
  std::uint64_t adoptions_ = 0;
  std::string error_;  ///< recorded error content (carried or own)
  std::atomic<bool> lost_{false};
  bool released_ = false;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::string io_error_;
  std::thread beat_;
};

/// Claims the lease at `path` for `worker_id`: a fresh O_EXCL create if no
/// lease exists, an adopt (a new lease with the adoption counter
/// incremented, renamed over the old one) if one exists but its heartbeat
/// mtime is outside
/// the TTL window — older than `lease_ttl_ms`, or more than `lease_ttl_ms`
/// in the future (clock skew: nobody is refreshing that mtime either).
/// On success returns the held lease, heartbeating every `heartbeat_ms`
/// (0 = ttl / 4, which is what fleet workers use).
///
/// Throws minisc::SimError:
///   - kLeaseConflict (*transient*, see minisc::is_transient) when the lease
///     is held by a live worker or another claimer won the race;
///   - kShardQuarantined when the shard's quarantine tombstone exists, or
///     when this claim would adopt the shard past `max_adoptions` — in which
///     case this claim *performs* the quarantine first: the stale lease is
///     atomically renamed to the tombstone (exactly one winner) and the
///     tombstone records the last owner, adoption count and last recorded
///     error. Terminal, not retryable: the fleet loop marks the shard
///     quarantined and moves on. max_adoptions == 0 disables quarantine.
///   - kBadConfig for empty worker ids; kIoError for I/O failures.
std::unique_ptr<ShardLease> claim_shard_lease(const std::string& path,
                                              const std::string& worker_id,
                                              std::uint64_t lease_ttl_ms,
                                              std::uint64_t heartbeat_ms = 0,
                                              std::uint64_t max_adoptions = 0);

/// How one worker should participate in a sharded campaign or sweep.
struct ShardOptions {
  /// Shared journal directory (created if missing). All workers of one
  /// campaign must point at the same directory.
  std::string dir;
  /// This worker's identity: its *preferred first shard* (workers start
  /// claiming at their own index and roam upward, so a fleet spreads out
  /// instead of stampeding shard 0) — "--shard i/N" on the benches. For
  /// sweeps this is the preferred first *cell* (taken modulo the grid size).
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  /// Unique id for lease files; "" derives "w<shard_index>.pid<pid>".
  std::string worker_id;
  /// Heartbeat staleness threshold for adoption. A held lease is
  /// heartbeaten every lease_ttl_ms / 4, so the TTL must comfortably exceed
  /// that plus the worst scheduler pause a live worker can suffer.
  std::uint64_t lease_ttl_ms = 10000;
  /// Adoption cap: a shard adopted this many times whose next claim would
  /// adopt it again is quarantined instead (see claim_shard_lease). One
  /// poison seed can therefore crash-loop the fleet at most max_adoptions
  /// times before being tombstoned out of the claim pass. 0 = unlimited
  /// (the pre-quarantine behaviour: adopt forever).
  std::uint64_t max_adoptions = 3;
  /// Delay between claim passes once every remaining shard is leased by a
  /// live peer (the waiting-for-the-fleet idle loop).
  std::uint64_t poll_ms = 200;
};

/// What one worker did. fleet_done is the fleet-level statement: every
/// shard was either complete or quarantined when this worker exited;
/// campaign_complete is the stricter claim that every shard's journal held
/// all its records (nothing quarantined, nothing missing).
struct ShardProgress {
  std::size_t shards_run = 0;      ///< shards this worker completed
  std::size_t shards_adopted = 0;  ///< of those, adopted from dead workers
  std::size_t runs_executed = 0;   ///< seeds actually simulated here
  std::size_t lease_conflicts = 0; ///< claims lost to live peers (transient)
  std::size_t shards_lost = 0;     ///< own leases adopted away mid-shard
  /// Shards observed in the quarantine terminal state (tombstone present),
  /// whether this worker performed the quarantine or merely found it.
  std::size_t shards_quarantined = 0;
  /// Shards this worker walked away from after a permanent SimError escaped
  /// their execution (journal I/O failure, unhealable corruption, config
  /// mismatch): the error was recorded in the lease, the lease was left to
  /// go stale, and the adoption counter will eventually quarantine the
  /// shard if every adopter fails the same way.
  std::size_t shards_abandoned = 0;
  bool campaign_complete = false;  ///< all shards complete, none quarantined
  bool fleet_done = false;         ///< all shards complete OR quarantined
};

/// The layout of a fleet directory, pinned in `<dir>/fleet.manifest` by the
/// first worker; it never changes. A campaign fleet has no grid and `shards`
/// shards, a sweep fleet a grid with one shard per cell. Unit i is shard
/// i % shards of cell i / shards, and its journal header is {base_seed +
/// its shard_range begin, the range size, scenario_digest, cell_tag}.
struct FleetManifest {
  std::uint64_t base_seed = 0;
  std::size_t runs = 0;    ///< seeds per cell (a campaign's total)
  std::size_t shards = 0;  ///< shards per cell
  std::uint64_t scenario_digest = 0;
  std::string tag;
  std::vector<std::string> mappings;   ///< the grid; empty for a campaign
  std::vector<std::string> scenarios;

  bool grid() const { return !mappings.empty(); }
  std::size_t units() const {
    return (grid() ? mappings.size() * scenarios.size() : 1) * shards;
  }
  /// Grid-order cell identity: index = mapping_index * |scenarios| +
  /// scenario_index, mirroring CampaignSweep::run's execution order.
  const std::string& cell_mapping(std::size_t cell) const {
    return mappings[cell / scenarios.size()];
  }
  const std::string& cell_scenario(std::size_t cell) const {
    return scenarios[cell % scenarios.size()];
  }
  /// The journal tag of one cell: a campaign's tag, or a grid cell's
  /// "mapping/scenario", led by "<tag>:" when the fleet has a tag.
  std::string cell_tag(std::size_t cell) const;
};

/// Reads `<dir>/fleet.manifest`: the magic line "scperf-fleet v2", then
/// "key value" lines — base_seed, runs, shards, digest, tag, then one line
/// per mapping and per scenario. Throws minisc::SimError(kMergeIncomplete)
/// when missing (no fleet ever pinned a layout here) and kJournalCorrupt
/// when malformed: another magic line (a v1 manifest included, named in the
/// message), zero shards, mappings without scenarios or the reverse, or a
/// grid with more than one shard per cell, which no entry point writes.
FleetManifest read_fleet_manifest(const std::string& dir);

/// Runs one worker of a sharded campaign: claims shards (preferred first,
/// then roaming), executes each as a journaled+resumed FaultCampaign over
/// its seed range, adopts stale leases of dead workers, skips quarantined
/// shards, and keeps polling until every shard is complete or quarantined.
/// The CampaignOptions journal fields are overwritten per shard; threads,
/// retry, budgets, digest and tag apply as usual. A shard journal that does
/// not carry its shard's identity is claimed, refused on resume and
/// abandoned toward quarantine like any other permanent failure.
///
/// Layout authority: the first worker pins `<dir>/fleet.manifest`; every
/// later worker compares its own manifest with the pinned one and refuses
/// (kBadConfig, naming each differing field with both values) on
/// disagreement — a worker that differs only in its shard count is told to
/// relaunch elastic. shard.shard_count == 0 is *elastic* mode: the shard
/// count is taken from the manifest, which must already exist. An engaged
/// smc spec is refused (kBadConfig) before any shard runs when the manifest
/// pins more than one shard per cell: the sequential test eats a cell's
/// seeds in order.
ShardProgress run_sharded_campaign(const FaultCampaign::RunFn& fn,
                                   std::uint64_t base_seed,
                                   std::size_t total_runs,
                                   const ShardOptions& shard,
                                   const CampaignOptions& opts = {});

/// Runs one worker of a sharded CampaignSweep: a fleet with one shard per
/// (mapping, scenario) grid cell, claimed, adopted and quarantined exactly
/// like campaign shards — so a fleet of workers spreads across the grid,
/// survivors adopt the cells of dead workers, and a poison cell is
/// quarantined after max_adoptions instead of crash-looping the fleet. The
/// manifest is pinned and verified as in run_sharded_campaign, and a cell is
/// a whole campaign over the common seeds, so an smc spec prunes each cell
/// independently. shard.shard_index is the preferred starting cell;
/// shard.shard_count is ignored (the grid defines the unit count).
ShardProgress run_sharded_sweep(const std::vector<std::string>& mappings,
                                const std::vector<std::string>& scenarios,
                                const CampaignSweep::Factory& factory,
                                std::uint64_t base_seed, std::size_t n,
                                const ShardOptions& shard,
                                const CampaignOptions& opts = {});

/// How a merge should treat an unfinished fleet.
struct MergeOptions {
  /// False (default): a unit that is not complete (missing journal, missing
  /// records, quarantined) refuses with kMergeIncomplete — merging a partial
  /// fleet silently would bias every statistic the campaign measures.
  /// True: produce a clearly-marked degraded result instead — complete=false
  /// with every unit's state listed, statistics over the recorded runs only.
  /// Identity refusals (a journal of another format version, or one that
  /// does not carry its unit's identity) are never relaxed: those are wrong
  /// fleets, not partial ones.
  bool allow_partial = false;
};

/// State of one work unit (campaign shard or sweep cell) as a merge found it.
enum class UnitState {
  kComplete,     ///< journal holds every run record
  kPartial,      ///< journal exists but records are missing (or unreadable)
  kMissing,      ///< no journal at all
  kQuarantined,  ///< tombstone present — terminal, never going to complete
};

const char* to_string(UnitState s);

/// One work unit of a merged fleet, as both merges report it.
struct MergedUnit {
  std::size_t index = 0;  ///< shard index, or cell index for sweeps
  std::string name;       ///< "shard 2/4" or "mapping/scenario"
  UnitState state = UnitState::kMissing;
  std::size_t records = 0;  ///< run records recovered
  std::size_t runs = 0;     ///< records expected (the unit's slot, or the
                            ///< decision's executed count when it stopped
                            ///< early)
  LeaseInfo tomb;     ///< the tombstone's record, when quarantined
  std::string error;  ///< quarantine summary / read-failure note
};

/// A merged campaign: the global identity plus every run in global order.
/// Feed `results` to FaultCampaign's results constructor for report() /
/// write_csv() byte-identical to the uninterrupted single-process run.
/// A partial merge (MergeOptions::allow_partial against an unfinished
/// fleet) sets complete=false, reports each shard's state in `units`, and
/// compacts `results` to the recorded runs in global order — deterministic
/// for any thread count and any worker interleaving, because journals hold
/// the same records no matter who wrote them.
struct MergedCampaign {
  std::uint64_t base_seed = 0;  ///< campaign-wide, from the manifest
  std::size_t runs = 0;         ///< total across all shards
  std::uint64_t scenario_digest = 0;
  std::string tag;
  std::size_t shard_count = 0;
  std::vector<CampaignRunResult> results;

  /// Sequential verdict recovered from the journal's decision record (only
  /// legal with one shard per cell — an smc campaign is never sharded).
  /// With a decision, `results` covers the *executed* runs and the merge is
  /// complete at that count: attach it to the rebuilt campaign via
  /// FaultCampaign::set_smc_verdict for byte-identical report/CSV output.
  std::optional<JournalDecision> decision;

  bool complete = true;  ///< every unit complete
  std::vector<MergedUnit> units;  ///< one per shard, in shard order
};

/// Folds a campaign fleet directory into one campaign: reads
/// `<dir>/fleet.manifest` and opens each shard's canonical journal, so a
/// file outside the pinned layout is never read. Refuses, with a
/// structured minisc::SimError (identity refusals in partial mode too):
///   - kMergeIncomplete: no manifest; kBadConfig: a sweep fleet's manifest
///     (a grid), which merge_sweep_dir merges;
///   - kShardVersionMismatch: a journal of another format version than
///     JournalHeader::kVersion, naming both versions;
///   - kBadConfig: a journal that does not carry its shard's identity
///     (naming the journal and each differing field with both values), or
///     a decision record when the manifest pins more than one shard per
///     cell; kJournalCorrupt (or kBadConfig) for a journal that does not
///     read;
///   - kMergeIncomplete, unless opts.allow_partial: a shard that is not
///     complete (quarantined, missing or partial) — merging a partial fleet
///     *silently* would bias every statistic the campaign exists to
///     measure, so one message lists every unfinished unit at once (the
///     sweep merge refuses through the same message). allow_partial makes
///     the bias explicit instead: see MergedCampaign::units.
MergedCampaign merge_shard_dir(const std::string& dir,
                               const MergeOptions& opts = {});

/// One cell of a merged sweep: its unit state plus its grid position and
/// recovered runs.
struct MergedSweepCell : MergedUnit {
  std::string mapping;
  std::string scenario;
  /// Recovered results in seed order (complete and partial cells).
  std::vector<CampaignRunResult> results;
  /// Sequential verdict of an early-stopped (pruned) cell: the cell is
  /// complete at decision->executed records, and to_sweep() re-attaches the
  /// verdict so the rebuilt grid renders the same markers and CSV columns.
  std::optional<JournalDecision> decision;
};

/// A merged sweep: the manifest identity plus every cell in grid order.
/// When complete, to_sweep()/print()/write_csv() are byte-identical to the
/// uninterrupted single-process CampaignSweep. When degraded (allow_partial
/// against an unfinished fleet), print() emits a clearly-marked DEGRADED
/// banner, the grid with '-' holes, and one line per unfinished cell;
/// write_csv() appends records/runs/state columns so no downstream reader
/// can mistake a partial grid for a finished one.
struct MergedSweep {
  FleetManifest manifest;
  std::vector<MergedSweepCell> cells;  ///< grid order, one per unit
  bool complete = true;

  std::size_t complete_cells() const;
  std::size_t quarantined_cells() const;

  /// Rebuilds the CampaignSweep (complete cells only; when complete==true
  /// this is the byte-identical single-process sweep).
  CampaignSweep to_sweep() const;
  void print(std::ostream& os) const;
  void write_csv(std::ostream& os) const;
};

/// Folds a sweep fleet directory into one MergedSweep, reading each cell of
/// the pinned `<dir>/fleet.manifest` the way merge_shard_dir reads a shard,
/// and refusing (kBadConfig) a campaign fleet's manifest (no grid), which
/// merge_shard_dir merges. Identity refusals (another format version, a
/// journal that does not carry its cell's identity) always throw; an
/// otherwise unreadable journal makes its cell partial.
/// Missing/partial/quarantined cells throw kMergeIncomplete unless
/// opts.allow_partial, which returns the degraded MergedSweep instead.
MergedSweep merge_sweep_dir(const std::string& dir,
                            const MergeOptions& opts = {});

// ---- read-only fleet status ------------------------------------------------

/// State of one work unit (campaign shard or sweep cell), derived purely
/// from reading the fleet directory — stat() and read() only, no writes, no
/// lease traffic: observing a fleet must never perturb it.
struct ShardStatusEntry {
  enum class State {
    kDone,         ///< journal complete
    kClaimed,      ///< live lease (heartbeat within TTL)
    kStale,        ///< lease present but heartbeat outside TTL (dead worker)
    kQuarantined,  ///< tombstone present — terminal
    kUnclaimed,    ///< no lease, journal incomplete
  };

  std::size_t index = 0;
  std::string name;  ///< "shard 0/4" or "mapping/scenario"
  State state = State::kUnclaimed;
  std::string owner;            ///< lease/tombstone owner ("" when none)
  std::uint64_t adoptions = 0;  ///< adoption counter from the lease/tombstone
  /// Milliseconds since the lease heartbeat; negative = mtime in the future
  /// (clock skew). Meaningful for kClaimed/kStale only.
  std::int64_t heartbeat_age_ms = 0;
  std::size_t records = 0;  ///< journal records present
  std::size_t runs = 0;     ///< records expected
  std::string error;        ///< recorded/quarantined SimError text ("" = none)
};

const char* to_string(ShardStatusEntry::State s);

/// Snapshot of a whole fleet.
struct FleetStatus {
  std::size_t units = 0;  ///< shard or cell count
  std::size_t done = 0, claimed = 0, stale = 0, quarantined = 0, unclaimed = 0;
  std::size_t records = 0, runs = 0;  ///< run-record totals across units
  std::vector<ShardStatusEntry> entries;

  /// The fleet-level terminal statement: every unit done or quarantined.
  bool fleet_done() const { return done + quarantined == units && units > 0; }
};

/// Reads the status of a fleet directory: one entry per unit of its pinned
/// manifest — per shard ("shard 2/4") of a campaign fleet, per grid cell
/// ("mapping/scenario") of a sweep fleet. A unit is done when its journal
/// carries the unit's identity and records every owed run.
/// `lease_ttl_ms` classifies claimed vs stale (use the fleet's TTL). Throws
/// kMergeIncomplete when no manifest exists (no fleet ever started here)
/// and kJournalCorrupt when it is malformed.
FleetStatus fleet_status(const std::string& dir,
                         std::uint64_t lease_ttl_ms = 10000);

/// Renders a FleetStatus: a one-line fleet summary, then one line per unit
/// (state, progress, owner, heartbeat age, adoption count, recorded error).
void print_fleet_status(std::ostream& os, const FleetStatus& status);

}  // namespace sctrace
