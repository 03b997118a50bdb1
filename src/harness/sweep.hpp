// Sweep runner: executes a grid of scenarios and aggregates per-point
// means across seeds.
//
// The grid is DECLARATIVE: a sweep is a base ScenarioSpec plus axes of
// `key = value` overrides (SweepAxis), so ANY spec parameter — protocol,
// node count, buffer size, TTL, mobility speeds, map shape — can be swept
// or ablated through the one engine, run_spec_sweep. The paper's protocol
// × node-count grid is the axes {protocol.name, scenario.nodes} over
// examples/helsinki_buses.cfg (examples/paper_figures.sh runs each figure).
//
// Execution engine (PR 3): runs fan out over the persistent shared thread
// pool with chunked dispatch — no per-run task/future allocations — and
// every worker keeps ONE ScenarioRunner whose World is reused (capacity
// retained) across all the runs that worker executes. Per-run scalar
// samples land in a per-task slot; the PointResult accumulators are folded
// serially in task order after the loop, so sweep aggregates are
// BIT-IDENTICAL for any thread count, any scheduling, and fresh- vs
// reused-world execution. The progress callback fires outside any merge
// path, serialized only against itself.
// Contact schedules: after resume filtering and shard selection, and before
// dealing, the sweep counts its tasks per contact key
// (contact_schedule_key: the spec and seed without the fields movement and
// detection never read) and announces each key with two or more tasks to
// one CampaignMemo per call, which every worker's runner shares. The first
// run of such a key makes the key's contact pass (routing-free, no
// traffic), and every run of the key replays it in place of moving nodes
// and detecting contacts, bit for bit; a run whose key's pass is in flight
// waits for it. A pass that throws or stops at its deadline leaves no
// schedule, and the key's next run makes it anew. The memo drops a
// schedule once its key's last task has started, so it holds at most one
// schedule per key with tasks to come (16 bytes per link event). It lives
// in this process, which is why a fleet whose points share keys gives each
// shard whole seeds (harness/fleet.hpp): the runs of a key then share one
// process and one pass.
// Detected-communities warm-ups go through the same memo, once per call.
// Multi-process fabric: one engine invocation can be narrowed to the
// points whose index satisfies index % shard_count == shard_index, and to
// the seeds [seed_base, seed_base + seeds) of a wider campaign; it
// journals into its own file under the fingerprint of its seed range.
// merge_sweep_journals folds any set of such journals that record no
// (point, seed) twice — each validated against the campaign fingerprint
// over its range — into final aggregates bit-identical to a
// single-process run, each point's seed ranges in seed order. The campaign
// scheduler (harness/fleet.hpp) cuts a campaign into such shards
// (fleet_tiles) and deals them to local worker processes and remote
// daemons.
// Crash safety (PR 6): with SpecSweepOptions::journal_path set,
// run_spec_sweep streams every COMPLETED grid point (all its seeds
// finished) as one checksummed record into an append-only journal
// (harness/journal.hpp) the moment it completes, fsync'd on a
// configurable cadence — a killed campaign keeps everything it finished.
// With resume = true the engine replays the journal first (validating a
// campaign fingerprint: base spec, axes, seeds, seed base), folds the
// replayed per-seed samples exactly as a live run would, and recomputes
// ONLY the missing points, so the final aggregates are bit-identical to an
// uninterrupted campaign (pinned by harness_journal_property_test and the
// dtnsim_crash_resume ctest). Per-point failure isolation
// (isolate_failures / retries / point_timeout_s) records a throwing or
// timed-out point as failed-with-reason instead of killing the campaign.
// Every attempt runs on its worker's own thread, and a timed-out one stops
// at its next step, so nothing of it outlives run_spec_sweep.
// SweepFaultPlan is the deterministic fault-injection hook the recovery
// tests drive (throw / hang / SIGKILL at a grid point or journal byte
// offset).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/scenario.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace dtn::harness {

/// Aggregated metrics for one sweep point across seeds.
struct PointResult {
  std::string protocol;
  int node_count = 0;
  int copies = 0;
  double alpha = 0.0;
  util::StatAccumulator delivery_ratio;
  util::StatAccumulator latency;
  util::StatAccumulator goodput;
  util::StatAccumulator control_mb;
  util::StatAccumulator relayed;
  util::StatAccumulator contacts;
};

/// One sweep dimension: a spec key (apply_override vocabulary) and the
/// values it takes. Axes combine as a cross product, first axis outermost.
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
};

/// Deterministic fault-injection hook for the crash-recovery tests (and
/// the hidden `dtnsim sweep --fault` flag). The plan fires on attempts of
/// grid point `point` (at most `fires` times, counted in `fired`), or —
/// for kKill — when the journal length reaches `journal_bytes`. kThrow
/// and kHang fire at the start of the attempt; kKill at `point` first
/// waits until every in-shard point below `point` is recorded, so the
/// killed journal holds those points at any thread count. Owned by the
/// caller; the engine only mutates `fired`. A fleet hands the plan to the
/// first attempt of every shard (harness/fleet.hpp), so a point-targeted
/// fault fires once in each shard that holds the point: with seed-group
/// shards, that is every shard.
struct SweepFaultPlan {
  enum class Action {
    kThrow,  ///< the attempt throws std::runtime_error("injected fault ...")
    kHang,   ///< the attempt sleeps hang_ms, or to its deadline, before running
    kKill    ///< raise(SIGKILL) — the process dies exactly as a crash would
  };
  Action action = Action::kThrow;
  /// Grid point whose attempts trigger the fault (cross-product index).
  std::size_t point = static_cast<std::size_t>(-1);
  /// kKill alternative trigger: fire once the journal reaches this length
  /// (checked after each record append, while the record is already
  /// flushed — "crash immediately after byte offset M").
  std::uint64_t journal_bytes = UINT64_MAX;
  /// kHang: injected stall before the simulation runs; it ends at the
  /// attempt's deadline (point_timeout_s) if that comes first.
  int hang_ms = 0;
  int fires = 1;    ///< max at-point activations (INT_MAX = every attempt)
  std::atomic<int> fired{0};
};

/// Declarative sweep: base spec + axis overrides.
struct SpecSweepOptions {
  ScenarioSpec base;
  std::vector<SweepAxis> axes;
  int seeds = 2;
  std::uint64_t seed_base = 1000;
  std::size_t threads = 0;  ///< 0 = hardware concurrency
  /// Optional progress callback (run label) invoked as runs finish. May
  /// fire from worker threads; calls are serialized against each other but
  /// never hold any merge/result lock.
  std::function<void(const std::string&)> progress;

  // ---- crash safety / failure isolation ------------------------------------
  /// Non-empty: stream each completed point into this append-only journal.
  std::string journal_path;
  /// Replay journal_path before executing (recompute only missing points).
  /// The journal must carry this campaign's fingerprint — base spec, axes,
  /// seeds, seed_base — or run_spec_sweep throws SweepJournalError. A
  /// missing journal file is NOT an error (fresh start, noted via `note`).
  bool resume = false;
  /// Journal fsync cadence in records: 1 (default) = every record survives
  /// power loss, N = at most N trailing records ride the page cache, 0 =
  /// flush-only (still survives process death).
  int sync_every = 1;
  /// When true, a point whose run throws (or times out) is recorded as
  /// failed-with-reason — in the results and the journal — instead of
  /// aborting the campaign. When false (default, the library behavior),
  /// the first failure is rethrown WITH the point key in its message.
  bool isolate_failures = false;
  /// Extra attempts per failed point-run (one seed's simulation) before
  /// the point is declared failed.
  int retries = 0;
  /// Wall-clock cap per point-run attempt, seconds; 0 = none. Once it has
  /// passed, the attempt stops at its next step (the event kernel: at its
  /// next TTL sweep) with the error "timed out after <S> s", its worker
  /// reuses the World, and it counts as a failure, subject to `retries`.
  /// A hang inside one step (a router that never returns) does not stop;
  /// the process fleet's worker timeout kills such a worker.
  double point_timeout_s = 0.0;
  /// Diagnostics channel (corrupt-tail warnings, resume notes). Serialized
  /// like `progress`; stderr in the CLI.
  std::function<void(const std::string&)> note;
  /// Test-only deterministic fault injection (see SweepFaultPlan).
  SweepFaultPlan* fault_plan = nullptr;
  /// The campaign memo the sweep's runners share (harness/scenario.hpp).
  /// Null (the default): a fresh memo for this call. Tests pass their own
  /// to read its counters; it cannot change a result bit.
  std::shared_ptr<CampaignMemo> memo;

  // ---- sharding (multi-process fabric) -------------------------------------
  /// Shard selector over the point cross-product: this invocation executes
  /// only points whose index satisfies `index % shard_count ==
  /// shard_index` — a deterministic, spec-independent assignment, so N
  /// cooperating processes given shard 0/N .. N-1/N cover the grid exactly
  /// once. Out-of-shard points come back with PointExec::Status::kSkipped
  /// and empty accumulators. The campaign fingerprint deliberately
  /// EXCLUDES the shard selector (like threads, it cannot change any
  /// result bit), so per-shard journals all carry the same fingerprint and
  /// merge_sweep_journals can validate them against each other. Defaults
  /// (0/1) mean "the whole grid". shard_count == 0 or shard_index >=
  /// shard_count throw std::invalid_argument.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
};

/// How one grid point was actually executed — the robustness metadata next
/// to its metrics. Serialized additively into dtnsim-sweep/1 (the "exec"
/// object) and into the journal.
struct PointExec {
  enum class Status { kOk, kFailed, kSkipped };
  Status status = Status::kOk;
  std::string error;    ///< first failure reason ("" when ok/skipped)
  int tries = 0;        ///< simulation attempts across all seeds (== seeds clean)
  double wall_ms = 0.0; ///< total attempt wall time (monotonic clock)
  bool resumed = false; ///< replayed from a journal, not recomputed
  /// Where this point's record was computed: "" = this process (serialized
  /// as "local"), "host:port" for a shard shipped back by a remote worker
  /// daemon. Set by merge_sweep_journals from its `origins` argument: a
  /// point that several shards computed a seed range each names every one,
  /// comma-separated in seed order ("local,host:port"). Volatile metadata
  /// (lives on the filtered `"exec` lines, not in the journal — any origin
  /// recomputes bit-identically).
  std::string origin;
  [[nodiscard]] bool ok() const noexcept { return status == Status::kOk; }
  [[nodiscard]] bool failed() const noexcept { return status == Status::kFailed; }
  /// Point belongs to another shard (see SpecSweepOptions::shard_index);
  /// it was neither executed nor journaled by this invocation.
  [[nodiscard]] bool skipped() const noexcept { return status == Status::kSkipped; }
};

/// One resolved grid point: the axis assignments that produced it plus the
/// aggregated metrics (PointResult meta fields are filled from the
/// resolved spec: protocol name, total node count, copies, alpha).
struct SpecPointResult {
  std::vector<std::pair<std::string, std::string>> overrides;  ///< key, value per axis
  PointResult result;
  PointExec exec;  ///< how the point ran (ok/failed, tries, wall, resumed)
  /// "key=value key=value" (empty for an axis-less sweep).
  [[nodiscard]] std::string label() const;
};

/// Thrown on journal problems that must stop a resume loudly instead of
/// silently recomputing or double-counting: a journal written by a
/// different campaign (fingerprint mismatch — base spec, axes, seeds, or
/// seed base changed), or an unopenable/unwritable journal path.
class SweepJournalError : public std::runtime_error {
 public:
  explicit SweepJournalError(const std::string& what) : std::runtime_error(what) {}
};

/// The refusal a resume gives for a journal written by a different
/// campaign — by run_spec_sweep, and by the campaign scheduler for each
/// foreign shard journal (harness/fleet.hpp).
std::string foreign_journal_refusal(const std::string& journal_path);

/// The campaign identity used by journals, resume, merge — and the
/// multi-host fabric's HELLO handshake (harness/remote.hpp): canonical
/// base spec + every axis + the seed schedule + grid size. Deliberately
/// EXCLUDES the shard selector and thread count (they cannot change any
/// result bit), so every shard of one campaign — local or remote —
/// carries the identical fingerprint.
std::string sweep_campaign_fingerprint(const SpecSweepOptions& options);

/// True when two grid points share a contact key (contact_schedule_key)
/// at the campaign's first seed, so that one process running both records
/// their contacts once. An event-kernel point's empty key shares nothing.
/// Throws like run_spec_sweep on a bad axis or an invalid point.
bool grid_shares_contact_key(const SpecSweepOptions& options);

/// Runs the declarative grid; points ordered by the axis cross product
/// (first axis outermost). Throws SpecError on an invalid axis key/value,
/// std::invalid_argument on specs that fail validation, and
/// SweepJournalError on journal/resume problems. Memory note: per-seed
/// samples are buffered only for IN-FLIGHT points (bounded by the worker
/// count, not the campaign length) — each point folds its accumulators
/// and releases its sample buffer the moment its last seed finishes,
/// which is also when its journal record is streamed out.
std::vector<SpecPointResult> run_spec_sweep(const SpecSweepOptions& options);

/// What merge_sweep_journals found across the shard journals.
struct SweepMergeStats {
  std::size_t journals_read = 0;   ///< journals that contributed >= 1 record
  std::size_t points_ok = 0;       ///< merged points that completed cleanly
  std::size_t points_failed = 0;   ///< merged failed-with-reason records
  std::size_t points_missing = 0;  ///< grid points no journal recorded
};

/// Folds N per-shard journals into the final campaign aggregates —
/// bit-identical to a single-process run of the same options (the per-seed
/// samples are journaled as hexfloats and re-folded in seed order, exactly
/// like `resume`). Each journal's header names its seed range: the
/// campaign's own, or a contiguous part of it (a seed-group shard). The
/// journal must carry THIS campaign's fingerprint over that range (base
/// spec, axes, seeds, seed base), and the range must lie inside the
/// campaign's; anything else is a foreign journal and throws
/// SweepJournalError loudly, before anything is sized by the header. No two
/// journals may record the same seed of the same point (overlapping shards
/// throw — silent double-counting is the one unforgivable merge bug). The
/// partition does NOT have to be the modulo assignment: any disjoint
/// covering (or partial covering) merges; within one journal the last
/// record per point wins (a resumed retry supersedes the failure it
/// retried). A point's tries and wall_ms are the sums over its journals,
/// and it fails with its first failure in seed order. Degradation is
/// graceful, not fatal: a missing or intact-record-free journal (a shard
/// killed before its header was durable) contributes nothing, and a grid
/// point that lacks any seed comes back failed-with-reason ("no shard
/// journal recorded this point") so the campaign completes with exit-1
/// semantics instead of refusing to publish the survivors. Unreadable
/// (existing but I/O-failing) paths throw.
/// `origins` (optional) labels each journal with where its shard ran —
/// aligned index-for-index with `journal_paths`, "" (or a short vector)
/// meaning "this host"; the labels land in PointExec::origin of every
/// point the journals contribute to and surface on the volatile `"exec`
/// lines of sweep_results_json.
std::vector<SpecPointResult> merge_sweep_journals(
    const SpecSweepOptions& options, const std::vector<std::string>& journal_paths,
    SweepMergeStats* stats = nullptr,
    const std::vector<std::string>& origins = {});

/// Offline journal diagnosis for `dtnsim journal <file>`: framing health
/// (intact records, valid prefix, torn tail) plus — when the first record
/// is a sweep campaign fingerprint — the campaign shape and per-point
/// record census. Never throws; missing/io_error report through the flags.
struct JournalInspection {
  bool missing = false;            ///< file does not exist
  bool io_error = false;           ///< file exists but could not be read
  std::size_t records = 0;         ///< intact records, header included
  std::uint64_t valid_bytes = 0;   ///< length of the intact prefix
  std::uint64_t dropped_bytes = 0; ///< torn/corrupt bytes behind it
  bool campaign = false;           ///< first record is a sweep fingerprint
  int seeds = 0;                   ///< campaign header: per-point seeds
  std::uint64_t seed_base = 0;     ///< campaign header: first seed
  std::size_t grid_points = 0;     ///< campaign header: grid size
  std::size_t axes = 0;            ///< campaign header: axis count
  std::size_t points_recorded = 0; ///< distinct point indices (latest wins)
  std::size_t points_ok = 0;
  std::size_t points_failed = 0;
  std::size_t malformed_records = 0;  ///< framed fine but unparsable payload
  /// Shard selector coverage implied by the recorded point indices, for
  /// offline audit of a shard dir (`dtnsim journal`): the LARGEST modulo
  /// assignment `index % modulus == residue` consistent with every index
  /// present (gcd of the pairwise differences). modulus == 0 means too few
  /// distinct indices to infer anything (0 or 1 recorded); modulus == 1
  /// means only the whole-grid selector 0/1 fits. A shard i/N journal
  /// reports modulus == k*N for some k >= 1 with residue ≡ i (mod N) —
  /// shard 2/4 that has only hit every other of its points reads 2/8.
  std::size_t shard_modulus = 0;
  std::size_t shard_residue = 0;
  /// Journal is safe to resume/merge as-is: it exists, read cleanly, lost
  /// no bytes, and every non-header record parsed.
  [[nodiscard]] bool intact() const noexcept {
    return !missing && !io_error && dropped_bytes == 0 && malformed_records == 0 &&
           records > 0;
  }
};
JournalInspection inspect_sweep_journal(const std::string& path);

/// One aggregated metric of a point, for sweep_table's columns and
/// `dtnsim run`'s summary.
enum class Metric { kDeliveryRatio, kLatency, kGoodput, kControlMb, kRelayed };

/// Flat table for arbitrary-axis sweeps: one row per point, axis columns
/// first, then every metric mean.
util::TablePrinter sweep_table(const std::vector<SpecPointResult>& results,
                               int precision = 4);

/// Machine-readable sweep results (`dtnsim sweep --out results.json`).
/// Stable schema "dtnsim-sweep/1":
///   {
///     "schema": "dtnsim-sweep/1",
///     "scenario": <base spec name>,
///     "seeds": <per-point repetitions>, "seed_base": <first seed>,
///     "axes": [{"key": ..., "values": [...]}, ...],
///     "execution": {"resumed_points": ..., "failed_points": ...,
///                    "skipped_points": ...},
///     "points": [{
///       "overrides": {<axis key>: <value>, ...},
///       "protocol": ..., "nodes": ...,
///       "exec": {"status": "ok"|"failed"|"skipped", "tries": ..., "wall_ms": ...,
///                "resumed": ...[, "error": ...]},
///       "metrics": {<name>: {"mean": ..., "stddev": ..., "count": ...}, ...}
///     }, ...]
///   }
/// Metric names: delivery_ratio, latency_s, goodput, control_MB, relayed,
/// contacts. Numbers use shortest-round-trip formatting (non-finite values
/// serialize as null); points appear in axis cross-product order. Additive
/// schema evolution only — existing fields keep their meaning. The
/// "execution" / "exec" members (added with the crash-safe campaign layer)
/// are the only volatile fields (wall_ms, resumed counts); both live on
/// lines containing `"exec` so equivalence tooling (the crash-resume
/// ctest) can filter them before diffing two campaigns bit-for-bit.
std::string sweep_results_json(const SpecSweepOptions& options,
                               const std::vector<SpecPointResult>& results);

/// Column label used in output for a metric.
std::string metric_name(Metric metric);

/// Reads a single aggregated value.
double metric_value(const PointResult& point, Metric metric);

}  // namespace dtn::harness
