#pragma once
// The campaign scheduler behind `dtnsim sweep --workers N --hosts h:p,...`:
// one single-threaded loop that deals the shards of one campaign to
// *slots* and owns every retry, backoff, stall and give-up decision.
//
// A slot is one place a shard can run, behind the ShardRunner interface:
// a forked local `dtnsim sweep --seeds k --seed-base b --shard i/N`
// process (make_process_runner) or a `dtnsim serve` daemon spoken to over
// the %DTNW1 HELLO/ASSIGN/PROGRESS/JOURNAL/DONE conversation
// (make_daemon_runner). Runners only report what happened; the policy
// below is written once, here:
//
//   - Tiles: N slots, N shards, and each shard is a *tile* of the
//     campaign (fleet_tiles). When two points share a contact key and the
//     campaign has at least N seeds, tile i is the whole grid over the
//     i-th of N contiguous seed groups, so the runs of a key share one
//     process and its contacts are computed once per key; otherwise tile
//     i is the points with index % N == i over every seed.
//   - Deal: shard i first goes to slot i. A failed shard goes back to the
//     queue and the next free slot outside its backoff window takes it,
//     whatever its kind.
//   - Outcome: done (exit 0 or 1, DONE with a journal), refused (exit 2,
//     an ERROR frame; never retried) or failed (everything else; retried).
//   - Progress is the shard journal's length in bytes; an attempt whose
//     progress stands still for `worker_timeout_s` is stopped and failed.
//   - Retry: at most 1 + worker_retries attempts per shard. Every attempt
//     after the first resumes; the fault plan rides the first only.
//   - Backoff: a slot whose attempt failed sits out 0.25 s, doubling per
//     consecutive failure, capped at 5 s.
//   - Audit before dealing: on resume a complete shard journal is not
//     dealt, and one written for another tile (another campaign, or this
//     campaign under the other deal) refuses the campaign before anything
//     starts; a fresh campaign removes stale shard journals.
//
// Because every point is deterministic, WHERE a shard ran never changes a
// result bit: the caller merges the shard journals with
// merge_sweep_journals, labelling each with the origin reported here.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/sweep.hpp"

namespace dtn::harness {

/// The N shards of `campaign` on N slots (see the policy above): copies of
/// it narrowed to a seed group (seeds, seed_base; shard 0/1) or to a point
/// residue (shard i/N). Groups are in seed order, larger ones first, sizes
/// differing by at most one: 4 seeds on 3 slots give {2, 1, 1}. A group
/// may not start past INT64_MAX, where `--seed-base` ends. One slot gets
/// the whole campaign. Throws like run_spec_sweep on a bad axis.
std::vector<SpecSweepOptions> fleet_tiles(const SpecSweepOptions& campaign,
                                          std::size_t slots);

/// One attempt at one shard, as the scheduler hands it to a slot.
struct ShardAttempt {
  std::size_t shard = 0;
  /// The shard's tile, with journal_path set to where the shard journal
  /// lands on this host and resume set when the attempt replays it first.
  SpecSweepOptions tile;
  bool fault = false;  ///< carry the test-only fault plan
};

/// What a slot reports about its current attempt.
struct AttemptStatus {
  enum class Outcome { kRunning, kDone, kRefused, kFailed };
  Outcome outcome = Outcome::kRunning;
  std::uint64_t progress = 0;  ///< shard journal bytes so far (kRunning)
  std::string reason;          ///< why the attempt was refused or failed
};

/// One slot. Calls come from the scheduler's thread only, and none blocks
/// it for longer than one tick; problems surface through poll().
class ShardRunner {
 public:
  ShardRunner() = default;
  virtual ~ShardRunner() = default;
  ShardRunner(const ShardRunner&) = delete;
  ShardRunner& operator=(const ShardRunner&) = delete;
  ShardRunner(ShardRunner&&) = delete;
  ShardRunner& operator=(ShardRunner&&) = delete;

  /// "local", or the daemon's "host:port": names the slot in diagnostics
  /// and becomes the origin of the points of every shard it completes.
  [[nodiscard]] virtual std::string name() const = 0;
  /// Begins `attempt`; the slot is idle when called.
  virtual void start(const ShardAttempt& attempt) = 0;
  /// Reports the current attempt; after a final outcome the slot is idle.
  virtual AttemptStatus poll() = 0;
  /// Abandons the current attempt (it stalled); the slot becomes idle.
  virtual void stop() = 0;
};

/// A slot that fork/execs `argv` plus the tile's `--journal J --seeds k
/// --seed-base b --shard i/N` [`--resume`] [`--fault F`] per attempt,
/// stdout discarded. `fault` is the raw `--fault` text ("" = none).
/// Progress is the journal's size on disk.
std::unique_ptr<ShardRunner> make_process_runner(std::vector<std::string> argv,
                                                 std::string fault);

/// A slot that assigns each attempt's tile to the `dtnsim serve` daemon at
/// host:port, and stores each shipped journal at the tile's journal path.
/// Connect and handshake run on a thread the runner owns and joins;
/// progress is the PROGRESS heartbeat's journal length. The fault plan
/// never travels: ASSIGN has no field for it.
std::unique_ptr<ShardRunner> make_daemon_runner(std::string host, int port);

struct FleetOptions {
  /// Shard i journals into `<shard_dir>/shard-<i>.journal`.
  std::string shard_dir;
  int worker_retries = 2;         ///< attempts per shard = 1 + worker_retries
  double worker_timeout_s = 0.0;  ///< stall limit in seconds; 0 = none
  /// Monotonic seconds and a wait of that many seconds. Empty means
  /// steady_clock and sleep_for; tests drive a virtual clock.
  std::function<double()> clock;
  std::function<void(double)> wait;
};

struct FleetResult {
  /// A foreign shard journal refused the resume; no slot was started.
  bool refused = false;
  std::vector<std::string> journals;  ///< per shard, for the merge
  /// Per shard: name() of the slot that completed it, "" when none did.
  std::vector<std::string> origins;
};

/// Runs `campaign` as one shard (fleet_tiles) per slot until every shard
/// is done, refused or out of attempts (see the policy above);
/// `campaign.resume` selects the resume audit, and restarts, failures and
/// give-ups go to `campaign.note`. Points no shard journal recorded are
/// the merge's missing points.
FleetResult run_fleet(const SpecSweepOptions& campaign, const FleetOptions& options,
                      const std::vector<std::unique_ptr<ShardRunner>>& slots);

}  // namespace dtn::harness
