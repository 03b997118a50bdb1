// Scenario execution: ScenarioRunner::run(const ScenarioSpec&) is the ONE
// entry point that turns a declarative spec (harness/spec.hpp) into a
// finished simulation. The paper's evaluation setup (Sec. V-A) is one such
// spec: a synthetic downtown map with bus routes, nodes = buses,
// communities = districts (examples/helsinki_buses.cfg).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/community_detection.hpp"
#include "harness/spec.hpp"
#include "sim/metrics.hpp"
#include "sim/world.hpp"

namespace dtn::harness {

struct ScenarioResult {
  sim::Metrics metrics;
  std::int64_t contact_events = 0;
};

/// The contact-schedule key of `spec`: its canonical config (to_config) with
/// every field that movement and contact detection never read normalized
/// away — scenario.name and scenario.full_ttl_window, the protocol block and
/// every group.<g>.protocol, the whole traffic section (scalars, profile,
/// matrix, traffic.file), world.buffer_bytes, world.bitrate_bps,
/// world.ttl_sweep_interval, communities.source and communities.warmup.
/// Everything else stays in, so a field nobody classified can only cause a
/// miss, never a wrong hit. communities.count stays: it tiles the community
/// walkers' home bands. Two specs with the same key fire the same link
/// events at the same steps. Event-kernel specs (world.event_kernel) have no
/// key (""): they are never recorded or replayed. The detected-communities
/// warm-up is memoized on the same normalization, with scenario.duration
/// normalized instead of the communities fields.
std::string contact_schedule_key(const ScenarioSpec& spec);

/// Campaign-scoped memo that runs sharing their contact inputs draw on
/// (run_spec_sweep holds one per call and hands it to every worker's
/// runner):
///  - contact schedules. The sweep announces how many of its runs will take
///    each contact key (expect) before it deals them; only a key with two or
///    more runs is ever recorded. A run of an announced key replays the
///    schedule the memo holds, or, when there is none yet and more runs of
///    the key are to come, records its own. A run offers its recording back
///    once its simulation has run to the end, so a run that throws or stops
///    at its deadline offers nothing. The first offer of a key is kept and
///    later ones are dropped, as is any offer after the key's last run has
///    started. Each run that takes a key counts against its announced runs,
///    and the memo lets go of the schedule when the count reaches zero, so
///    it holds at most one schedule per key with runs still to come (16
///    bytes per link event; about 0.14 MB for an 80-bus, 4 000 s run);
///  - detected-communities tables, one per distinct warm-up input, each
///    computed once: a run that needs a table another run is computing
///    waits for it until its own deadline at most, and if that computation
///    throws or stops, one waiter computes it anew. Tables are kept for the
///    memo's lifetime.
/// Thread-safe. A replayed run gives the same bits as a live one, so the
/// memo changes how long a campaign takes, never what it returns.
class CampaignMemo {
 public:
  /// What the memo has done so far (tests and diagnostics read it).
  struct Stats {
    std::size_t recorded = 0;   ///< runs that recorded their link events
    std::size_t offered = 0;    ///< recordings offered back (kept or dropped)
    std::size_t replayed = 0;   ///< runs that replayed a held schedule
    std::size_t warmups = 0;    ///< detected-communities warm-ups started
    std::size_t held = 0;       ///< schedules held right now
  };

  /// Announces `runs` more runs of contact key `key`.
  void expect(const std::string& key, int runs);
  [[nodiscard]] Stats stats() const;
  /// The schedule held for `key`, or null.
  [[nodiscard]] std::shared_ptr<const sim::ContactSchedule> schedule(
      const std::string& key) const;

 private:
  friend class ScenarioRunner;

  /// What one run of a key does: replay `schedule`, record, or neither.
  struct Take {
    std::shared_ptr<const sim::ContactSchedule> schedule;
    bool record = false;
  };
  struct Entry {
    int runs_left = 0;
    std::shared_ptr<const sim::ContactSchedule> schedule;
  };

  /// True while some key has runs to come (else no run computes a key).
  bool expecting() const;
  /// Counts one run of `key` against its announced runs.
  Take take(const std::string& key);
  void offer(const std::string& key, sim::ContactSchedule schedule);
  /// The detected-communities table of `spec` (communities.source =
  /// detected). Throws sim::DeadlineExceeded once `deadline` has passed.
  std::shared_ptr<const core::CommunityTable> detected_communities(const ScenarioSpec& spec,
                                                                   sim::Deadline deadline);

  mutable std::mutex mutex_;
  std::condition_variable table_done_;  ///< a warm-up finished or failed
  std::unordered_map<std::string, Entry> schedules_;
  /// Null while a run computes the table.
  std::unordered_map<std::string, std::shared_ptr<const core::CommunityTable>> tables_;
  Stats stats_;
};

/// Reusable scenario executor: owns one sim::World whose allocated capacity
/// (buffer slabs, cell-list scratch, adjacency/connection/transfer pools,
/// movement lanes, metrics buckets) is retained across run() calls via
/// World::reset(). A worker thread keeps one ScenarioRunner for a whole
/// campaign, so per-run allocation work shrinks to what genuinely differs
/// between runs (the seed-dependent map, router instances). Results are
/// bit-identical to run_scenario on a fresh World (enforced by
/// integration_sweep_test).
class ScenarioRunner {
 public:
  /// A runner with a memo of its own: its runs share detected-communities
  /// warm-ups, and record or replay nothing.
  ScenarioRunner();
  /// A runner drawing on a campaign's memo.
  explicit ScenarioRunner(std::shared_ptr<CampaignMemo> memo);
  ~ScenarioRunner();
  ScenarioRunner(ScenarioRunner&&) noexcept;
  ScenarioRunner& operator=(ScenarioRunner&&) noexcept;

  /// THE execution entry: builds the spec's map, communities, and node
  /// groups through the registries and runs the simulation to completion.
  /// Throws std::invalid_argument (validate_spec / create_router) on
  /// inconsistent specs. With a campaign memo, the run replays its contact
  /// key's schedule or records one and offers it back (see CampaignMemo); a
  /// schedule that does not fit the world throws std::logic_error.
  ScenarioResult run(const ScenarioSpec& spec);

  /// The wall-clock time at which the next run() stops (sim::World's
  /// deadline, which also bounds the detected-communities warm-up); it
  /// then throws sim::DeadlineExceeded and the runner stays reusable.
  void set_deadline(sim::Deadline deadline) noexcept { deadline_ = deadline; }

 private:
  /// Builds or resets the owned World for a fresh run under `config`.
  sim::World& prepare(const sim::WorldConfig& config);

  std::unique_ptr<sim::World> world_;
  std::shared_ptr<CampaignMemo> memo_;
  sim::Deadline deadline_ = sim::Deadline::max();
};

/// Runs one spec to completion on a fresh runner (single-shot convenience;
/// campaigns should keep a ScenarioRunner for world reuse).
ScenarioResult run_scenario(const ScenarioSpec& spec);

/// Warm-up detection over ANY valid spec (what `communities.source =
/// detected` executes, with default DetectionParams): builds the spec's
/// world with routing-free contact-logger routers — same map, movement,
/// and per-node seed streams as the real run — runs it for `warmup_s`
/// simulated seconds, and detects communities from the pairwise contact
/// counts. Deterministic in (spec, seed); independent of runner reuse and
/// thread count. Throws sim::DeadlineExceeded once `deadline` has passed.
core::CommunityTable detect_spec_communities(const ScenarioSpec& spec,
                                             const core::DetectionParams& detection,
                                             double warmup_s,
                                             sim::Deadline deadline = sim::Deadline::max());

}  // namespace dtn::harness
