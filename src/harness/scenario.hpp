// Scenario execution: ScenarioRunner::run(const ScenarioSpec&) is the ONE
// entry point that turns a declarative spec (harness/spec.hpp) into a
// finished simulation. The paper's evaluation setup (Sec. V-A) is one such
// spec: a synthetic downtown map with bus routes, nodes = buses,
// communities = districts (examples/helsinki_buses.cfg).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
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
/// runner). It computes two kinds of value once per key, and a run that
/// needs a value another run is computing waits for it until its own
/// deadline at most; if that computation throws or stops, the value is left
/// uncomputed and one waiter computes it anew:
///  - contact schedules. The sweep announces how many of its runs will take
///    each contact key (expect) before it deals them; only a key with two or
///    more runs gets a schedule. The first run of such a key makes the
///    key's contact pass: the spec's nodes with routing-free routers and no
///    traffic, recorded for scenario.duration seconds. Every run of the key,
///    that one included, then replays the pass, so the schedule depends on
///    the key alone, never on which run or attempt computed it. Each run
///    counts against the key's announced runs, and the key's last run
///    releases the schedule, so the memo holds at most one schedule per key
///    with runs still to come (16 bytes per link event; about 0.14 MB for an
///    80-bus, 4 000 s run). A run of a key whose announced runs have all
///    started, such as a retry, runs live;
///  - detected-communities tables, one per distinct warm-up input, kept for
///    the memo's lifetime.
/// Thread-safe. A replayed run gives the same bits as a live one, so the
/// memo changes how long a campaign takes, never what it returns.
class CampaignMemo {
 public:
  /// What the memo has done so far (tests and diagnostics read it).
  struct Stats {
    std::size_t recorded = 0;   ///< contact passes started
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

  /// A value computed at most once at a time: null until computed.
  template <class T>
  struct Once {
    std::shared_ptr<const T> value;
    bool computing = false;
  };
  struct Entry : Once<sim::ContactSchedule> {
    int runs_left = 0;
  };

  /// Counts one run of `spec`'s contact key and returns the key's schedule,
  /// running `compute` (the contact pass) when no run has computed it yet;
  /// null when the key has no announced run left (an event-kernel spec's
  /// empty key never has one), and computes no key while no key has.
  /// Throws sim::DeadlineExceeded once `deadline` has passed while it
  /// waits for another run's pass.
  std::shared_ptr<const sim::ContactSchedule> contact_schedule(
      const ScenarioSpec& spec, sim::Deadline deadline,
      const std::function<sim::ContactSchedule()>& compute);
  /// The detected-communities table of `spec` (communities.source =
  /// detected). Throws sim::DeadlineExceeded once `deadline` has passed.
  std::shared_ptr<const core::CommunityTable> detected_communities(const ScenarioSpec& spec,
                                                                   sim::Deadline deadline);
  /// `once`'s value, computed by `compute` outside the lock (counted in
  /// `started`) unless another caller holds it or is computing it, in which
  /// case this one waits until `deadline` at most. `lock` holds mutex_.
  template <class T, class Compute>
  std::shared_ptr<const T> compute_once(std::unique_lock<std::mutex>& lock, Once<T>& once,
                                        sim::Deadline deadline, std::size_t& started,
                                        const Compute& compute);

  mutable std::mutex mutex_;
  std::condition_variable done_;  ///< a computation finished or failed
  /// Shared with the runs that wait on an entry, which the key's last run
  /// erases from the map.
  std::unordered_map<std::string, std::shared_ptr<Entry>> schedules_;
  std::unordered_map<std::string, Once<core::CommunityTable>> tables_;
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
  /// warm-ups, and make no contact pass.
  ScenarioRunner();
  /// A runner drawing on a campaign's memo.
  explicit ScenarioRunner(std::shared_ptr<CampaignMemo> memo);
  ~ScenarioRunner();
  ScenarioRunner(ScenarioRunner&&) noexcept;
  ScenarioRunner& operator=(ScenarioRunner&&) noexcept;

  /// THE execution entry: builds the spec's map, communities, and node
  /// groups through the registries and runs the simulation to completion.
  /// Throws std::invalid_argument (validate_spec / create_router) on
  /// inconsistent specs. With a campaign memo, a run of a shared contact key
  /// replays the key's contact pass, which the key's first run makes on
  /// this runner's World before building its own nodes (see CampaignMemo);
  /// a schedule that does not fit the world throws std::logic_error.
  ScenarioResult run(const ScenarioSpec& spec);

  /// The wall-clock time at which the next run() stops (sim::World's
  /// deadline, which also bounds the detected-communities warm-up, the
  /// contact pass and the waits for either); it then throws
  /// sim::DeadlineExceeded and the runner stays reusable.
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
/// detected` executes, with default DetectionParams): makes the spec's
/// contact pass — same map, movement, and per-node seed streams as the real
/// run, routing-free — for `warmup_s` simulated seconds, counts each
/// link-up of the pass once per pair, and detects communities from those
/// pairwise contact counts. Deterministic in (spec, seed); independent of runner reuse and
/// thread count. Throws sim::DeadlineExceeded once `deadline` has passed.
core::CommunityTable detect_spec_communities(const ScenarioSpec& spec,
                                             const core::DetectionParams& detection,
                                             double warmup_s,
                                             sim::Deadline deadline = sim::Deadline::max());

}  // namespace dtn::harness
