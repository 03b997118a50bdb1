#include "harness/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/spec_io.hpp"
#include "util/value_parse.hpp"

namespace dtn::harness {

namespace {

/// The router of a contact pass: it routes nothing, so the pass only moves
/// the nodes and detects their contacts.
class RoutingFreeRouter final : public sim::Router {
 public:
  [[nodiscard]] std::string name() const override { return "RoutingFree"; }
};

/// `spec` with every field reset that neither movement nor contact
/// detection reads: a node's trajectory comes from (map, its group's model
/// and parameters, communities.count for community walkers, seed), and a
/// link event from those trajectories, the step and the radio range. No
/// shipped router reads a position, and traffic draws from streams of its
/// own (DESIGN.md §7). The base of both memo keys.
ScenarioSpec contact_inputs(const ScenarioSpec& spec) {
  const ScenarioSpec defaults;
  ScenarioSpec key = spec;
  key.name.clear();
  key.full_ttl_window = defaults.full_ttl_window;
  key.protocol = defaults.protocol;
  for (auto& group : key.groups) group.protocol.clear();
  key.traffic = defaults.traffic;
  key.traffic_matrix.clear();
  key.traffic_file.clear();
  key.world.buffer_bytes = defaults.world.buffer_bytes;
  key.world.bitrate_bps = defaults.world.bitrate_bps;
  key.world.ttl_sweep_interval = defaults.world.ttl_sweep_interval;
  return key;
}

/// Memo key for the detected-communities warm-up: the warm-up is a contact
/// pass of communities.warmup seconds, so its length replaces
/// scenario.duration.
std::string detection_key(const ScenarioSpec& spec) {
  ScenarioSpec key = contact_inputs(spec);
  key.duration_s = 0.0;
  return to_config(key);
}

/// Loads a trace-driven workload (`traffic.profile = trace`). Line format:
///   time src dst [size_bytes [ttl]]
/// with `#` comments. A size_bytes or ttl of 0, like an absent field,
/// selects traffic.size_bytes / traffic.ttl. Only blank and comment-only
/// lines are skipped; every other line must parse completely, times must
/// be finite and non-decreasing, and node ids must fit the spec's node
/// count. Throws std::invalid_argument with path:line context —
/// check-style loudness, never a silently shortened workload.
std::shared_ptr<const std::vector<sim::TraceMessage>> load_traffic_trace(
    const std::string& path, int node_count) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("cannot read traffic.file '" + path + "'");
  }
  auto fail = [&path](int line, const std::string& what) -> void {
    throw std::invalid_argument("traffic.file " + path + ":" +
                                std::to_string(line) + ": " + what);
  };
  auto trace = std::make_shared<std::vector<sim::TraceMessage>>();
  std::string raw;
  int line_no = 0;
  double prev_time = 0.0;
  while (std::getline(in, raw)) {
    ++line_no;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.resize(hash);
    std::istringstream fields(raw);
    std::vector<std::string> tokens;
    for (std::string token; fields >> token;) tokens.push_back(std::move(token));
    if (tokens.empty()) continue;  // blank/comment-only line
    sim::TraceMessage tm;
    std::int64_t src = 0;
    std::int64_t dst = 0;
    // Absent optional fields stay 0 = the TrafficParams default.
    const bool parsed = tokens.size() >= 3 && tokens.size() <= 5 &&
                        util::parse_value(tokens[0], tm.time) &&
                        util::parse_value(tokens[1], src) &&
                        util::parse_value(tokens[2], dst) &&
                        (tokens.size() < 4 || util::parse_value(tokens[3], tm.size_bytes)) &&
                        (tokens.size() < 5 || util::parse_value(tokens[4], tm.ttl));
    if (!parsed) {
      fail(line_no, "expected 'time src dst [size_bytes [ttl]]', got '" + raw + "'");
    }
    if (!(std::isfinite(tm.time) && tm.time >= 0.0)) {
      fail(line_no, "time must be finite and >= 0");
    }
    if (tm.time < prev_time) fail(line_no, "times must be non-decreasing");
    prev_time = tm.time;
    if (src < 0 || src >= node_count || dst < 0 || dst >= node_count) {
      fail(line_no, "node ids must be in [0, " + std::to_string(node_count) + ")");
    }
    if (src == dst) fail(line_no, "src and dst must differ");
    if (tm.size_bytes < 0) {
      fail(line_no, "size_bytes must be >= 0, where 0 selects traffic.size_bytes (got " +
                        util::format_value(tm.size_bytes) + ")");
    }
    if (!(std::isfinite(tm.ttl) && tm.ttl >= 0.0)) {
      fail(line_no, "ttl must be finite and >= 0, where 0 selects traffic.ttl (got " +
                        util::format_value(tm.ttl) + ")");
    }
    tm.src = static_cast<sim::NodeIdx>(src);
    tm.dst = static_cast<sim::NodeIdx>(dst);
    trace->push_back(tm);
  }
  if (trace->empty()) {
    throw std::invalid_argument("traffic.file '" + path + "' has no messages");
  }
  return trace;
}

/// Resolves the spec-level traffic section (group-name matrix entries,
/// trace file, full-TTL window) into the sim-level TrafficParams the
/// World consumes. Group node ranges follow declaration order, exactly
/// like add_nodes does.
sim::TrafficParams resolve_traffic(const ScenarioSpec& spec) {
  sim::TrafficParams traffic = spec.traffic;
  if (spec.full_ttl_window) {
    // min(), not overwrite: a user-set traffic.stop tighter than
    // duration - TTL must survive (the pre-fix code clobbered it).
    traffic.stop = std::min(traffic.stop, spec.duration_s - traffic.ttl);
  }
  traffic.matrix.clear();
  traffic.matrix.reserve(spec.traffic_matrix.size());
  for (const auto& e : spec.traffic_matrix) {
    sim::TrafficMatrixEntry m;
    int first = 0;
    for (const auto& g : spec.groups) {
      if (g.name == e.src) {
        m.src_first = static_cast<sim::NodeIdx>(first);
        m.src_count = static_cast<sim::NodeIdx>(g.count);
      }
      if (g.name == e.dst) {
        m.dst_first = static_cast<sim::NodeIdx>(first);
        m.dst_count = static_cast<sim::NodeIdx>(g.count);
      }
      first += g.count;
    }
    m.interval_min = e.interval_min;
    m.interval_max = e.interval_max;
    m.size_bytes = e.size_bytes;
    m.weight = e.weight;
    traffic.matrix.push_back(m);
  }
  if (traffic.profile == sim::TrafficProfile::kTrace) {
    traffic.trace = load_traffic_trace(spec.traffic_file, spec.node_count());
  }
  return traffic;
}

/// The contact pass of `spec` on `world`: the spec's groups, each node with a
/// routing-free router and no traffic, run for `duration_s` under `deadline`.
/// Returns every link event.
sim::ContactSchedule contact_pass(sim::World& world, const ScenarioSpec& spec,
                                  const geo::BuiltMap& map, double duration_s,
                                  sim::Deadline deadline) {
  world.set_deadline(deadline);
  for (const auto& group : spec.groups) {
    GroupBuildContext ctx{spec, map, {}};
    ctx.make_router = [] { return std::make_unique<RoutingFreeRouter>(); };
    find_group_builder(group.model)->add_nodes(world, ctx, group);
  }
  world.record_contacts();
  world.run(duration_s);
  return world.take_recorded_contacts();
}

}  // namespace

std::string contact_schedule_key(const ScenarioSpec& spec) {
  if (spec.world.event_kernel) return "";
  ScenarioSpec key = contact_inputs(spec);
  const CommunitySpec defaults;
  key.communities.source = defaults.source;
  key.communities.warmup_s = defaults.warmup_s;
  return to_config(key);
}

void CampaignMemo::expect(const std::string& key, int runs) {
  const std::lock_guard<std::mutex> lock(mutex_);
  schedules_.try_emplace(key, std::make_shared<Entry>()).first->second->runs_left += runs;
}

CampaignMemo::Stats CampaignMemo::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Stats stats = stats_;
  for (const auto& [key, entry] : schedules_) stats.held += entry->value != nullptr ? 1 : 0;
  return stats;
}

std::shared_ptr<const sim::ContactSchedule> CampaignMemo::schedule(
    const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = schedules_.find(key);
  return it == schedules_.end() ? nullptr : it->second->value;
}

template <class T, class Compute>
std::shared_ptr<const T> CampaignMemo::compute_once(std::unique_lock<std::mutex>& lock,
                                                    Once<T>& once, sim::Deadline deadline,
                                                    std::size_t& started,
                                                    const Compute& compute) {
  // A computation waits on nothing, so it finishes or stops at its own
  // deadline; this caller waits until its own deadline at most.
  if (!done_.wait_until(lock, deadline, [&] { return once.value || !once.computing; })) {
    throw sim::DeadlineExceeded(
        "run stopped at its deadline waiting for another run's warm-up or contact pass");
  }
  if (once.value != nullptr) return once.value;
  once.computing = true;
  ++started;
  lock.unlock();
  std::shared_ptr<const T> value;
  std::exception_ptr failure;  // a failed computation leaves the value unset
  try {
    value = std::make_shared<const T>(compute());
  } catch (...) {
    failure = std::current_exception();
  }
  lock.lock();
  once.value = value;
  once.computing = false;
  done_.notify_all();
  if (failure) std::rethrow_exception(failure);
  return value;
}

std::shared_ptr<const sim::ContactSchedule> CampaignMemo::contact_schedule(
    const ScenarioSpec& spec, sim::Deadline deadline,
    const std::function<sim::ContactSchedule()>& compute) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (schedules_.empty()) return nullptr;  // no key has runs to come
  const auto it = schedules_.find(contact_schedule_key(spec));
  if (it == schedules_.end()) return nullptr;
  const std::shared_ptr<Entry> entry = it->second;
  if (--entry->runs_left <= 0) schedules_.erase(it);  // the key's last run
  auto schedule = compute_once<sim::ContactSchedule>(lock, *entry, deadline, stats_.recorded, [&] {
    sim::ContactSchedule pass = compute();
    pass.downs.shrink_to_fit();  // held for the rest of the key's runs
    pass.ups.shrink_to_fit();
    return pass;
  });
  ++stats_.replayed;
  return schedule;
}

std::shared_ptr<const core::CommunityTable> CampaignMemo::detected_communities(
    const ScenarioSpec& spec, sim::Deadline deadline) {
  const std::string key = detection_key(spec);
  std::unique_lock<std::mutex> lock(mutex_);
  // The warm-up builds a throwaway World of its own, so the table depends
  // only on (spec, seed): reused runners and any thread count see the same
  // one.
  return compute_once(lock, tables_[key], deadline, stats_.warmups, [&] {
    return detect_spec_communities(spec, core::DetectionParams{}, spec.communities.warmup_s,
                                   deadline);
  });
}

ScenarioRunner::ScenarioRunner() : memo_(std::make_shared<CampaignMemo>()) {}
ScenarioRunner::ScenarioRunner(std::shared_ptr<CampaignMemo> memo) : memo_(std::move(memo)) {}
ScenarioRunner::~ScenarioRunner() = default;
ScenarioRunner::ScenarioRunner(ScenarioRunner&&) noexcept = default;
ScenarioRunner& ScenarioRunner::operator=(ScenarioRunner&&) noexcept = default;

sim::World& ScenarioRunner::prepare(const sim::WorldConfig& config) {
  if (!world_) {
    world_ = std::make_unique<sim::World>(config);
  } else {
    world_->reset(config);  // retains slabs, pools, scratch, lanes
  }
  return *world_;
}

ScenarioResult ScenarioRunner::run(const ScenarioSpec& spec) {
  validate_spec(spec);

  // Map source (seed-dependent for generated maps, so rebuilt per run).
  const geo::MapKindInfo* kind = geo::find_map_kind(spec.map.kind);
  const geo::BuiltMap map = kind->build(spec.map.params, spec.seed);

  // Community table: spec-driven warm-up detection, or per-group model
  // assignment ("auto") or uniform round-robin.
  std::shared_ptr<const core::CommunityTable> communities;
  if (spec.communities.source == "detected") {
    communities = memo_->detected_communities(spec, deadline_);
  } else {
    std::vector<int> cid;
    cid.reserve(static_cast<std::size_t>(spec.node_count()));
    for (const auto& group : spec.groups) {
      const GroupBuildContext ctx{spec, map, {}};
      if (spec.communities.source == "round_robin") {
        round_robin_communities(ctx, group, cid);
      } else {
        find_group_builder(group.model)->assign_communities(ctx, group, cid);
      }
    }
    communities = std::make_shared<const core::CommunityTable>(std::move(cid));
  }

  sim::WorldConfig world_config = spec.world;
  world_config.seed = spec.seed;
  // A shared contact key's first run makes the key's pass on this World,
  // and every run of the key replays it.
  std::shared_ptr<const sim::ContactSchedule> schedule =
      memo_->contact_schedule(spec, deadline_, [&] {
        return contact_pass(prepare(world_config), spec, map, spec.duration_s, deadline_);
      });
  sim::World& world = prepare(world_config);
  world.set_deadline(deadline_);

  for (const auto& group : spec.groups) {
    // Heterogeneous routing: each group resolves its own protocol (per-group
    // name override over the spec-wide knobs) and hands builders a router
    // factory — the one seam the contact pass also plugs into.
    routing::ProtocolConfig protocol = resolved_protocol(spec, group);
    protocol.communities = communities;
    GroupBuildContext ctx{spec, map, {}};
    ctx.make_router = [&protocol] { return routing::create_router(protocol); };
    find_group_builder(group.model)->add_nodes(world, ctx, group);
  }

  world.set_traffic(resolve_traffic(spec));
  if (schedule != nullptr) world.replay_contacts(std::move(schedule));
  world.run(spec.duration_s);

  ScenarioResult result;
  result.metrics = world.metrics();
  result.contact_events = world.contact_events();
  return result;
}

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  ScenarioRunner runner;
  return runner.run(spec);
}

core::CommunityTable detect_spec_communities(const ScenarioSpec& spec,
                                             const core::DetectionParams& detection,
                                             double warmup_s, sim::Deadline deadline) {
  validate_spec(spec);
  const geo::MapKindInfo* kind = geo::find_map_kind(spec.map.kind);
  const geo::BuiltMap map = kind->build(spec.map.params, spec.seed);

  sim::WorldConfig world_config = spec.world;
  world_config.seed = spec.seed;
  sim::World world(world_config);
  const sim::ContactSchedule pass = contact_pass(world, spec, map, warmup_s, deadline);
  core::ContactCountGraph graph(static_cast<core::NodeIdx>(spec.node_count()));
  for (const sim::LinkEvent& up : pass.ups) graph.record(up.a, up.b);  // once per pair
  return core::detect_communities(graph, detection);
}

}  // namespace dtn::harness
