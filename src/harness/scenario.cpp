#include "harness/scenario.hpp"

#include <algorithm>
#include <cmath>
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

/// Routing-free router that only feeds the shared contact-count graph —
/// used by the community-detection warm-up pass.
class ContactLoggerRouter final : public sim::Router {
 public:
  explicit ContactLoggerRouter(core::ContactCountGraph* graph) : graph_(graph) {}
  [[nodiscard]] std::string name() const override { return "ContactLogger"; }
  void on_contact_up(sim::NodeIdx peer) override {
    if (self() < peer) graph_->record(self(), peer);
  }

 private:
  core::ContactCountGraph* graph_;
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

/// Memo key for the detected-communities warm-up: the routing-free warm-up
/// (contact loggers, no traffic) runs communities.warmup seconds of the
/// spec's contact inputs, so its length replaces scenario.duration.
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
  schedules_[key].runs_left += runs;
}

CampaignMemo::Stats CampaignMemo::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Stats stats = stats_;
  for (const auto& [key, entry] : schedules_) stats.held += entry.schedule != nullptr ? 1 : 0;
  return stats;
}

std::shared_ptr<const sim::ContactSchedule> CampaignMemo::schedule(
    const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = schedules_.find(key);
  return it == schedules_.end() ? nullptr : it->second.schedule;
}

bool CampaignMemo::expecting() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return !schedules_.empty();
}

CampaignMemo::Take CampaignMemo::take(const std::string& key) {
  Take take;
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = schedules_.find(key);
  if (it == schedules_.end()) return take;
  Entry& entry = it->second;
  --entry.runs_left;
  if (entry.schedule != nullptr) {
    take.schedule = entry.schedule;
    ++stats_.replayed;
  } else if (entry.runs_left > 0) {
    take.record = true;
    ++stats_.recorded;
  }
  if (entry.runs_left <= 0) schedules_.erase(it);
  return take;
}

void CampaignMemo::offer(const std::string& key, sim::ContactSchedule schedule) {
  schedule.downs.shrink_to_fit();  // held for the rest of the key's runs
  schedule.ups.shrink_to_fit();
  auto held = std::make_shared<const sim::ContactSchedule>(std::move(schedule));
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.offered;
  const auto it = schedules_.find(key);
  // No run of the key is left to start, or a concurrent recording won.
  if (it == schedules_.end() || it->second.schedule != nullptr) return;
  it->second.schedule = std::move(held);
}

std::shared_ptr<const core::CommunityTable> CampaignMemo::detected_communities(
    const ScenarioSpec& spec, sim::Deadline deadline) {
  const std::string key = detection_key(spec);
  std::unique_lock<std::mutex> lock(mutex_);
  // A null table is being computed by another run. That warm-up waits on
  // nothing, so it finishes or stops at its own deadline; this run waits
  // until its own deadline at most.
  const bool settled = table_done_.wait_until(lock, deadline, [&] {
    const auto it = tables_.find(key);
    return it == tables_.end() || it->second != nullptr;
  });
  if (!settled) {
    throw sim::DeadlineExceeded("run stopped at its deadline waiting for a warm-up");
  }
  if (const auto it = tables_.find(key); it != tables_.end()) return it->second;
  tables_.emplace(key, nullptr);
  ++stats_.warmups;
  lock.unlock();
  std::shared_ptr<const core::CommunityTable> table;
  try {
    // The warm-up builds a throwaway World of its own, so the table depends
    // only on (spec, seed): reused runners and any thread count see the
    // same one.
    table = std::make_shared<const core::CommunityTable>(detect_spec_communities(
        spec, core::DetectionParams{}, spec.communities.warmup_s, deadline));
  } catch (...) {
    lock.lock();
    tables_.erase(key);
    table_done_.notify_all();
    throw;
  }
  lock.lock();
  tables_[key] = table;
  table_done_.notify_all();
  return table;
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
  sim::World& world = prepare(world_config);
  world.set_deadline(deadline_);

  for (const auto& group : spec.groups) {
    // Heterogeneous routing: each group resolves its own protocol (per-group
    // name override over the spec-wide knobs) and hands builders a router
    // factory — the one seam the detection warm-up also plugs into.
    routing::ProtocolConfig protocol = resolved_protocol(spec, group);
    protocol.communities = communities;
    GroupBuildContext ctx{spec, map, {}};
    ctx.make_router = [&protocol] { return routing::create_router(protocol); };
    find_group_builder(group.model)->add_nodes(world, ctx, group);
  }

  world.set_traffic(resolve_traffic(spec));

  std::string key;
  CampaignMemo::Take take;
  if (memo_->expecting()) key = contact_schedule_key(spec);
  if (!key.empty()) take = memo_->take(key);
  if (take.schedule != nullptr) {
    world.replay_contacts(take.schedule);
  } else if (take.record) {
    world.record_contacts();
  }
  world.run(spec.duration_s);
  // Reached only by a run that ran to the end: one that threw or stopped
  // offers nothing.
  if (take.record) memo_->offer(key, world.take_recorded_contacts());

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

  core::ContactCountGraph graph(static_cast<core::NodeIdx>(spec.node_count()));
  sim::WorldConfig world_config = spec.world;
  world_config.seed = spec.seed;
  sim::World world(world_config);
  world.set_deadline(deadline);
  for (const auto& group : spec.groups) {
    // Same map, same movement, same per-node seed streams as the real run —
    // only the routers differ (routing-free contact loggers).
    GroupBuildContext ctx{spec, map, {}};
    ctx.make_router = [&graph] { return std::make_unique<ContactLoggerRouter>(&graph); };
    find_group_builder(group.model)->add_nodes(world, ctx, group);
  }
  world.run(warmup_s);
  return core::detect_communities(graph, detection);
}

}  // namespace dtn::harness
