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

/// Memo key for the detected-communities warm-up: the canonical config of
/// the spec with every field the routing-free warm-up cannot observe
/// normalized away (contact loggers replace all routers, and the warm-up
/// world generates no traffic). Anything left in the key can only cause a
/// spurious miss — a recompute — never a wrong hit.
std::string detection_cache_key(const ScenarioSpec& spec) {
  ScenarioSpec key = spec;
  key.name.clear();
  key.duration_s = 0.0;  // warm-up length is communities.warmup, kept below
  key.full_ttl_window = false;
  key.protocol = routing::ProtocolConfig{};
  key.traffic = sim::TrafficParams{};
  key.traffic_matrix.clear();
  key.traffic_file.clear();
  for (auto& group : key.groups) group.protocol.clear();
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

ScenarioRunner::ScenarioRunner() = default;
ScenarioRunner::~ScenarioRunner() = default;
ScenarioRunner::ScenarioRunner(ScenarioRunner&&) noexcept = default;
ScenarioRunner& ScenarioRunner::operator=(ScenarioRunner&&) noexcept = default;

sim::World& ScenarioRunner::prepare(const sim::WorldConfig& config) {
  if (!world_) {
    world_ = std::make_unique<sim::World>(config);
  } else {
    world_->reset(config);  // retains slabs, pools, grid cells, lanes
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
    // The warm-up pass builds its own throwaway World (it must not disturb
    // this runner's reusable one), so detection depends only on
    // (spec, seed) — reused runners and any thread count see the same
    // table, which is also what makes the per-runner memo below safe.
    auto& cached = detected_cache_[detection_cache_key(spec)];
    if (!cached) {
      cached = std::make_shared<const core::CommunityTable>(detect_spec_communities(
          spec, core::DetectionParams{}, spec.communities.warmup_s));
    }
    communities = cached;
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
                                             double warmup_s) {
  validate_spec(spec);
  const geo::MapKindInfo* kind = geo::find_map_kind(spec.map.kind);
  const geo::BuiltMap map = kind->build(spec.map.params, spec.seed);

  core::ContactCountGraph graph(static_cast<core::NodeIdx>(spec.node_count()));
  sim::WorldConfig world_config = spec.world;
  world_config.seed = spec.seed;
  sim::World world(world_config);
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
