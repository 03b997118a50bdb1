// Trace tooling: the bridge between this simulator and real mobility
// datasets (CRAWDAD-style).
//
//   ./trace_tools record buses.trace          # dump a bus scenario's trajectories
//   ./trace_tools replay buses.trace          # re-simulate from the trace file
//   ./trace_tools info buses.trace            # summarize a trace
//
// `record` writes `time node x y` lines (1 Hz samples); `replay` builds a
// ScenarioSpec with a trace map source (map.kind = trace) and one `trace`
// group — the exact composition a scenario FILE would use for an external
// dataset after conversion to this format:
//
//   map.kind = trace
//   map.file = buses.trace
//   group.replay.model = trace
//   group.replay.count = <trace nodes>
//
// `replay` keeps the default 1200 s traffic.ttl and full TTL window, so it
// needs a trace longer than 1200 s.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include "geo/map_gen.hpp"
#include "geo/map_registry.hpp"
#include "geo/trace.hpp"
#include "harness/scenario.hpp"
#include "mobility/bus_movement.hpp"
#include "util/flags.hpp"

namespace {

using namespace dtn;

int cmd_record(const std::string& path, int nodes, double duration,
               std::uint64_t seed) {
  geo::DowntownParams map;
  map.seed = seed;
  const geo::BusNetwork net = geo::generate_downtown(map);
  std::vector<std::unique_ptr<mobility::BusMovement>> models;
  for (int v = 0; v < nodes; ++v) {
    auto route = std::make_shared<const geo::Polyline>(
        net.routes[static_cast<std::size_t>(v) % net.routes.size()].line);
    auto m = std::make_unique<mobility::BusMovement>(route, mobility::BusParams{});
    m->init(util::derive_stream(seed, static_cast<std::uint64_t>(v),
                                util::StreamPurpose::kMovement),
            0.0);
    models.push_back(std::move(m));
  }
  geo::Trace trace;
  for (double t = 0.0; t <= duration; t += 1.0) {
    for (int v = 0; v < nodes; ++v) {
      trace.samples.push_back(
          {t, v, models[static_cast<std::size_t>(v)]->position()});
      models[static_cast<std::size_t>(v)]->step(t, 1.0);
    }
  }
  if (!geo::write_trace(path, trace)) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %zu samples for %d nodes over %.0f s to %s\n",
              trace.samples.size(), nodes, duration, path.c_str());
  return 0;
}

int cmd_replay(const std::string& path, const std::string& protocol) {
  // Peek at the trace for its node count / duration via the trace map
  // source itself — the registry caches per path, so the scenario run
  // below reuses the load instead of touching the disk again.
  geo::MapParams map_params;
  map_params.trace_file = path;
  const geo::BuiltMap peek = geo::find_map_kind("trace")->build(map_params, 0);
  const geo::Trace& trace = *peek.trace;
  harness::ScenarioSpec spec;
  spec.name = "trace_replay";
  spec.duration_s = trace.duration();
  spec.map.kind = "trace";
  spec.map.params.trace_file = path;
  harness::GroupSpec group;
  group.name = "replay";
  group.model = "trace";
  group.count = trace.node_count();
  spec.groups.push_back(group);
  spec.protocol.name = protocol;
  spec.communities.count = 4;  // round-robin classes so CR works out of the box

  const harness::ScenarioResult r = harness::run_scenario(spec);
  std::printf("replayed %s: %d nodes, %.0f s, protocol %s\n", path.c_str(),
              spec.node_count(), spec.duration_s, protocol.c_str());
  std::printf("delivery ratio %.3f | latency %.1f s | goodput %.4f | %lld contacts\n",
              r.metrics.delivery_ratio(), r.metrics.latency_mean(), r.metrics.goodput(),
              static_cast<long long>(r.contact_events));
  return 0;
}

int cmd_info(const std::string& path) {
  const geo::Trace trace = geo::read_trace(path);
  std::printf("%s: %zu samples, %d nodes, duration %.1f s\n", path.c_str(),
              trace.samples.size(), trace.node_count(), trace.duration());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags = util::Flags::parse(argc, argv);
  bool flags_ok = true;
  for (const auto& flag : flags.unknown_flags({"nodes", "duration", "protocol", "seed"})) {
    std::fprintf(stderr, "unknown flag '--%s'\n", flag.c_str());
    flags_ok = false;
  }
  // get_int falls back silently on garbage, so the integer flags are read
  // strictly first: `--nodes abc` must not record the default fleet.
  for (const auto& [name, min_value] :
       {std::pair<const char*, std::int64_t>{"nodes", 1}, {"seed", 0}}) {
    std::int64_t value = min_value;
    if (!flags.parse_int(name, value) || value < min_value) {
      std::fprintf(stderr, "bad value '%s' for --%s (integer >= %lld expected)\n",
                   flags.get_string(name, "").c_str(), name,
                   static_cast<long long>(min_value));
      flags_ok = false;
    }
  }
  if (!flags_ok) return 2;
  const auto& args = flags.positional();
  if (args.size() < 2) {
    std::fprintf(stderr,
                 "usage: trace_tools record|replay|info <file> "
                 "[--nodes N] [--duration S] [--protocol P] [--seed S]\n"
                 "replay keeps the 1200 s default traffic.ttl with a full TTL window,\n"
                 "so it needs a trace longer than 1200 s (record's default is 2000 s)\n");
    return 2;
  }
  const std::string& cmd = args[0];
  const std::string& path = args[1];
  try {
    if (cmd == "record") {
      return cmd_record(path, static_cast<int>(flags.get_int("nodes", 40)),
                        flags.get_double("duration", 2000.0),
                        static_cast<std::uint64_t>(flags.get_int("seed", 1)));
    }
    if (cmd == "replay") {
      return cmd_replay(path, flags.get_string("protocol", "EER"));
    }
    if (cmd == "info") return cmd_info(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
}
