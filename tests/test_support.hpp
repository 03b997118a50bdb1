// Shared helpers for simulator, routing and harness tests: a recording
// router that exposes the protected Router API, world builders with
// scripted (trace-driven) movement so contact timing is exact and
// deterministic, and the two reference scenarios as scenario-file text.
#pragma once

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "geo/trace.hpp"
#include "harness/spec_io.hpp"
#include "mobility/movement_model.hpp"
#include "mobility/trace_playback.hpp"
#include "sim/router.hpp"
#include "sim/world.hpp"

namespace dtn::test {

/// Router that records every callback and exposes send_copy for tests.
class RecordingRouter : public sim::Router {
 public:
  explicit RecordingRouter(int initial_replicas = 1)
      : initial_replicas_(initial_replicas) {}

  [[nodiscard]] std::string name() const override { return "Recording"; }
  [[nodiscard]] int initial_replicas() const override { return initial_replicas_; }

  void on_contact_up(sim::NodeIdx peer) override { contacts_up.push_back(peer); }
  void on_contact_down(sim::NodeIdx peer) override { contacts_down.push_back(peer); }
  void on_message_created(const sim::Message& m) override { created.push_back(m.id); }
  void on_message_received(const sim::StoredMessage& sm, sim::NodeIdx from) override {
    received.push_back({sm.msg.id, from});
  }
  void on_transfer_success(const sim::Message& m, sim::NodeIdx to, int replicas_sent,
                           bool delivered) override {
    successes.push_back({m.id, to, replicas_sent, delivered});
  }
  void on_delivered(const sim::Message& m) override { delivered_ids.push_back(m.id); }

  // Expose the protected API for driving tests.
  using sim::Router::buffer;
  using sim::Router::contacts;
  using sim::Router::peer_has;
  using sim::Router::send_copy;

  struct Received {
    sim::MsgId id;
    sim::NodeIdx from;
  };
  struct Success {
    sim::MsgId id;
    sim::NodeIdx to;
    int replicas;
    bool delivered;
  };

  std::vector<sim::NodeIdx> contacts_up;
  std::vector<sim::NodeIdx> contacts_down;
  std::vector<sim::MsgId> created;
  std::vector<Received> received;
  std::vector<Success> successes;
  std::vector<sim::MsgId> delivered_ids;

 private:
  int initial_replicas_;
};

/// Movement that keeps a node at `pos` forever (alias for readability).
inline mobility::MovementModelPtr pinned(geo::Vec2 pos) {
  return std::make_unique<mobility::Stationary>(pos);
}

/// Movement scripted by (time, position) keyframes with linear motion.
inline mobility::MovementModelPtr scripted(
    std::vector<std::pair<double, geo::Vec2>> keyframes) {
  std::vector<geo::TraceSample> samples;
  samples.reserve(keyframes.size());
  for (const auto& [t, p] : keyframes) {
    samples.push_back(geo::TraceSample{t, 0, p});
  }
  return std::make_unique<mobility::TracePlayback>(std::move(samples));
}

/// Default test world: 10 m range, 2 Mbps, 1 MB buffers, dt 0.1 s.
inline sim::WorldConfig test_world_config(std::uint64_t seed = 1) {
  sim::WorldConfig c;
  c.seed = seed;
  return c;
}

/// A message of `kb` kilobytes from src to dst created at t=`created`.
inline sim::Message make_message(sim::MsgId id, sim::NodeIdx src, sim::NodeIdx dst,
                                 double created = 0.0, double ttl = 1200.0,
                                 std::int64_t kb = 25) {
  sim::Message m;
  m.id = id;
  m.src = src;
  m.dst = dst;
  m.created = created;
  m.ttl = ttl;
  m.size_bytes = kb * 1024;
  return m;
}

/// Serialized key -> value map of a spec's canonical config (to_config).
inline std::map<std::string, std::string> config_map(const harness::ScenarioSpec& spec) {
  std::map<std::string, std::string> kv;
  std::istringstream in(harness::to_config(spec));
  for (std::string line; std::getline(in, line);) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    const auto trim = [](const std::string& text) {
      const auto b = text.find_first_not_of(" \t");
      const auto e = text.find_last_not_of(" \t");
      return b == std::string::npos ? std::string() : text.substr(b, e - b + 1);
    };
    kv[trim(line.substr(0, eq))] = trim(line.substr(eq + 1));
  }
  return kv;
}

/// The paper's evaluation scenario (Sec. V-A): 120 buses on the 12 x 16
/// block downtown map for 10 000 s, 10 m radios at 2 Mbps, 1 MB buffers, a
/// 25 KB message every 25-35 s with a 20 min TTL, EER with lambda = 10 and
/// alpha = 0.28, communities = route districts. `overrides` is more
/// `key = value` text; a later line wins, so tests shrink the scenario by
/// appending lines (scenario.nodes, scenario.duration, map.rows, ...).
inline harness::ScenarioSpec paper_bus_spec(const std::string& overrides = "") {
  return harness::parse_spec(
      "scenario.name = bus\n"
      "scenario.duration = 10000\n"
      "map.kind = downtown\n"
      "group.buses.model = bus\n"
      "group.buses.count = 120\n" +
      overrides);
}

/// Community walkers on an open field: 80 nodes whose waypoints stay in
/// one of 4 vertical home bands with probability 0.85, for 8 000 s, with
/// the paper's radio, buffer, traffic and protocol defaults. `overrides`
/// as for paper_bus_spec.
inline harness::ScenarioSpec community_spec(const std::string& overrides = "") {
  return harness::parse_spec(
      "scenario.name = community\n"
      "scenario.duration = 8000\n"
      "map.kind = open_field\n"
      "group.walkers.model = community\n"
      "group.walkers.count = 80\n" +
      overrides);
}

}  // namespace dtn::test
