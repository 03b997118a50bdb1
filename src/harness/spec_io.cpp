#include "harness/spec_io.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/value_parse.hpp"

namespace dtn::harness {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

/// Edit distance for "did you mean" suggestions (small strings only).
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t prev = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         prev + (a[i - 1] == b[j - 1] ? 0 : 1)});
      prev = up;
    }
  }
  return row[b.size()];
}

std::string suggestion_for(const ScenarioSpec& spec, const std::string& key) {
  std::string best;
  std::size_t best_dist = 3;  // suggest only close misses
  for (const auto& candidate : spec_key_names(spec)) {
    const std::size_t d = edit_distance(key, candidate);
    if (d < best_dist) {
      best_dist = d;
      best = candidate;
    }
  }
  return best.empty() ? "" : " (did you mean '" + best + "'?)";
}

std::string join_names(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

template <typename T>
std::string set_num(T& field, const std::string& key, const std::string& value) {
  T v{};
  if (!util::parse_value(value, v)) {
    return "bad value '" + value + "' for " + key;
  }
  field = v;
  return "";
}

std::string scenario_key(ScenarioSpec& spec, const std::string& key,
                         const std::string& value) {
  if (key == "name") {
    spec.name = value;
    return "";
  }
  if (key == "duration") return set_num(spec.duration_s, "scenario.duration", value);
  if (key == "seed") return set_num(spec.seed, "scenario.seed", value);
  if (key == "full_ttl_window") {
    return set_num(spec.full_ttl_window, "scenario.full_ttl_window", value);
  }
  if (key == "nodes") {
    // Convenience alias for single-group scenarios (the common sweep axis).
    if (spec.groups.size() != 1) {
      return "scenario.nodes requires exactly one group (have " +
             std::to_string(spec.groups.size()) + "); set group.<name>.count instead";
    }
    return set_num(spec.groups[0].count, "scenario.nodes", value);
  }
  return std::string("__unknown__");
}

std::string map_key(ScenarioSpec& spec, const std::string& key, const std::string& value) {
  if (key == "kind") {
    if (geo::find_map_kind(value) == nullptr) {
      return "unknown map kind '" + value + "' (known: " + join_names(geo::map_kind_names()) +
             ")";
    }
    spec.map.kind = value;
    return "";
  }
  const auto* kind = geo::find_map_kind(spec.map.kind);
  if (kind == nullptr) {
    return "map.kind '" + spec.map.kind + "' is not registered";
  }
  switch (kind->set(spec.map.params, key, value)) {
    case util::KvResult::kOk:
      return "";
    case util::KvResult::kBadValue:
      return "bad value '" + value + "' for map." + key;
    case util::KvResult::kUnknownKey:
      break;
  }
  std::vector<std::pair<std::string, std::string>> kv;
  kind->emit(spec.map.params, kv);
  std::vector<std::string> names;
  for (const auto& [k, v] : kv) names.push_back(k);
  return "unknown key 'map." + key + "' for map kind '" + spec.map.kind +
         "' (known: " + join_names(names) + ")";
}

std::string world_key(ScenarioSpec& spec, const std::string& key,
                      const std::string& value) {
  sim::WorldConfig& w = spec.world;
  if (key == "step_dt") return set_num(w.step_dt, "world.step_dt", value);
  if (key == "radio_range") return set_num(w.radio_range, "world.radio_range", value);
  if (key == "bitrate_bps") return set_num(w.bitrate_bps, "world.bitrate_bps", value);
  if (key == "buffer_bytes") return set_num(w.buffer_bytes, "world.buffer_bytes", value);
  if (key == "ttl_sweep_interval") {
    return set_num(w.ttl_sweep_interval, "world.ttl_sweep_interval", value);
  }
  if (key == "event_kernel") {
    return set_num(w.event_kernel, "world.event_kernel", value);
  }
  return std::string("__unknown__");
}

std::string traffic_key(ScenarioSpec& spec, const std::string& key,
                        const std::string& value) {
  sim::TrafficParams& t = spec.traffic;
  if (key == "interval_min") return set_num(t.interval_min, "traffic.interval_min", value);
  if (key == "interval_max") return set_num(t.interval_max, "traffic.interval_max", value);
  if (key == "start") return set_num(t.start, "traffic.start", value);
  if (key == "stop") return set_num(t.stop, "traffic.stop", value);
  if (key == "size_bytes") return set_num(t.size_bytes, "traffic.size_bytes", value);
  if (key == "ttl") return set_num(t.ttl, "traffic.ttl", value);
  if (key == "profile") {
    if (!parse_traffic_profile(value, t.profile)) {
      return "bad value '" + value + "' for traffic.profile (" +
             traffic_profile_list() + ")";
    }
    return "";
  }
  if (key == "on") return set_num(t.on_s, "traffic.on", value);
  if (key == "off") return set_num(t.off_s, "traffic.off", value);
  if (key == "period") return set_num(t.period_s, "traffic.period", value);
  if (key == "phase") return set_num(t.phase_s, "traffic.phase", value);
  if (key == "file") {
    spec.traffic_file = value;
    return "";
  }
  // Matrix entries: traffic.<src>.<dst>.<param>. Group names are vetted by
  // validate_spec, not here — the canonical form serializes the traffic
  // section before any group declaration.
  const auto d1 = key.find('.');
  const auto d2 = d1 == std::string::npos ? std::string::npos : key.find('.', d1 + 1);
  if (d2 == std::string::npos || d1 == 0 || d2 == d1 + 1 || d2 + 1 == key.size()) {
    return std::string("__unknown__");
  }
  const std::string src = key.substr(0, d1);
  const std::string dst = key.substr(d1 + 1, d2 - d1 - 1);
  const std::string param = key.substr(d2 + 1);
  if (param != "interval_min" && param != "interval_max" && param != "size_bytes" &&
      param != "weight") {
    // Vet the param BEFORE find-or-create so a typo cannot leave a stray
    // entry behind in the spec.
    return "unknown key 'traffic." + key +
           "' (matrix entry keys: interval_min, interval_max, size_bytes, weight)";
  }
  TrafficEntrySpec* entry = nullptr;
  for (auto& e : spec.traffic_matrix) {
    if (e.src == src && e.dst == dst) {
      entry = &e;
      break;
    }
  }
  if (entry == nullptr) {
    TrafficEntrySpec e;
    e.src = src;
    e.dst = dst;
    spec.traffic_matrix.push_back(std::move(e));
    entry = &spec.traffic_matrix.back();
  }
  const std::string full = "traffic." + key;
  if (param == "interval_min") return set_num(entry->interval_min, full, value);
  if (param == "interval_max") return set_num(entry->interval_max, full, value);
  if (param == "size_bytes") return set_num(entry->size_bytes, full, value);
  return set_num(entry->weight, full, value);
}

std::string protocol_key(ScenarioSpec& spec, const std::string& key,
                         const std::string& value) {
  routing::ProtocolConfig& p = spec.protocol;
  if (key == "name") {
    // Accepted verbatim: protocols may be registered after parsing (custom
    // routers); validate_spec / create_router reject unknown names at run.
    p.name = value;
    return "";
  }
  if (key == "copies") return set_num(p.copies, "protocol.copies", value);
  if (key == "alpha") return set_num(p.alpha, "protocol.alpha", value);
  if (key == "window") return set_num(p.window, "protocol.window", value);
  return std::string("__unknown__");
}

std::string communities_key(ScenarioSpec& spec, const std::string& key,
                            const std::string& value) {
  if (key == "source") {
    const std::vector<std::string> sources = community_source_names();
    if (std::find(sources.begin(), sources.end(), value) == sources.end()) {
      return "bad value '" + value + "' for communities.source (" +
             community_source_list() + ")";
    }
    spec.communities.source = value;
    return "";
  }
  if (key == "count") return set_num(spec.communities.count, "communities.count", value);
  if (key == "warmup") {
    return set_num(spec.communities.warmup_s, "communities.warmup", value);
  }
  return std::string("__unknown__");
}

std::string group_key(ScenarioSpec& spec, const std::string& rest,
                      const std::string& value) {
  const auto dot = rest.find('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 == rest.size()) {
    return "group keys are group.<name>.<param>";
  }
  const std::string name = rest.substr(0, dot);
  const std::string param = rest.substr(dot + 1);

  GroupSpec* group = nullptr;
  for (auto& g : spec.groups) {
    if (g.name == name) {
      group = &g;
      break;
    }
  }
  if (group == nullptr) {
    // A group comes into existence through its model key, so every later
    // parameter is interpreted under the right vocabulary.
    if (param != "model") {
      return "unknown group '" + name + "' — declare it with group." + name +
             ".model = <" + join_names(mobility::mobility_model_names()) + "> first";
    }
    if (mobility::find_mobility_model(value) == nullptr) {
      return "unknown mobility model '" + value +
             "' (known: " + join_names(mobility::mobility_model_names()) + ")";
    }
    GroupSpec g;
    g.name = name;
    g.model = value;
    spec.groups.push_back(std::move(g));
    return "";
  }
  if (param == "model") {
    if (mobility::find_mobility_model(value) == nullptr) {
      return "unknown mobility model '" + value +
             "' (known: " + join_names(mobility::mobility_model_names()) + ")";
    }
    group->model = value;
    return "";
  }
  if (param == "count") {
    return set_num(group->count, "group." + name + ".count", value);
  }
  if (param == "protocol") {
    // Accepted verbatim like protocol.name (custom routers may register
    // after parsing); validate_spec rejects unknown names at run. An empty
    // value clears the override (the group inherits protocol.name again).
    group->protocol = value;
    return "";
  }
  const auto* model = mobility::find_mobility_model(group->model);
  if (model == nullptr) {
    return "group '" + name + "' has unknown model '" + group->model + "'";
  }
  switch (model->set(group->params, param, value)) {
    case util::KvResult::kOk:
      return "";
    case util::KvResult::kBadValue:
      return "bad value '" + value + "' for group." + name + "." + param;
    case util::KvResult::kUnknownKey:
      break;
  }
  std::vector<std::pair<std::string, std::string>> kv;
  model->emit(group->params, kv);
  std::vector<std::string> names{"model", "count", "protocol"};
  for (const auto& [k, v] : kv) names.push_back(k);
  return "unknown key 'group." + name + "." + param + "' for mobility model '" +
         group->model + "' (known: " + join_names(names) + ")";
}

/// Applies one assignment; returns "" on success, a diagnostic message
/// otherwise.
std::string apply_key(ScenarioSpec& spec, const std::string& key,
                      const std::string& value) {
  const auto dot = key.find('.');
  const std::string section = dot == std::string::npos ? key : key.substr(0, dot);
  const std::string rest = dot == std::string::npos ? "" : key.substr(dot + 1);
  std::string result = "__unknown__";
  if (rest.empty()) {
    result = "__unknown__";
  } else if (section == "scenario") {
    result = scenario_key(spec, rest, value);
  } else if (section == "map") {
    result = map_key(spec, rest, value);
  } else if (section == "world") {
    result = world_key(spec, rest, value);
  } else if (section == "traffic") {
    result = traffic_key(spec, rest, value);
  } else if (section == "protocol") {
    result = protocol_key(spec, rest, value);
  } else if (section == "communities") {
    result = communities_key(spec, rest, value);
  } else if (section == "group") {
    result = group_key(spec, rest, value);
  }
  if (result == "__unknown__") {
    return "unknown key '" + key + "'" + suggestion_for(spec, key);
  }
  return result;
}

std::string diagnostics_text(const std::vector<SpecDiagnostic>& diagnostics,
                             const std::string& context) {
  std::string out;
  for (const auto& d : diagnostics) {
    if (!out.empty()) out += "\n";
    out += context;
    if (d.line > 0) out += ":" + std::to_string(d.line);
    out += ": " + d.message;
  }
  return out;
}

bool parse_into(const std::string& text, ScenarioSpec& spec,
                std::vector<SpecDiagnostic>& diagnostics) {
  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    // Full-line and trailing comments; '#' cannot appear inside a value.
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.resize(hash);
    const std::string line = trim(raw);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      diagnostics.push_back({line_no, "expected 'key = value', got '" + line + "'"});
      continue;
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) {
      diagnostics.push_back({line_no, "missing key before '='"});
      continue;
    }
    const std::string error = apply_key(spec, key, value);
    if (!error.empty()) diagnostics.push_back({line_no, error});
  }
  return diagnostics.empty();
}

}  // namespace

std::vector<std::string> spec_key_names(const ScenarioSpec& spec) {
  std::vector<std::string> keys{
      "scenario.name",       "scenario.duration", "scenario.seed",
      "scenario.full_ttl_window", "scenario.nodes",
      "map.kind",
      "world.step_dt",       "world.radio_range", "world.bitrate_bps",
      "world.buffer_bytes",  "world.ttl_sweep_interval",
      "world.event_kernel",
      "traffic.interval_min", "traffic.interval_max", "traffic.start",
      "traffic.stop",        "traffic.size_bytes", "traffic.ttl",
      "traffic.profile",     "traffic.on",        "traffic.off",
      "traffic.period",      "traffic.phase",     "traffic.file",
      "protocol.name",       "protocol.copies",   "protocol.alpha",
      "protocol.window",
      "communities.source",  "communities.count", "communities.warmup"};
  std::vector<std::pair<std::string, std::string>> kv;
  if (const auto* kind = geo::find_map_kind(spec.map.kind)) {
    kv.clear();
    kind->emit(spec.map.params, kv);
    for (const auto& [k, v] : kv) keys.push_back("map." + k);
  }
  for (const auto& e : spec.traffic_matrix) {
    for (const char* param : {"interval_min", "interval_max", "size_bytes", "weight"}) {
      keys.push_back("traffic." + e.src + "." + e.dst + "." + param);
    }
  }
  for (const auto& g : spec.groups) {
    keys.push_back("group." + g.name + ".model");
    keys.push_back("group." + g.name + ".count");
    keys.push_back("group." + g.name + ".protocol");
    if (const auto* model = mobility::find_mobility_model(g.model)) {
      kv.clear();
      model->emit(g.params, kv);
      for (const auto& [k, v] : kv) keys.push_back("group." + g.name + "." + k);
    }
  }
  return keys;
}

SpecError::SpecError(std::vector<SpecDiagnostic> diagnostics, const std::string& context)
    : std::runtime_error(diagnostics_text(diagnostics, context)),
      diagnostics_(std::move(diagnostics)) {}

ScenarioSpec parse_spec(const std::string& text) {
  ScenarioSpec spec;
  std::vector<SpecDiagnostic> diagnostics;
  if (!parse_into(text, spec, diagnostics)) {
    throw SpecError(std::move(diagnostics), "spec");
  }
  return spec;
}

bool try_parse_spec(const std::string& text, ScenarioSpec& out,
                    std::vector<SpecDiagnostic>& diagnostics) {
  out = ScenarioSpec{};
  return parse_into(text, out, diagnostics);
}

ScenarioSpec load_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read scenario file '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  ScenarioSpec spec;
  std::vector<SpecDiagnostic> diagnostics;
  if (!parse_into(buffer.str(), spec, diagnostics)) {
    throw SpecError(std::move(diagnostics), path);
  }
  return spec;
}

std::string to_config(const ScenarioSpec& spec) {
  std::ostringstream out;
  out << "# scenario '" << spec.name << "' — dtnsim config (canonical form)\n";
  out << "scenario.name = " << spec.name << "\n";
  out << "scenario.duration = " << util::format_value(spec.duration_s) << "\n";
  out << "scenario.seed = " << util::format_value(spec.seed) << "\n";
  out << "scenario.full_ttl_window = " << util::format_value(spec.full_ttl_window)
      << "\n";

  out << "\nmap.kind = " << spec.map.kind << "\n";
  std::vector<std::pair<std::string, std::string>> kv;
  if (const auto* kind = geo::find_map_kind(spec.map.kind)) {
    kind->emit(spec.map.params, kv);
    for (const auto& [k, v] : kv) out << "map." << k << " = " << v << "\n";
  }

  const sim::WorldConfig& w = spec.world;
  out << "\nworld.step_dt = " << util::format_value(w.step_dt) << "\n";
  out << "world.radio_range = " << util::format_value(w.radio_range) << "\n";
  out << "world.bitrate_bps = " << util::format_value(w.bitrate_bps) << "\n";
  out << "world.buffer_bytes = " << util::format_value(w.buffer_bytes) << "\n";
  out << "world.ttl_sweep_interval = " << util::format_value(w.ttl_sweep_interval)
      << "\n";
  // Emitted only when engaged: a fixed-dt config's canonical form, and so
  // its campaign fingerprint, does not mention the kernel.
  if (w.event_kernel) out << "world.event_kernel = true\n";

  const sim::TrafficParams& t = spec.traffic;
  out << "\ntraffic.interval_min = " << util::format_value(t.interval_min) << "\n";
  out << "traffic.interval_max = " << util::format_value(t.interval_max) << "\n";
  out << "traffic.start = " << util::format_value(t.start) << "\n";
  out << "traffic.stop = " << util::format_value(t.stop) << "\n";
  out << "traffic.size_bytes = " << util::format_value(t.size_bytes) << "\n";
  out << "traffic.ttl = " << util::format_value(t.ttl) << "\n";
  out << "traffic.profile = " << traffic_profile_name(t.profile) << "\n";
  out << "traffic.on = " << util::format_value(t.on_s) << "\n";
  out << "traffic.off = " << util::format_value(t.off_s) << "\n";
  out << "traffic.period = " << util::format_value(t.period_s) << "\n";
  out << "traffic.phase = " << util::format_value(t.phase_s) << "\n";
  // Engaged-only, like group.<g>.protocol: the empty string means "no
  // trace file", which is not a serializable value.
  if (!spec.traffic_file.empty()) out << "traffic.file = " << spec.traffic_file << "\n";
  // Matrix entries in declaration order (= their RNG-stream index).
  for (const auto& e : spec.traffic_matrix) {
    const std::string prefix = "traffic." + e.src + "." + e.dst + ".";
    out << prefix << "interval_min = " << util::format_value(e.interval_min) << "\n";
    out << prefix << "interval_max = " << util::format_value(e.interval_max) << "\n";
    out << prefix << "size_bytes = " << util::format_value(e.size_bytes) << "\n";
    out << prefix << "weight = " << util::format_value(e.weight) << "\n";
  }

  const routing::ProtocolConfig& p = spec.protocol;
  out << "\nprotocol.name = " << p.name << "\n";
  out << "protocol.copies = " << util::format_value(p.copies) << "\n";
  out << "protocol.alpha = " << util::format_value(p.alpha) << "\n";
  out << "protocol.window = " << util::format_value(p.window) << "\n";

  out << "\ncommunities.source = " << spec.communities.source << "\n";
  out << "communities.count = " << util::format_value(spec.communities.count) << "\n";
  out << "communities.warmup = " << util::format_value(spec.communities.warmup_s)
      << "\n";

  for (const auto& g : spec.groups) {
    out << "\ngroup." << g.name << ".model = " << g.model << "\n";
    out << "group." << g.name << ".count = " << util::format_value(g.count) << "\n";
    // Inherit-from-protocol.name is the empty string; emitted only when an
    // override is engaged, so homogeneous configs stay unchanged.
    if (!g.protocol.empty()) {
      out << "group." << g.name << ".protocol = " << g.protocol << "\n";
    }
    if (const auto* model = mobility::find_mobility_model(g.model)) {
      kv.clear();
      model->emit(g.params, kv);
      for (const auto& [k, v] : kv) {
        out << "group." << g.name << "." << k << " = " << v << "\n";
      }
    }
  }
  return out.str();
}

bool save_spec(const std::string& path, const ScenarioSpec& spec) {
  std::ofstream out(path);
  if (!out) return false;
  out << to_config(spec);
  return static_cast<bool>(out);
}

void apply_override(ScenarioSpec& spec, const std::string& key,
                    const std::string& value) {
  const std::string error = apply_key(spec, trim(key), trim(value));
  if (!error.empty()) {
    throw SpecError({{0, error}}, "override");
  }
}

ScenarioSpec load_spec_with_overrides(const std::string& path,
                                      const std::vector<std::string>& assignments) {
  ScenarioSpec spec = load_spec(path);
  for (const auto& assignment : assignments) {
    const auto [key, value] = split_assignment(assignment);
    apply_override(spec, key, value);
  }
  return spec;
}

std::pair<std::string, std::string> split_assignment(const std::string& text) {
  const auto eq = text.find('=');
  if (eq == std::string::npos) {
    throw SpecError({{0, "expected key=value, got '" + text + "'"}}, "override");
  }
  return {trim(text.substr(0, eq)), trim(text.substr(eq + 1))};
}

}  // namespace dtn::harness
