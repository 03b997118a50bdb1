#include "harness/spec_io.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
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

std::string join_names(const std::vector<std::string>& names, const char* separator = ", ") {
  std::string out;
  for (const auto& n : names) {
    if (!out.empty()) out += separator;
    out += n;
  }
  return out;
}

/// The scalar sections' keys, in listing and printing order. The two rows
/// without a field stay explicit in apply_key and to_config: the
/// write-only alias `scenario.nodes` and the enum-valued `traffic.profile`.
const std::vector<util::KeyRow<ScenarioSpec>>& spec_rows() {
  using util::field_at;
  using S = ScenarioSpec;
  using World = sim::WorldConfig;
  using Traffic = sim::TrafficParams;
  using Protocol = routing::ProtocolConfig;
  using Communities = CommunitySpec;
  static const std::vector<util::KeyRow<S>> rows{
      {"scenario.name", field_at<&S::name>},
      {"scenario.duration", field_at<&S::duration_s>},
      {"scenario.seed", field_at<&S::seed>},
      {"scenario.full_ttl_window", field_at<&S::full_ttl_window>},
      {"scenario.nodes", nullptr},
      // Vetted against the map kinds in apply_key; the kind's own keys
      // print right after it.
      {"map.kind", field_at<&S::map, &MapSpec::kind>},
      {"world.step_dt", field_at<&S::world, &World::step_dt>},
      {"world.radio_range", field_at<&S::world, &World::radio_range>},
      {"world.bitrate_bps", field_at<&S::world, &World::bitrate_bps>},
      {"world.buffer_bytes", field_at<&S::world, &World::buffer_bytes>},
      {"world.ttl_sweep_interval", field_at<&S::world, &World::ttl_sweep_interval>},
      // Engaged-only: a fixed-dt config's canonical form, and so its
      // campaign fingerprint, does not mention the kernel.
      {"world.event_kernel", field_at<&S::world, &World::event_kernel>, nullptr, true},
      {"traffic.interval_min", field_at<&S::traffic, &Traffic::interval_min>},
      {"traffic.interval_max", field_at<&S::traffic, &Traffic::interval_max>},
      {"traffic.start", field_at<&S::traffic, &Traffic::start>},
      {"traffic.stop", field_at<&S::traffic, &Traffic::stop>},
      {"traffic.size_bytes", field_at<&S::traffic, &Traffic::size_bytes>},
      {"traffic.ttl", field_at<&S::traffic, &Traffic::ttl>},
      {"traffic.profile", nullptr},
      {"traffic.on", field_at<&S::traffic, &Traffic::on_s>},
      {"traffic.off", field_at<&S::traffic, &Traffic::off_s>},
      {"traffic.period", field_at<&S::traffic, &Traffic::period_s>},
      {"traffic.phase", field_at<&S::traffic, &Traffic::phase_s>},
      // Engaged-only: the empty string means "no trace file", which is not
      // a serializable value.
      {"traffic.file", field_at<&S::traffic_file>, nullptr, true},
      // Accepted verbatim: protocols may be registered after parsing
      // (custom routers); validate_spec / create_router reject unknown
      // names at run.
      {"protocol.name", field_at<&S::protocol, &Protocol::name>},
      {"protocol.copies", field_at<&S::protocol, &Protocol::copies>},
      {"protocol.alpha", field_at<&S::protocol, &Protocol::alpha>},
      {"protocol.window", field_at<&S::protocol, &Protocol::window>},
      {"communities.source", field_at<&S::communities, &Communities::source>,
       community_source_names},
      {"communities.count", field_at<&S::communities, &Communities::count>},
      {"communities.warmup", field_at<&S::communities, &Communities::warmup_s>},
  };
  return rows;
}

/// The keys of one `traffic.<src>.<dst>.*` matrix entry.
const std::vector<util::KeyRow<TrafficEntrySpec>>& matrix_rows() {
  using util::field_at;
  using E = TrafficEntrySpec;
  static const std::vector<util::KeyRow<E>> rows{
      {"interval_min", field_at<&E::interval_min>},
      {"interval_max", field_at<&E::interval_max>},
      {"size_bytes", field_at<&E::size_bytes>},
      {"weight", field_at<&E::weight>},
  };
  return rows;
}

/// The keys every group has ahead of its model's own.
constexpr const char* kGroupKeys[] = {"model", "count", "protocol"};

template <typename Block>
const util::KeyRow<Block>* find_row(const std::vector<util::KeyRow<Block>>& rows,
                                    const std::string& key) {
  for (const auto& row : rows) {
    if (key == row.key) return &row;
  }
  return nullptr;
}

template <typename Block>
std::vector<std::string> row_keys(const std::vector<util::KeyRow<Block>>& rows,
                                  const std::string& prefix = "") {
  std::vector<std::string> keys;
  for (const auto& row : rows) keys.push_back(prefix + row.key);
  return keys;
}

std::string bad_value(const std::string& key, const std::string& value) {
  return "bad value '" + value + "' for " + key;
}

/// Sets `row`'s field; "" on success, else the bad-value diagnostic (with
/// the allowed values when the row has a closed set).
template <typename Block>
std::string set_row(const util::KeyRow<Block>& row, Block& block, const std::string& key,
                    const std::string& value) {
  if (row.set(block, value)) return "";
  if (row.allowed == nullptr) return bad_value(key, value);
  return bad_value(key, value) + " (" + join_names(row.allowed(), " | ") + ")";
}

/// Prints "<prefix><key> = <value>" for each row of `block`.
template <typename Block>
void print_rows(std::ostream& out, const std::string& prefix,
                const std::vector<util::KeyRow<Block>>& rows, const Block& block) {
  for (const auto& row : rows) {
    if (row.printed(block)) out << prefix << row.key << " = " << row.get(block) << "\n";
  }
}

std::string unknown_key(const ScenarioSpec& spec, const std::string& key) {
  return "unknown key '" + key + "'" + suggestion_for(spec, key);
}

std::string map_key(ScenarioSpec& spec, const std::string& key, const std::string& rest,
                    const std::string& value) {
  const auto* kind = geo::find_map_kind(spec.map.kind);
  if (kind == nullptr) {
    return "map.kind '" + spec.map.kind + "' is not registered";
  }
  if (const auto* row = find_row(kind->fields, rest)) {
    return set_row(*row, spec.map.params, key, value);
  }
  return "unknown key '" + key + "' for map kind '" + spec.map.kind +
         "' (known: " + join_names(row_keys(kind->fields)) + ")";
}

/// Matrix entries: traffic.<src>.<dst>.<param>. Group names are vetted by
/// validate_spec, not here — the canonical form serializes the traffic
/// section before any group declaration.
std::string matrix_key(ScenarioSpec& spec, const std::string& key, const std::string& rest,
                       const std::string& value) {
  const auto d1 = rest.find('.');
  const auto d2 = d1 == std::string::npos ? std::string::npos : rest.find('.', d1 + 1);
  if (d2 == std::string::npos || d1 == 0 || d2 == d1 + 1 || d2 + 1 == rest.size()) {
    return unknown_key(spec, key);
  }
  const std::string src = rest.substr(0, d1);
  const std::string dst = rest.substr(d1 + 1, d2 - d1 - 1);
  const auto* row = find_row(matrix_rows(), rest.substr(d2 + 1));
  if (row == nullptr) {
    // Vet the param BEFORE find-or-create so a typo cannot leave a stray
    // entry behind in the spec.
    return "unknown key '" + key +
           "' (matrix entry keys: " + join_names(row_keys(matrix_rows())) + ")";
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
  return set_row(*row, *entry, key, value);
}

std::string group_key(ScenarioSpec& spec, const std::string& key, const std::string& rest,
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
  if (group == nullptr && param != "model") {
    // A group comes into existence through its model key, so every later
    // parameter is interpreted under the right vocabulary.
    return "unknown group '" + name + "' — declare it with group." + name +
           ".model = <" + join_names(group_model_names()) + "> first";
  }
  if (param == "model") {
    if (find_group_builder(value) == nullptr) {
      return "unknown mobility model '" + value +
             "' (known: " + join_names(group_model_names()) + ")";
    }
    if (group == nullptr) {
      GroupSpec g;
      g.name = name;
      spec.groups.push_back(std::move(g));
      group = &spec.groups.back();
    }
    group->model = value;
    return "";
  }
  if (param == "count") {
    return util::parse_value(value, group->count) ? "" : bad_value(key, value);
  }
  if (param == "protocol") {
    // Accepted verbatim like protocol.name (custom routers may register
    // after parsing); validate_spec rejects unknown names at run. An empty
    // value clears the override (the group inherits protocol.name again).
    group->protocol = value;
    return "";
  }
  const GroupBuilder* builder = find_group_builder(group->model);
  if (builder == nullptr) {
    return "group '" + name + "' has unknown model '" + group->model + "'";
  }
  if (const auto* row = find_row(builder->fields, param)) {
    return set_row(*row, group->params, key, value);
  }
  std::vector<std::string> names(std::begin(kGroupKeys), std::end(kGroupKeys));
  for (const auto& row : builder->fields) names.push_back(row.key);
  return "unknown key '" + key + "' for mobility model '" + group->model +
         "' (known: " + join_names(names) + ")";
}

/// Applies one assignment; returns "" on success, a diagnostic message
/// otherwise.
std::string apply_key(ScenarioSpec& spec, const std::string& key,
                      const std::string& value) {
  const auto dot = key.find('.');
  if (dot == std::string::npos || dot + 1 == key.size()) return unknown_key(spec, key);
  const std::string section = key.substr(0, dot);
  const std::string rest = key.substr(dot + 1);
  if (key == "scenario.nodes") {
    // Convenience alias for single-group scenarios (the common sweep axis).
    if (spec.groups.size() != 1) {
      return "scenario.nodes requires exactly one group (have " +
             std::to_string(spec.groups.size()) + "); set group.<name>.count instead";
    }
    return util::parse_value(value, spec.groups[0].count) ? "" : bad_value(key, value);
  }
  if (key == "map.kind") {
    if (geo::find_map_kind(value) == nullptr) {
      return "unknown map kind '" + value + "' (known: " + join_names(geo::map_kind_names()) +
             ")";
    }
    spec.map.kind = value;
    return "";
  }
  if (key == "traffic.profile") {
    if (!parse_traffic_profile(value, spec.traffic.profile)) {
      return bad_value(key, value) + " (" + traffic_profile_list() + ")";
    }
    return "";
  }
  if (const auto* row = find_row(spec_rows(), key)) return set_row(*row, spec, key, value);
  if (section == "map") return map_key(spec, key, rest, value);
  if (section == "traffic") return matrix_key(spec, key, rest, value);
  if (section == "group") return group_key(spec, key, rest, value);
  return unknown_key(spec, key);
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
  std::vector<std::string> keys = row_keys(spec_rows());
  const auto append = [&keys](std::vector<std::string> more) {
    keys.insert(keys.end(), more.begin(), more.end());
  };
  if (const auto* kind = geo::find_map_kind(spec.map.kind)) {
    append(row_keys(kind->fields, "map."));
  }
  for (const auto& e : spec.traffic_matrix) {
    append(row_keys(matrix_rows(), "traffic." + e.src + "." + e.dst + "."));
  }
  for (const auto& g : spec.groups) {
    const std::string prefix = "group." + g.name + ".";
    for (const char* key : kGroupKeys) keys.push_back(prefix + key);
    if (const auto* builder = find_group_builder(g.model)) {
      append(row_keys(builder->fields, prefix));
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
  const auto* kind = geo::find_map_kind(spec.map.kind);
  std::string section = "scenario";
  for (const auto& row : spec_rows()) {
    const std::string key = row.key;
    const std::string row_section = key.substr(0, key.find('.'));
    if (row_section != section) {
      // Matrix entries close the traffic section, in declaration order
      // (= their RNG-stream index).
      if (section == "traffic") {
        for (const auto& e : spec.traffic_matrix) {
          print_rows(out, "traffic." + e.src + "." + e.dst + ".", matrix_rows(), e);
        }
      }
      section = row_section;
      out << "\n";
    }
    if (key == "traffic.profile") {
      out << key << " = " << traffic_profile_name(spec.traffic.profile) << "\n";
    } else if (row.field != nullptr && row.printed(spec)) {  // null: scenario.nodes
      out << key << " = " << row.get(spec) << "\n";
    }
    if (key == "map.kind" && kind != nullptr) {
      print_rows(out, "map.", kind->fields, spec.map.params);
    }
  }
  for (const auto& g : spec.groups) {
    const std::string prefix = "group." + g.name + ".";
    out << "\n" << prefix << "model = " << g.model << "\n";
    out << prefix << "count = " << util::format_value(g.count) << "\n";
    // Inherit-from-protocol.name is the empty string; printed only when an
    // override is engaged, so homogeneous configs stay unchanged.
    if (!g.protocol.empty()) out << prefix << "protocol = " << g.protocol << "\n";
    if (const auto* builder = find_group_builder(g.model)) {
      print_rows(out, prefix, builder->fields, g.params);
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
