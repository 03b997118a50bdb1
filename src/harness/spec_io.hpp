// ONE-style scenario config files for ScenarioSpec: a line-oriented
// `key = value` grammar (full- and trailing-line `#` comments), a
// serializer whose output re-parses to the identical spec (pinned by the
// harness_spec_roundtrip_test property test), and line-numbered
// diagnostics for unknown keys (with nearest-key suggestions) and
// malformed values.
//
//   # helsinki buses, paper scale
//   scenario.duration = 10000
//   map.kind = downtown
//   map.districts = 4
//   group.buses.model = bus
//   group.buses.count = 120
//   group.buses.speed_max = 13.9
//   protocol.name = EER
//
// The same key vocabulary drives single-key overrides (`dtnsim run
// scenario.cfg --set protocol.name=CR`) and sweep axes
// (SweepAxis::key); apply_override is the shared entry.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "harness/spec.hpp"

namespace dtn::harness {

/// One parse problem, anchored to a 1-based config line (0 for overrides).
struct SpecDiagnostic {
  int line = 0;
  std::string message;
};

/// Thrown by parse_spec / load_spec / apply_override. what() is every
/// diagnostic joined as "<context>:<line>: <message>" lines.
class SpecError : public std::runtime_error {
 public:
  SpecError(std::vector<SpecDiagnostic> diagnostics, const std::string& context);
  [[nodiscard]] const std::vector<SpecDiagnostic>& diagnostics() const noexcept {
    return diagnostics_;
  }

 private:
  std::vector<SpecDiagnostic> diagnostics_;
};

/// Parses config text into a spec (defaults + assignments in file order).
/// Throws SpecError carrying EVERY problem found, not just the first.
ScenarioSpec parse_spec(const std::string& text);

/// Non-throwing form: returns false and fills `diagnostics` on failure;
/// `out` then holds the partially-applied spec (useful for tooling).
bool try_parse_spec(const std::string& text, ScenarioSpec& out,
                    std::vector<SpecDiagnostic>& diagnostics);

/// Reads and parses a config file; diagnostics are prefixed "<path>:<line>".
/// Throws std::runtime_error when the file cannot be read.
ScenarioSpec load_spec(const std::string& path);

/// Serializes a spec to canonical config text: every serializable field,
/// sections in fixed order, groups in declaration order, each key from its
/// util::KeyRow (the map kind's and group model's keys from their tables). parse_spec(to_config(s)) reproduces s for
/// any spec that validate_spec accepts (group names are key segments and
/// restricted to [A-Za-z0-9_-]; string values must not contain '#' or
/// newlines — '#' starts a comment).
std::string to_config(const ScenarioSpec& spec);

/// Writes to_config(spec) to `path`; false on I/O failure.
bool save_spec(const std::string& path, const ScenarioSpec& spec);

/// Applies one `key = value` assignment to an existing spec (CLI --set,
/// sweep axes). Throws SpecError (single diagnostic, line 0) on unknown
/// keys or bad values.
void apply_override(ScenarioSpec& spec, const std::string& key, const std::string& value);

/// load_spec + `--set`-style "key=value" assignments applied in order —
/// the shared load path of the dtnsim CLI and the example binaries.
ScenarioSpec load_spec_with_overrides(const std::string& path,
                                      const std::vector<std::string>& assignments);

/// Splits "key=value" (first '='); throws SpecError when '=' is missing.
std::pair<std::string, std::string> split_assignment(const std::string& text);

/// Every full key currently addressable on `spec`, read off the key rows:
/// the scalar sections' keys, then the `map.*` keys of the spec's map kind,
/// each matrix entry's keys, and each group's keys (model, count, protocol,
/// then its model's). This is the list behind the parser's nearest-key
/// suggestions, which take the first closest key, so the order breaks
/// ties; the override property test walks it so a new row is covered the
/// moment it is added. (`scenario.nodes` is a write-only alias and never
/// serialized.)
std::vector<std::string> spec_key_names(const ScenarioSpec& spec);

}  // namespace dtn::harness
