// Tiny command-line / environment flag parser shared by examples and
// benchmark binaries. Supports `--name=value`, `--name value` and boolean
// `--name` forms; unknown flags are kept so google-benchmark's own flags
// pass through untouched.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace dtn::util {

class Flags {
 public:
  Flags() = default;

  /// Parses argv. Flags consumed here are removed from the returned
  /// remainder so the caller can forward leftovers to other parsers.
  static Flags parse(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Strict integer read: false when the flag is present but not a whole
  /// integer (get_int silently falls back on garbage, which strict CLIs —
  /// dtnsim, example_trace_tools — must not accept). Absent flags leave
  /// `out` untouched and return true.
  [[nodiscard]] bool parse_int(const std::string& name, std::int64_t& out) const;

  /// Every value given for a repeatable flag, in command-line order (e.g.
  /// `--set a=1 --set b=2`); empty when the flag never appeared. The
  /// scalar getters above see the LAST occurrence.
  [[nodiscard]] std::vector<std::string> get_list(const std::string& name) const;

  /// Every distinct flag name that appeared, in first-use order.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Flags present but not in `allowed`, in first-use order — the shared
  /// scan behind strict CLIs (dtnsim, example_trace_tools), which
  /// must reject misspelled flags instead of silently running with
  /// defaults. (google-benchmark binaries stay permissive so its own
  /// flags pass through.)
  [[nodiscard]] std::vector<std::string> unknown_flags(
      std::initializer_list<const char*> allowed) const;

  /// Positional (non-flag) arguments in original order.
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

  void set(const std::string& name, const std::string& value) {
    values_[name] = value;
    ordered_.emplace_back(name, value);
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::pair<std::string, std::string>> ordered_;  ///< all occurrences
  std::vector<std::string> positional_;
};

/// Splits a comma-separated flag value ("EER,CR,EBR") into its non-empty
/// tokens — the shared parser for --protocols / --axis style flags.
std::vector<std::string> split_csv(const std::string& csv);

}  // namespace dtn::util
