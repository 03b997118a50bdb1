// Scalar <-> string conversions shared by the spec key-value layer (config
// parsing, serialization, sweep-axis overrides), and KeyRow, the one
// declaration of a `key = value` entry. Formatting uses the shortest
// round-tripping representation (std::to_chars), so parse(format(x)) == x
// bit for bit — the property the spec round-trip tests pin.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <string>
#include <system_error>
#include <type_traits>
#include <variant>
#include <vector>

namespace dtn::util {

inline bool parse_value(const std::string& text, double& out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc() || ptr != end) return false;
  out = v;
  return true;
}

inline bool parse_value(const std::string& text, std::int64_t& out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  std::int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc() || ptr != end) return false;
  out = v;
  return true;
}

inline bool parse_value(const std::string& text, std::uint64_t& out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc() || ptr != end) return false;
  out = v;
  return true;
}

inline bool parse_value(const std::string& text, int& out) {
  std::int64_t wide = 0;
  if (!parse_value(text, wide)) return false;
  if (wide < INT32_MIN || wide > INT32_MAX) return false;
  out = static_cast<int>(wide);
  return true;
}

inline bool parse_value(const std::string& text, bool& out) {
  if (text == "true" || text == "1" || text == "yes" || text == "on") {
    out = true;
    return true;
  }
  if (text == "false" || text == "0" || text == "no" || text == "off") {
    out = false;
    return true;
  }
  return false;
}

inline bool parse_value(const std::string& text, std::string& out) {
  out = text;
  return true;
}

inline std::string format_value(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, ptr) : std::string("0");
}

inline std::string format_value(std::int64_t v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, ptr) : std::string("0");
}

inline std::string format_value(std::uint64_t v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, ptr) : std::string("0");
}

inline std::string format_value(int v) { return format_value(static_cast<std::int64_t>(v)); }

inline std::string format_value(bool v) { return v ? "true" : "false"; }

inline std::string format_value(const std::string& v) { return v; }

/// A pointer to one typed field of a parameter block.
using FieldRef =
    std::variant<double*, int*, std::int64_t*, std::uint64_t*, bool*, std::string*>;

/// One `key = value` entry of a parameter block: the key, the field it
/// addresses, an optional closed set of allowed values, and whether it is
/// printed only when set. Parsing, printing, key listings and "(known:
/// ...)" hints all read the rows, so each key is declared once. Declared
/// after every parse_value/format_value overload so lookup finds them all.
template <typename Block>
struct KeyRow {
  const char* key;
  FieldRef (*field)(Block&);
  /// A function rather than a vector member: GCC 12.2 stops with an
  /// internal compiler error (in nothrow_spec_p) on a vector default
  /// member initializer here.
  std::vector<std::string> (*allowed)() = nullptr;
  /// Printed only when the field differs from its zero value (a true bool,
  /// a non-empty string).
  bool engaged_only = false;

  /// Parses `text` into the field; false, with the field untouched, when
  /// it does not parse as the field's type or is not an allowed value.
  bool set(Block& block, const std::string& text) const {
    if (allowed != nullptr) {
      const std::vector<std::string> names = allowed();
      if (std::find(names.begin(), names.end(), text) == names.end()) return false;
    }
    return std::visit([&text](auto* f) { return parse_value(text, *f); }, field(block));
  }

  /// The field's canonical text.
  std::string get(const Block& block) const {
    return std::visit([](auto* f) { return format_value(*f); }, view(block));
  }

  /// False for an engaged-only row whose field holds its zero value.
  bool printed(const Block& block) const {
    if (!engaged_only) return true;
    return std::visit([](auto* f) { return *f != std::remove_pointer_t<decltype(f)>{}; },
                      view(block));
  }

  /// field() for a read: it only takes the address, nothing is written.
  FieldRef view(const Block& block) const { return field(const_cast<Block&>(block)); }
};

/// KeyRow::field for the member that `Path` reaches, applied left to
/// right: field_at<&Spec::world, &WorldConfig::step_dt> addresses
/// spec.world.step_dt.
template <auto... Path, typename Block>
FieldRef field_at(Block& block) {
  return &(block .* ... .* Path);
}

}  // namespace dtn::util
