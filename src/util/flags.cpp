#include "util/flags.hpp"

#include "util/value_parse.hpp"

namespace dtn::util {

namespace {

bool looks_like_flag(const std::string& arg) {
  return arg.size() > 2 && arg[0] == '-' && arg[1] == '-';
}

}  // namespace

Flags Flags::parse(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!looks_like_flag(arg)) {
      flags.positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags.set(arg.substr(0, eq), arg.substr(eq + 1));
      continue;
    }
    // `--name value` when the next token is not itself a flag; otherwise a
    // bare boolean `--name`.
    if (i + 1 < argc && !looks_like_flag(argv[i + 1])) {
      flags.set(arg, argv[i + 1]);
      ++i;
    } else {
      flags.set(arg, "true");
    }
  }
  return flags;
}

std::vector<std::string> Flags::names() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : ordered_) {
    bool seen = false;
    for (const auto& existing : out) {
      if (existing == key) {
        seen = true;
        break;
      }
    }
    if (!seen) out.push_back(key);
  }
  return out;
}

std::vector<std::string> Flags::unknown_flags(
    std::initializer_list<const char*> allowed) const {
  std::vector<std::string> offenders;
  for (const auto& name : names()) {
    bool known = false;
    for (const char* candidate : allowed) {
      if (name == candidate) {
        known = true;
        break;
      }
    }
    if (!known) offenders.push_back(name);
  }
  return offenders;
}

std::vector<std::string> Flags::get_list(const std::string& name) const {
  std::vector<std::string> values;
  for (const auto& [key, value] : ordered_) {
    if (key == name) values.push_back(value);
  }
  return values;
}

bool Flags::has(const std::string& name) const { return values_.count(name) > 0; }

std::string Flags::get_string(const std::string& name, const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  try {
    return std::stoll(it->second);
  } catch (...) {
    return fallback;
  }
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  try {
    return std::stod(it->second);
  } catch (...) {
    return fallback;
  }
}

bool Flags::parse_int(const std::string& name, std::int64_t& out) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return true;
  std::int64_t parsed = 0;
  if (!parse_value(it->second, parsed)) return false;
  out = parsed;
  return true;
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::string token;
  for (const char c : csv) {
    if (c == ',') {
      if (!token.empty()) out.push_back(std::move(token));
      token.clear();
    } else {
      token.push_back(c);
    }
  }
  if (!token.empty()) out.push_back(std::move(token));
  return out;
}

}  // namespace dtn::util
