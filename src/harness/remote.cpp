#include "harness/remote.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "harness/journal.hpp"
#include "harness/spec_io.hpp"
#include "util/checksum.hpp"
#include "util/value_parse.hpp"

namespace dtn::harness {

namespace {

std::string hex_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

bool parse_hex_double(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return false;
  *out = v;
  return true;
}

std::string crc_hex(std::uint32_t crc) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return std::string(buf);
}

bool parse_crc_hex(const std::string& text, std::uint32_t* out) {
  if (text.size() != 8) return false;
  std::uint32_t value = 0;
  for (char c : text) {
    std::uint32_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint32_t>(c - 'a') + 10;
    } else {
      return false;
    }
    value = (value << 4) | digit;
  }
  *out = value;
  return true;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t at = 0;
  while (at < text.size()) {
    std::size_t nl = text.find('\n', at);
    if (nl == std::string::npos) nl = text.size();
    lines.push_back(text.substr(at, nl - at));
    at = nl + 1;
  }
  return lines;
}

std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> fields;
  std::size_t at = 0;
  while (at < line.size()) {
    std::size_t sp = line.find(' ', at);
    if (sp == std::string::npos) sp = line.size();
    if (sp > at) fields.push_back(line.substr(at, sp - at));
    at = sp + 1;
  }
  return fields;
}

/// An integer policy field within [lo, hi]: the bounds `dtnsim sweep`
/// enforces for the same flag, so a peer cannot ship what the CLI refuses.
bool parse_int_field(const std::string& value, std::int64_t lo, std::int64_t hi, int* out) {
  std::int64_t num = 0;
  if (!util::parse_value(value, num) || num < lo || num > hi) return false;
  *out = static_cast<int>(num);
  return true;
}

bool parse_bool_field(const std::string& value, bool* out) {
  if (value == "0") {
    *out = false;
  } else if (value == "1") {
    *out = true;
  } else {
    return false;
  }
  return true;
}

}  // namespace

std::string serialize_sweep_hello(const std::string& fingerprint) {
  std::string out = "hello ";
  out += kServeProtocolVersion;
  out += "\nfingerprint " + std::to_string(fingerprint.size()) + " " +
         crc_hex(util::crc32(fingerprint)) + "\n";
  return out;
}

bool parse_sweep_hello(const std::string& payload, std::uint64_t* fp_len,
                       std::uint32_t* fp_crc, std::string* error) {
  const std::vector<std::string> lines = split_lines(payload);
  if (lines.size() < 2 || lines[0] != std::string("hello ") + kServeProtocolVersion) {
    if (error) {
      *error = lines.empty() ? "empty HELLO payload"
                             : "unsupported HELLO '" + lines[0] + "' (want " +
                                   kServeProtocolVersion + ")";
    }
    return false;
  }
  const std::vector<std::string> fields = split_fields(lines[1]);
  if (fields.size() != 3 || fields[0] != "fingerprint" ||
      !util::parse_value(fields[1], *fp_len) ||
      !parse_crc_hex(fields[2], fp_crc)) {
    if (error) *error = "malformed HELLO fingerprint line";
    return false;
  }
  return true;
}

std::string serialize_sweep_assignment(const SpecSweepOptions& options) {
  std::string out = "assign ";
  out += kServeProtocolVersion;
  out += "\nseeds=" + std::to_string(options.seeds) +
         " seed_base=" + util::format_value(options.seed_base) +
         " shard=" + std::to_string(options.shard_index) + "/" +
         std::to_string(options.shard_count) +
         " resume=" + (options.resume ? "1" : "0") +
         " isolate=" + (options.isolate_failures ? "1" : "0") +
         " retries=" + std::to_string(options.retries) +
         " sync_every=" + std::to_string(options.sync_every) +
         " point_timeout=" + hex_double(options.point_timeout_s) + "\n";
  for (const auto& axis : options.axes) {
    out += "axis " + axis.key + " =";
    for (const auto& value : axis.values) {
      out += '\x1f';
      out += value;
    }
    out += "\n";
  }
  out += "spec\n";
  out += to_config(options.base);
  return out;
}

bool parse_sweep_assignment(const std::string& payload, SpecSweepOptions* out,
                            std::string* error) {
  *out = SpecSweepOptions{};
  const std::vector<std::string> lines = split_lines(payload);
  if (lines.empty() || lines[0] != std::string("assign ") + kServeProtocolVersion) {
    if (error) {
      *error = lines.empty() ? "empty ASSIGN payload"
                             : "unsupported ASSIGN '" + lines[0] + "' (want " +
                                   kServeProtocolVersion + ")";
    }
    return false;
  }
  if (lines.size() < 2) {
    if (error) *error = "ASSIGN missing the campaign parameter line";
    return false;
  }
  for (const std::string& field : split_fields(lines[1])) {
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) {
      if (error) *error = "malformed ASSIGN field '" + field + "'";
      return false;
    }
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    bool ok = true;
    // Bounds are the CLI's (`dtnsim sweep --seeds`, `--seed-base`).
    if (key == "seeds") {
      ok = parse_int_field(value, 1, INT32_MAX, &out->seeds);
    } else if (key == "seed_base") {
      std::int64_t base = -1;
      ok = util::parse_value(value, base) && base >= 0;
      out->seed_base = static_cast<std::uint64_t>(base);
    } else if (key == "shard") {
      const std::size_t slash = value.find('/');
      std::int64_t index = -1;
      std::int64_t count = 0;
      ok = slash != std::string::npos &&
           util::parse_value(value.substr(0, slash), index) &&
           util::parse_value(value.substr(slash + 1), count) && index >= 0 &&
           count >= 1 && index < count;
      out->shard_index = static_cast<std::size_t>(index);
      out->shard_count = static_cast<std::size_t>(count);
    } else if (key == "resume") {
      ok = parse_bool_field(value, &out->resume);
    } else if (key == "isolate") {
      ok = parse_bool_field(value, &out->isolate_failures);
    } else if (key == "retries") {
      ok = parse_int_field(value, 0, 1000, &out->retries);
    } else if (key == "sync_every") {
      ok = parse_int_field(value, 0, INT32_MAX, &out->sync_every);
    } else if (key == "point_timeout") {
      // 0 = none. The CLI's own bounds: a daemon runs only what the
      // driver's flags could have asked for.
      double& timeout = out->point_timeout_s;
      ok = parse_hex_double(value, &timeout) && std::isfinite(timeout) && timeout >= 0.0 &&
           timeout <= 1e9;
    } else {
      ok = false;  // strict for /1: unknown fields are foreign
    }
    if (!ok) {
      if (error) *error = "malformed ASSIGN field '" + field + "'";
      return false;
    }
  }
  std::size_t at = 2;
  for (; at < lines.size() && lines[at].rfind("axis ", 0) == 0; ++at) {
    const std::string rest = lines[at].substr(5);
    const std::size_t sp = rest.find(' ');
    if (sp == std::string::npos || sp + 1 >= rest.size() ||
        rest[sp + 1] != '=') {
      if (error) *error = "malformed ASSIGN axis line '" + lines[at] + "'";
      return false;
    }
    SweepAxis axis;
    axis.key = rest.substr(0, sp);
    const std::string joined = rest.substr(sp + 2);  // \x1f-joined values
    std::size_t v = 0;
    while (v < joined.size()) {
      if (joined[v] != '\x1f') {
        if (error) *error = "malformed ASSIGN axis line '" + lines[at] + "'";
        return false;
      }
      std::size_t next = joined.find('\x1f', v + 1);
      if (next == std::string::npos) next = joined.size();
      axis.values.push_back(joined.substr(v + 1, next - v - 1));
      v = next;
    }
    out->axes.push_back(std::move(axis));
  }
  if (at >= lines.size() || lines[at] != "spec") {
    if (error) *error = "ASSIGN missing the spec section";
    return false;
  }
  std::string config;
  for (std::size_t l = at + 1; l < lines.size(); ++l) {
    config += lines[l];
    config += '\n';
  }
  try {
    out->base = parse_spec(config);
  } catch (const SpecError& e) {
    if (error) *error = std::string("ASSIGN spec does not parse: ") + e.what();
    return false;
  }
  return true;
}

std::string tile_label(const SpecSweepOptions& options) {
  const std::uint64_t last = options.seed_base + static_cast<std::uint64_t>(options.seeds) - 1;
  return "seeds " + std::to_string(options.seed_base) + "-" + std::to_string(last) + ", shard " +
         std::to_string(options.shard_index) + "/" + std::to_string(options.shard_count);
}

std::string serialize_sweep_progress(std::uint64_t records, std::uint64_t bytes) {
  return "progress " + std::to_string(records) + " " + std::to_string(bytes);
}

bool parse_sweep_progress(const std::string& payload, std::uint64_t* records,
                          std::uint64_t* bytes) {
  const std::vector<std::string> fields = split_fields(payload);
  return fields.size() == 3 && fields[0] == "progress" &&
         util::parse_value(fields[1], *records) &&
         util::parse_value(fields[2], *bytes);
}

ShardJournalState audit_shard_journal(const SpecSweepOptions& tile, const std::string& path) {
  // The resume of the tile replays only a journal under the tile's own
  // fingerprint; the merge below would also accept any seed range inside it.
  const JournalReadResult replay = read_journal(path);
  if (replay.io_error || replay.missing || replay.records.empty()) {
    return ShardJournalState::kPartial;
  }
  if (replay.records.front() != sweep_campaign_fingerprint(tile)) {
    return ShardJournalState::kForeign;
  }
  // Reuse the merge path's strict parsing: a point the merge would accept
  // is exactly a point a reassignment may skip. merge_sweep_journals marks
  // recorded points resumed = true and degrades unrecorded ones to
  // failed-with-reason.
  std::vector<SpecPointResult> merged;
  try {
    merged = merge_sweep_journals(tile, {path});
  } catch (const SweepJournalError&) {
    return ShardJournalState::kPartial;
  }
  for (std::size_t p = 0; p < merged.size(); ++p) {
    if (p % tile.shard_count != tile.shard_index) continue;
    // "Complete" must mean what a resume would make of it: resume retries
    // failed points, so a shard with failed records still needs a worker.
    if (!merged[p].exec.resumed || !merged[p].exec.ok()) {
      return ShardJournalState::kPartial;
    }
  }
  return ShardJournalState::kComplete;
}

}  // namespace dtn::harness
