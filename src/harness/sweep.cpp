#include "harness/sweep.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "harness/journal.hpp"
#include "harness/spec_io.hpp"
#include "util/clock.hpp"
#include "util/thread_pool.hpp"
#include "util/value_parse.hpp"

namespace dtn::harness {

namespace {

/// One run's scalar metric sample; folded into the PointResult
/// accumulators — in seed order per point — the moment the point's last
/// seed finishes (or replayed from its journal record on resume).
struct SeedSample {
  double delivery_ratio = 0.0;
  double latency = 0.0;
  double goodput = 0.0;
  double control_mb = 0.0;
  double relayed = 0.0;
  double contacts = 0.0;
};

SeedSample sample_of(const ScenarioResult& run) {
  SeedSample s;
  s.delivery_ratio = run.metrics.delivery_ratio();
  s.latency = run.metrics.latency_mean();
  s.goodput = run.metrics.goodput();
  s.control_mb = static_cast<double>(run.metrics.control_bytes()) / 1e6;
  s.relayed = static_cast<double>(run.metrics.relayed());
  s.contacts = static_cast<double>(run.contact_events);
  return s;
}

/// The deadline `seconds` of wall time from now; none for 0. A timeout past
/// half the clock's remaining range (about 146 years) is none as well, so
/// the sum cannot overflow.
sim::Deadline deadline_after(double seconds) {
  const auto now = std::chrono::steady_clock::now();
  const std::chrono::duration<double> half_left = (sim::Deadline::max() - now) / 2;
  if (!(seconds > 0.0 && seconds < half_left.count())) return sim::Deadline::max();
  return now + std::chrono::duration_cast<sim::Deadline::duration>(
                   std::chrono::duration<double>(seconds));
}

void fold_sample(PointResult& point, const SeedSample& s) {
  point.delivery_ratio.add(s.delivery_ratio);
  point.latency.add(s.latency);
  point.goodput.add(s.goodput);
  point.control_mb.add(s.control_mb);
  point.relayed.add(s.relayed);
  point.contacts.add(s.contacts);
}

// ---- journal payloads -------------------------------------------------------
//
// The journal layer (harness/journal.hpp) frames and checksums raw
// payloads; this is the sweep engine's payload vocabulary on top of it.
// Line-oriented text, one record per COMPLETED grid point:
//
//   point <idx> ok <tries> <wall_ms>
//   seed <delivery_ratio> <latency> <goodput> <control_mb> <relayed> <contacts>
//   ... (exactly `seeds` lines, in seed order)
//
//   point <idx> failed <tries> <wall_ms>
//   error <first failure reason, newline-stripped>
//
// Doubles are written as C99 hexfloats (%a) so replay reproduces the
// exact bit pattern — the whole reason resumed aggregates can be required
// bit-identical to an uninterrupted campaign. The first record of every
// journal is the campaign fingerprint (see campaign_fingerprint); resume
// refuses to replay a journal whose fingerprint differs.

std::string hex_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

bool parse_hex_double(const std::string& text, double& out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return false;
  out = v;
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

constexpr const char kJournalHeaderTag[] = "campaign dtnsim-sweep-journal/1";

/// What makes two campaigns "the same" for resume purposes: the canonical
/// base spec, every axis (key + values, in order), the per-point seed
/// schedule (`seeds` from `seed_base`), and the grid size. Threads /
/// progress / fsync cadence are deliberately excluded — they cannot change
/// any result bit.
std::string campaign_fingerprint(const SpecSweepOptions& options, int seeds,
                                 std::uint64_t seed_base, std::size_t total) {
  std::string fp = kJournalHeaderTag;
  fp += "\nseeds=" + std::to_string(seeds) + " seed_base=" + util::format_value(seed_base) +
        " points=" + std::to_string(total) + "\n";
  for (const auto& axis : options.axes) {
    fp += "axis " + axis.key + " =";
    for (const auto& value : axis.values) {
      fp += '\x1f';  // unambiguous even for values containing spaces
      fp += value;
    }
    fp += "\n";
  }
  fp += to_config(options.base);
  return fp;
}

/// What a journal header (campaign_fingerprint) claims about its campaign.
/// Untrusted: it comes off the disk or, for a daemon's shard, the network.
struct HeaderClaims {
  std::int64_t seeds = -1;
  std::uint64_t seed_base = 0;
  std::int64_t points = -1;
  std::size_t axes = 0;
};

/// False when `header` is not a sweep campaign header: tag line, then
/// "seeds=N seed_base=B points=P", then one "axis ..." line per axis.
bool parse_campaign_header(const std::string& header, HeaderClaims& out) {
  const std::vector<std::string> head = split_lines(header);
  if (head.size() < 2 || head[0] != kJournalHeaderTag) return false;
  for (const std::string& field : split_fields(head[1])) {
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "seeds") {
      util::parse_value(value, out.seeds);
    } else if (key == "seed_base") {
      util::parse_value(value, out.seed_base);
    } else if (key == "points") {
      util::parse_value(value, out.points);
    }
  }
  if (out.seeds < 0 || out.points < 0) return false;
  for (std::size_t l = 2; l < head.size(); ++l) {
    if (head[l].rfind("axis ", 0) == 0) ++out.axes;
  }
  return true;
}

std::string sanitize_one_line(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) out += (c == '\n' || c == '\r') ? ' ' : c;
  return out;
}

std::string point_record_payload(std::size_t idx, const PointExec& exec,
                                 const std::vector<SeedSample>& samples) {
  std::string payload = "point " + std::to_string(idx);
  payload += exec.ok() ? " ok " : " failed ";
  payload += std::to_string(exec.tries) + " " + hex_double(exec.wall_ms) + "\n";
  if (exec.ok()) {
    for (const SeedSample& s : samples) {
      payload += "seed " + hex_double(s.delivery_ratio) + " " + hex_double(s.latency) +
                 " " + hex_double(s.goodput) + " " + hex_double(s.control_mb) + " " +
                 hex_double(s.relayed) + " " + hex_double(s.contacts) + "\n";
    }
  } else {
    payload += "error " + sanitize_one_line(exec.error) + "\n";
  }
  return payload;
}

struct ParsedPointRecord {
  std::size_t idx = 0;
  PointExec exec;
  std::vector<SeedSample> samples;  ///< empty for failed records
};

/// Strict parse of one point-record payload. Returns false on anything
/// malformed or mis-sized (wrong seed count for this campaign) — the
/// caller then recomputes that point rather than trusting the record.
bool parse_point_record(const std::string& payload, std::size_t total, int seeds,
                        ParsedPointRecord& out) {
  const std::vector<std::string> lines = split_lines(payload);
  if (lines.empty()) return false;
  const std::vector<std::string> head = split_fields(lines[0]);
  if (head.size() != 5 || head[0] != "point") return false;
  std::int64_t idx = -1;
  std::int64_t tries = 0;
  if (!util::parse_value(head[1], idx) || idx < 0 ||
      static_cast<std::size_t>(idx) >= total) {
    return false;
  }
  const bool ok = head[2] == "ok";
  if (!ok && head[2] != "failed") return false;
  if (!util::parse_value(head[3], tries) || tries < 0) return false;
  double wall_ms = 0.0;
  if (!parse_hex_double(head[4], wall_ms)) return false;

  out.idx = static_cast<std::size_t>(idx);
  out.exec.status = ok ? PointExec::Status::kOk : PointExec::Status::kFailed;
  out.exec.tries = static_cast<int>(tries);
  out.exec.wall_ms = wall_ms;
  out.exec.resumed = true;
  out.exec.error.clear();
  out.samples.clear();

  if (ok) {
    if (lines.size() != 1 + static_cast<std::size_t>(seeds)) return false;
    out.samples.reserve(static_cast<std::size_t>(seeds));
    for (std::size_t l = 1; l < lines.size(); ++l) {
      const std::vector<std::string> fields = split_fields(lines[l]);
      if (fields.size() != 7 || fields[0] != "seed") return false;
      SeedSample s;
      double* const slots[6] = {&s.delivery_ratio, &s.latency,   &s.goodput,
                                &s.control_mb,     &s.relayed,   &s.contacts};
      for (int f = 0; f < 6; ++f) {
        if (!parse_hex_double(fields[static_cast<std::size_t>(f) + 1], *slots[f])) {
          return false;
        }
      }
      out.samples.push_back(s);
    }
  } else {
    if (lines.size() != 2 || lines[1].rfind("error ", 0) != 0) return false;
    out.exec.error = lines[1].substr(6);
  }
  return true;
}

// ---- grid expansion ---------------------------------------------------------

/// The axis cross-product, resolved: one SpecPointResult skeleton + one
/// validated ScenarioSpec per grid point, in cross-product order (first
/// axis outermost). Shared by run_spec_sweep and merge_sweep_journals so a
/// merge labels points (overrides, protocol, nodes) exactly as the run
/// that produced the journals did.
struct ExpandedGrid {
  std::size_t total = 0;
  std::vector<SpecPointResult> points;
  std::vector<ScenarioSpec> specs;
};

ExpandedGrid expand_sweep_grid(const SpecSweepOptions& options) {
  // An axis with no values yields an empty grid, matching the pre-spec
  // engine's behavior for empty protocol lists.
  ExpandedGrid grid;
  grid.total = 1;
  for (const auto& axis : options.axes) grid.total *= axis.values.size();

  // The per-task seed overwrites spec.seed below, so a scenario.seed axis
  // would be silently ignored — reject it instead of lying. Ditto
  // duplicate axis keys: the later override wins per point, so the grid
  // would run identical specs under different labels.
  for (std::size_t i = 0; i < options.axes.size(); ++i) {
    const std::string& key = options.axes[i].key;
    if (key == "scenario.seed") {
      throw SpecError({{0, "scenario.seed cannot be a sweep axis; seeds are the "
                           "per-point repetition (seeds / seed_base)"}},
                      "sweep");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (options.axes[j].key == key) {
        throw SpecError({{0, "duplicate sweep axis '" + key +
                             "' — the later values would overwrite the earlier "
                             "ones under the earlier labels"}},
                        "sweep");
      }
    }
  }

  grid.points.reserve(grid.total);
  grid.specs.reserve(grid.total);
  for (std::size_t p = 0; p < grid.total; ++p) {
    ScenarioSpec spec = options.base;
    SpecPointResult point;
    std::size_t stride = grid.total;
    for (const auto& axis : options.axes) {
      stride /= axis.values.size();
      const std::string& value = axis.values[(p / stride) % axis.values.size()];
      apply_override(spec, axis.key, value);  // throws SpecError on bad key
      point.overrides.emplace_back(axis.key, value);
    }
    // Fail fast at expansion: one structurally invalid grid point must not
    // abort a campaign mid-flight after hours of finished runs.
    validate_spec(spec);
    point.result.protocol = spec.protocol.name;
    point.result.node_count = spec.node_count();
    point.result.copies = spec.protocol.copies;
    point.result.alpha = spec.protocol.alpha;
    grid.points.push_back(std::move(point));
    grid.specs.push_back(std::move(spec));
  }
  return grid;
}

/// Validates the shard selector and returns the in-shard predicate: a
/// deterministic assignment keyed ONLY on the point index, so every
/// cooperating process (and a later merge) agrees on who owns what
/// without any coordination.
std::function<bool(std::size_t)> shard_filter(const SpecSweepOptions& options) {
  if (options.shard_count == 0) {
    throw std::invalid_argument(
        "sweep shard_count must be >= 1 (0/1 selects the whole grid)");
  }
  if (options.shard_index >= options.shard_count) {
    throw std::invalid_argument(
        "sweep shard_index " + std::to_string(options.shard_index) +
        " out of range for shard_count " + std::to_string(options.shard_count));
  }
  const std::size_t index = options.shard_index;
  const std::size_t count = options.shard_count;
  return [index, count](std::size_t point) { return point % count == index; };
}

}  // namespace

std::string SpecPointResult::label() const {
  std::string out;
  for (const auto& [key, value] : overrides) {
    if (!out.empty()) out += " ";
    out += key + "=" + value;
  }
  return out;
}

std::vector<SpecPointResult> run_spec_sweep(const SpecSweepOptions& options) {
  const auto in_shard = shard_filter(options);
  ExpandedGrid grid = expand_sweep_grid(options);
  const std::size_t total = grid.total;
  std::vector<SpecPointResult>& points = grid.points;
  const std::vector<ScenarioSpec>& specs = grid.specs;
  // Out-of-shard points are another process's job: never executed, never
  // journaled, reported kSkipped with empty accumulators.
  for (std::size_t p = 0; p < total; ++p) {
    if (!in_shard(p)) points[p].exec.status = PointExec::Status::kSkipped;
  }

  const int seeds = std::max(options.seeds, 0);
  const bool journaling = !options.journal_path.empty();
  if (options.resume && !journaling) {
    throw SweepJournalError("resume requires a journal path");
  }
  const auto notify = [&](const std::string& message) {
    if (options.note) options.note(message);
  };

  // ---- resume: replay the journal's valid prefix ---------------------------
  const std::string header =
      campaign_fingerprint(options, options.seeds, options.seed_base, total);
  std::vector<char> completed(total, 0);
  JournalWriter journal;
  if (journaling) {
    bool need_header = true;
    if (options.resume) {
      const JournalReadResult replay = read_journal(options.journal_path);
      if (replay.io_error) {
        throw SweepJournalError("cannot read journal '" + options.journal_path + "'");
      }
      if (replay.missing) {
        notify("journal '" + options.journal_path +
               "' not found; starting a fresh campaign");
      } else if (replay.records.empty()) {
        // The file exists but holds no intact record — a campaign killed
        // mid-header-write. Nothing is replayable; recompute everything.
        notify("journal '" + options.journal_path +
               "': no intact records (dropped " +
               std::to_string(replay.dropped_bytes) +
               " byte(s)); recomputing the full campaign");
        truncate_file(options.journal_path, 0);
      } else if (replay.records.front() != header) {
        throw SweepJournalError(foreign_journal_refusal(options.journal_path));
      } else {
        if (replay.tail_dropped()) {
          notify("journal '" + options.journal_path +
                 "': dropped corrupt/truncated tail (" +
                 std::to_string(replay.dropped_bytes) +
                 " byte(s)); affected points will be recomputed");
          // Cut the garbage BEFORE appending: new records written behind a
          // corrupt region would be unreachable on the next replay.
          truncate_file(options.journal_path, replay.valid_bytes);
        }
        need_header = false;
        // Last record per point wins (a resumed-after-failure retry
        // supersedes the failed record it was retrying).
        std::vector<const std::string*> latest(total, nullptr);
        ParsedPointRecord record;
        for (std::size_t r = 1; r < replay.records.size(); ++r) {
          if (parse_point_record(replay.records[r], total, seeds, record)) {
            latest[record.idx] = &replay.records[r];
          }
        }
        for (std::size_t p = 0; p < total; ++p) {
          // Out-of-shard records can appear when a journal outlives a
          // change of shard assignment; this invocation ignores them
          // (its own point census stays kSkipped) rather than adopting
          // points it does not own.
          if (latest[p] == nullptr || !in_shard(p)) continue;
          if (!parse_point_record(*latest[p], total, seeds, record)) continue;
          if (!record.exec.ok()) continue;  // failed points are recomputed
          for (const SeedSample& s : record.samples) {
            fold_sample(points[p].result, s);
          }
          points[p].exec = record.exec;
          completed[p] = 1;
        }
      }
    } else {
      // A fresh journaled campaign owns its path outright: drop any stale
      // journal so old records cannot shadow this run on a later resume.
      truncate_file(options.journal_path, 0);
    }
    std::string error;
    if (!journal.open(options.journal_path, &error)) throw SweepJournalError(error);
    journal.set_sync_every(options.sync_every);
    if (need_header && !journal.append(header)) {
      throw SweepJournalError("cannot write journal '" + options.journal_path + "'");
    }
  }

  // ---- task list: only the points the journal did not complete -------------
  struct Task {
    std::size_t point;
    std::uint64_t seed;
  };
  std::vector<Task> tasks;
  tasks.reserve(points.size() * static_cast<std::size_t>(seeds));
  for (std::size_t p = 0; p < points.size(); ++p) {
    if (completed[p] || !in_shard(p)) continue;
    for (int s = 0; s < seeds; ++s) {
      tasks.push_back(Task{p, options.seed_base + static_cast<std::uint64_t>(s)});
    }
  }

  // ---- contact schedules: count each contact key's runs before dealing ------
  // A key that more than one task takes is recorded by its first run and
  // replayed by the others (CampaignMemo).
  const std::shared_ptr<CampaignMemo> memo =
      options.memo != nullptr ? options.memo : std::make_shared<CampaignMemo>();
  std::unordered_map<std::string, int> runs_per_key;
  for (const Task& task : tasks) {
    ScenarioSpec spec = specs[task.point];
    spec.seed = task.seed;
    std::string key = contact_schedule_key(spec);
    if (!key.empty()) ++runs_per_key[std::move(key)];
  }
  for (const auto& [key, runs] : runs_per_key) {
    if (runs > 1) memo->expect(key, runs);
  }

  std::size_t workers = options.threads != 0
                            ? options.threads
                            : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers = std::min(workers, tasks.size());

  // Per-point in-flight state. Samples are buffered only until the point's
  // last seed lands: the fold runs at completion (seed order, so the
  // aggregates stay bit-identical to the old run-everything-then-fold loop
  // for any thread count), the journal record streams out, and the buffer
  // is released — memory is O(in-flight points), not O(campaign).
  struct PointState {
    std::vector<SeedSample> samples;
    int remaining = 0;
    int tries = 0;
    double wall_ms = 0.0;
    bool failed = false;
    std::string error;  ///< first failure reason
  };
  std::vector<PointState> state(total);
  for (std::size_t p = 0; p < total; ++p) {
    if (!completed[p] && in_shard(p)) state[p].remaining = seeds;
  }

  std::mutex book_mutex;  ///< guards PointState, the fold, and the journal
  std::condition_variable recorded;  ///< a point was recorded, or the sweep aborts
  bool aborting = false;  ///< a non-isolated failure is unwinding the sweep
  std::mutex progress_mutex;
  bool journal_sick = false;  ///< append failed (disk full) — noted once

  SweepFaultPlan* const fault = options.fault_plan;
  const auto fault_armed = [fault](std::size_t point) {
    if (fault == nullptr || fault->point != point) return false;
    // fetch_add so concurrent attempts cannot both claim the last fire.
    return fault->fired.fetch_add(1, std::memory_order_relaxed) < fault->fires;
  };

  /// Books one finished task (success or failure); on the point's last
  /// seed, folds + journals + releases the point.
  const auto finish_task = [&](std::size_t task_index, const SeedSample* sample,
                               int attempts, double wall_ms, const std::string& error) {
    const std::size_t p = tasks[task_index].point;
    const std::lock_guard<std::mutex> lock(book_mutex);
    PointState& st = state[p];
    if (st.samples.empty()) st.samples.resize(static_cast<std::size_t>(seeds));
    const std::size_t s =
        static_cast<std::size_t>(tasks[task_index].seed - options.seed_base);
    if (sample != nullptr) {
      st.samples[s] = *sample;
    } else if (!st.failed) {
      st.failed = true;
      st.error = error;
    }
    st.tries += attempts;
    st.wall_ms += wall_ms;
    if (--st.remaining > 0) return;

    // Point complete: fold (seed order), stream the record, free the buffer.
    PointExec& exec = points[p].exec;
    exec.status = st.failed ? PointExec::Status::kFailed : PointExec::Status::kOk;
    exec.error = st.error;
    exec.tries = st.tries;
    exec.wall_ms = st.wall_ms;
    exec.resumed = false;
    if (!st.failed) {
      for (const SeedSample& seed_sample : st.samples) {
        fold_sample(points[p].result, seed_sample);
      }
    }
    if (journaling && !journal_sick) {
      if (!journal.append(point_record_payload(p, exec, st.samples))) {
        journal_sick = true;
        notify("journal '" + options.journal_path +
               "': write failed; campaign continues WITHOUT crash safety");
      } else if (fault != nullptr && fault->action == SweepFaultPlan::Action::kKill &&
                 journal.bytes() >= fault->journal_bytes) {
        std::raise(SIGKILL);  // deterministic "crashed right after this record"
      }
    }
    st.samples.clear();
    st.samples.shrink_to_fit();
    st.error.clear();
    recorded.notify_all();
  };

  /// One simulation attempt on the worker's runner. With point_timeout_s set
  /// the attempt stops at its next step once that much wall time has
  /// passed, and the runner stays reusable. Returns true on success; false
  /// fills `error`.
  const auto attempt = [&](ScenarioRunner& runner, const ScenarioSpec& spec, int hang_ms,
                           SeedSample& out, std::string& error) {
    const sim::Deadline deadline = deadline_after(options.point_timeout_s);
    try {
      if (hang_ms > 0) {
        const auto hang_end =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(hang_ms);
        std::this_thread::sleep_until(std::min(hang_end, deadline));
        if (hang_end > deadline) throw sim::DeadlineExceeded("stalled past the deadline");
      }
      runner.set_deadline(deadline);
      out = sample_of(runner.run(spec));
      return true;
    } catch (const sim::DeadlineExceeded&) {
      error = "timed out after " + util::format_value(options.point_timeout_s) + " s";
    } catch (const std::exception& e) {
      error = e.what();
    } catch (...) {
      error = "unknown exception";
    }
    return false;
  };

  const auto run_task = [&](ScenarioRunner& runner, std::size_t i) {
    const std::size_t p = tasks[i].point;
    ScenarioSpec spec = specs[p];
    spec.seed = tasks[i].seed;

    const int max_attempts = 1 + std::max(options.retries, 0);
    int attempts = 0;
    bool ok = false;
    SeedSample sample;
    std::string error;
    util::Stopwatch watch;
    while (attempts < max_attempts && !ok) {
      ++attempts;
      int hang_ms = 0;
      if (fault_armed(p)) {
        switch (fault->action) {
          case SweepFaultPlan::Action::kKill: {
            // Die only once every in-shard point below p is recorded, so the
            // killed journal holds them at any thread count. Tasks are
            // claimed in index order, so those points are already running.
            std::unique_lock<std::mutex> lock(book_mutex);
            recorded.wait(lock, [&] {
              return aborting ||
                     std::all_of(state.begin(), state.begin() + static_cast<std::ptrdiff_t>(p),
                                 [](const PointState& st) { return st.remaining == 0; });
            });
            std::raise(SIGKILL);
            break;
          }
          case SweepFaultPlan::Action::kThrow:
            error = "injected fault: throw at point " + std::to_string(p);
            continue;
          case SweepFaultPlan::Action::kHang: hang_ms = fault->hang_ms; break;
        }
      }
      ok = attempt(runner, spec, hang_ms, sample, error);
    }
    const double wall_ms = watch.elapsed_ms();

    if (!ok && !options.isolate_failures) {
      {
        const std::lock_guard<std::mutex> lock(book_mutex);
        aborting = true;
      }
      recorded.notify_all();
      // The satellite fix: a failing point must name itself. Without this
      // the pool's first-exception propagation surfaces a bare what() with
      // no clue WHICH of ten thousand runs died.
      std::string label = points[p].label();
      if (!label.empty()) label += "/";
      label += "seed=" + std::to_string(tasks[i].seed);
      throw std::runtime_error("sweep point [" + label + "] failed after " +
                               std::to_string(attempts) + " attempt(s): " + error);
    }
    finish_task(i, ok ? &sample : nullptr, attempts, wall_ms, error);
    if (options.progress) {
      // Outside every merge path; serialized only against itself.
      std::string label = points[p].label();
      if (!label.empty()) label += "/";
      label += "seed=" + std::to_string(tasks[i].seed);
      const std::lock_guard<std::mutex> lock(progress_mutex);
      options.progress(label);
    }
  };

  std::vector<ScenarioRunner> runners;  // one warm World per worker
  runners.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) runners.emplace_back(memo);
  if (workers <= 1) {
    // Not through the shared pool: starting its threads would switch the
    // process to glibc's locked malloc and libstdc++'s atomic shared_ptr
    // counts for good, which made single-threaded runs 3-7% slower.
    for (std::size_t i = 0; i < tasks.size(); ++i) run_task(runners[0], i);
  } else {
    util::ThreadPool::shared().parallel_for(
        tasks.size(), workers,
        [&](std::size_t worker, std::size_t i) { run_task(runners[worker], i); });
  }

  if (journaling) journal.sync();
  return std::move(grid.points);
}

std::string foreign_journal_refusal(const std::string& journal_path) {
  return "cannot resume: journal '" + journal_path +
         "' was written by a different campaign (base spec, axes, seeds, or "
         "seed base differ) — delete it or rerun without resume";
}

std::string sweep_campaign_fingerprint(const SpecSweepOptions& options) {
  std::size_t total = 1;
  for (const auto& axis : options.axes) total *= axis.values.size();
  return campaign_fingerprint(options, options.seeds, options.seed_base, total);
}

bool grid_shares_contact_key(const SpecSweepOptions& options) {
  const ExpandedGrid grid = expand_sweep_grid(options);
  std::unordered_set<std::string> keys;
  for (ScenarioSpec spec : grid.specs) {
    spec.seed = options.seed_base;
    std::string key = contact_schedule_key(spec);
    if (!key.empty() && !keys.insert(std::move(key)).second) return true;
  }
  return false;
}

std::vector<SpecPointResult> merge_sweep_journals(
    const SpecSweepOptions& options, const std::vector<std::string>& journal_paths,
    SweepMergeStats* stats, const std::vector<std::string>& origins) {
  ExpandedGrid grid = expand_sweep_grid(options);
  const std::size_t total = grid.total;
  const auto seeds = static_cast<std::uint64_t>(std::max(options.seeds, 0));

  /// One journal's latest record of one point: the seeds
  /// [first, first + count) of the campaign's, as offsets from its seed base.
  struct Piece {
    std::uint64_t first = 0;
    std::uint64_t count = 0;
    std::size_t journal = 0;
    ParsedPointRecord record;
  };
  std::vector<std::vector<Piece>> pieces(total);
  SweepMergeStats merged;
  for (std::size_t j = 0; j < journal_paths.size(); ++j) {
    const std::string& path = journal_paths[j];
    const JournalReadResult replay = read_journal(path);
    if (replay.io_error) {
      throw SweepJournalError("cannot read shard journal '" + path + "'");
    }
    // A shard killed before its header became durable left nothing to
    // merge — its points surface as missing below, not as a refusal: the
    // campaign must degrade to failed-with-reason points, not refuse to
    // publish the shards that survived.
    if (replay.missing || replay.records.empty()) continue;
    // The header names the journal's seed range, and a daemon ships it over
    // the network: nothing is sized by it until the range lies inside the
    // campaign's and the header is the campaign's fingerprint over it.
    HeaderClaims claims;
    const std::string& header = replay.records.front();
    const bool ours =
        parse_campaign_header(header, claims) && claims.seed_base >= options.seed_base &&
        claims.seed_base - options.seed_base <= seeds &&
        static_cast<std::uint64_t>(claims.seeds) <=
            seeds - (claims.seed_base - options.seed_base) &&
        header == campaign_fingerprint(options, static_cast<int>(claims.seeds),
                                       claims.seed_base, total);
    if (!ours) {
      throw SweepJournalError(
          "cannot merge: shard journal '" + path +
          "' was written by a different campaign (base spec, axes, seeds, or "
          "seed base differ)");
    }
    ++merged.journals_read;
    const auto first = claims.seed_base - options.seed_base;
    const auto count = static_cast<std::uint64_t>(claims.seeds);
    // Within ONE journal the last record per point wins — a restarted
    // shard appended retry records behind the failures they supersede,
    // exactly like resume. ACROSS journals a seed of a point is refused
    // twice: overlapping shards would silently double-count samples, the
    // one unforgivable merge outcome.
    std::vector<const std::string*> latest(total, nullptr);
    ParsedPointRecord record;
    for (std::size_t r = 1; r < replay.records.size(); ++r) {
      if (parse_point_record(replay.records[r], total, static_cast<int>(count), record)) {
        latest[record.idx] = &replay.records[r];
      }
    }
    for (std::size_t p = 0; p < total; ++p) {
      if (latest[p] == nullptr) continue;
      for (const Piece& other : pieces[p]) {
        if (first < other.first + other.count && other.first < first + count) {
          throw SweepJournalError("cannot merge: point " + std::to_string(p) +
                                  " is recorded by both '" + journal_paths[other.journal] +
                                  "' and '" + path + "' — overlapping shards");
        }
      }
      Piece piece{first, count, j, {}};
      if (!parse_point_record(*latest[p], total, static_cast<int>(count), piece.record)) {
        continue;
      }
      pieces[p].push_back(std::move(piece));
    }
  }
  const auto origin_of = [&origins](std::size_t j) {
    return j < origins.size() ? origins[j] : std::string();
  };
  for (std::size_t p = 0; p < total; ++p) {
    std::vector<Piece>& mine = pieces[p];
    std::sort(mine.begin(), mine.end(),
              [](const Piece& a, const Piece& b) { return a.first < b.first; });
    PointExec& exec = grid.points[p].exec;
    std::uint64_t covered = 0;
    bool failed = false;
    for (const Piece& piece : mine) {
      const PointExec& part = piece.record.exec;
      covered += piece.count;
      exec.tries += part.tries;
      exec.wall_ms += part.wall_ms;
      if (!part.ok() && !failed) {
        failed = true;
        exec.error = part.error;
      }
      // One origin per contributing journal, in seed order.
      std::string origin = origin_of(piece.journal);
      if (mine.size() > 1 && origin.empty()) origin = "local";
      if (!exec.origin.empty()) exec.origin += ",";
      exec.origin += origin;
    }
    exec.resumed = !mine.empty();
    if (mine.empty() || covered != seeds) {
      exec.status = PointExec::Status::kFailed;
      exec.error = "no shard journal recorded this point";
      ++merged.points_missing;
    } else if (failed) {
      exec.status = PointExec::Status::kFailed;
      ++merged.points_failed;
    } else {
      // Seed-order fold of the journaled hexfloat samples — the same fold
      // a live run performs, so the aggregates are bit-identical to a
      // single-process campaign.
      exec.status = PointExec::Status::kOk;
      for (const Piece& piece : mine) {
        for (const SeedSample& s : piece.record.samples) fold_sample(grid.points[p].result, s);
      }
      ++merged.points_ok;
    }
  }
  if (stats != nullptr) *stats = merged;
  return std::move(grid.points);
}

JournalInspection inspect_sweep_journal(const std::string& path) {
  JournalInspection out;
  const JournalReadResult replay = read_journal(path);
  out.missing = replay.missing;
  out.io_error = replay.io_error;
  out.valid_bytes = replay.valid_bytes;
  out.dropped_bytes = replay.dropped_bytes;
  out.records = replay.records.size();
  if (replay.records.empty()) return out;

  HeaderClaims claims;
  if (!parse_campaign_header(replay.records.front(), claims)) return out;
  out.campaign = true;
  out.seeds = static_cast<int>(claims.seeds);
  out.seed_base = claims.seed_base;
  out.grid_points = static_cast<std::size_t>(claims.points);
  out.axes = claims.axes;

  // Point census: latest record per index wins, like resume and merge.
  // Keyed by the recorded indices, which the file size bounds: the
  // header's points= field is untrusted and may claim any size.
  std::map<std::size_t, bool> ok_by_point;
  ParsedPointRecord record;
  for (std::size_t r = 1; r < replay.records.size(); ++r) {
    if (parse_point_record(replay.records[r], out.grid_points, out.seeds, record)) {
      ok_by_point[record.idx] = record.exec.ok();
    } else {
      ++out.malformed_records;
    }
  }
  std::size_t modulus = 0;  // gcd of (idx - min_idx) over recorded indices
  const std::size_t min_idx = ok_by_point.empty() ? 0 : ok_by_point.begin()->first;
  for (const auto& [p, ok] : ok_by_point) {
    ++out.points_recorded;
    if (ok) {
      ++out.points_ok;
    } else {
      ++out.points_failed;
    }
    modulus = std::gcd(modulus, p - min_idx);
  }
  // Shard coverage audit: the largest `index % N == i` selector every
  // recorded index satisfies. Needs >= 2 distinct indices — with fewer,
  // every selector fits and the inference says nothing (modulus 0).
  if (modulus > 0) {
    out.shard_modulus = modulus;
    out.shard_residue = min_idx % modulus;
  }
  return out;
}

std::string metric_name(Metric metric) {
  switch (metric) {
    case Metric::kDeliveryRatio: return "delivery_ratio";
    case Metric::kLatency: return "latency_s";
    case Metric::kGoodput: return "goodput";
    case Metric::kControlMb: return "control_MB";
    case Metric::kRelayed: return "relayed";
  }
  return "?";
}

double metric_value(const PointResult& point, Metric metric) {
  switch (metric) {
    case Metric::kDeliveryRatio: return point.delivery_ratio.mean();
    case Metric::kLatency: return point.latency.mean();
    case Metric::kGoodput: return point.goodput.mean();
    case Metric::kControlMb: return point.control_mb.mean();
    case Metric::kRelayed: return point.relayed.mean();
  }
  return 0.0;
}

namespace {

/// Minimal JSON string escaping for keys/values (quotes, backslashes,
/// control characters — the only things a spec key or value can smuggle in).
std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += "\"";
  return out;
}

/// Shortest-round-trip number, or null for non-finite values (JSON has no
/// NaN/inf literals).
std::string json_number(double v) {
  return std::isfinite(v) ? util::format_value(v) : std::string("null");
}

void append_stat(std::string& out, const char* name, const util::StatAccumulator& s) {
  out += json_string(name);
  out += ": {\"mean\": " + json_number(s.mean()) +
         ", \"stddev\": " + json_number(s.stddev()) +
         ", \"count\": " + std::to_string(s.count()) + "}";
}

}  // namespace

std::string sweep_results_json(const SpecSweepOptions& options,
                               const std::vector<SpecPointResult>& results) {
  std::string out = "{\n  \"schema\": \"dtnsim-sweep/1\",\n";
  out += "  \"scenario\": " + json_string(options.base.name) + ",\n";
  out += "  \"seeds\": " + std::to_string(options.seeds) + ",\n";
  out += "  \"seed_base\": " + util::format_value(options.seed_base) + ",\n";
  // Volatile execution metadata lives on lines containing `"exec` (this
  // one and each point's "exec" object) so campaign-equivalence tooling
  // can filter them before a bit-for-bit diff of the aggregates.
  std::size_t resumed_points = 0;
  std::size_t failed_points = 0;
  std::size_t skipped_points = 0;
  for (const auto& point : results) {
    if (point.exec.resumed) ++resumed_points;
    if (point.exec.failed()) ++failed_points;
    if (point.exec.skipped()) ++skipped_points;
  }
  out += "  \"execution\": {\"resumed_points\": " + std::to_string(resumed_points) +
         ", \"failed_points\": " + std::to_string(failed_points) +
         ", \"skipped_points\": " + std::to_string(skipped_points) + "},\n";
  out += "  \"axes\": [";
  for (std::size_t a = 0; a < options.axes.size(); ++a) {
    if (a != 0) out += ", ";
    out += "{\"key\": " + json_string(options.axes[a].key) + ", \"values\": [";
    for (std::size_t v = 0; v < options.axes[a].values.size(); ++v) {
      if (v != 0) out += ", ";
      out += json_string(options.axes[a].values[v]);
    }
    out += "]}";
  }
  out += "],\n  \"points\": [\n";
  for (std::size_t p = 0; p < results.size(); ++p) {
    const SpecPointResult& point = results[p];
    out += "    {\"overrides\": {";
    for (std::size_t o = 0; o < point.overrides.size(); ++o) {
      if (o != 0) out += ", ";
      out += json_string(point.overrides[o].first) + ": " +
             json_string(point.overrides[o].second);
    }
    out += "},\n     \"protocol\": " + json_string(point.result.protocol) +
           ", \"nodes\": " + std::to_string(point.result.node_count) + ",\n";
    out += "     \"exec\": {\"status\": " +
           json_string(point.exec.ok()        ? "ok"
                       : point.exec.skipped() ? "skipped"
                                              : "failed") +
           ", \"tries\": " + std::to_string(point.exec.tries) +
           ", \"wall_ms\": " + json_number(point.exec.wall_ms) +
           ", \"resumed\": " + (point.exec.resumed ? "true" : "false") +
           ", \"origin\": " +
           json_string(point.exec.origin.empty() ? "local" : point.exec.origin);
    if (point.exec.failed()) out += ", \"error\": " + json_string(point.exec.error);
    out += "},\n     \"metrics\": {";
    append_stat(out, "delivery_ratio", point.result.delivery_ratio);
    out += ", ";
    append_stat(out, "latency_s", point.result.latency);
    out += ", ";
    append_stat(out, "goodput", point.result.goodput);
    out += ", ";
    append_stat(out, "control_MB", point.result.control_mb);
    out += ", ";
    append_stat(out, "relayed", point.result.relayed);
    out += ", ";
    append_stat(out, "contacts", point.result.contacts);
    out += "}}";
    out += p + 1 < results.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

util::TablePrinter sweep_table(const std::vector<SpecPointResult>& results,
                               int precision) {
  std::vector<std::string> headers;
  if (!results.empty()) {
    for (const auto& [key, value] : results.front().overrides) headers.push_back(key);
  }
  for (const auto metric : {Metric::kDeliveryRatio, Metric::kLatency, Metric::kGoodput,
                            Metric::kControlMb, Metric::kRelayed}) {
    headers.push_back(metric_name(metric));
  }
  util::TablePrinter table(std::move(headers));
  for (const auto& point : results) {
    table.new_row();
    for (const auto& [key, value] : point.overrides) table.add_cell(value);
    for (const auto metric : {Metric::kDeliveryRatio, Metric::kLatency, Metric::kGoodput,
                              Metric::kControlMb, Metric::kRelayed}) {
      table.add_cell(metric_value(point.result, metric),
                     metric == Metric::kLatency ? 1 : precision);
    }
  }
  return table;
}

}  // namespace dtn::harness
