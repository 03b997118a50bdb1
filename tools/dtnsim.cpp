// dtnsim — the scenario-file driver: every experiment the library can
// express, runnable from a ONE-style config file with no C++ involved.
//
//   dtnsim run scenario.cfg [--set key=value]... [--seeds N]
//   dtnsim sweep scenario.cfg --axis protocol.name=EER,CR
//                             --axis scenario.nodes=40,80 [--seeds N] [--threads T]
//                             [--out results.json] [--resume] [--journal J]
//                             [--retries N] [--point-timeout S] [--sync-every N]
//                             [--shard i/N | --workers N and/or --hosts h:p,...
//                                            [--worker-retries R] [--worker-timeout S]]
//   dtnsim serve --port P [--bind ADDR] [--scratch DIR] [--threads T]
//   dtnsim journal <file>                            # inspect a campaign journal
//   dtnsim print scenario.cfg [--set key=value]...   # resolved canonical config
//   dtnsim check scenario.cfg                        # parse + validate, report diagnostics
//   dtnsim list                                      # registered protocols/models/maps
//
// `--set` applies single-key overrides after the file loads (repeatable,
// applied in order); `--axis key=v1,v2,...` adds one sweep dimension per
// flag (cross product, first axis outermost); `--out` writes the sweep's
// aggregated results as machine-readable JSON (stable "dtnsim-sweep/1"
// schema, see harness/sweep.hpp). Scenario-file grammar and the key
// vocabulary live in harness/spec_io.hpp and README.md.
//
// Crash safety: a sweep with `--out` (or an explicit `--journal`) streams
// every completed point into an append-only checksummed journal
// (`<out>.journal`), so a killed campaign keeps everything it finished;
// `--resume` replays the journal and recomputes only the missing points —
// final aggregates are bit-identical to an uninterrupted run (pinned by
// the dtnsim_crash_resume ctest). Worker failures never kill a campaign:
// a throwing or timed-out point is retried up to `--retries` times, then
// recorded failed-with-reason and summarized loudly at the end (exit 1;
// the journal is kept so `--resume` retries exactly the failed points).
// A timed-out attempt stops at its next simulation step and its worker
// reuses its World; a hang inside one step (a custom router that never
// returns) needs `--workers` with `--worker-timeout`, which kills it.
// `--fault action@trigger` is the deterministic crash-injection hook the
// recovery tests drive (e.g. kill@point=2, kill@bytes=800,
// hang@point=0:ms=2000, throw@point=1:fires=3) — test-only, not for ops.
// throw and hang fire at the start of the point's attempt; kill@point=N
// fires once every in-shard point below N is journaled, at any --threads.
//
// Fleets: `--workers N` and `--hosts host:port[,...]` run the campaign as
// one shard per slot — a group of seeds over the whole grid when points
// share contacts, else the points `index % N == i` — on a fork/exec'd
// `dtnsim sweep --seeds k --seed-base b --shard i/N` child per worker or a
// `dtnsim serve` daemon per host (src/net/, harness/remote.hpp), with one
// journal per shard under `<journal>.shards/`. One scheduler
// (harness/fleet.hpp) deals the shards and owns every retry, backoff,
// stall (`--worker-timeout`) and give-up (`--worker-retries`) decision for
// both kinds of slot; this file only builds the slots and merges the shard
// journals into aggregates bit-identical to a single-process run. A shard
// that exhausts its attempts degrades the campaign instead of killing it:
// the merge reports its points failed-with-reason, exit is 1, and the
// journals are kept so `--resume` retries exactly the gap; a foreign shard
// journal refuses the resume (exit 1) before any slot starts. `--fault`
// reaches local workers only, so it is refused with `--hosts`. `--shard
// i/N` also works standalone for manual sharding, and `dtnsim journal
// <file>` diagnoses any campaign journal offline.
//
// `dtnsim serve --port P` is the resident worker daemon: it accepts one
// campaign at a time over a checksummed TCP framing, runs the assigned
// shard through the same journaled run_spec_sweep path (journal in a
// per-campaign scratch dir, resumed on reassignment), streams
// journal-growth heartbeats, and ships the journal bytes back. No auth, no
// TLS: bind daemons to loopback or trusted networks only (see README).
//
// Exit codes are pinned (the scheduler depends on them): 0 = clean
// campaign, 1 = completed with failed points (or a runtime error), 2 =
// usage/config error. `serve` exits 2 on usage/config errors and 1 when
// the listener fails at runtime; it never exits 0 (it runs until killed).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#if !defined(_WIN32)
#include <cerrno>
#include <cstring>
#include <sys/stat.h>
#include <sys/types.h>
#endif

#include "harness/fleet.hpp"
#include "harness/journal.hpp"
#include "harness/remote.hpp"
#include "harness/spec_io.hpp"
#include "harness/sweep.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "util/checksum.hpp"
#include "util/flags.hpp"
#include "util/subprocess.hpp"
#include "util/table.hpp"
#include "util/value_parse.hpp"

namespace {

using namespace dtn;

int usage() {
  std::fprintf(stderr,
               "usage: dtnsim <command> [args]\n"
               "  run   <scenario.cfg> [--set k=v]... [--seeds N] [--seed-base B]\n"
               "                       [--threads T] [--quiet]\n"
               "  sweep <scenario.cfg> [--axis k=v1,v2,..]... [--set k=v]...\n"
               "                       [--seeds N] [--seed-base B] [--threads T] [--quiet]\n"
               "                       [--out results.json] [--journal J] [--resume]\n"
               "                       [--retries N] [--point-timeout S] [--sync-every N]\n"
               "                       [--shard i/N | --workers N and/or --hosts h:p[,h:p..]\n"
               "                         [--worker-retries R] [--worker-timeout S]]\n"
               "  serve --port P       [--bind ADDR] [--scratch DIR] [--threads T]\n"
               "                       # resident worker daemon for sweep --hosts\n"
               "                       # (no auth: loopback/trusted networks only)\n"
               "  journal <file>       # inspect a campaign journal (fingerprint,\n"
               "                       # record census, torn-tail diagnosis)\n"
               "  print <scenario.cfg> [--set k=v]...\n"
               "  check <scenario.cfg>\n"
               "  list\n");
  return 2;
}

/// Strict numeric flag read: util::Flags falls back silently on garbage,
/// which is the wrong policy for an experiment driver — `--seeds abc`
/// must fail, not run one seed, and an out-of-range value must not be
/// narrowed into a different experiment. Returns false after printing a
/// diagnostic.
bool get_int_flag(const util::Flags& flags, const std::string& name,
                  std::int64_t fallback, std::int64_t lo, std::int64_t hi,
                  std::int64_t& out) {
  out = fallback;
  if (!flags.has(name)) return true;  // defaults are not range-checked
  if (!flags.parse_int(name, out)) {
    std::fprintf(stderr, "dtnsim: bad value '%s' for --%s (integer expected)\n",
                 flags.get_string(name, "").c_str(), name.c_str());
    return false;
  }
  if (out < lo || out > hi) {
    const std::string raw = flags.get_string(name, "");
    std::fprintf(stderr, "dtnsim: --%s %s out of range [%lld, %lld]\n", name.c_str(),
                 raw.c_str(), static_cast<long long>(lo), static_cast<long long>(hi));
    return false;
  }
  return true;
}

/// Strict double flag read (same policy as get_int_flag).
bool get_double_flag(const util::Flags& flags, const std::string& name,
                     double fallback, double lo, double hi, double& out) {
  out = fallback;
  if (!flags.has(name)) return true;
  const std::string raw = flags.get_string(name, "");
  if (!util::parse_value(raw, out)) {
    std::fprintf(stderr, "dtnsim: bad value '%s' for --%s (number expected)\n",
                 raw.c_str(), name.c_str());
    return false;
  }
  if (out < lo || out > hi) {
    std::fprintf(stderr, "dtnsim: --%s %s out of range [%g, %g]\n", name.c_str(),
                 raw.c_str(), lo, hi);
    return false;
  }
  return true;
}

/// Parses the test-only `--fault action@trigger[:k=v...]` spec into a
/// SweepFaultPlan: actions throw|hang|kill; triggers point=N or (kill
/// only) bytes=M; modifiers ms=M (hang stall) and fires=N (activation
/// cap). Returns false after a diagnostic on anything malformed.
bool parse_fault_spec(const std::string& text, harness::SweepFaultPlan& plan) {
  const auto fail = [&text] {
    std::fprintf(stderr,
                 "dtnsim: bad --fault '%s' (expected action@trigger, e.g. "
                 "kill@point=2, kill@bytes=800, hang@point=0:ms=2000, "
                 "throw@point=1:fires=3)\n",
                 text.c_str());
    return false;
  };
  const std::size_t at = text.find('@');
  if (at == std::string::npos) return fail();
  const std::string action = text.substr(0, at);
  if (action == "throw") {
    plan.action = harness::SweepFaultPlan::Action::kThrow;
  } else if (action == "hang") {
    plan.action = harness::SweepFaultPlan::Action::kHang;
  } else if (action == "kill") {
    plan.action = harness::SweepFaultPlan::Action::kKill;
  } else {
    return fail();
  }
  bool has_trigger = false;
  std::string rest = text.substr(at + 1);
  while (!rest.empty()) {
    const std::size_t colon = rest.find(':');
    const std::string part = rest.substr(0, colon);
    rest = colon == std::string::npos ? "" : rest.substr(colon + 1);
    const std::size_t eq = part.find('=');
    if (eq == std::string::npos) return fail();
    const std::string key = part.substr(0, eq);
    std::int64_t value = 0;
    if (!util::parse_value(part.substr(eq + 1), value) || value < 0) return fail();
    if (key == "point") {
      plan.point = static_cast<std::size_t>(value);
      has_trigger = true;
    } else if (key == "bytes" && plan.action == harness::SweepFaultPlan::Action::kKill) {
      plan.journal_bytes = static_cast<std::uint64_t>(value);
      has_trigger = true;
    } else if (key == "ms") {
      plan.hang_ms = static_cast<int>(value);
    } else if (key == "fires") {
      plan.fires = static_cast<int>(value);
    } else {
      return fail();
    }
  }
  return has_trigger ? true : fail();
}

/// Strict flag policy: a misspelled flag must not silently run the
/// experiment with default parameters. Returns false (after printing the
/// offenders) when any flag is outside `allowed`.
bool check_flags(const util::Flags& flags, std::initializer_list<const char*> allowed) {
  const auto offenders = flags.unknown_flags(allowed);
  for (const auto& name : offenders) {
    std::fprintf(stderr, "dtnsim: unknown flag '--%s'\n", name.c_str());
  }
  return offenders.empty();
}

/// Parses `--shard i/N` (0-based shard index / shard count). Rejects
/// anything nonsensical — N == 0, i >= N, garbage — loudly: a bad shard
/// selector silently running the wrong slice of a campaign is exactly the
/// failure mode the fabric exists to prevent.
bool parse_shard_spec(const std::string& text, std::size_t& index, std::size_t& count) {
  const auto fail = [&text] {
    std::fprintf(stderr,
                 "dtnsim: bad --shard '%s' (expected i/N with 0 <= i < N, e.g. 0/4)\n",
                 text.c_str());
    return false;
  };
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) return fail();
  std::int64_t index_v = 0;
  std::int64_t count_v = 0;
  if (!util::parse_value(text.substr(0, slash), index_v) ||
      !util::parse_value(text.substr(slash + 1), count_v)) {
    return fail();
  }
  if (count_v < 1 || index_v < 0 || index_v >= count_v) return fail();
  index = static_cast<std::size_t>(index_v);
  count = static_cast<std::size_t>(count_v);
  return true;
}

bool make_dir(const std::string& path) {
#if !defined(_WIN32)
  return ::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST;
#else
  (void)path;
  return false;
#endif
}

/// The `dtnsim sweep` command line of every local worker slot, minus the
/// per-attempt `--journal`, `--seeds`, `--seed-base`, `--shard`,
/// `--resume` and `--fault` that the scheduler's process runner appends.
std::vector<std::string> worker_argv(const std::string& cfg_path, const util::Flags& flags,
                                     const harness::SpecSweepOptions& options,
                                     const std::string& argv0) {
  // /proc/self/exe with an argv[0] fallback: the fleet must respawn the
  // binary that is running it even where procfs is absent.
  const std::string exe = util::self_exe_path(argv0);
  std::vector<std::string> argv = {exe.empty() ? argv0 : exe, "sweep", cfg_path};
  for (const auto& kv : flags.get_list("set")) argv.insert(argv.end(), {"--set", kv});
  for (const auto& axis : flags.get_list("axis")) argv.insert(argv.end(), {"--axis", axis});
  // Campaign parallelism comes from the worker count; each worker is
  // single-threaded unless the user sized --threads explicitly.
  argv.insert(argv.end(),
              {"--threads", std::to_string(flags.has("threads") ? options.threads : 1)});
  if (options.retries > 0) {
    argv.insert(argv.end(), {"--retries", std::to_string(options.retries)});
  }
  if (options.point_timeout_s > 0) {
    argv.insert(argv.end(), {"--point-timeout", util::format_value(options.point_timeout_s)});
  }
  if (flags.has("sync-every")) {
    argv.insert(argv.end(), {"--sync-every", std::to_string(options.sync_every)});
  }
  argv.push_back("--quiet");
  return argv;
}

// ---- multi-host fabric ------------------------------------------------------

/// Reads a whole file into `out` (binary). False on any I/O problem.
bool read_file_bytes(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[65536];
  out.clear();
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, got);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

std::string crc_hex8(std::uint32_t crc) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return std::string(buf);
}

/// One `--hosts` endpoint.
struct HostSpec {
  std::string host;
  int port = 0;
};

/// Parses `--hosts host:port[,host:port...]`. Loud diagnostic + false on
/// anything malformed — a typo must not silently shrink the fleet.
bool parse_hosts_spec(const std::string& csv, std::vector<HostSpec>& out) {
  const auto fail = [](const std::string& entry) {
    std::fprintf(
        stderr,
        "dtnsim: bad --hosts entry '%s' (expected host:port[,host:port...])\n",
        entry.c_str());
    return false;
  };
  out.clear();
  for (const std::string& entry : util::split_csv(csv)) {
    const std::size_t colon = entry.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= entry.size()) {
      return fail(entry);
    }
    std::int64_t port = 0;
    if (!util::parse_value(entry.substr(colon + 1), port) || port < 1 ||
        port > 65535) {
      return fail(entry);
    }
    out.push_back(HostSpec{entry.substr(0, colon), static_cast<int>(port)});
  }
  if (out.empty()) {
    std::fprintf(stderr, "dtnsim: --hosts needs at least one host:port\n");
    return false;
  }
  return true;
}

/// Serves ONE accepted campaign connection end-to-end. Never throws; every
/// refusal is loud on stderr AND sent back as an ERROR frame when the
/// connection still stands.
void serve_one_campaign(net::Stream conn, const std::string& scratch,
                        std::size_t threads) {
  const std::string peer = conn.peer();
  const auto log = [&peer](const std::string& message) {
    std::fprintf(stderr, "dtnsim: [%s] %s\n", peer.c_str(), message.c_str());
  };
  net::FrameDecoder decoder;
  net::Message msg;
  std::string error;
  if (net::recv_message(conn, decoder, 30000, &msg, &error) !=
          net::WireRecvStatus::kMessage ||
      msg.type != net::MessageType::kHello) {
    log("no HELLO" + (error.empty() ? std::string() : ": " + error));
    return;
  }
  std::uint64_t fp_len = 0;
  std::uint32_t fp_crc = 0;
  if (!harness::parse_sweep_hello(msg.payload, &fp_len, &fp_crc, &error)) {
    log("refusing HELLO: " + error);
    net::send_message(conn, net::MessageType::kError, error);
    return;
  }
  // The ack is a verbatim echo: the driver checks the daemon speaks the
  // same protocol version and saw the same fingerprint digest.
  if (!net::send_message(conn, net::MessageType::kHello, msg.payload)) return;
  if (net::recv_message(conn, decoder, 30000, &msg, &error) !=
          net::WireRecvStatus::kMessage ||
      msg.type != net::MessageType::kAssign) {
    log("no ASSIGN" + (error.empty() ? std::string() : ": " + error));
    return;
  }
  harness::SpecSweepOptions options;
  if (!harness::parse_sweep_assignment(msg.payload, &options, &error)) {
    log("refusing ASSIGN: " + error);
    net::send_message(conn, net::MessageType::kError, error);
    return;
  }
  // The fingerprint recomputed from what was PARSED must match the digest
  // advertised in HELLO: any drift — version skew between builds, a spec
  // vocabulary mismatch, payload damage the frame CRC could not see — is
  // a foreign campaign. Refuse loudly rather than compute wrong bits.
  const std::string fingerprint = harness::sweep_campaign_fingerprint(options);
  if (fingerprint.size() != fp_len || util::crc32(fingerprint) != fp_crc) {
    const std::string refusal =
        "campaign fingerprint mismatch (ASSIGN does not match the HELLO "
        "digest); refusing the foreign campaign";
    log(refusal);
    net::send_message(conn, net::MessageType::kError, refusal);
    return;
  }
  options.threads = threads;
  // Per-campaign scratch journal, keyed by fingerprint AND shard: a
  // reassigned shard resumes exactly its own bytes, and campaigns never
  // shadow each other.
  options.journal_path =
      scratch + "/campaign-" + crc_hex8(util::crc32(fingerprint)) + "-shard-" +
      std::to_string(options.shard_index) + "-of-" +
      std::to_string(options.shard_count) + ".journal";
  log("assigned shard " + std::to_string(options.shard_index) + "/" +
      std::to_string(options.shard_count) +
      (options.resume ? " (resume)" : "") + ", journal '" +
      options.journal_path + "'");
  std::atomic<std::uint64_t> points_done{0};
  options.progress = [&points_done](const std::string&) {
    points_done.fetch_add(1);
  };
  options.note = [&log](const std::string& message) { log(message); };

  std::atomic<bool> finished{false};
  std::exception_ptr failure;
  std::vector<harness::SpecPointResult> results;
  std::thread runner([&] {
    try {
      results = harness::run_spec_sweep(options);
    } catch (...) {
      failure = std::current_exception();
    }
    finished.store(true);
  });
  // Journal-growth heartbeat every 200 ms. A dead driver does NOT abort
  // the shard: the journal preserves the finished points, so the
  // reassigned shard (resume, possibly back on this daemon) recomputes
  // only the gap.
  bool driver_alive = true;
  while (!finished.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    if (!driver_alive) continue;
    const std::string beat = harness::serialize_sweep_progress(
        points_done.load(), harness::file_size(options.journal_path));
    if (!net::send_message(conn, net::MessageType::kProgress, beat)) {
      driver_alive = false;
      log("driver connection lost; finishing the shard for a future resume");
    }
  }
  runner.join();
  if (failure) {
    std::string what = "shard failed";
    try {
      std::rethrow_exception(failure);
    } catch (const std::exception& e) {
      what = e.what();
    }
    log("shard failed: " + what);
    if (driver_alive) net::send_message(conn, net::MessageType::kError, what);
    return;
  }
  if (!driver_alive) return;
  std::string journal_bytes;
  if (!read_file_bytes(options.journal_path, journal_bytes)) {
    const std::string what =
        "cannot read back shard journal '" + options.journal_path + "'";
    log(what);
    net::send_message(conn, net::MessageType::kError, what);
    return;
  }
  bool failures_present = false;
  for (const auto& point : results) {
    if (point.exec.failed()) failures_present = true;
  }
  if (net::send_message(conn, net::MessageType::kJournal, journal_bytes)) {
    net::send_message(conn, net::MessageType::kDone,
                      failures_present ? "1" : "0");
  }
  log("shard " + std::to_string(options.shard_index) + "/" +
      std::to_string(options.shard_count) + " complete: " +
      std::to_string(points_done.load()) + " point(s) run, " +
      std::to_string(journal_bytes.size()) + " journal byte(s) shipped" +
      (failures_present ? ", with failed points" : ""));
}

/// `dtnsim serve`: the resident multi-host worker daemon. Accepts one
/// campaign at a time (further drivers queue in the listen backlog), runs
/// the assigned shard through the journaled run_spec_sweep path, ships
/// the journal back, and survives to take the next assignment. Runs until
/// killed.
int cmd_serve(const util::Flags& flags) {
  if (!check_flags(flags, {"port", "bind", "scratch", "threads", "port-file"})) {
    return usage();
  }
  if (!flags.has("port")) {
    std::fprintf(stderr,
                 "dtnsim: serve needs --port (0 picks an ephemeral port)\n");
    return 2;
  }
  std::int64_t port = 0;
  std::int64_t threads = 0;
  if (!get_int_flag(flags, "port", 0, 0, 65535, port) ||
      !get_int_flag(flags, "threads", 0, 0, 4096, threads)) {
    return 2;
  }
  const std::string bind_addr = flags.get_string("bind", "127.0.0.1");
  const std::string scratch = flags.get_string("scratch", "dtnsim-serve.scratch");
  if (!make_dir(scratch)) {
    std::fprintf(stderr, "dtnsim: cannot create scratch dir '%s'\n",
                 scratch.c_str());
    return 2;
  }
  std::string error;
  net::Listener listener =
      net::Listener::open(bind_addr, static_cast<int>(port), &error);
  if (!listener.is_open()) {
    std::fprintf(stderr, "dtnsim: %s\n", error.c_str());
    return 2;
  }
  // --port 0 callers (tests, colocated fleets) read the bound port from
  // --port-file; written via rename so a poller never sees a partial file.
  const std::string port_file = flags.get_string("port-file", "");
  if (!port_file.empty()) {
    const std::string tmp = port_file + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    bool ok = f != nullptr && std::fprintf(f, "%d\n", listener.port()) > 0;
    if (f != nullptr && std::fclose(f) != 0) ok = false;
    if (!ok || std::rename(tmp.c_str(), port_file.c_str()) != 0) {
      std::fprintf(stderr, "dtnsim: cannot write --port-file '%s'\n",
                   port_file.c_str());
      return 2;
    }
  }
  std::fprintf(stderr,
               "dtnsim: serving on %s:%d (scratch '%s'; no auth — bind to "
               "loopback or trusted networks only)\n",
               bind_addr.c_str(), listener.port(), scratch.c_str());
  for (;;) {
    net::Stream conn = listener.accept(1000, &error);
    if (!conn.open()) {
      if (!error.empty()) {
        std::fprintf(stderr, "dtnsim: accept failed: %s\n", error.c_str());
        return 1;
      }
      continue;  // accept timeout: keep listening
    }
    serve_one_campaign(std::move(conn), scratch,
                       static_cast<std::size_t>(threads));
  }
}

void print_point(const harness::PointResult& point) {
  util::TablePrinter table({"metric", "mean", "stddev", "seeds"});
  for (const auto metric :
       {harness::Metric::kDeliveryRatio, harness::Metric::kLatency,
        harness::Metric::kGoodput, harness::Metric::kControlMb, harness::Metric::kRelayed}) {
    table.new_row()
        .add_cell(harness::metric_name(metric))
        .add_cell(harness::metric_value(point, metric),
                  metric == harness::Metric::kLatency ? 1 : 4)
        .add_cell(metric == harness::Metric::kDeliveryRatio
                      ? point.delivery_ratio.stddev()
                  : metric == harness::Metric::kLatency   ? point.latency.stddev()
                  : metric == harness::Metric::kGoodput   ? point.goodput.stddev()
                  : metric == harness::Metric::kControlMb ? point.control_mb.stddev()
                                                          : point.relayed.stddev(),
                  4)
        .add_cell(static_cast<long long>(point.delivery_ratio.count()));
  }
  std::printf("%s", table.to_string().c_str());
}

int cmd_run(const std::string& path, const util::Flags& flags) {
  if (!check_flags(flags, {"set", "seeds", "seed-base", "threads", "quiet"})) {
    return usage();
  }
  harness::SpecSweepOptions options;
  options.base = harness::load_spec_with_overrides(path, flags.get_list("set"));
  std::int64_t seeds = 0;
  std::int64_t seed_base = 0;
  std::int64_t threads = 0;
  if (!get_int_flag(flags, "seeds", 1, 1, INT32_MAX, seeds) ||
      !get_int_flag(flags, "seed-base", static_cast<std::int64_t>(options.base.seed),
                    0, INT64_MAX, seed_base) ||
      !get_int_flag(flags, "threads", 0, 0, 4096, threads)) {
    return 2;
  }
  options.seeds = static_cast<int>(seeds);
  options.seed_base = static_cast<std::uint64_t>(seed_base);
  options.threads = static_cast<std::size_t>(threads);
  if (!flags.get_bool("quiet", false)) {
    options.progress = [](const std::string& label) {
      std::fprintf(stderr, "  done: %s\n", label.c_str());
    };
  }
  std::printf("scenario '%s': %d nodes, %.0f s, protocol %s, %d seed(s)\n",
              options.base.name.c_str(), options.base.node_count(),
              options.base.duration_s, options.base.protocol.name.c_str(),
              options.seeds);
  const auto results = harness::run_spec_sweep(options);
  if (results.empty() || results.front().result.delivery_ratio.count() == 0) {
    std::fprintf(stderr, "no runs executed (seeds = %d)\n", options.seeds);
    return 1;
  }
  print_point(results.front().result);
  return 0;
}

int cmd_sweep(const std::string& path, const util::Flags& flags,
              const std::string& argv0) {
  if (!check_flags(flags, {"set", "axis", "seeds", "seed-base", "threads", "quiet",
                           "out", "journal", "resume", "retries", "point-timeout",
                           "sync-every", "fault", "shard", "workers", "hosts",
                           "worker-retries", "worker-timeout"})) {
    return usage();
  }
  harness::SpecSweepOptions options;
  options.base = harness::load_spec_with_overrides(path, flags.get_list("set"));
  for (const auto& axis_arg : flags.get_list("axis")) {
    const auto [key, csv] = harness::split_assignment(axis_arg);
    harness::SweepAxis axis;
    axis.key = key;
    axis.values = util::split_csv(csv);
    if (axis.values.empty()) {
      std::fprintf(stderr, "axis '%s' has no values\n", key.c_str());
      return 2;
    }
    options.axes.push_back(std::move(axis));
  }
  std::int64_t seeds = 0;
  std::int64_t seed_base = 0;
  std::int64_t threads = 0;
  std::int64_t retries = 0;
  std::int64_t sync_every = 0;
  std::int64_t workers = 0;
  std::int64_t worker_retries = 0;
  double point_timeout = 0.0;
  double worker_timeout = 0.0;
  // seed-base default is the file's scenario.seed, same as `dtnsim run`,
  // so a one-point sweep and a plain run of the same cfg agree.
  if (!get_int_flag(flags, "seeds", 2, 1, INT32_MAX, seeds) ||
      !get_int_flag(flags, "seed-base", static_cast<std::int64_t>(options.base.seed),
                    0, INT64_MAX, seed_base) ||
      !get_int_flag(flags, "threads", 0, 0, 4096, threads) ||
      !get_int_flag(flags, "retries", 0, 0, 1000, retries) ||
      !get_int_flag(flags, "sync-every", 1, 0, INT32_MAX, sync_every) ||
      !get_double_flag(flags, "point-timeout", 0.0, 0.0, 1e9, point_timeout) ||
      !get_int_flag(flags, "workers", 0, 1, 256, workers) ||
      !get_int_flag(flags, "worker-retries", 2, 0, 100, worker_retries) ||
      !get_double_flag(flags, "worker-timeout", 0.0, 0.0, 1e9, worker_timeout)) {
    return 2;
  }
  // A present-but-zero timeout is a config error, not "no timeout": the
  // user asked for a cap and got none.
  if (flags.has("point-timeout") && point_timeout <= 0.0) {
    std::fprintf(stderr, "dtnsim: --point-timeout must be > 0 (omit the flag for "
                         "no per-point timeout)\n");
    return 2;
  }
  if (flags.has("worker-timeout") && worker_timeout <= 0.0) {
    std::fprintf(stderr, "dtnsim: --worker-timeout must be > 0 (omit the flag to "
                         "disable the worker liveness watchdog)\n");
    return 2;
  }
  std::vector<HostSpec> hosts;
  if (flags.has("hosts") &&
      !parse_hosts_spec(flags.get_string("hosts", ""), hosts)) {
    return 2;
  }
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  if (flags.has("shard")) {
    if (flags.has("workers")) {
      std::fprintf(stderr, "dtnsim: --shard and --workers are mutually exclusive "
                           "(--workers assigns the shards itself)\n");
      return 2;
    }
    if (flags.has("hosts")) {
      std::fprintf(stderr, "dtnsim: --shard and --hosts are mutually exclusive "
                           "(--hosts assigns the shards itself)\n");
      return 2;
    }
    if (!parse_shard_spec(flags.get_string("shard", ""), shard_index, shard_count)) {
      return 2;
    }
  }
  if (flags.has("fault") && flags.has("hosts")) {
    std::fprintf(stderr, "dtnsim: --fault cannot be combined with --hosts (daemons "
                         "never receive the fault plan)\n");
    return 2;
  }
  const bool fleet = flags.has("workers") || !hosts.empty();
  // --workers and --hosts compose into ONE shard selector: one shard per
  // slot, local worker slots first.
  const std::size_t local_workers =
      flags.has("workers") ? static_cast<std::size_t>(workers) : 0;
  options.seeds = static_cast<int>(seeds);
  options.seed_base = static_cast<std::uint64_t>(seed_base);
  options.threads = static_cast<std::size_t>(threads);
  options.retries = static_cast<int>(retries);
  options.sync_every = static_cast<int>(sync_every);
  options.point_timeout_s = point_timeout;
  options.shard_index = shard_index;
  options.shard_count = shard_count;
  // The CLI always isolates worker failures: one bad point out of ten
  // thousand must cost that point, not the campaign. (Structural errors —
  // bad axis keys, invalid specs — still fail fast at grid expansion.)
  options.isolate_failures = true;
  options.resume = flags.get_bool("resume", false);
  options.note = [](const std::string& message) {
    std::fprintf(stderr, "dtnsim: %s\n", message.c_str());
  };
  harness::SweepFaultPlan fault_plan;
  if (flags.has("fault")) {
    if (!parse_fault_spec(flags.get_string("fault", ""), fault_plan)) return 2;
    // In fleet mode the plan is validated here but EXECUTED by the local
    // workers: the scheduler forwards the raw spec to each shard's first
    // attempt only (a retry must not re-trip the fault it is recovering
    // from), and the driver itself never simulates.
    if (!fleet) options.fault_plan = &fault_plan;
  }
  if (!flags.get_bool("quiet", false)) {
    options.progress = [](const std::string& label) {
      std::fprintf(stderr, "  done: %s\n", label.c_str());
    };
  }
  // Journal: explicit --journal, else ride alongside --out. Every
  // completed point streams into it (checksummed, fsync'd per
  // --sync-every), so a killed campaign resumes with --resume instead of
  // starting over. In fleet mode the base path only anchors the shard
  // work dir (`<base>.shards/`) — the driver itself never journals.
  const std::string out_path = flags.get_string("out", "");
  std::string journal_base = flags.get_string("journal", "");
  if (journal_base.empty() && !out_path.empty()) {
    journal_base = out_path + ".journal";
  }
  if (fleet && journal_base.empty()) {
    std::fprintf(stderr, "dtnsim: %s needs --out or --journal to place "
                         "the shard journals\n",
                 flags.has("workers") ? "--workers" : "--hosts");
    return 2;
  }
  if (!fleet) options.journal_path = journal_base;
  if (options.resume && journal_base.empty()) {
    std::fprintf(stderr, "dtnsim: --resume needs --out or --journal to locate "
                         "the campaign journal\n");
    return 2;
  }
  // Open --out (via a sibling temp file) before the campaign runs: an
  // unwritable path must fail in seconds, not after hours of simulation
  // with the JSON discarded — a config error (exit 2), not a runtime one.
  // The temp + rename keeps a pre-existing results file intact until the
  // new one is complete — a typo'd axis key (which throws inside
  // run_spec_sweep) or a short write (disk full) must not wipe the
  // previous campaign's results.
  const std::string tmp_path = out_path + ".tmp";
  std::FILE* out_file = nullptr;
  if (!out_path.empty()) {
    out_file = std::fopen(tmp_path.c_str(), "w");
    if (out_file == nullptr) {
      std::fprintf(stderr, "dtnsim: cannot write '%s'\n", out_path.c_str());
      return 2;
    }
  }
  std::size_t grid = 1;
  for (const auto& axis : options.axes) grid *= axis.values.size();
  std::printf("sweep '%s': %zu point(s) x %d seed(s)\n", options.base.name.c_str(),
              grid, options.seeds);
  if (shard_count > 1) {
    const std::size_t mine =
        grid / shard_count + (shard_index < grid % shard_count ? 1 : 0);
    std::printf("shard %zu/%zu: executing %zu of %zu point(s)\n", shard_index,
                shard_count, mine, grid);
  }
  // Drops the unpublished results file on every early exit.
  const auto discard_out = [&] {
    if (out_file == nullptr) return;
    std::fclose(out_file);
    std::remove(tmp_path.c_str());
  };
  const std::string shard_dir = journal_base + ".shards";
  if (fleet) {
    std::printf("fleet: %zu worker(s), %zu daemon(s) (shard journals under '%s')\n",
                local_workers, hosts.size(), shard_dir.c_str());
  }
  std::vector<harness::SpecPointResult> results;
  harness::SweepMergeStats merge_stats;
  harness::FleetResult fleet_result;
  try {
    if (fleet) {
      if (!make_dir(shard_dir)) {
        std::fprintf(stderr, "dtnsim: cannot create shard work dir '%s'\n",
                     shard_dir.c_str());
        discard_out();
        return 2;
      }
      // One slot per local worker, then one per daemon; shard i is first
      // dealt to slot i.
      std::vector<std::unique_ptr<harness::ShardRunner>> slots;
      const std::vector<std::string> argv = worker_argv(path, flags, options, argv0);
      for (std::size_t w = 0; w < local_workers; ++w) {
        slots.push_back(harness::make_process_runner(argv, flags.get_string("fault", "")));
      }
      for (const HostSpec& host : hosts) {
        slots.push_back(harness::make_daemon_runner(host.host, host.port));
      }
      harness::FleetOptions fleet_options;
      fleet_options.shard_dir = shard_dir;
      fleet_options.worker_retries = static_cast<int>(worker_retries);
      fleet_options.worker_timeout_s = worker_timeout;
      fleet_result = harness::run_fleet(options, fleet_options, slots);
      if (fleet_result.refused) {
        discard_out();
        return 1;
      }
      results = harness::merge_sweep_journals(options, fleet_result.journals,
                                              &merge_stats, fleet_result.origins);
      std::printf("merged %zu shard journal(s): %zu ok, %zu failed, %zu missing\n",
                  merge_stats.journals_read, merge_stats.points_ok,
                  merge_stats.points_failed, merge_stats.points_missing);
    } else {
      results = harness::run_spec_sweep(options);
    }
  } catch (...) {
    discard_out();
    throw;
  }
  std::size_t resumed_points = 0;
  std::size_t failed_points = 0;
  for (const auto& point : results) {
    if (point.exec.resumed) ++resumed_points;
    if (point.exec.failed()) ++failed_points;
  }
  if (options.resume && !fleet) {
    std::printf("resumed %zu completed point(s) from the journal; recomputed %zu\n",
                resumed_points, results.size() - resumed_points);
  }
  // The table shows what THIS invocation stands behind: a standalone shard
  // prints only its own slice (skipped rows are another process's job);
  // the JSON keeps every point, skipped ones marked as such.
  if (shard_count > 1) {
    std::vector<harness::SpecPointResult> mine;
    for (const auto& point : results) {
      if (!point.exec.skipped()) mine.push_back(point);
    }
    std::printf("\n%s", harness::sweep_table(mine).to_string().c_str());
  } else {
    std::printf("\n%s", harness::sweep_table(results).to_string().c_str());
  }
  if (out_file != nullptr) {
    const std::string json = harness::sweep_results_json(options, results);
    const bool wrote = std::fputs(json.c_str(), out_file) != EOF;
    const bool closed = std::fclose(out_file) == 0;
    std::string publish_error;
    // durable_replace fsyncs the data AND the directory around the rename:
    // a results file must never be lost to the page cache after the
    // campaign that produced it survived crashes on purpose.
    if (!wrote || !closed ||
        !harness::durable_replace(tmp_path, out_path, &publish_error)) {
      std::fprintf(stderr, "dtnsim: error writing '%s'%s%s\n", out_path.c_str(),
                   publish_error.empty() ? "" : ": ", publish_error.c_str());
      std::remove(tmp_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  // Loud end-of-campaign failure summary (the journals keep the failed
  // records, so `--resume` retries exactly these points).
  if (failed_points != 0) {
    std::fprintf(stderr, "dtnsim: %zu point(s) FAILED:\n", failed_points);
    for (const auto& point : results) {
      if (!point.exec.failed()) continue;
      const std::string label = point.overrides.empty() ? "(single point)"
                                                        : point.label();
      std::fprintf(stderr, "  %s: %s (after %d attempt(s))\n", label.c_str(),
                   point.exec.error.c_str(), point.exec.tries);
    }
    if (fleet) {
      std::fprintf(stderr, "dtnsim: shard journals kept under '%s'; rerun the "
                           "same --workers command with --resume to retry "
                           "exactly the failed/missing points\n",
                   shard_dir.c_str());
    } else if (!options.journal_path.empty()) {
      std::fprintf(stderr, "dtnsim: journal kept at '%s'; rerun with --resume "
                           "to retry the failed points\n",
                   options.journal_path.c_str());
    }
    return 1;
  }
  // Fully clean campaign: the results file supersedes the journals.
  if (fleet) {
    for (const auto& journal : fleet_result.journals) std::remove(journal.c_str());
    std::remove(shard_dir.c_str());
  } else if (flags.has("shard")) {
    // A standalone shard's journal is an INPUT to the campaign merge —
    // deleting it here would throw away this process's contribution. That
    // holds for 0/1 too: a fleet's seed-group shards run as 0/1.
    std::printf("shard journal kept at '%s' (input to the campaign merge)\n",
                options.journal_path.c_str());
  } else if (!options.journal_path.empty()) {
    std::remove(options.journal_path.c_str());
  }
  return 0;
}

/// `dtnsim journal <file>`: offline diagnosis of a campaign journal —
/// framing health (intact records, valid prefix, torn tail), the campaign
/// fingerprint shape, and the per-point record census. Every printed field
/// derives from the file's bytes alone (no wall times), so the output is
/// golden-testable. Exit 0 when the journal is intact, 1 when it is
/// missing/damaged (a torn tail is still safe to resume — the verdict line
/// says so).
int cmd_journal(const std::string& path) {
  const harness::JournalInspection info = harness::inspect_sweep_journal(path);
  if (info.missing) {
    std::fprintf(stderr, "dtnsim: journal '%s' does not exist\n", path.c_str());
    return 1;
  }
  if (info.io_error) {
    std::fprintf(stderr, "dtnsim: cannot read journal '%s'\n", path.c_str());
    return 1;
  }
  std::printf("journal '%s'\n", path.c_str());
  std::printf("  intact records: %zu (%llu byte(s) valid prefix)\n", info.records,
              static_cast<unsigned long long>(info.valid_bytes));
  if (info.dropped_bytes == 0) {
    std::printf("  torn tail:      none (clean EOF)\n");
  } else {
    std::printf("  torn tail:      %llu byte(s) dropped after the valid prefix\n",
                static_cast<unsigned long long>(info.dropped_bytes));
  }
  if (info.malformed_records != 0) {
    std::printf("  malformed:      %zu record(s) framed intact but unparsable\n",
                info.malformed_records);
  }
  if (info.campaign) {
    std::printf("  campaign:       %zu point(s) x %d seed(s), seed base %llu, "
                "%zu axis(es)\n",
                info.grid_points, info.seeds,
                static_cast<unsigned long long>(info.seed_base), info.axes);
    std::printf("  points:         %zu of %zu recorded (%zu ok, %zu failed)\n",
                info.points_recorded, info.grid_points, info.points_ok,
                info.points_failed);
    // Which shard selector the recorded indices imply — gcd inference, so
    // a partially-run shard still reads as its selector, not the grid.
    if (info.shard_modulus == 1) {
      std::printf("  shard:          whole grid (indices share no stride)\n");
    } else if (info.shard_modulus > 1) {
      std::printf("  shard:          index %% %zu == %zu (selector residue "
                  "implied by the recorded points)\n",
                  info.shard_modulus, info.shard_residue);
    } else if (info.points_recorded > 0) {
      std::printf("  shard:          undetermined (too few recorded points "
                  "to imply a stride)\n");
    }
  } else {
    std::printf("  campaign:       none (first record is not a dtnsim sweep "
                "fingerprint)\n");
  }
  if (info.intact()) {
    std::printf("  verdict:        INTACT (safe to resume or merge as-is)\n");
    return 0;
  }
  std::printf("  verdict:        DAMAGED (--resume keeps the valid prefix and "
              "recomputes the rest)\n");
  return 1;
}

int cmd_print(const std::string& path, const util::Flags& flags) {
  if (!check_flags(flags, {"set"})) return usage();
  const harness::ScenarioSpec spec =
      harness::load_spec_with_overrides(path, flags.get_list("set"));
  std::printf("%s", harness::to_config(spec).c_str());
  return 0;
}

int cmd_check(const std::string& path) {
  harness::ScenarioSpec spec;
  try {
    spec = harness::load_spec(path);
  } catch (const harness::SpecError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::fprintf(stderr, "%zu problem(s) in %s\n", e.diagnostics().size(), path.c_str());
    return 1;
  }
  try {
    harness::validate_spec(spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: invalid scenario: %s\n", path.c_str(), e.what());
    return 1;
  }
  std::printf("%s: OK (%d nodes in %zu group(s), protocol %s, %.0f s)\n", path.c_str(),
              spec.node_count(), spec.groups.size(), spec.protocol.name.c_str(),
              spec.duration_s);
  return 0;
}

void print_names(const char* title, const std::vector<std::string>& names) {
  std::printf("%s:", title);
  for (const auto& n : names) std::printf(" %s", n.c_str());
  std::printf("\n");
}

int cmd_list() {
  print_names("protocols", routing::known_protocols());
  print_names("mobility models", harness::group_model_names());
  print_names("map kinds", geo::map_kind_names());
  print_names("community sources", harness::community_source_names());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags = util::Flags::parse(argc, argv);
  const auto& args = flags.positional();
  if (args.empty()) return usage();
  const std::string& cmd = args[0];
  // Every command takes at most one scenario file; extra positionals would
  // be silently skipped (e.g. `dtnsim check a.cfg b.cfg` "passing" b.cfg
  // unread), so reject them like unknown flags.
  const std::size_t max_args = (cmd == "list" || cmd == "serve") ? 1 : 2;
  if (args.size() > max_args) {
    std::fprintf(stderr, "dtnsim: unexpected argument '%s'\n",
                 args[max_args].c_str());
    return usage();
  }
  try {
    if (cmd == "list") {
      return check_flags(flags, {}) ? cmd_list() : usage();
    }
    if (cmd == "serve") return cmd_serve(flags);
    if (args.size() < 2) return usage();
    const std::string& path = args[1];
    if (cmd == "run") return cmd_run(path, flags);
    if (cmd == "sweep") {
      return cmd_sweep(path, flags, argc > 0 ? argv[0] : "dtnsim");
    }
    if (cmd == "journal") {
      return check_flags(flags, {}) ? cmd_journal(path) : usage();
    }
    if (cmd == "print") return cmd_print(path, flags);
    if (cmd == "check") {
      return check_flags(flags, {}) ? cmd_check(path) : usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dtnsim: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "dtnsim: unknown command '%s'\n", cmd.c_str());
  return usage();
}
