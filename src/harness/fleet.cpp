#include "harness/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <future>
#include <optional>
#include <thread>
#include <utility>

#include "harness/journal.hpp"
#include "harness/remote.hpp"
#include "net/wire.hpp"
#include "util/subprocess.hpp"
#include "util/value_parse.hpp"

namespace dtn::harness {

namespace {

using Outcome = AttemptStatus::Outcome;

/// Scheduler tick: how often running attempts are polled.
constexpr double kTickS = 0.02;

std::string shard_label(std::size_t shard, std::size_t count) {
  return "shard " + std::to_string(shard) + "/" + std::to_string(count);
}

// ---- local worker processes --------------------------------------------------

class ProcessRunner final : public ShardRunner {
 public:
  ProcessRunner(std::vector<std::string> argv, std::string fault)
      : argv_(std::move(argv)), fault_(std::move(fault)) {}

  /// A campaign unwinding through an exception must not leave an orphan
  /// computing its shard.
  ~ProcessRunner() override { stop(); }

  [[nodiscard]] std::string name() const override { return "local"; }

  void start(const ShardAttempt& attempt) override {
    const SpecSweepOptions& tile = attempt.tile;
    std::vector<std::string> argv = argv_;
    argv.insert(argv.end(),
                {"--journal", tile.journal_path, "--seeds", std::to_string(tile.seeds),
                 "--seed-base", util::format_value(tile.seed_base), "--shard",
                 std::to_string(tile.shard_index) + "/" + std::to_string(tile.shard_count)});
    if (tile.resume) argv.push_back("--resume");
    if (attempt.fault && !fault_.empty()) argv.insert(argv.end(), {"--fault", fault_});
    journal_ = tile.journal_path;
    spawn_error_.clear();
    // Worker tables on stdout would corrupt the driver's own output;
    // stderr stays inherited so worker diagnostics reach the operator.
    if (!proc_.spawn(argv, /*discard_stdout=*/true, &spawn_error_)) {
      spawn_error_ = "cannot spawn worker: " + spawn_error_;
    }
  }

  AttemptStatus poll() override {
    if (!spawn_error_.empty()) return {Outcome::kFailed, 0, spawn_error_};
    const util::ProcessStatus status = proc_.poll();
    if (status.running) return {Outcome::kRunning, file_size(journal_), ""};
    // Exit 1 means the worker already retried its failed points itself; a
    // restart cannot help, so it counts as done like exit 0.
    if (status.exited && (status.exit_code == 0 || status.exit_code == 1)) {
      return {Outcome::kDone, 0, ""};
    }
    if (status.exited && status.exit_code == 2) {
      return {Outcome::kRefused, 0, "worker exited with a configuration error (exit 2)"};
    }
    if (status.signaled) {
      return {Outcome::kFailed, 0,
              "worker died on signal " + std::to_string(status.term_signal)};
    }
    return {Outcome::kFailed, 0,
            "worker exited abnormally (code " + std::to_string(status.exit_code) +
                (status.exit_code == 127 ? ", exec failed)" : ")")};
  }

  void stop() override {
    proc_.kill_hard();  // no-op once the child is reaped
    proc_.wait();
  }

 private:
  std::vector<std::string> argv_;
  std::string fault_;
  std::string journal_;
  std::string spawn_error_;
  util::Subprocess proc_;
};

// ---- remote daemons ----------------------------------------------------------

/// A daemon connection that got through HELLO, its echo and ASSIGN, or
/// the reason it did not.
struct Handshake {
  net::Stream conn;
  net::FrameDecoder decoder;
  std::string error;
};

/// Runs on a thread of its own so the scheduler never waits on the
/// network; it decides nothing. The echo wait is generous on purpose: a
/// busy daemon (one campaign at a time) parks the connection in its listen
/// backlog until its current shard completes. It waits in slices so that
/// `cancel` ends it.
Handshake handshake(const std::string& host, int port, const std::string& hello,
                    const std::string& assign, const std::atomic<bool>& cancel) {
  Handshake h;
  h.conn = net::Stream::connect(host, port, 5000, &h.error);
  if (!h.conn.open()) return h;
  bool echoed = false;
  if (net::send_message(h.conn, net::MessageType::kHello, hello)) {
    net::Message msg;
    for (int waited_ms = 0; waited_ms < 30000 && !cancel.load(); waited_ms += 200) {
      const auto got = net::recv_message(h.conn, h.decoder, 200, &msg, &h.error);
      if (got == net::WireRecvStatus::kTimeout) continue;
      echoed = got == net::WireRecvStatus::kMessage &&
               msg.type == net::MessageType::kHello && msg.payload == hello;
      break;
    }
  }
  if (!echoed || !net::send_message(h.conn, net::MessageType::kAssign, assign)) {
    h.error = "handshake failed" + (h.error.empty() ? "" : ": " + h.error);
    h.conn.close();
  }
  return h;
}

/// Lands a shipped journal through the same tmp + durable_replace publish
/// as `--out`. False + `error` on any I/O problem.
bool store_journal(const std::string& path, const std::string& bytes, std::string* error) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  bool wrote = f != nullptr && std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  if (f != nullptr && std::fclose(f) != 0) wrote = false;
  if (!wrote) {
    std::remove(tmp.c_str());
    *error = "cannot write '" + tmp + "'";
    return false;
  }
  return durable_replace(tmp, path, error);
}

class DaemonRunner final : public ShardRunner {
 public:
  DaemonRunner(std::string host, int port) : host_(std::move(host)), port_(port) {}

  /// The futures below wait out their handshakes; cancel the live one first.
  ~DaemonRunner() override {
    if (cancel_) cancel_->store(true);
  }

  [[nodiscard]] std::string name() const override {
    return host_ + ":" + std::to_string(port_);
  }

  void start(const ShardAttempt& attempt) override {
    journal_ = attempt.tile.journal_path;
    progress_ = 0;
    shipped_.reset();
    std::erase_if(abandoned_, [](const std::future<Handshake>& f) {
      return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
    });
    cancel_ = std::make_shared<std::atomic<bool>>(false);
    handshake_ = std::async(
        std::launch::async,
        [host = host_, port = port_, cancel = cancel_,
         hello = serialize_sweep_hello(sweep_campaign_fingerprint(attempt.tile)),
         assign = serialize_sweep_assignment(attempt.tile)] {
          return handshake(host, port, hello, assign, *cancel);
        });
  }

  AttemptStatus poll() override {
    if (handshake_.valid()) {
      if (handshake_.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        return {};
      }
      Handshake h = handshake_.get();
      if (!h.error.empty()) return {Outcome::kFailed, 0, h.error};
      conn_ = std::move(h.conn);
      decoder_ = std::move(h.decoder);
    }
    net::Message msg;
    std::string error;
    for (;;) {
      const net::WireRecvStatus got =
          net::recv_message(conn_, decoder_, kDrainMs, &msg, &error);
      if (got == net::WireRecvStatus::kTimeout) return {Outcome::kRunning, progress_, ""};
      if (got != net::WireRecvStatus::kMessage) {
        conn_.close();
        return {Outcome::kFailed, 0, "connection lost" + (error.empty() ? "" : ": " + error)};
      }
      switch (msg.type) {
        case net::MessageType::kProgress: {
          std::uint64_t records = 0;
          std::uint64_t bytes = 0;
          if (parse_sweep_progress(msg.payload, &records, &bytes)) progress_ = bytes;
          continue;
        }
        case net::MessageType::kJournal:
          shipped_ = std::move(msg.payload);
          continue;
        case net::MessageType::kDone:
          conn_.close();
          if (!shipped_) return {Outcome::kFailed, 0, "DONE without a journal"};
          // A local disk problem: another attempt anywhere would hit it too.
          if (!store_journal(journal_, *shipped_, &error)) {
            return {Outcome::kRefused, 0, "cannot store the received journal: " + error};
          }
          return {Outcome::kDone, 0, ""};
        case net::MessageType::kError:
          // Foreign fingerprint, unusable scratch, a spec the daemon cannot
          // run: another attempt would be refused the same way.
          conn_.close();
          return {Outcome::kRefused, 0, "daemon reported: " + msg.payload};
        default:
          conn_.close();
          return {Outcome::kFailed, 0,
                  std::string("unexpected ") + net::message_type_token(msg.type) +
                      " message"};
      }
    }
  }

  void stop() override {
    if (handshake_.valid()) {
      cancel_->store(true);
      abandoned_.push_back(std::move(handshake_));
    }
    conn_.close();
  }

 private:
  /// Longest poll() waits for a frame before reporting "still running".
  static constexpr int kDrainMs = 5;

  std::string host_;
  int port_ = 0;
  std::string journal_;
  std::shared_ptr<std::atomic<bool>> cancel_;  ///< the latest handshake's
  std::future<Handshake> handshake_;           ///< the current attempt's, until taken
  std::vector<std::future<Handshake>> abandoned_;  ///< handshakes of stopped attempts
  net::Stream conn_;
  net::FrameDecoder decoder_;
  std::uint64_t progress_ = 0;
  std::optional<std::string> shipped_;  ///< JOURNAL payload awaiting DONE
};

}  // namespace

std::unique_ptr<ShardRunner> make_process_runner(std::vector<std::string> argv,
                                                 std::string fault) {
  return std::make_unique<ProcessRunner>(std::move(argv), std::move(fault));
}

std::unique_ptr<ShardRunner> make_daemon_runner(std::string host, int port) {
  return std::make_unique<DaemonRunner>(std::move(host), port);
}

std::vector<SpecSweepOptions> fleet_tiles(const SpecSweepOptions& campaign,
                                          std::size_t slots) {
  std::vector<SpecSweepOptions> tiles(slots, campaign);
  const auto seeds = static_cast<std::size_t>(std::max(campaign.seeds, 0));
  // A worker's --seed-base and a daemon's ASSIGN both end at INT64_MAX, so
  // every group's first seed must too.
  const bool seed_groups =
      seeds >= slots && campaign.seed_base <= static_cast<std::uint64_t>(INT64_MAX) - seeds &&
      grid_shares_contact_key(campaign);
  std::uint64_t next_seed = campaign.seed_base;
  for (std::size_t i = 0; i < slots; ++i) {
    SpecSweepOptions& tile = tiles[i];
    if (seed_groups) {
      tile.seeds = static_cast<int>(seeds / slots + (i < seeds % slots ? 1 : 0));
      tile.seed_base = next_seed;
      next_seed += static_cast<std::uint64_t>(tile.seeds);
      tile.shard_index = 0;
      tile.shard_count = 1;
    } else {
      tile.shard_index = i;
      tile.shard_count = slots;
    }
  }
  return tiles;
}

// ---- the scheduler -------------------------------------------------------------

FleetResult run_fleet(const SpecSweepOptions& campaign, const FleetOptions& options,
                      const std::vector<std::unique_ptr<ShardRunner>>& slots) {
  const std::size_t shards = slots.size();
  const auto note = [&campaign](const std::string& message) {
    if (campaign.note) campaign.note(message);
  };
  const auto now = [&options] {
    return options.clock ? options.clock()
                         : std::chrono::duration<double>(
                               std::chrono::steady_clock::now().time_since_epoch())
                               .count();
  };
  const std::vector<SpecSweepOptions> tiles = fleet_tiles(campaign, shards);
  FleetResult result;
  result.origins.assign(shards, "");

  // ---- audit before dealing ------------------------------------------------
  std::vector<char> needed(shards, 1);
  for (std::size_t s = 0; s < shards; ++s) {
    result.journals.push_back(options.shard_dir + "/shard-" + std::to_string(s) + ".journal");
    const std::string& journal = result.journals[s];
    if (!campaign.resume) {
      // A fresh campaign owns its shard dir: a stale journal from an older
      // campaign must not leak into the merge.
      std::remove(journal.c_str());
      continue;
    }
    switch (audit_shard_journal(tiles[s], journal)) {
      case ShardJournalState::kComplete:
        note(shard_label(s, shards) + " is already complete in '" + journal +
             "'; not dealing it");
        needed[s] = 0;
        break;
      case ShardJournalState::kForeign:
        note(foreign_journal_refusal(journal));
        result.refused = true;
        break;
      case ShardJournalState::kPartial:
        break;
    }
  }
  if (result.refused) return result;

  // ---- deal, poll, retry ----------------------------------------------------
  constexpr std::size_t kIdle = static_cast<std::size_t>(-1);
  struct Slot {
    std::size_t shard = kIdle;
    std::uint64_t progress = 0;  ///< last progress seen
    double progress_at = 0.0;    ///< when it last changed (or the attempt began)
    int failures = 0;            ///< consecutive failed attempts
    double idle_until = 0.0;     ///< end of the backoff window
  };
  std::vector<Slot> state(shards);
  std::vector<int> attempts(shards, 0);
  std::deque<std::size_t> queue;
  std::size_t unresolved = 0;
  const int max_attempts = 1 + std::max(options.worker_retries, 0);

  const auto launch = [&](std::size_t k, std::size_t s, double t) {
    const bool first = attempts[s]++ == 0;
    if (!first) {
      note("restarting " + shard_label(s, shards) + " on " + slots[k]->name() +
           " (attempt " + std::to_string(attempts[s]) + " of " +
           std::to_string(max_attempts) + ")");
    }
    state[k].shard = s;
    state[k].progress = 0;
    state[k].progress_at = t;
    ShardAttempt attempt{s, tiles[s], first};
    attempt.tile.journal_path = result.journals[s];
    attempt.tile.resume = campaign.resume || !first;
    slots[k]->start(attempt);
  };
  const auto fail = [&](std::size_t k, const std::string& reason, double t) {
    Slot& slot = state[k];
    const std::size_t s = slot.shard;
    slot.shard = kIdle;
    ++slot.failures;
    slot.idle_until =
        t + std::min(5.0, 0.25 * static_cast<double>(1 << std::min(slot.failures - 1, 10)));
    note(shard_label(s, shards) + " on " + slots[k]->name() + ": " + reason);
    if (attempts[s] < max_attempts) {
      queue.push_back(s);
      return;
    }
    note(shard_label(s, shards) + " gave up after " + std::to_string(attempts[s]) +
         " attempt(s); its unrecorded points will be reported failed");
    --unresolved;
  };

  const double t0 = now();
  for (std::size_t s = 0; s < shards; ++s) {
    if (!needed[s]) continue;
    ++unresolved;
    launch(s, s, t0);  // shard i first goes to slot i
  }
  while (unresolved > 0) {
    if (options.wait) {
      options.wait(kTickS);
    } else {
      std::this_thread::sleep_for(std::chrono::duration<double>(kTickS));
    }
    const double t = now();
    for (std::size_t k = 0; k < shards; ++k) {
      Slot& slot = state[k];
      if (slot.shard == kIdle) continue;
      const AttemptStatus status = slots[k]->poll();
      switch (status.outcome) {
        case Outcome::kRunning:
          if (status.progress != slot.progress) {
            slot.progress = status.progress;
            slot.progress_at = t;
          } else if (options.worker_timeout_s > 0 &&
                     t - slot.progress_at > options.worker_timeout_s) {
            slots[k]->stop();
            fail(k, "no journal progress for " + util::format_value(options.worker_timeout_s) +
                        " s; stopped", t);
          }
          break;
        case Outcome::kDone:
          result.origins[slot.shard] = slots[k]->name();
          slot.shard = kIdle;
          slot.failures = 0;
          --unresolved;
          break;
        case Outcome::kRefused:
          note(shard_label(slot.shard, shards) + " on " + slots[k]->name() + ": " +
               status.reason + "; not retrying");
          slot.shard = kIdle;
          slot.failures = 0;
          --unresolved;
          break;
        case Outcome::kFailed:
          fail(k, status.reason, t);
          break;
      }
    }
    // A queued shard goes to the next free slot outside its backoff window.
    for (std::size_t k = 0; k < shards && !queue.empty(); ++k) {
      if (state[k].shard != kIdle || t < state[k].idle_until) continue;
      launch(k, queue.front(), t);
      queue.pop_front();
    }
  }
  return result;
}

}  // namespace dtn::harness
