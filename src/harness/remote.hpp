#pragma once
// Campaign-fabric vocabulary shared by the `dtnsim serve` worker daemon
// (tools/dtnsim.cpp) and the campaign scheduler's daemon slots
// (harness/fleet.hpp): the text payloads that ride inside net/wire frames,
// plus the driver-side shard-journal audit used by a fleet `--resume`.
//
// Payloads are line-oriented text in the same spirit as the sweep
// journal. The protocol version is part of every handshake payload;
// determinism is the correctness anchor — an ASSIGN carries the full
// canonical campaign (spec_io forms), the daemon recomputes the campaign
// fingerprint from what it parsed, and a mismatch with the fingerprint
// advertised in HELLO is refused loudly. Any host recomputes any point
// bit-identically, so WHERE a shard ran can never change a result bit.

#include <cstdint>
#include <string>

#include "harness/sweep.hpp"

namespace dtn::harness {

/// Version token spoken in HELLO/ASSIGN payloads. Bump on any
/// incompatible change to the payload grammar or the fabric contract.
inline constexpr const char kServeProtocolVersion[] = "dtnsim-serve/1";

/// HELLO payload: protocol version + the campaign fingerprint digest
/// (length + CRC-32 of sweep_campaign_fingerprint), so a daemon can
/// refuse a foreign ASSIGN before parsing a single spec line.
std::string serialize_sweep_hello(const std::string& fingerprint);
bool parse_sweep_hello(const std::string& payload, std::uint64_t* fp_len,
                       std::uint32_t* fp_crc, std::string* error);

/// One shard of one campaign, fully serialized for a remote worker: the
/// canonical base spec (to_config), every axis, the seed schedule, the
/// shard selector, and the execution policy knobs that change what gets
/// recorded (isolate/retries/point_timeout/sync_every, resume). Host
/// -local choices — journal path, thread count, progress plumbing — are
/// deliberately NOT shipped: the daemon owns them.
std::string serialize_sweep_assignment(const SpecSweepOptions& options);

/// Strict parse of an ASSIGN payload into options ready for
/// run_spec_sweep (journal_path/threads/callbacks left default). False +
/// `error` on any violation: wrong version token, malformed field, a
/// policy value outside the bounds `dtnsim sweep` enforces for its flag,
/// axis or spec text that does not parse.
bool parse_sweep_assignment(const std::string& payload, SpecSweepOptions* out,
                            std::string* error);

/// PROGRESS payload: the daemon's journal-growth heartbeat.
std::string serialize_sweep_progress(std::uint64_t records, std::uint64_t bytes);
bool parse_sweep_progress(const std::string& payload, std::uint64_t* records,
                          std::uint64_t* bytes);

/// Driver-side audit of one shard journal before (re)assigning the shard,
/// whose tile (harness/fleet.hpp) is `tile`.
enum class ShardJournalState {
  kComplete,  ///< every in-shard point recorded ok: nothing left to assign
  kPartial,   ///< missing, empty, gaps, or failed points: (re)assign + resume
  kForeign,   ///< carries another fingerprint than the tile's, so a resume
              ///< of the tile would refuse it
};
ShardJournalState audit_shard_journal(const SpecSweepOptions& tile, const std::string& path);

}  // namespace dtn::harness
