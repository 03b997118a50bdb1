// Metrics-fingerprint golden: every registered protocol × seeds {7, 8} ×
// four small scenarios (the paper's bus map, community walkers, a sparse
// random-waypoint field, and a hub traffic matrix), each run's counters
// and headline doubles written as one line — doubles as C99 hexfloats, so
// the comparison is bit-exact — and diffed against the committed
// tests/golden/metrics_fingerprint.txt. This is the behavioural contract
// refactors of the world, buffer, grid, mobility and sweep layers run
// against: if a change is meant to be bit-neutral, this file must not move.
//
// The sparse field runs twice, fixed-dt and on the kinetic event kernel;
// both must reproduce the same golden lines.
//
// On a mismatch the test prints the first differing line and writes the
// full actual fingerprint next to the test binary
// (metrics_fingerprint.actual.txt). A deliberate re-baseline copies that
// file over the golden in a commit that says why the metrics moved.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "harness/scenario.hpp"
#include "harness/spec_io.hpp"
#include "routing/factory.hpp"

namespace dtn::harness {
namespace {

// The small_bus shape of harness_spec_equivalence_test.
constexpr const char* kBus =
    "scenario.name = bus\n"
    "scenario.duration = 1500\n"
    "map.kind = downtown\n"
    "map.rows = 6\nmap.cols = 8\nmap.districts = 3\nmap.routes_per_district = 2\n"
    "group.buses.model = bus\n"
    "group.buses.count = 24\n"
    "traffic.ttl = 600\n"
    "protocol.copies = 6\n";

constexpr const char* kCommunity =
    "scenario.name = community\n"
    "scenario.duration = 1500\n"
    "map.kind = open_field\n"
    "map.width = 600\nmap.height = 600\n"
    "group.walkers.model = community\n"
    "group.walkers.count = 20\n"
    "world.radio_range = 30\n"
    "traffic.ttl = 600\n"
    "protocol.copies = 4\n"
    "communities.count = 4\n";

constexpr const char* kSparseField =
    "scenario.name = sparse_field\n"
    "scenario.duration = 2000\n"
    "map.kind = open_field\n"
    "map.width = 1000\nmap.height = 1000\n"
    "group.walkers.model = random_waypoint\n"
    "group.walkers.count = 40\n"
    "group.walkers.speed_min = 2\ngroup.walkers.speed_max = 14\n"
    "world.radio_range = 10\n"
    "traffic.ttl = 600\n"
    "protocol.copies = 6\n";

// examples/hub_commute.cfg shrunk; the hubs draw their positions per seed,
// and 128 KB buffers (five 25 KB messages) drive every protocol's drop path.
constexpr const char* kHub =
    "scenario.name = hub\n"
    "scenario.duration = 1500\n"
    "map.kind = open_field\n"
    "map.width = 500\nmap.height = 500\n"
    "group.commuters.model = community\n"
    "group.commuters.count = 16\n"
    "group.commuters.home_prob = 0.85\n"
    "group.hub.model = stationary\n"
    "group.hub.count = 3\n"
    "group.hub.placement = uniform\n"
    "group.hub.margin = 100\n"
    "group.hub.protocol = Epidemic\n"
    "world.radio_range = 40\n"
    "world.buffer_bytes = 131072\n"
    "protocol.copies = 6\n"
    "communities.count = 4\n"
    "traffic.profile = onoff\n"
    "traffic.on = 300\ntraffic.off = 200\n"
    "traffic.ttl = 400\n"
    "traffic.commuters.hub.interval_min = 20\n"
    "traffic.commuters.hub.interval_max = 40\n"
    "traffic.commuters.hub.weight = 3\n"
    "traffic.commuters.commuters.interval_min = 40\n"
    "traffic.commuters.commuters.interval_max = 80\n"
    "traffic.commuters.commuters.size_bytes = 10240\n";

constexpr std::uint64_t kSeeds[] = {7, 8};

std::string fingerprint_line(const std::string& scenario, const std::string& protocol,
                             std::uint64_t seed, const ScenarioResult& r) {
  const sim::Metrics& m = r.metrics;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "%s %s seed=%llu created=%lld delivered=%lld relayed=%lld "
                "started=%lld aborted=%lld dropped=%lld expired=%lld "
                "control_bytes=%lld contacts=%lld latency=%a goodput=%a hops=%a "
                "ratio=%a",
                scenario.c_str(), protocol.c_str(), static_cast<unsigned long long>(seed),
                static_cast<long long>(m.created()), static_cast<long long>(m.delivered()),
                static_cast<long long>(m.relayed()),
                static_cast<long long>(m.transfers_started()),
                static_cast<long long>(m.transfers_aborted()),
                static_cast<long long>(m.dropped()), static_cast<long long>(m.expired()),
                static_cast<long long>(m.control_bytes()),
                static_cast<long long>(r.contact_events), m.latency_mean(), m.goodput(),
                m.hop_count_mean(), m.delivery_ratio());
  return buf;
}

/// One line per (protocol, seed) of `text`'s scenario, all on `runner`.
std::vector<std::string> run_grid(ScenarioRunner& runner, const std::string& text) {
  const ScenarioSpec base = parse_spec(text);
  std::vector<std::string> lines;
  for (const std::string& protocol : routing::known_protocols()) {
    for (const std::uint64_t seed : kSeeds) {
      ScenarioSpec spec = base;
      spec.protocol.name = protocol;
      spec.seed = seed;
      lines.push_back(fingerprint_line(base.name, protocol, seed, runner.run(spec)));
    }
  }
  return lines;
}

std::filesystem::path golden_path() {
  return std::filesystem::path(__FILE__).parent_path().parent_path() / "golden" /
         "metrics_fingerprint.txt";
}

std::vector<std::string> read_lines(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// Where the actual fingerprint goes on a mismatch: beside the test binary.
std::filesystem::path actual_path() {
  std::error_code ec;
  const std::filesystem::path exe = std::filesystem::read_symlink("/proc/self/exe", ec);
  const std::filesystem::path dir = ec ? std::filesystem::current_path() : exe.parent_path();
  return dir / "metrics_fingerprint.actual.txt";
}

/// Empty when equal, else a description of the first differing line.
std::string first_difference(const std::vector<std::string>& want,
                             const std::vector<std::string>& got) {
  for (std::size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
    const std::string w = i < want.size() ? want[i] : "<missing>";
    const std::string g = i < got.size() ? got[i] : "<missing>";
    if (w != g) {
      return "line " + std::to_string(i + 1) + "\n  golden: " + w + "\n  actual: " + g;
    }
  }
  return "";
}

TEST(MetricsGolden, EveryProtocolOnFourScenariosMatchesTheCommittedFingerprint) {
  const std::vector<std::string> golden = read_lines(golden_path());
  ASSERT_FALSE(golden.empty()) << "cannot read " << golden_path();

  ScenarioRunner runner;  // one reused world across every run
  std::vector<std::string> actual;
  std::vector<std::string> sparse_fixed;
  for (const char* text : {kBus, kCommunity, kSparseField, kHub}) {
    const std::vector<std::string> lines = run_grid(runner, text);
    if (text == kSparseField) sparse_fixed = lines;
    actual.insert(actual.end(), lines.begin(), lines.end());
  }

  const std::string diff = first_difference(golden, actual);
  if (!diff.empty()) {
    const std::filesystem::path out = actual_path();
    std::ofstream file(out);
    for (const std::string& line : actual) file << line << "\n";
    ADD_FAILURE() << "metrics fingerprint differs from " << golden_path() << " at "
                  << diff << "\nfull actual fingerprint written to " << out;
  }

  // The kinetic event kernel must reproduce the fixed-dt lines exactly.
  const std::vector<std::string> sparse_kinetic =
      run_grid(runner, std::string(kSparseField) + "world.event_kernel = true\n");
  const std::string kernel_diff = first_difference(sparse_fixed, sparse_kinetic);
  EXPECT_TRUE(kernel_diff.empty())
      << "sparse_field with world.event_kernel = true differs from fixed-dt at "
      << kernel_diff;
}

TEST(MetricsGolden, TheFingerprintExercisesDeliveryAndEviction) {
  // A fingerprint of idle runs would pin nothing: each scenario must be
  // sized so flooding gets messages through, and the hub's small buffers
  // must make every protocol evict.
  const std::vector<std::string> golden = read_lines(golden_path());
  for (const std::string& line : golden) {
    if (line.find(" Epidemic ") == std::string::npos) continue;
    EXPECT_EQ(line.find(" delivered=0 "), std::string::npos) << line;
  }
  for (const std::string& protocol : routing::known_protocols()) {
    long long dropped = 0;
    for (const std::string& line : golden) {
      if (line.rfind("hub " + protocol + " ", 0) != 0) continue;
      dropped += std::stoll(line.substr(line.find(" dropped=") + 9));
    }
    EXPECT_GT(dropped, 0) << "hub " << protocol << " never evicts";
  }
}

}  // namespace
}  // namespace dtn::harness
