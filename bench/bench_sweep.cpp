// Campaign-throughput benchmark: the perf trajectory for the experiment
// EXECUTION layer (harness::run_spec_sweep), complementing
// bench_world_step's single-run kernel numbers. It times a (protocol x
// node-count x seed) screening campaign — the axes {protocol.name,
// scenario.nodes} over the bus spec — at one thread (per-core campaign
// throughput), then reruns it on three threads and FATALs unless the
// aggregates are bit-identical: the thread count is a product choice
// that must not change a result bit.
//
// A protocol axis gives runs that share their contact inputs (node count
// and seed), so the campaign memo makes one routing-free contact pass per
// key and every run of the key replays it: the full campaign's 36 runs
// replay 12 passes (`replayed_runs`, `contact_passes`). It FATALs unless
// the 1-thread trials and the 3-thread run each make exactly one pass per
// key.
//
// A second section measures the cross-seed reuse contract directly:
// heap allocations per seed for a World::reseed()-driven campaign vs
// building a fresh World per seed (same workload, same step counts).
//
// A third section times the hub-load matrix campaign: a spec-driven sweep
// whose workload engages the multi-schedule traffic generator (per-group
// matrix entries + on-off profile), with a fatal bit-identical replay
// cross-check between executions.
//
// Each campaign is timed over --trials executions and reported as the
// median with its quartiles (linear interpolation between order
// statistics), plus every trial: one best-of number cannot tell a 20%
// change from the spread of a shared host.
//
// Results land in BENCH_sweep.json (committed at the repo root); a change
// is judged against that history.
//
// Flags: --trials N (timed repetitions, default 5; smoke 2),
//        --seeds N (seeds per grid point, default 6),
//        --duration S (simulated seconds per run, default 600),
//        --out PATH (default BENCH_sweep.json),
//        --smoke (tiny campaign for CI: bench_smoke runs
//                 `bench_sweep --smoke`).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "harness/spec_io.hpp"
#include "harness/sweep.hpp"
#include "mobility/random_waypoint.hpp"
#include "routing/epidemic.hpp"
#include "sim/world.hpp"
#include "util/flags.hpp"
#include "util/value_parse.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
bool g_count_allocs = false;

}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs) g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dtn::bench {

/// The screening campaign: cheap-to-moderate protocols over small bus
/// worlds with short runs — the shape of ablation grids and CI suites,
/// where per-run setup and movement dominate and campaign throughput (not
/// single-run latency) is the metric that matters.
harness::SpecSweepOptions campaign(bool smoke, int seeds, double duration_s) {
  harness::SpecSweepOptions opt;
  opt.base = harness::parse_spec(
      "scenario.name = bus\n"
      "scenario.duration = " + util::format_value(smoke ? 200.0 : duration_s) + "\n"
      "map.kind = downtown\n"
      "map.rows = 6\n"
      "map.cols = 8\n"
      "map.districts = 2\n"
      "map.routes_per_district = 2\n"
      "group.buses.model = bus\n"
      "group.buses.count = 120\n"
      "traffic.ttl = " + std::string(smoke ? "100" : "150") + "\n"
      "traffic.interval_min = 10\n"
      "traffic.interval_max = 20\n");
  opt.axes = {
      harness::SweepAxis{"protocol.name",
                         smoke ? std::vector<std::string>{"Epidemic", "SprayAndWait"}
                               : std::vector<std::string>{"Epidemic", "SprayAndWait",
                                                          "DirectDelivery"}},
      harness::SweepAxis{"scenario.nodes", smoke ? std::vector<std::string>{"24"}
                                                 : std::vector<std::string>{"40", "80"}}};
  opt.seeds = smoke ? 2 : seeds;
  opt.seed_base = 1000;
  opt.threads = 1;  // per-core campaign throughput
  return opt;
}

/// The hub-load campaign: the matrix-workload shape (commuter -> hub flows
/// gated by an on-off profile, heterogeneous per-group protocols) swept
/// over fleet size through the declarative spec-sweep engine — measures
/// campaign throughput with the multi-schedule traffic generator engaged.
harness::SpecSweepOptions hub_campaign(bool smoke, int seeds, double duration_s) {
  harness::SpecSweepOptions opt;
  harness::ScenarioSpec& spec = opt.base;
  spec.name = "hub_load";
  spec.duration_s = smoke ? 200.0 : duration_s;
  spec.map.kind = "open_field";
  spec.map.params.width = 900.0;
  spec.map.params.height = 900.0;

  harness::GroupSpec commuters;
  commuters.name = "commuters";
  commuters.model = "community";
  commuters.count = 12;  // overlaid per point
  commuters.params.community.home_prob = 0.85;
  spec.groups.push_back(std::move(commuters));
  harness::GroupSpec hub;
  hub.name = "hub";
  hub.model = "stationary";
  hub.count = 4;
  hub.protocol = "Epidemic";
  hub.params.stationary.margin = 250.0;
  spec.groups.push_back(std::move(hub));

  spec.world.radio_range = 60.0;
  spec.protocol.name = "SprayAndWait";
  spec.protocol.copies = 6;
  spec.traffic.ttl = smoke ? 100.0 : 150.0;
  spec.traffic.profile = sim::TrafficProfile::kOnOff;
  spec.traffic.on_s = 90.0;
  spec.traffic.off_s = 60.0;
  spec.traffic_matrix = {
      harness::TrafficEntrySpec{"commuters", "hub", 10.0, 20.0, 25 * 1024, 3.0},
      harness::TrafficEntrySpec{"commuters", "commuters", 20.0, 40.0, 10240, 1.0}};

  opt.axes = {harness::SweepAxis{
      "group.commuters.count",
      smoke ? std::vector<std::string>{"12"} : std::vector<std::string>{"20", "40"}}};
  opt.seeds = smoke ? 2 : seeds;
  opt.seed_base = 1000;
  opt.threads = 1;
  return opt;
}

bool identical_aggregates(const std::vector<harness::SpecPointResult>& a,
                          const std::vector<harness::SpecPointResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].overrides != b[i].overrides ||
        a[i].result.delivery_ratio.count() != b[i].result.delivery_ratio.count()) {
      return false;
    }
    for (const auto metric :
         {harness::Metric::kDeliveryRatio, harness::Metric::kLatency,
          harness::Metric::kGoodput, harness::Metric::kControlMb,
          harness::Metric::kRelayed}) {
      if (harness::metric_value(a[i].result, metric) !=
          harness::metric_value(b[i].result, metric)) {
        return false;
      }
    }
    if (a[i].result.contacts.mean() != b[i].result.contacts.mean()) return false;
  }
  return true;
}

/// Runs the sweep once; returns wall seconds.
double run_campaign(const harness::SpecSweepOptions& opt,
                    std::vector<harness::SpecPointResult>& results) {
  const auto t0 = std::chrono::steady_clock::now();
  results = harness::run_spec_sweep(opt);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Median and quartiles of a set of trials.
struct Spread {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

/// The q-quantile of `sorted`, interpolating linearly between order
/// statistics.
double quantile(const std::vector<double>& sorted, double q) {
  const double at = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(at);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (at - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

Spread spread_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return {quantile(values, 0.25), quantile(values, 0.5), quantile(values, 0.75)};
}

/// "[a, b, c]" with three decimals.
std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  char buf[32];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.3f", i == 0 ? "" : ", ", values[i]);
    out += buf;
  }
  return out + "]";
}

/// Allocation cost of one additional seed, reused world vs fresh world.
/// Workload: random waypoint + epidemic + paper traffic (the bench_world_step
/// shape), small enough that the A/B below stays seconds-fast.
struct SeedAllocResult {
  double reused_allocs_per_seed = 0.0;
  double fresh_allocs_per_seed = 0.0;
};

std::unique_ptr<sim::World> build_alloc_world(int nodes, std::uint64_t seed) {
  sim::WorldConfig config;
  config.seed = seed;
  auto world = std::make_unique<sim::World>(config);
  mobility::RandomWaypointParams move;
  move.world_min = {0.0, 0.0};
  const double side = std::sqrt(120.0 * nodes);
  move.world_max = {side, side};
  move.speed_min = 2.0;
  move.speed_max = 14.0;
  for (int i = 0; i < nodes; ++i) {
    world->add_node(move, std::make_unique<routing::EpidemicRouter>());
  }
  sim::TrafficParams traffic;
  world->set_traffic(traffic);
  return world;
}

SeedAllocResult seed_alloc_ab(int nodes, int steps, int seeds) {
  SeedAllocResult result;
  {
    // Reused: one world, reseed per seed. One warm seed first so retained
    // capacity is at its high-water mark (the campaign steady state).
    auto world = build_alloc_world(nodes, 100);
    for (int i = 0; i < steps; ++i) world->step();
    world->reseed(101);
    for (int i = 0; i < steps; ++i) world->step();
    g_allocs.store(0);
    g_count_allocs = true;
    for (int s = 0; s < seeds; ++s) {
      world->reseed(102 + static_cast<std::uint64_t>(s));
      for (int i = 0; i < steps; ++i) world->step();
    }
    g_count_allocs = false;
    result.reused_allocs_per_seed =
        static_cast<double>(g_allocs.load()) / seeds;
  }
  {
    // Fresh: a new world per seed (the pre-PR3 cost).
    g_allocs.store(0);
    g_count_allocs = true;
    for (int s = 0; s < seeds; ++s) {
      auto world = build_alloc_world(nodes, 102 + static_cast<std::uint64_t>(s));
      for (int i = 0; i < steps; ++i) world->step();
    }
    g_count_allocs = false;
    result.fresh_allocs_per_seed = static_cast<double>(g_allocs.load()) / seeds;
  }
  return result;
}

}  // namespace dtn::bench

int main(int argc, char** argv) {
  using namespace dtn;
  const util::Flags flags = util::Flags::parse(argc, argv);
  const bool smoke = flags.get_bool("smoke", false);
  const int trials = static_cast<int>(flags.get_int("trials", smoke ? 2 : 5));
  const int seeds = static_cast<int>(flags.get_int("seeds", 6));
  const double duration = flags.get_double("duration", 600.0);
  const std::string out_path = flags.get_string("out", "BENCH_sweep.json");
  if (trials < 1 || seeds < 1 || !(duration > 0.0)) {
    std::fprintf(stderr,
                 "bench_sweep: --trials >= 1, --seeds >= 1, --duration > 0 required\n");
    return 2;
  }

  harness::SpecSweepOptions opt = bench::campaign(smoke, seeds, duration);
  const std::size_t protocols = opt.axes[0].values.size();
  const std::size_t node_counts = opt.axes[1].values.size();
  const std::size_t points = protocols * node_counts;
  const std::size_t runs = points * static_cast<std::size_t>(opt.seeds);
  const std::size_t keys = node_counts * static_cast<std::size_t>(opt.seeds);
  std::printf("campaign: %zu points x %d seeds = %zu runs, %.0f s sim each\n",
              points, opt.seeds, runs, opt.base.duration_s);
  std::fflush(stdout);

  // `trials` single-thread executions, each on a fresh campaign memo, then
  // one on three threads. Each must make exactly one contact pass per key.
  std::vector<double> trial_rps;
  std::vector<harness::SpecPointResult> results;
  std::size_t replayed = 0;
  std::size_t passes = 0;
  const auto one_pass_per_key = [&opt, &passes, keys](const char* what) {
    passes = opt.memo->stats().recorded;
    if (passes == keys) return true;
    std::fprintf(stderr, "FATAL: the %s campaign made %zu contact passes for %zu keys\n",
                 what, passes, keys);
    return false;
  };
  for (int t = 0; t < trials; ++t) {
    opt.memo = std::make_shared<harness::CampaignMemo>();
    trial_rps.push_back(static_cast<double>(runs) / bench::run_campaign(opt, results));
    replayed = opt.memo->stats().replayed;
    if (!one_pass_per_key("1-thread")) return 1;
  }
  // The thread count must not change a result bit.
  std::vector<harness::SpecPointResult> threaded;
  opt.threads = 3;
  opt.memo = std::make_shared<harness::CampaignMemo>();
  bench::run_campaign(opt, threaded);
  if (!one_pass_per_key("3-thread")) return 1;
  if (!bench::identical_aggregates(results, threaded)) {
    std::fprintf(stderr,
                 "FATAL: 1- and 3-thread sweep aggregates diverged — the "
                 "campaign result depends on the thread count\n");
    return 1;
  }
  const bench::Spread rps = bench::spread_of(trial_rps);
  const double pps = rps.median / static_cast<double>(runs / points);
  std::printf("%7.2f runs/s [%.2f, %.2f] (%6.2f points/s) at 1 thread, median of %d | "
              "%zu of %zu runs replayed %zu contact passes | 3-thread aggregates "
              "bit-identical\n",
              rps.median, rps.q1, rps.q3, pps, trials, replayed, runs, passes);
  std::fflush(stdout);

  // Cross-seed allocation contract.
  const int alloc_nodes = smoke ? 60 : 120;
  const int alloc_steps = smoke ? 1500 : 4000;
  const int alloc_seeds = smoke ? 2 : 4;
  const bench::SeedAllocResult alloc =
      bench::seed_alloc_ab(alloc_nodes, alloc_steps, alloc_seeds);
  const double reused_allocs_per_step =
      alloc.reused_allocs_per_seed / alloc_steps;
  std::printf("allocs/seed (n=%d, %d steps): reused %.1f (%.4f/step), fresh %.0f\n",
              alloc_nodes, alloc_steps, alloc.reused_allocs_per_seed,
              reused_allocs_per_step, alloc.fresh_allocs_per_seed);
  std::fflush(stdout);

  // Hub-load matrix campaign: spec-sweep throughput with the multi-
  // schedule workload generator (matrix entries + on-off profile +
  // per-group protocols), cross-checked for bit-identical replay.
  const harness::SpecSweepOptions hub_opt = bench::hub_campaign(smoke, seeds, duration);
  const std::size_t hub_points = hub_opt.axes[0].values.size();
  const std::size_t hub_runs = hub_points * static_cast<std::size_t>(hub_opt.seeds);
  std::vector<double> hub_trial_rps;
  std::vector<harness::SpecPointResult> hub_first;
  std::vector<harness::SpecPointResult> hub_again;
  for (int t = 0; t < std::max(trials, 2); ++t) {  // >= 2 executions for the replay check
    const double wall = bench::run_campaign(hub_opt, t == 0 ? hub_first : hub_again);
    hub_trial_rps.push_back(static_cast<double>(hub_runs) / wall);
  }
  if (!bench::identical_aggregates(hub_first, hub_again)) {
    std::fprintf(stderr,
                 "FATAL: hub-load campaign aggregates diverged between "
                 "executions — the matrix workload is not deterministic\n");
    return 1;
  }
  const bench::Spread hub_rps = bench::spread_of(hub_trial_rps);
  const double hub_pps = hub_rps.median / static_cast<double>(hub_runs / hub_points);
  std::printf("hub-load %6.2f runs/s [%.2f, %.2f] (%6.2f points/s), median of %zu | "
              "replay bit-identical\n",
              hub_rps.median, hub_rps.q1, hub_rps.q3, hub_pps, hub_trial_rps.size());
  std::fflush(stdout);

  char buf[4096];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"bench\": \"sweep\",\n"
      "  \"campaign\": \"bus-map screening sweep: %zu protocols x %zu node "
      "counts x %d seeds, %.0f s sim/run, threads=1\",\n"
      "  \"runs\": %zu, \"replayed_runs\": %zu, \"contact_passes\": %zu, \"trials\": %d,\n"
      "  \"runs_per_sec\": %.3f, \"runs_per_sec_q1\": %.3f, \"runs_per_sec_q3\": %.3f,\n"
      "  \"runs_per_sec_trials\": %s,\n"
      "  \"points_per_sec\": %.3f,\n"
      "  \"aggregates_identical\": true,\n"
      "  \"allocs_per_reused_seed\": {\"nodes\": %d, \"steps\": %d, "
      "\"reused\": %.1f, \"reused_per_step\": %.4f, \"fresh\": %.0f},\n"
      "  \"hub_load\": {\"campaign\": \"matrix+onoff commuter->hub spec sweep "
      "over group.commuters.count, threads=1\", \"runs\": %zu,\n"
      "    \"hub_runs_per_sec\": %.3f, \"hub_runs_per_sec_q1\": %.3f, "
      "\"hub_runs_per_sec_q3\": %.3f,\n"
      "    \"hub_runs_per_sec_trials\": %s,\n"
      "    \"hub_points_per_sec\": %.3f, \"replay_identical\": true}\n"
      "}\n",
      protocols, node_counts, opt.seeds, opt.base.duration_s, runs, replayed, passes, trials,
      rps.median, rps.q1, rps.q3, bench::json_list(trial_rps).c_str(), pps, alloc_nodes,
      alloc_steps, alloc.reused_allocs_per_seed, reused_allocs_per_step,
      alloc.fresh_allocs_per_seed, hub_runs, hub_rps.median, hub_rps.q1, hub_rps.q3,
      bench::json_list(hub_trial_rps).c_str(), hub_pps);

  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fputs(buf, f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
