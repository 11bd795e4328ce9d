// Fleet-scale deployment bench (ISSUE 8): homes vs RSS vs aggregate packet
// throughput vs cross-home detection-propagation latency, for the
// shared-baseline (copy-on-write) memory model against the naive
// private-copy model.
//
// Sweep order matters for RSS deltas: the CoW sweeps run FIRST, ascending,
// so each run's resident-set delta is measured against a heap that has not
// yet been inflated by a bigger run (freed glibc arenas do not return to
// the OS reliably; malloc_trim helps but is best-effort). The naive model
// is additionally compared through exact internal KB-byte accounting,
// which is immune to allocator noise.
//
//   ./bench_fleet [--smoke] [--max-homes N] [--rounds R] [--workers W]
//
// W is 1 to 64 worker threads (default: the core count, at most 8), and N
// is 1 to 1 000 000 homes (default 100 000).
//
// Default mode sweeps {1k, 10k, N} CoW + {1k, 10k} naive, each size capped
// at N (so no run is larger than N, and duplicates run once), emits
// BENCH_fleet.json and exits non-zero unless every run propagates within the
// staleness bound with closed exchange accounting, the largest CoW run stays
// within kMaxRssPerHomeBytes resident bytes per home, and that run's exact
// KB bytes per home undercut every naive run's. Wall-clock pps is reported,
// not gated.
//
// --smoke runs one small fleet and hard-asserts the correctness
// invariants CI relies on: the novel signature activates, every home
// observes it within the configured staleness bound, all homes converge to
// the same collective view after shutdown reconciliation, and the exchange
// accounting identities close exactly (zero unaccounted loss).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "fleet/fleet.hpp"
#include "util/strings.hpp"

using namespace kalis;
using fleet::Fleet;

namespace {

constexpr const char* kUsage =
    "usage: bench_fleet [--smoke] [--max-homes N] [--rounds R] "
    "[--workers W]\n";

/// Upper bound of --workers: each worker is a thread that owns at least one
/// region, so the value sizes both.
constexpr long long kMaxWorkers = 64;

/// Upper bound of --max-homes: ten times the default sweep's largest fleet
/// (under 1 GB resident), so a mistyped value is refused instead of built.
constexpr long long kMaxHomes = 1000000;

double nowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-effort: return freed arena memory to the OS so the next run's RSS
/// delta starts from a clean floor.
void trimHeap() {
#if defined(__GLIBC__)
  ::malloc_trim(0);
#endif
}

/// Resident-set budget per home for the largest CoW run: about 4x the
/// ~1.1 KiB recorded in BENCH_fleet.json, headroom for allocator and kernel
/// variance. RSS is not exact, so it gets an absolute budget, not a diff.
constexpr double kMaxRssPerHomeBytes = 4096;

struct RunResult {
  std::string name;
  std::size_t homes = 0;
  std::size_t regions = 0;
  std::size_t workers = 0;
  bool shareBaseline = true;
  double wallSec = 0;
  double pps = 0;  ///< aggregate packet events / wall second
  std::size_t rssBeforeBytes = 0;
  std::size_t rssAfterBytes = 0;
  double rssPerHomeBytes = 0;
  std::size_t kbBytesTotal = 0;  ///< exact: overlays + shared segments
  double kbBytesPerHome = 0;
  std::uint64_t packets = 0;
  std::uint64_t alerts = 0;
  Fleet::PropagationReport propagation;
  std::uint32_t stalenessBoundRounds = 0;
  bool withinBound = false;
  fleet::HierarchicalExchange::Stats exchange;
};

Fleet::Options fleetOptions(std::size_t homes, std::size_t workers,
                            std::uint32_t rounds, bool shareBaseline) {
  Fleet::Options o;
  o.homes = homes;
  // ~256 homes per region hub, but never fewer regions than workers (each
  // worker owns at least one region) and at least two (cross-region
  // propagation must actually cross a boundary).
  o.regions = std::max<std::size_t>({2, workers, homes / 256});
  o.workers = workers;
  o.seed = 42;
  o.rounds = rounds;
  o.shareBaseline = shareBaseline;
  return o;
}

RunResult runFleet(Fleet::Options options, const char* tag) {
  trimHeap();
  RunResult r;
  r.rssBeforeBytes = fleet::currentRssBytes();
  Fleet f(options);
  const double t0 = nowSec();
  f.run();
  r.wallSec = nowSec() - t0;
  r.rssAfterBytes = fleet::currentRssBytes();

  const Fleet::Stats stats = f.stats();
  r.name = std::string(tag) + "_h" + std::to_string(options.homes);
  r.homes = f.options().homes;
  r.regions = f.options().regions;
  r.workers = f.options().workers;
  r.shareBaseline = options.shareBaseline;
  r.pps = r.wallSec > 0
              ? static_cast<double>(stats.packetsProcessed) / r.wallSec
              : 0;
  r.packets = stats.packetsProcessed;
  r.alerts = stats.alertsRaised;
  const std::size_t rssDelta = r.rssAfterBytes > r.rssBeforeBytes
                                   ? r.rssAfterBytes - r.rssBeforeBytes
                                   : 0;
  r.rssPerHomeBytes = static_cast<double>(rssDelta) / r.homes;
  r.kbBytesTotal = stats.homeHeapBytes + stats.baselineBytes;
  r.kbBytesPerHome = static_cast<double>(r.kbBytesTotal) / r.homes;
  r.propagation = stats.propagation;
  r.stalenessBoundRounds = f.stalenessBoundRounds();
  r.withinBound = r.propagation.activated &&
                  r.propagation.homesObserved == r.propagation.homesTotal &&
                  r.propagation.maxLagRounds <= r.stalenessBoundRounds;
  r.exchange = stats.exchange;
  return r;
}

bool accountingCloses(const fleet::HierarchicalExchange::Stats& s) {
  return s.published == s.regionDrained + s.regionDropped &&
         s.globalForwarded == s.globalDrained + s.globalDropped;
}

int runSmoke(std::size_t workers) {
  Fleet::Options o = fleetOptions(2000, workers, 24, /*shareBaseline=*/true);
  // Every sync cadence at 2 rounds, so the smoke also exercises the
  // cadence > 1 paths and a staleness bound wider than the default's.
  o.regionSyncEvery = 2;
  o.globalSyncEvery = 2;
  o.globalPullEvery = 2;
  Fleet f(o);
  f.run();
  const Fleet::Stats stats = f.stats();
  const auto& prop = stats.propagation;

  bool ok = true;
  if (!prop.activated) {
    std::fprintf(stderr, "smoke: signature never activated\n");
    ok = false;
  }
  if (prop.homesObserved != prop.homesTotal) {
    std::fprintf(stderr, "smoke: only %zu/%zu homes observed the signature\n",
                 prop.homesObserved, prop.homesTotal);
    ok = false;
  }
  if (prop.maxLagRounds > f.stalenessBoundRounds()) {
    std::fprintf(stderr, "smoke: max lag %u rounds exceeds bound %u\n",
                 prop.maxLagRounds, f.stalenessBoundRounds());
    ok = false;
  }
  if (!accountingCloses(stats.exchange)) {
    std::fprintf(stderr,
                 "smoke: exchange accounting does not close "
                 "(pub=%llu rdrain=%llu rdrop=%llu fwd=%llu gdrain=%llu "
                 "gdrop=%llu)\n",
                 (unsigned long long)stats.exchange.published,
                 (unsigned long long)stats.exchange.regionDrained,
                 (unsigned long long)stats.exchange.regionDropped,
                 (unsigned long long)stats.exchange.globalForwarded,
                 (unsigned long long)stats.exchange.globalDrained,
                 (unsigned long long)stats.exchange.globalDropped);
    ok = false;
  }
  // Convergence: after shutdown reconciliation every home holds the same
  // collective view.
  const std::vector<ids::Knowgget> reference = f.homeCollectiveView(0);
  for (std::size_t h = 1; h < f.options().homes; ++h) {
    const std::vector<ids::Knowgget> view = f.homeCollectiveView(h);
    if (view.size() != reference.size()) {
      std::fprintf(stderr, "smoke: home %zu view size %zu != %zu\n", h,
                   view.size(), reference.size());
      ok = false;
      break;
    }
    for (std::size_t i = 0; i < view.size(); ++i) {
      if (view[i].label != reference[i].label ||
          view[i].value != reference[i].value ||
          view[i].creator != reference[i].creator) {
        std::fprintf(stderr, "smoke: home %zu diverged at entry %zu (%s)\n", h,
                     i, view[i].label.c_str());
        ok = false;
        h = f.options().homes;  // break outer
        break;
      }
    }
  }
  std::printf("bench_fleet --smoke: homes=%zu observed=%zu/%zu maxLag=%u "
              "bound=%u %s\n",
              f.options().homes, prop.homesObserved, prop.homesTotal,
              prop.maxLagRounds, f.stalenessBoundRounds(),
              ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

void printRun(const RunResult& r) {
  std::printf("%-14s %8zu %6zu %3zu %5s %9.2f %12.0f %9.0f %9.0f %5zu/%-6zu "
              "%4u/%-4u %s\n",
              r.name.c_str(), r.homes, r.regions, r.workers,
              r.shareBaseline ? "cow" : "naive", r.wallSec, r.pps,
              r.rssPerHomeBytes, r.kbBytesPerHome, r.propagation.homesObserved,
              r.propagation.homesTotal, r.propagation.maxLagRounds,
              r.stalenessBoundRounds, r.withinBound ? "ok" : "MISS");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::size_t maxHomes = 100000;
  std::uint32_t rounds = 24;
  std::size_t workers =
      std::min<std::size_t>(8, std::max(1u, std::thread::hardware_concurrency()));
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const std::string_view arg = flag;
    if (arg == "--smoke") {
      smoke = true;
      continue;
    }
    if (arg != "--max-homes" && arg != "--rounds" && arg != "--workers") {
      std::fprintf(stderr, "bench_fleet: unknown argument %s\n%s", flag,
                   kUsage);
      return 2;
    }
    // A whole base-10 integer >= 1 (rounds: 32 bits; workers: at most
    // kMaxWorkers; homes: at most kMaxHomes), so that "1e5" or "abc" is
    // refused rather than read as 1 or 0.
    const bool isRounds = arg == "--rounds";
    const bool isWorkers = arg == "--workers";
    const char* text = i + 1 < argc ? argv[++i] : "";
    const std::optional<long long> n = parseInt(text);
    const long long cap =
        isRounds ? UINT32_MAX : isWorkers ? kMaxWorkers : kMaxHomes;
    if (!n || *n < 1 || *n > cap) {
      const std::string upper =
          isRounds ? " and < 2^32" : " and <= " + std::to_string(cap);
      std::fprintf(stderr,
                   "bench_fleet: bad value '%s' for %s (expected an integer "
                   ">= 1%s)\n%s",
                   text, flag, upper.c_str(), kUsage);
      return 2;
    }
    if (arg == "--max-homes") {
      maxHomes = static_cast<std::size_t>(*n);
    } else if (isRounds) {
      rounds = static_cast<std::uint32_t>(*n);
    } else {
      workers = static_cast<std::size_t>(*n);
    }
  }
  if (smoke) return runSmoke(workers);

  std::printf("bench_fleet: max_homes=%zu rounds=%u workers=%zu "
              "hardware_concurrency=%u\n",
              maxHomes, rounds, workers, std::thread::hardware_concurrency());
  std::printf("%-14s %8s %6s %3s %5s %9s %12s %9s %9s %12s %9s %s\n", "config",
              "homes", "rgns", "w", "model", "wall_sec", "pkts/sec", "rss/home",
              "kb/home", "observed", "lag/bound", "prop");

  // CoW first, ascending (see header comment), then the naive model —
  // capped at 10k homes: a private 64-entry KB copy per home at 100k is
  // ~1 GiB of pure waste, which is exactly the point of the comparison.
  // Every size is also capped at max-homes.
  const auto sweep = [maxHomes](std::vector<std::size_t> sizes) {
    for (std::size_t& homes : sizes) homes = std::min(homes, maxHomes);
    sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
    return sizes;
  };
  const std::vector<std::size_t> cowSizes = sweep({1000, 10000, maxHomes});
  std::vector<RunResult> results;
  for (std::size_t homes : cowSizes) {
    results.push_back(runFleet(
        fleetOptions(homes, workers, rounds, /*shareBaseline=*/true), "cow"));
    printRun(results.back());
  }
  for (std::size_t homes : sweep({1000, 10000})) {
    results.push_back(runFleet(
        fleetOptions(homes, workers, rounds, /*shareBaseline=*/false), "naive"));
    printRun(results.back());
  }

  bool allOk = true;
  for (const RunResult& r : results) {
    if (!r.withinBound || !accountingCloses(r.exchange)) allOk = false;
  }
  // The CoW runs come first, ascending: the last of them is the largest.
  const RunResult& biggestCow = results[cowSizes.size() - 1];
  if (biggestCow.rssPerHomeBytes > kMaxRssPerHomeBytes) {
    std::fprintf(stderr,
                 "bench_fleet: %s uses %.0f RSS bytes/home (budget %.0f)\n",
                 biggestCow.name.c_str(), biggestCow.rssPerHomeBytes,
                 kMaxRssPerHomeBytes);
    allOk = false;
  }
  for (const RunResult& r : results) {
    if (r.shareBaseline || biggestCow.kbBytesPerHome < r.kbBytesPerHome) {
      continue;
    }
    std::fprintf(stderr,
                 "bench_fleet: %s KB bytes/home %.0f not below %s's %.0f\n",
                 biggestCow.name.c_str(), biggestCow.kbBytesPerHome,
                 r.name.c_str(), r.kbBytesPerHome);
    allOk = false;
  }

  const std::string jsonPath = "BENCH_fleet.json";
  std::ofstream out(jsonPath, std::ios::trunc);
  out << "{\n  \"bench\": \"fleet\",\n";
  out << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n";
  out << "  \"rounds\": " << rounds << ",\n";
  out << "  \"runs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    out << "    {\"name\": \"" << r.name << "\", \"homes\": " << r.homes
        << ", \"regions\": " << r.regions << ", \"workers\": " << r.workers
        << ", \"share_baseline\": " << (r.shareBaseline ? "true" : "false")
        << ", \"wall_sec\": " << r.wallSec << ", \"pps\": " << r.pps
        << ", \"packets\": " << r.packets << ", \"alerts\": " << r.alerts
        << ", \"rss_before_bytes\": " << r.rssBeforeBytes
        << ", \"rss_after_bytes\": " << r.rssAfterBytes
        << ", \"rss_per_home_bytes\": " << r.rssPerHomeBytes
        << ", \"kb_bytes_total\": " << r.kbBytesTotal
        << ", \"kb_bytes_per_home\": " << r.kbBytesPerHome
        << ", \"homes_observed\": " << r.propagation.homesObserved
        << ", \"homes_total\": " << r.propagation.homesTotal
        << ", \"activation_round\": " << r.propagation.activationRound
        << ", \"max_lag_rounds\": " << r.propagation.maxLagRounds
        << ", \"mean_lag_rounds\": " << r.propagation.meanLagRounds
        << ", \"max_lag_virtual_us\": " << r.propagation.maxLagVirtual
        << ", \"staleness_bound_rounds\": " << r.stalenessBoundRounds
        << ", \"within_bound\": " << (r.withinBound ? "true" : "false")
        << ", \"published\": " << r.exchange.published
        << ", \"region_dropped\": " << r.exchange.regionDropped
        << ", \"global_dropped\": " << r.exchange.globalDropped << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  out.close();
  std::fprintf(stderr, "bench_fleet: results written to %s\n",
               out ? jsonPath.c_str() : "<failed>");
  return allOk ? 0 : 1;
}
