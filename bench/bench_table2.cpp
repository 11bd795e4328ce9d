// Reproduces Table II: average effectiveness and performance across the two
// §VI-B experimental scenarios (ICMP flood on a single-hop network, and
// replication on a static<->mobile network) for the traditional IDS, Snort,
// and Kalis.
//
// Paper's numbers for reference:
//            Trad. IDS   Snort    Kalis
//   DR         48%        89%      91%
//   Accuracy   75%        76%     100%
//   CPU        0.22%      6.3%     0.19%
//   RAM (MB)   23.4       99.6     13.7
//
//   ./bench_table2 [replicationRuns]
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "metrics/metrics_export.hpp"
#include "scenarios/scenarios.hpp"
#include "util/strings.hpp"

using namespace kalis;
using scenarios::ScenarioResult;
using scenarios::SystemKind;

namespace {

struct Row {
  double dr = 0, acc = 0, cpu = 0, ram = 0;
  int n = 0;
  int applicable = 0;

  void add(const ScenarioResult& r) {
    ++n;
    if (!r.notApplicable) {
      ++applicable;
      dr += r.detectionRate();
      acc += r.accuracy();
      cpu += r.cpuPercent;
      ram += r.ramMb;
    }
  }
  double avgDr() const { return applicable ? dr / applicable : 0; }
  double avgAcc() const { return applicable ? acc / applicable : 0; }
  double avgCpu() const { return applicable ? cpu / applicable : 0; }
  double avgRam() const { return applicable ? ram / applicable : 0; }
};

/// Kalis on `capture`, as scenarios::evaluate runs it, with the run's
/// kalis::obs snapshot written to bench_table2.metrics.json
/// ($KALIS_METRICS_OUT overrides) for the CI artifact.
ScenarioResult evaluateKalisWithMetrics(const scenarios::Capture& capture) {
  sim::Simulator clock(1);
  scenarios::IdsHarness harness(clock, {SystemKind::kKalis, "K1", {}});
  harness.kalis()->start();
  for (const net::CapturedPacket& pkt : capture.packets) harness.replay(pkt);
  clock.runUntil(capture.end);
  ScenarioResult result = scenarios::finishResult(capture, harness);
  const std::string path = metrics::exportMetricsJson(
      *harness.kalis(), clock, capture.scenario, "bench_table2.metrics.json");
  std::fprintf(stderr, "bench_table2: metrics written to %s\n",
               path.empty() ? "<failed>" : path.c_str());
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  // paper: 100 replication runs; the default is 10.
  const std::optional<long long> runs = argc > 1 ? parseInt(argv[1]) : 10;
  if (argc > 2 || !runs || *runs < 1) {
    std::fprintf(stderr,
                 "bench_table2: bad argument '%s' (expected one "
                 "replication run count, an integer >= 1)\n"
                 "usage: bench_table2 [replicationRuns]\n",
                 argv[argc - 1]);
    return 2;
  }
  const SystemKind systems[] = {SystemKind::kTraditionalIds,
                                SystemKind::kSnort, SystemKind::kKalis};

  std::printf("Table II: average effectiveness and performance across the\n");
  std::printf("two experimental scenarios of paper Sec. VI-B\n\n");

  // Each run is captured once and replayed into all three systems.
  const scenarios::Capture icmpCapture = scenarios::captureIcmpFlood(42);
  std::vector<scenarios::Capture> replicationCaptures;
  for (long long run = 0; run < *runs; ++run) {
    replicationCaptures.push_back(scenarios::captureReplication(
        1000 + static_cast<std::uint64_t>(run)));
  }

  // Aggregate per scenario first (the replication scenario is itself an
  // average over runs), then average the two scenarios — matching how the
  // paper reports "average across both experimental scenarios".
  Row rows[3];
  for (int s = 0; s < 3; ++s) {
    rows[s].add(systems[s] == SystemKind::kKalis
                    ? evaluateKalisWithMetrics(icmpCapture)
                    : scenarios::evaluate(systems[s], icmpCapture));
    Row replication;
    for (const scenarios::Capture& capture : replicationCaptures) {
      replication.add(scenarios::evaluate(systems[s], capture));
    }
    if (replication.applicable > 0) {
      ScenarioResult mean;
      mean.eval.totalInstances = 100;
      mean.eval.detectedInstances =
          static_cast<std::size_t>(replication.avgDr() * 100.0);
      mean.eval.totalAlerts = 100;
      mean.eval.correctAlerts =
          static_cast<std::size_t>(replication.avgAcc() * 100.0);
      mean.cpuPercent = replication.avgCpu();
      mean.ramMb = replication.avgRam();
      rows[s].add(mean);
    }
  }

  std::printf("%-18s %12s %10s %10s\n", "", "Trad. IDS", "Snort", "Kalis");
  std::printf("%-18s %11.0f%% %9.0f%% %9.0f%%\n", "Detection Rate",
              rows[0].avgDr() * 100, rows[1].avgDr() * 100,
              rows[2].avgDr() * 100);
  std::printf("%-18s %11.0f%% %9.0f%% %9.0f%%\n", "Accuracy",
              rows[0].avgAcc() * 100, rows[1].avgAcc() * 100,
              rows[2].avgAcc() * 100);
  std::printf("%-18s %11.2f%% %9.2f%% %9.2f%%\n", "CPU usage",
              rows[0].avgCpu(), rows[1].avgCpu(), rows[2].avgCpu());
  std::printf("%-18s %10.1fMB %8.1fMB %8.1fMB\n", "RAM usage",
              rows[0].avgRam(), rows[1].avgRam(), rows[2].avgRam());
  std::printf(
      "\nNote: Snort cannot observe the ZigBee replication scenario; its\n"
      "averages cover only the scenarios it can run (as in the paper, where\n"
      "Snort was \"unable to intercept and analyze the traffic\" on ZigBee).\n");
  std::printf(
      "CPU/RAM are deterministic proxies (DESIGN.md Sec. 1): work units x\n"
      "%.0f us on a reference core, and runtime baseline + per-module/rule\n"
      "footprint + live state.\n",
      metrics::kMicrosecondsPerWorkUnit);
  return 0;
}
