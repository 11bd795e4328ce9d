// Ablation of the design choices DESIGN.md §5 calls out:
//
//  A1 — knowledge-driven module activation on/off (Kalis vs the same engine
//       with every module always active): active-module count, CPU-proxy
//       work, RAM and accuracy, on the ICMP-flood scenario.
//  A2 — collective knowledge on/off for the wormhole scenario (the §VI-D
//       mechanism as an ablation).
//  A3 — knowledge trust vs fallback: what the flood/smurf pair does with a
//       frozen Knowledge Base (misclassification ratio).
#include <cstdio>

#include "scenarios/scenarios.hpp"

using namespace kalis;
using scenarios::ScenarioResult;
using scenarios::SystemKind;

int main() {
  std::printf("A1: knowledge-driven activation (ICMP-flood scenario)\n\n");
  std::printf("  %-26s %10s %12s %9s %9s\n", "Engine", "Accuracy",
              "Work units", "CPU", "RAM");
  const scenarios::Capture icmp = scenarios::captureIcmpFlood(42);
  const ScenarioResult kalis = scenarios::evaluate(SystemKind::kKalis, icmp);
  const ScenarioResult trad =
      scenarios::evaluate(SystemKind::kTraditionalIds, icmp);
  const double kalisWork = kalis.cpuPercent * toSeconds(kalis.simulated) * 1e4 /
                           metrics::kMicrosecondsPerWorkUnit;
  const double tradWork = trad.cpuPercent * toSeconds(trad.simulated) * 1e4 /
                          metrics::kMicrosecondsPerWorkUnit;
  std::printf("  %-26s %9.0f%% %12.0f %8.2f%% %8.1fMB\n",
              "knowledge-driven (Kalis)", kalis.accuracy() * 100, kalisWork,
              kalis.cpuPercent, kalis.ramMb);
  std::printf("  %-26s %9.0f%% %12.0f %8.2f%% %8.1fMB\n",
              "all modules always on", trad.accuracy() * 100, tradWork,
              trad.cpuPercent, trad.ramMb);
  std::printf("  -> activation saves %.0f%% of per-packet work and %.1f MB\n",
              (1.0 - kalisWork / tradWork) * 100.0, trad.ramMb - kalis.ramMb);

  std::printf("\nA2: collective knowledge (wormhole scenario)\n\n");
  const auto with = scenarios::runWormhole(7100, true);
  const auto without = scenarios::runWormhole(7100, false);
  std::printf("  %-26s wormhole=%-5s DR=%3.0f%%\n", "collective ON",
              with.wormholeClassified ? "yes" : "no",
              with.combined.detectionRate() * 100);
  std::printf("  %-26s wormhole=%-5s DR=%3.0f%%  (misdiagnosed: %s)\n",
              "collective OFF", without.wormholeClassified ? "yes" : "no",
              without.combined.detectionRate() * 100,
              without.blackholeOnly ? "blackhole only" : "-");

  std::printf("\nA3: knowledge trust (flood/smurf disambiguation)\n\n");
  std::size_t kalisSmurfAlerts = 0;
  std::size_t tradSmurfAlerts = 0;
  for (const ids::Alert& alert : kalis.alerts) {
    if (alert.type == ids::AttackType::kSmurf) ++kalisSmurfAlerts;
  }
  for (const ids::Alert& alert : trad.alerts) {
    if (alert.type == ids::AttackType::kSmurf) ++tradSmurfAlerts;
  }
  std::printf("  false Smurf alerts during a pure ICMP flood:\n");
  std::printf("    with knowledge:    %zu\n", kalisSmurfAlerts);
  std::printf("    without knowledge: %zu\n", tradSmurfAlerts);
  return 0;
}
