// Adversarial-evasion robustness: detection-rate-vs-budget curves for the
// eight Fig. 8 scenarios under the budgeted evasion plan (DESIGN.md §13),
// for all three systems under test. Emits EVASION_curves.json (the committed
// reference artifact) plus the human-readable table, and gates on the
// evasion subsystem's hard invariants:
//
//   * every zero-budget run is SIEM-byte-identical to the unperturbed
//     scenario,
//   * no perturbed frame ever violates serialize(dissect(x)) == x,
//   * detection at budget 0 is never worse than at the maximum budget.
//
// The evasion lane of the alert diff (chaos::diffAlertStreams) is reported
// (suppressions and attribution shifts classify as evasion; alert-semantics
// changes as regression) but does not gate: a perturbation legitimately
// downgrading a blackhole to selective-forwarding symptoms is a finding, not
// a bench failure.
//
// --smoke runs the reduced CI grid (one seed, three budgets, Kalis only).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "scenarios/evasion_sweep.hpp"

using namespace kalis;
namespace ev = attacks::evasion;
using scenarios::SystemKind;

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  if (argc > (smoke ? 2 : 1)) {
    std::fprintf(stderr,
                 "bench_evasion: unknown argument %s\n"
                 "usage: bench_evasion [--smoke]\n",
                 argv[smoke ? 2 : 1]);
    return 2;
  }

  ev::SweepOptions opts;
  opts.scenarioSeed = 100;  // aligned with bench_fig8's first seed
  if (smoke) {
    opts.budgets = {0.0, 0.5, 1.0};
    opts.systems = {SystemKind::kKalis};
  }

  std::printf("Evasion robustness%s: plan [%s], scenario seed 100\n\n",
              smoke ? " (smoke grid)" : "",
              ev::EvasionPlan{opts.evasionSeed}.describe().c_str());
  const ev::SweepResult result = ev::runSweep(opts);
  std::printf("%s\n", result.toTable().c_str());

  const char* path = "EVASION_curves.json";
  std::ofstream out(path, std::ios::trunc);
  out << result.toJson() << "\n";
  std::printf("Curves written to %s\n\n", out ? path : "<failed>");

  // The evasion lane at the max budget, Kalis stream (reported only).
  ev::EvasionPlan maxPlan{opts.evasionSeed};
  for (double b : opts.budgets) {
    maxPlan.budget = std::max(maxPlan.budget, b);
  }
  std::printf("Alert-diff evasion lane (kalis, budget %.2f):\n",
              maxPlan.budget);
  for (const std::string& scenario : scenarios::scenarioNames()) {
    const chaos::DiffResult d = ev::evasionDiff(
        scenario, SystemKind::kKalis, opts.scenarioSeed, maxPlan);
    std::printf("  %-22s %zu vs %zu alerts: %zu evasion, %zu reordering-"
                "tolerant, %zu regression\n",
                scenario.c_str(), d.baselineAlerts, d.subjectAlerts,
                d.count(chaos::DivergenceKind::kEvasion),
                d.count(chaos::DivergenceKind::kReorderingTolerant),
                d.count(chaos::DivergenceKind::kRegression));
  }

  // --- gates -----------------------------------------------------------------
  int failures = 0;
  if (!result.allZeroBudgetIdentical) {
    std::printf("\nFAIL: a zero-budget run diverged from the unperturbed "
                "scenario\n");
    ++failures;
  }
  if (result.roundtripViolations > 0) {
    std::printf("\nFAIL: %llu perturbed frames violated "
                "serialize(dissect(x)) == x\n",
                static_cast<unsigned long long>(result.roundtripViolations));
    ++failures;
  }
  for (const ev::SweepCurve& curve : result.curves) {
    if (curve.points.size() < 2) continue;
    const double atZero = curve.points.front().detectionRate;
    const double atMax = curve.points.back().detectionRate;
    if (atMax > atZero + 1e-9) {
      std::printf("\nFAIL: %s/%s detection improved under max-budget evasion "
                  "(%.2f -> %.2f)\n",
                  curve.scenario.c_str(), ev::systemToken(curve.system),
                  atZero, atMax);
      ++failures;
    }
  }
  std::printf("\n%s\n", failures == 0 ? "All evasion invariants held."
                                      : "EVASION INVARIANT FAILURES");
  return failures == 0 ? 0 : 1;
}
