// attacks::evasion::runSweep — detection-rate-vs-budget curves (DESIGN.md
// §13). Captures each Fig. 8 scenario once per point of an evasion-budget
// grid, evaluates every system under test on that capture, and reports, per
// (scenario, system, budget) point, the detection rate, classification
// accuracy, and the capture's exact perturbation tallies. Every point is
// replayable from (scenario, seed, budget) alone; the zero-budget
// column is asserted byte-identical (SIEM streams) to the unperturbed run.
//
// Lives in kalis_scenarios (it drives the scenario captures) but in the
// attacks::evasion namespace: it is the measurement half of the evasion
// subsystem.
#pragma once

#include <string>
#include <vector>

#include "attacks/evasion.hpp"
#include "chaos/alert_diff.hpp"
#include "scenarios/scenarios.hpp"

namespace kalis::attacks::evasion {

/// One (budget, outcome) point on a curve.
struct SweepPoint {
  double budget = 0.0;
  std::string spec;  ///< full plan spec (describe()) that replays this point
  double detectionRate = 0.0;
  double accuracy = 0.0;
  std::size_t alerts = 0;
  std::size_t truthSize = 0;
  bool notApplicable = false;
  Stats perturbation{};  ///< the point's Capture::evasionTally
  /// Budget-0 only (when SweepOptions::checkZeroBudgetIdentity): SIEM stream
  /// byte-identical to the unperturbed run. True elsewhere.
  bool zeroBudgetIdentical = true;
};

struct SweepCurve {
  std::string scenario;
  scenarios::SystemKind system = scenarios::SystemKind::kKalis;
  std::vector<SweepPoint> points;  ///< one per SweepOptions::budgets entry
};

struct SweepOptions {
  /// EvasionPlan::seed of every grid point; the budget comes from the grid.
  std::uint64_t evasionSeed = EvasionPlan{}.seed;
  std::vector<double> budgets = {0.0, 0.25, 0.5, 0.75, 1.0};
  std::uint64_t scenarioSeed = 100;
  /// Scenario names (scenarioNames() entries); empty = all eight.
  std::vector<std::string> scenarios;
  /// Systems under test; empty = Kalis, traditional, Snort.
  std::vector<scenarios::SystemKind> systems;
  /// Re-run budget-0 points without any plan and require SIEM byte-identity.
  bool checkZeroBudgetIdentity = true;
};

struct SweepResult {
  SweepOptions options;
  std::vector<SweepCurve> curves;
  std::uint64_t roundtripViolations = 0;  ///< summed over every point
  bool allZeroBudgetIdentical = true;

  std::string toJson() const;   ///< the EVASION_curves.json artifact
  std::string toTable() const;  ///< human-readable rate-vs-budget table
};

SweepResult runSweep(const SweepOptions& options);

/// Short system tokens for JSON/CLI: "kalis", "traditional", "snort".
const char* systemToken(scenarios::SystemKind system);

/// The alert diff's evasion lane, end to end: diffs one scenario's
/// unperturbed alert stream (baseline) against the same scenario under
/// `plan` (subject), with evasionPerturbed tallies attached so
/// suppressed/shifted alerts classify as kEvasion and semantic changes as
/// kRegression.
chaos::DiffResult evasionDiff(const std::string& scenario,
                              scenarios::SystemKind system,
                              std::uint64_t seed, const EvasionPlan& plan);

}  // namespace kalis::attacks::evasion
