#include "scenarios/evasion_sweep.hpp"

#include <cstdio>
#include <optional>
#include <sstream>

#include "kalis/siem_export.hpp"
#include "util/strings.hpp"

namespace kalis::attacks::evasion {

namespace {

/// Captures one scenario under `plan` (nullptr = unperturbed); the
/// capture carries its own perturbation tally.
scenarios::Capture captureOnce(const std::string& scenario, std::uint64_t seed,
                               const EvasionPlan* plan) {
  return *scenarios::capture(scenario, seed, nullptr, plan);
}

void appendStatsJson(std::ostringstream& oss, const Stats& stats) {
  oss << "{\"attacker_frames\":" << stats.attackerFrames
      << ",\"diluted\":" << stats.diluted << ",\"delayed\":" << stats.delayed
      << ",\"rewritten\":" << stats.rewritten
      << ",\"padded\":" << stats.padded
      << ",\"forward_relieved\":" << stats.forwardRelieved
      << ",\"roundtrip_violations\":" << stats.roundtripViolations << "}";
}

}  // namespace

const char* systemToken(scenarios::SystemKind system) {
  switch (system) {
    case scenarios::SystemKind::kKalis: return "kalis";
    case scenarios::SystemKind::kTraditionalIds: return "traditional";
    case scenarios::SystemKind::kSnort: return "snort";
  }
  return "?";
}

SweepResult runSweep(const SweepOptions& options) {
  SweepResult result;
  result.options = options;
  const std::vector<std::string>& scenarioList =
      options.scenarios.empty() ? scenarios::scenarioNames()
                                : options.scenarios;
  std::vector<scenarios::SystemKind> systems = options.systems;
  if (systems.empty()) {
    systems = {scenarios::SystemKind::kKalis,
               scenarios::SystemKind::kTraditionalIds,
               scenarios::SystemKind::kSnort};
  }

  // Curves are reported system-major; each (scenario, budget) is captured
  // once and evaluated by every system.
  for (scenarios::SystemKind system : systems) {
    for (const std::string& scenario : scenarioList) {
      result.curves.push_back(SweepCurve{scenario, system, {}});
    }
  }
  for (std::size_t sc = 0; sc < scenarioList.size(); ++sc) {
    const std::string& scenario = scenarioList[sc];
    std::optional<scenarios::Capture> bare;
    for (double budget : options.budgets) {
      const EvasionPlan plan{options.evasionSeed, budget};
      const scenarios::Capture evaded =
          captureOnce(scenario, options.scenarioSeed, &plan);
      const Stats& tally = evaded.evasionTally;
      const bool checkIdentity =
          budget == 0.0 && options.checkZeroBudgetIdentity;
      if (checkIdentity && !bare) {
        bare = captureOnce(scenario, options.scenarioSeed, nullptr);
      }
      for (std::size_t sy = 0; sy < systems.size(); ++sy) {
        SweepPoint point;
        point.budget = budget;
        point.spec = plan.describe();
        point.perturbation = tally;
        const scenarios::ScenarioResult run =
            scenarios::evaluate(systems[sy], evaded);
        point.detectionRate = run.detectionRate();
        point.accuracy = run.accuracy();
        point.alerts = run.alerts.size();
        point.truthSize = run.truthSize;
        point.notApplicable = run.notApplicable;
        result.roundtripViolations += tally.roundtripViolations;
        if (checkIdentity) {
          point.zeroBudgetIdentical =
              ids::toSiemLines(run.alerts) ==
              ids::toSiemLines(scenarios::evaluate(systems[sy], *bare).alerts);
          if (!point.zeroBudgetIdentical) {
            result.allZeroBudgetIdentical = false;
          }
        }
        result.curves[sy * scenarioList.size() + sc].points.push_back(
            std::move(point));
      }
    }
  }
  return result;
}

std::string SweepResult::toJson() const {
  std::ostringstream oss;
  // The top-level plan has no budget; the per-point specs carry it.
  oss << "{\"v\":1,\"kind\":\"evasion_curves\",\"scenario_seed\":"
      << options.scenarioSeed << ",\"plan\":\""
      << ids::jsonEscape(EvasionPlan{options.evasionSeed}.describe())
      << "\",\"budgets\":[";
  for (std::size_t i = 0; i < options.budgets.size(); ++i) {
    if (i) oss << ",";
    oss << formatDouble(options.budgets[i]);
  }
  oss << "],\"roundtrip_violations\":" << roundtripViolations
      << ",\"all_zero_budget_identical\":"
      << (allZeroBudgetIdentical ? "true" : "false") << ",\"curves\":[";
  for (std::size_t c = 0; c < curves.size(); ++c) {
    const SweepCurve& curve = curves[c];
    if (c) oss << ",";
    oss << "{\"scenario\":\"" << ids::jsonEscape(curve.scenario)
        << "\",\"system\":\"" << systemToken(curve.system)
        << "\",\"points\":[";
    for (std::size_t p = 0; p < curve.points.size(); ++p) {
      const SweepPoint& point = curve.points[p];
      if (p) oss << ",";
      oss << "{\"budget\":" << formatDouble(point.budget) << ",\"spec\":\""
          << ids::jsonEscape(point.spec)
          << "\",\"detection_rate\":" << formatDouble(point.detectionRate)
          << ",\"accuracy\":" << formatDouble(point.accuracy)
          << ",\"alerts\":" << point.alerts << ",\"truth\":" << point.truthSize
          << ",\"not_applicable\":" << (point.notApplicable ? "true" : "false")
          << ",\"zero_budget_identical\":"
          << (point.zeroBudgetIdentical ? "true" : "false")
          << ",\"perturbation\":";
      appendStatsJson(oss, point.perturbation);
      oss << "}";
    }
    oss << "]}";
  }
  oss << "]}";
  return oss.str();
}

std::string SweepResult::toTable() const {
  std::ostringstream oss;
  char buf[64];
  oss << "Detection rate vs evasion budget (scenario seed "
      << options.scenarioSeed << ", plan "
      << EvasionPlan{options.evasionSeed}.describe() << ")\n";
  std::snprintf(buf, sizeof(buf), "%-22s %-12s", "scenario", "system");
  oss << buf;
  for (double budget : options.budgets) {
    std::snprintf(buf, sizeof(buf), "  b=%4.2f", budget);
    oss << buf;
  }
  oss << "\n";
  for (const SweepCurve& curve : curves) {
    std::snprintf(buf, sizeof(buf), "%-22s %-12s", curve.scenario.c_str(),
                  systemToken(curve.system));
    oss << buf;
    for (const SweepPoint& point : curve.points) {
      if (point.notApplicable) {
        std::snprintf(buf, sizeof(buf), "  %6s", "n/a");
      } else {
        std::snprintf(buf, sizeof(buf), "  %6.2f", point.detectionRate);
      }
      oss << buf;
    }
    oss << "\n";
  }
  return oss.str();
}

chaos::DiffResult evasionDiff(const std::string& scenario,
                              scenarios::SystemKind system,
                              std::uint64_t seed, const EvasionPlan& plan) {
  const scenarios::Capture bareCapture = captureOnce(scenario, seed, nullptr);
  const scenarios::ScenarioResult bare =
      scenarios::evaluate(system, bareCapture);
  chaos::RunOutput baseline;
  baseline.label = scenario + " unperturbed";
  baseline.alerts = bare.alerts;
  baseline.siemLines = ids::toSiemLines(bare.alerts);
  baseline.evasionPerturbed = bareCapture.evasionTally.perturbed();

  const scenarios::Capture evadedCapture = captureOnce(scenario, seed, &plan);
  const scenarios::ScenarioResult evaded =
      scenarios::evaluate(system, evadedCapture);
  chaos::RunOutput subject;
  subject.label = scenario + " evasion[" + plan.describe() + "]";
  subject.alerts = evaded.alerts;
  subject.siemLines = ids::toSiemLines(evaded.alerts);
  subject.evasionPerturbed = evadedCapture.evasionTally.perturbed();

  return chaos::diffAlertStreams(baseline, subject);
}

}  // namespace kalis::attacks::evasion
