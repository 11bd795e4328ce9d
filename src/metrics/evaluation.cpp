#include "metrics/evaluation.hpp"

#include <algorithm>
#include <set>

namespace kalis::metrics {

namespace {

/// An alert within [instance.time, instance.time + kGraceWindow] can match.
constexpr Duration kGraceWindow = seconds(20);
/// Alerts this long *before* an instance can still match it (detection
/// modules aggregate over windows, so an ongoing attack may be flagged
/// marginally before a specific symptom instance is logged).
constexpr Duration kEarlySlack = seconds(5);

bool inWindow(SimTime alertTime, SimTime instanceTime) {
  const SimTime lo =
      instanceTime > kEarlySlack ? instanceTime - kEarlySlack : 0;
  const SimTime hi = instanceTime + kGraceWindow;
  return alertTime >= lo && alertTime <= hi;
}

bool entityMatches(const ids::Alert& alert, const SymptomInstance& instance) {
  if (instance.victimEntity.empty() && instance.suspectEntity.empty()) {
    return true;
  }
  if (!instance.victimEntity.empty() &&
      alert.victimEntity == instance.victimEntity) {
    return true;
  }
  for (const std::string& suspect : alert.suspectEntities) {
    if (!instance.suspectEntity.empty() && suspect == instance.suspectEntity) {
      return true;
    }
    if (!instance.victimEntity.empty() && suspect == instance.victimEntity) {
      return true;  // replication: the cloned identity is both
    }
  }
  return false;
}

}  // namespace

EvaluationResult evaluate(const GroundTruth& truth,
                          const std::vector<ids::Alert>& alerts) {
  EvaluationResult result;
  result.totalInstances = truth.size();
  result.totalAlerts = alerts.size();

  for (const SymptomInstance& instance : truth.instances()) {
    const bool detected = std::any_of(
        alerts.begin(), alerts.end(), [&](const ids::Alert& alert) {
          return inWindow(alert.time, instance.time) &&
                 entityMatches(alert, instance);
        });
    if (detected) ++result.detectedInstances;
  }

  for (const ids::Alert& alert : alerts) {
    // Classification correctness is about *what* was diagnosed, not when:
    // an alert is correct if a ground-truth instance of the same attack type
    // and matching entities exists anywhere in the run (a sustained attack
    // legitimately keeps producing alerts after its last logged instance).
    const bool correct = std::any_of(
        truth.instances().begin(), truth.instances().end(),
        [&](const SymptomInstance& instance) {
          return instance.type == alert.type && entityMatches(alert, instance);
        });
    if (correct) ++result.correctAlerts;
  }
  return result;
}

double CountermeasureResult::effectiveness(std::size_t totalAttackers) const {
  if (totalAttackers == 0) return revokedInnocents.empty() ? 1.0 : 0.0;
  const double hit = static_cast<double>(revokedAttackers.size()) /
                     static_cast<double>(totalAttackers);
  const double damagePenalty =
      static_cast<double>(revokedInnocents.size()) /
      static_cast<double>(revokedInnocents.size() + totalAttackers);
  const double score = hit - damagePenalty;
  return score < 0.0 ? 0.0 : score;
}

CountermeasureResult assessCountermeasures(
    const GroundTruth& truth, const std::vector<ids::Alert>& alerts) {
  std::set<std::string> attackers;
  for (const SymptomInstance& instance : truth.instances()) {
    if (!instance.suspectEntity.empty()) attackers.insert(instance.suspectEntity);
  }
  std::set<std::string> revoked;
  CountermeasureResult result;
  for (const ids::Alert& alert : alerts) {
    for (const std::string& suspect : alert.suspectEntities) {
      if (!revoked.insert(suspect).second) continue;  // already acted on
      if (attackers.contains(suspect)) {
        result.revokedAttackers.push_back(suspect);
      } else {
        result.revokedInnocents.push_back(suspect);
      }
    }
  }
  return result;
}

double cpuPercent(std::uint64_t workUnits, Duration simulated) {
  if (simulated == 0) return 0.0;
  const double busyMicros =
      static_cast<double>(workUnits) * kMicrosecondsPerWorkUnit;
  return busyMicros / static_cast<double>(simulated) * 100.0;
}

}  // namespace kalis::metrics
