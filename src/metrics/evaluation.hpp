// Scoring of an IDS run against ground truth — the metrics of §VI-B:
//
//  (i)  Detection Rate: adverse events detected out of all adverse events.
//       A symptom instance counts as detected if *any* alert names its
//       victim or suspect (or, lacking entities, any alert at all) within a
//       grace window after the instance.
//  (ii) Classification Accuracy: correctly classified attacks out of all
//       detected attacks — an alert is correct when a ground-truth instance
//       of the *same type* is pending within the window.
//  (iii) Countermeasure effectiveness: whether acting on the alerts'
//       suspects hits real attackers and spares legitimate nodes.
//  (iv/v) CPU and RAM: deterministic proxies (see DESIGN.md §1) — abstract
//       work units per second mapped to a reference-core percentage, and
//       live state bytes.
#pragma once

#include <string>
#include <vector>

#include "kalis/alert.hpp"
#include "metrics/ground_truth.hpp"

namespace kalis::metrics {

struct EvaluationResult {
  std::size_t totalInstances = 0;
  std::size_t detectedInstances = 0;
  std::size_t totalAlerts = 0;
  std::size_t correctAlerts = 0;

  double detectionRate() const {
    return totalInstances == 0
               ? 1.0
               : static_cast<double>(detectedInstances) /
                     static_cast<double>(totalInstances);
  }
  /// "number of correctly classified attacks out of all the detected attacks"
  /// A run that raised no alerts scores 1.0 by convention
  /// (Evaluate.NoAlertsMeansVacuousAccuracy), so a missed attack reads as
  /// perfect accuracy: tests/golden/pipeline_matrix.json's Smurf cell at 8
  /// workers has 0 alerts, detection rate 0 and accuracy 1.0000. Read
  /// accuracy together with the alert count.
  double classificationAccuracy() const {
    return totalAlerts == 0 ? 1.0
                            : static_cast<double>(correctAlerts) /
                                  static_cast<double>(totalAlerts);
  }
};

EvaluationResult evaluate(const GroundTruth& truth,
                          const std::vector<ids::Alert>& alerts);

/// Countermeasure outcome: which suspects named by alerts are real attackers
/// (to be revoked) vs legitimate nodes (collateral damage).
struct CountermeasureResult {
  std::vector<std::string> revokedAttackers;
  std::vector<std::string> revokedInnocents;
  /// 1.0 when every revocation hit an attacker and at least one attacker was
  /// revoked; degrades with collateral damage and missed attackers.
  double effectiveness(std::size_t totalAttackers) const;
};

CountermeasureResult assessCountermeasures(
    const GroundTruth& truth, const std::vector<ids::Alert>& alerts);

// --- resource proxies ----------------------------------------------------------

/// Maps abstract work units over a simulated duration to a CPU percentage on
/// a reference core (one work unit = `kMicrosecondsPerWorkUnit` of compute).
inline constexpr double kMicrosecondsPerWorkUnit = 14.0;

double cpuPercent(std::uint64_t workUnits, Duration simulated);

}  // namespace kalis::metrics
