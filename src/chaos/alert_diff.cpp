#include "chaos/alert_diff.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "kalis/siem_export.hpp"

namespace kalis::chaos {

namespace {

/// Reordering-tolerant identity: what the alert *is*, minus when it fired
/// and the free-text evidence.
std::string structuralKey(const ids::Alert& alert) {
  std::vector<std::string> suspects = alert.suspectEntities;
  std::sort(suspects.begin(), suspects.end());
  std::string key = ids::attackName(alert.type);
  key += '|';
  key += alert.moduleName;
  key += '|';
  key += alert.victimEntity;
  for (const std::string& s : suspects) {
    key += '|';
    key += s;
  }
  return key;
}

/// Did the subject inject strictly more loss-capable faults than the
/// baseline? Only then can a missing/extra alert be charged to the plan.
bool subjectLossyRelativeTo(const RunOutput& baseline,
                            const RunOutput& subject) {
  const LinkChaos::Stats& s = subject.linkFaults;
  const LinkChaos::Stats& b = baseline.linkFaults;
  return s.rxDropped > b.rxDropped || s.corrupted > b.corrupted ||
         s.duplicated > b.duplicated || s.delayed > b.delayed ||
         s.crashes > b.crashes ||
         subject.pipelineStats.dropped() > baseline.pipelineStats.dropped();
}

void appendDiffJson(std::ostringstream& oss, const char* name,
                    const DiffResult& diff) {
  oss << "{\"name\":\"" << name << "\",\"baseline\":\""
      << ids::jsonEscape(diff.baselineLabel) << "\",\"subject\":\""
      << ids::jsonEscape(diff.subjectLabel)
      << "\",\"baseline_alerts\":" << diff.baselineAlerts
      << ",\"subject_alerts\":" << diff.subjectAlerts
      << ",\"identical\":" << (diff.identical ? "true" : "false")
      << ",\"counts\":{\"accounted_loss\":"
      << diff.count(DivergenceKind::kAccountedLoss)
      << ",\"reordering_tolerant\":"
      << diff.count(DivergenceKind::kReorderingTolerant)
      << ",\"evasion\":" << diff.count(DivergenceKind::kEvasion)
      << ",\"regression\":" << diff.count(DivergenceKind::kRegression)
      << "},\"divergences\":[";
  for (std::size_t i = 0; i < diff.divergences.size(); ++i) {
    const Divergence& d = diff.divergences[i];
    if (i) oss << ",";
    // The SIEM lines are already JSON objects; embed them raw.
    oss << "{\"kind\":\"" << toString(d.kind) << "\",\"detail\":\""
        << ids::jsonEscape(d.detail) << "\",\"baseline_alert\":"
        << (d.baselineJson.empty() ? "null" : d.baselineJson)
        << ",\"subject_alert\":"
        << (d.subjectJson.empty() ? "null" : d.subjectJson) << "}";
  }
  oss << "]}";
}

}  // namespace

const char* toString(DivergenceKind kind) {
  switch (kind) {
    case DivergenceKind::kAccountedLoss: return "accounted_loss";
    case DivergenceKind::kReorderingTolerant: return "reordering_tolerant";
    case DivergenceKind::kEvasion: return "evasion";
    case DivergenceKind::kRegression: return "regression";
  }
  return "?";
}

std::size_t DiffResult::count(DivergenceKind kind) const {
  std::size_t n = 0;
  for (const Divergence& d : divergences) {
    if (d.kind == kind) ++n;
  }
  return n;
}

DiffResult diffAlertStreams(const RunOutput& baseline,
                            const RunOutput& subject) {
  DiffResult result;
  result.baselineLabel = baseline.label;
  result.subjectLabel = subject.label;
  result.baselineAlerts = baseline.siemLines.size();
  result.subjectAlerts = subject.siemLines.size();
  result.identical = baseline.siemLines == subject.siemLines;
  if (result.identical) return result;

  // 1. Exactly-equal SIEM lines cancel (multiset intersection), leaving the
  //    indices each side cannot match byte-for-byte.
  std::map<std::string, int> counts;
  for (const std::string& line : subject.siemLines) ++counts[line];
  std::vector<std::size_t> baselineOnly;
  for (std::size_t i = 0; i < baseline.siemLines.size(); ++i) {
    auto it = counts.find(baseline.siemLines[i]);
    if (it != counts.end() && it->second > 0) {
      --it->second;
    } else {
      baselineOnly.push_back(i);
    }
  }
  counts.clear();
  for (const std::string& line : baseline.siemLines) ++counts[line];
  std::vector<std::size_t> subjectOnly;
  for (std::size_t i = 0; i < subject.siemLines.size(); ++i) {
    auto it = counts.find(subject.siemLines[i]);
    if (it != counts.end() && it->second > 0) {
      --it->second;
    } else {
      subjectOnly.push_back(i);
    }
  }

  // 2. Leftovers pair up by structural key: same alert, shifted time /
  //    detail / confidence -> reordering-tolerant.
  std::map<std::string, std::vector<std::size_t>> unpairedBaseline;
  for (std::size_t idx : baselineOnly) {
    unpairedBaseline[structuralKey(baseline.alerts[idx])].push_back(idx);
  }
  const bool lossy = subjectLossyRelativeTo(baseline, subject);
  // The evasion lane: only a subject strictly more perturbed than its
  // baseline may charge divergences to an evasion plan.
  const bool evasive = subject.evasionPerturbed > baseline.evasionPerturbed;
  std::set<std::string> baselineAttackTypes;
  for (const ids::Alert& alert : baseline.alerts) {
    baselineAttackTypes.insert(ids::attackName(alert.type));
  }
  const char* lossDetail =
      "attributed to injected faults (loss/corruption/duplication/"
      "reordering/crash or ring eviction tallies differ)";
  for (std::size_t idx : subjectOnly) {
    Divergence d;
    d.subjectJson = subject.siemLines[idx];
    auto it = unpairedBaseline.find(structuralKey(subject.alerts[idx]));
    if (it != unpairedBaseline.end() && !it->second.empty()) {
      d.kind = DivergenceKind::kReorderingTolerant;
      d.detail = "same alert identity on both sides; time/detail shifted";
      d.baselineJson = baseline.siemLines[it->second.front()];
      it->second.erase(it->second.begin());
    } else if (evasive &&
               baselineAttackTypes.count(
                   ids::attackName(subject.alerts[idx].type)) > 0) {
      d.kind = DivergenceKind::kEvasion;
      d.detail =
          "entity attribution shifted under evasion perturbation "
          "(attack type present in baseline)";
    } else if (lossy) {
      d.kind = DivergenceKind::kAccountedLoss;
      d.detail = std::string("subject-only alert ") + lossDetail;
    } else if (evasive) {
      d.kind = DivergenceKind::kRegression;
      d.detail =
          "evasion changed alert semantics: attack type never raised on "
          "the unperturbed run";
    } else {
      d.kind = DivergenceKind::kRegression;
      d.detail = "subject-only alert with no injected fault to explain it";
    }
    result.divergences.push_back(std::move(d));
  }
  for (const auto& [key, indices] : unpairedBaseline) {
    (void)key;
    for (std::size_t idx : indices) {
      Divergence d;
      d.baselineJson = baseline.siemLines[idx];
      if (evasive) {
        d.kind = DivergenceKind::kEvasion;
        d.detail = "alert suppressed by evasion perturbation of the attack "
                   "traffic";
      } else if (lossy) {
        d.kind = DivergenceKind::kAccountedLoss;
        d.detail = std::string("baseline-only alert ") + lossDetail;
      } else {
        d.kind = DivergenceKind::kRegression;
        d.detail = "alert missing with no injected fault to explain it";
      }
      result.divergences.push_back(std::move(d));
    }
  }
  return result;
}

std::string DiffReport::toJson() const {
  std::ostringstream oss;
  oss << "{\"v\":1,\"kind\":\"chaos_divergence\",\"plan\":\""
      << ids::jsonEscape(plan.describe()) << "\",\"regression\":"
      << (hasRegression() ? "true" : "false") << ",\"diffs\":[";
  appendDiffJson(oss, "faulted_vs_baseline", faultedVsBaseline);
  oss << ",";
  appendDiffJson(oss, "workers_vs_deterministic", workersVsDeterministic);
  oss << "]}";
  return oss.str();
}

}  // namespace kalis::chaos
