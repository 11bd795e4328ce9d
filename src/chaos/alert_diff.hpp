// Differential verification (DESIGN.md §9): structural diffs of the SIEM
// alert streams of two runs of the same workload (same scenario seed), e.g.
// with a fault plan off and on, or on one worker (the deterministic
// reference) vs several. Every divergence is classified:
//
//   accounted loss       the subject run injected faults (link drops,
//                        corruption, duplication, or ring evictions) that
//                        fully account for the missing/extra alert — the
//                        expected, quantified degradation;
//   reordering-tolerant  the same alert (attack, module, victim, suspects)
//                        exists on both sides with a shifted timestamp,
//                        detail, or confidence — tolerated under reordering;
//   evasion              the subject run perturbed attack traffic through an
//                        attacks::evasion plan and the divergence is the
//                        perturbation working as designed: an alert was
//                        suppressed, or its entity attribution shifted while
//                        the attack type stayed the same. A subject-only
//                        alert whose attack type never appears in the
//                        baseline is NOT tolerated — evasion that silently
//                        *changes alert semantics* is a regression;
//   regression           a divergence nothing injected can explain — the
//                        detector behaved differently on equivalent input.
//
// scenarios::diffTraceReplay runs the trace_replay workload three times and
// returns both diffs as a DiffReport, which serializes to JSON for the CI
// artifact (examples/trace_replay --chaos-diff writes chaos_divergence.json).
#pragma once

#include <string>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "chaos/link_chaos.hpp"
#include "kalis/alert.hpp"
#include "pipeline/pipeline.hpp"

namespace kalis::chaos {

/// Everything one workload run produced that the diff needs: the alert
/// stream (with its canonical SIEM JSON rendering, index-aligned) plus the
/// exact fault tallies used for accounted-loss attribution.
struct RunOutput {
  std::string label;
  std::vector<ids::Alert> alerts;
  std::vector<std::string> siemLines;  ///< toSiemJson(alerts[i]), same order
  pipeline::Pipeline::Stats pipelineStats{};
  std::uint64_t packetsFed = 0;
  LinkChaos::Stats linkFaults;  ///< summed over every recorded world
  /// attacks::evasion perturbation tally (Stats::perturbed()) of the run; a
  /// subject strictly more perturbed than its baseline unlocks the evasion
  /// divergence lane.
  std::uint64_t evasionPerturbed = 0;
};

enum class DivergenceKind : std::uint8_t {
  kAccountedLoss,
  kReorderingTolerant,
  kEvasion,
  kRegression,
};

const char* toString(DivergenceKind kind);

struct Divergence {
  DivergenceKind kind = DivergenceKind::kRegression;
  std::string detail;        ///< human-readable classification rationale
  std::string baselineJson;  ///< SIEM line on the baseline side ("" if none)
  std::string subjectJson;   ///< SIEM line on the subject side ("" if none)
};

struct DiffResult {
  std::string baselineLabel;
  std::string subjectLabel;
  std::size_t baselineAlerts = 0;
  std::size_t subjectAlerts = 0;
  bool identical = false;  ///< byte-for-byte identical SIEM streams
  std::vector<Divergence> divergences;

  std::size_t count(DivergenceKind kind) const;
  bool hasRegression() const {
    return count(DivergenceKind::kRegression) > 0;
  }
};

/// Structural diff of two alert streams. Exactly-equal SIEM lines cancel;
/// leftovers pair up by structural key (attack, module, victim, suspects)
/// as reordering-tolerant, and the rest are accounted to injected faults iff
/// the subject injected strictly more loss/corruption/duplication than the
/// baseline — otherwise they are regressions.
DiffResult diffAlertStreams(const RunOutput& baseline,
                            const RunOutput& subject);

/// Differential verification of one fault plan over three runs: a baseline
/// (one worker, no faults), faulted on one worker, and faulted on several
/// workers.
struct DiffReport {
  FaultPlan plan;
  DiffResult faultedVsBaseline;       ///< 1 worker+plan vs 1, no plan
  DiffResult workersVsDeterministic;  ///< N workers+plan vs 1 worker+plan
  std::string toJson() const;
  bool hasRegression() const {
    return faultedVsBaseline.hasRegression() ||
           workersVsDeterministic.hasRegression();
  }
};

}  // namespace kalis::chaos
