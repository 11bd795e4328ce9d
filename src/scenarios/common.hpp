// Shared scenario infrastructure: the three systems under test (Kalis, the
// traditional-IDS baseline, Snort), the capture a scenario records at its
// IDS spot, the replay that evaluates a system on it, result records, and
// the resource model constants (DESIGN.md §1).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attacks/evasion.hpp"
#include "baseline/snort_engine.hpp"
#include "chaos/link_chaos.hpp"
#include "kalis/kalis_node.hpp"
#include "metrics/evaluation.hpp"
#include "metrics/ground_truth.hpp"
#include "sim/world.hpp"

namespace kalis::scenarios {

enum class SystemKind : std::uint8_t { kKalis, kTraditionalIds, kSnort };

const char* systemName(SystemKind kind);

/// RAM model (calibrated against Table II; see EXPERIMENTS.md):
/// process baseline + fixed per-active-unit footprint + live state.
inline constexpr double kKalisRuntimeBaseMb = 9.5;   // JamVM-class runtime
inline constexpr double kPerActiveModuleMb = 0.55;   // loaded module footprint
inline constexpr double kSnortRuntimeBaseMb = 95.0;  // Snort process baseline
inline constexpr double kPerRuleKb = 64.0;           // compiled rule footprint

/// One scenario run as the IDS spot recorded it: the input every system
/// under test is evaluated on (the paper's §VI-A record/replay method).
struct Capture {
  std::string scenario;
  /// What the IDS spots heard, in capture order; meta.capturedBy names the
  /// spot when a scenario has several.
  std::vector<net::CapturedPacket> packets;
  metrics::GroundTruth truth;
  SimTime end = 0;  ///< time the replay clock runs to
  /// Modules the traditional baseline leaves out of its static library
  /// (its blind pick between two topology-specific techniques).
  std::vector<std::string> traditionalExcludes;
  /// Link faults the optional FaultPlan injected while recording.
  chaos::LinkChaos::Stats linkFaults;
  /// Perturbations the optional EvasionPlan applied while recording.
  attacks::evasion::Stats evasionTally;
};

/// The recorder every capture uses. Sniffs `media` at each node of `spots`
/// (wired as KalisNode::attach wires a live node), installs the optional
/// fault plan (DESIGN.md §9) and evasion plan (§13), starts `world`, runs it
/// to `end` and sets into.end to it. A null plan, an all-zero fault plan
/// and a zero-budget evasion plan leave the capture byte-for-byte unchanged.
void record(sim::World& world, std::initializer_list<NodeId> spots,
            std::initializer_list<net::Medium> media, SimTime end,
            Capture& into, const chaos::FaultPlan* faults = nullptr,
            const attacks::evasion::EvasionPlan* evasion = nullptr);

struct ScenarioResult {
  std::string scenario;
  SystemKind system = SystemKind::kKalis;
  metrics::EvaluationResult eval;
  metrics::CountermeasureResult counter;
  std::size_t totalAttackers = 0;
  double cpuPercent = 0.0;
  double ramMb = 0.0;
  std::uint64_t packetsSniffed = 0;
  Duration simulated = 0;
  std::size_t truthSize = 0;
  std::vector<ids::Alert> alerts;
  /// True when the scenario could not be run by this system at all
  /// (Snort on ZigBee-only traffic).
  bool notApplicable = false;

  double detectionRate() const {
    return notApplicable ? 0.0 : eval.detectionRate();
  }
  double accuracy() const {
    return notApplicable ? 0.0 : eval.classificationAccuracy();
  }
};

/// One system under test on a simulator clock: loads the module library,
/// emulates the traditional baseline, and turns the engine's counters into
/// the CPU/RAM proxies. A Kalis system still has to be started
/// (kalis()->start()) before its first packet.
class IdsHarness {
 public:
  struct Options {
    SystemKind kind = SystemKind::kKalis;
    std::string id = "K1";
    /// Modules to EXCLUDE from the library (the traditional baseline's
    /// static random module choice in §VI-B2).
    std::vector<std::string> excludeModules;
  };

  IdsHarness(sim::Simulator& sim, Options options);

  /// Feeds one captured packet: Kalis advances its clock to the capture
  /// time first (KalisNode::replayFeed); Snort dissects and inspects it.
  void replay(const net::CapturedPacket& pkt);

  std::vector<ids::Alert> alerts() const;
  double cpuPercentOver(Duration simulated) const;
  double ramMb() const;
  std::uint64_t packetsSeen() const;

  ids::KalisNode* kalis() { return kalisNode_.get(); }
  baseline::SnortEngine* snort() { return snortEngine_.get(); }
  SystemKind kind() const { return options_.kind; }

 private:
  Options options_;
  std::unique_ptr<ids::KalisNode> kalisNode_;
  std::unique_ptr<baseline::SnortEngine> snortEngine_;
  std::uint64_t snortPacketsSeen_ = 0;
};

/// Scores the harness's alerts against the capture's ground truth and fills
/// the resource proxies over the capture's span.
ScenarioResult finishResult(const Capture& capture, IdsHarness& harness);

/// Replays `capture` into a fresh `system` on its own clock, runs the clock
/// to capture.end, and scores the alerts against the capture's ground truth.
ScenarioResult evaluate(SystemKind system, const Capture& capture);

}  // namespace kalis::scenarios
