// The paper's experiments as callable scenarios. A Fig. 8 scenario is a
// capture: it builds the environment, injects the attack with ground truth,
// runs the world once with a recorder at the IDS spot, and returns what the
// spot heard. evaluate(system, capture) (common.hpp) then replays those
// packets into Kalis, the traditional baseline or Snort and scores the
// result, so every system under test sees the same traffic.
//
// Experiment map (see DESIGN.md §3):
//   captureIcmpFlood        — §VI-B1 (single-hop WiFi; Kalis/Trad/Snort)
//   captureReplication      — §VI-B2 (static<->mobile ZigBee; Snort N/A)
//   captureSmurf, captureSynFlood, captureSelectiveForwarding,
//   captureBlackhole, captureSybil, captureSinkhole
//                           — the remaining Fig. 8 breadth scenarios
//   captureWormhole, runWormhole
//                           — §VI-D (two Kalis nodes, collective knowledge)
//   runReactivity           — §VI-C (cold-start dynamic module activation)
//   runLiveCountermeasure   — §VI-B metric iii, with the IDS in the loop
#pragma once

#include "scenarios/common.hpp"

namespace kalis::scenarios {

// Every Fig. 8 capture optionally takes a chaos::FaultPlan (DESIGN.md §9):
// when non-null, a chaos::LinkChaos injector is installed on the World for
// the whole run, so any scenario can be recorded under any fault plan.
//
// Each also optionally takes an attacks::evasion::EvasionPlan (DESIGN.md
// §13): when non-null, an EvasionChaos injector wraps the fault seam and
// applies budgeted adversarial perturbations to the attacker's traffic only
// (the forwarding-family scenarios instead scale the malicious relay's drop
// probability). A null plan, an all-zero fault plan and a zero-budget
// evasion plan all leave the capture byte-for-byte unchanged.
Capture captureIcmpFlood(
    std::uint64_t seed, const chaos::FaultPlan* faults = nullptr,
    const attacks::evasion::EvasionPlan* evasion = nullptr);
Capture captureSmurf(std::uint64_t seed,
                     const chaos::FaultPlan* faults = nullptr,
                     const attacks::evasion::EvasionPlan* evasion = nullptr);
Capture captureSynFlood(
    std::uint64_t seed, const chaos::FaultPlan* faults = nullptr,
    const attacks::evasion::EvasionPlan* evasion = nullptr);
Capture captureSelectiveForwarding(
    std::uint64_t seed, const chaos::FaultPlan* faults = nullptr,
    const attacks::evasion::EvasionPlan* evasion = nullptr);
Capture captureBlackhole(
    std::uint64_t seed, const chaos::FaultPlan* faults = nullptr,
    const attacks::evasion::EvasionPlan* evasion = nullptr);
/// The traditional baseline's library holds one of the two topology-specific
/// sybil techniques, picked from the seed (Capture::traditionalExcludes).
Capture captureSybil(std::uint64_t seed,
                     const chaos::FaultPlan* faults = nullptr,
                     const attacks::evasion::EvasionPlan* evasion = nullptr);
Capture captureSinkhole(
    std::uint64_t seed, const chaos::FaultPlan* faults = nullptr,
    const attacks::evasion::EvasionPlan* evasion = nullptr);

/// §VI-B2. One run = one random static/mobile schedule with 3 replicas; the
/// traditional baseline is configured with one randomly chosen replication
/// module ("closely simulating a static module library configuration").
Capture captureReplication(
    std::uint64_t seed, const chaos::FaultPlan* faults = nullptr,
    const attacks::evasion::EvasionPlan* evasion = nullptr);

/// Names of the eight Fig. 8 scenarios, in Fig. 8 order.
const std::vector<std::string>& scenarioNames();

/// Captures one Fig. 8 scenario by its scenarioNames() entry; nullopt for an
/// unknown name. The dispatch bench_fig8 and the evasion sweep use.
std::optional<Capture> capture(
    const std::string& name, std::uint64_t seed,
    const chaos::FaultPlan* faults = nullptr,
    const attacks::evasion::EvasionPlan* evasion = nullptr);

/// §VI-D's capture: the ZigBee wormhole chain recorded at both IDS spots into
/// one stream (meta.capturedBy names the spot). When `k1Spot` is non-null it
/// receives the spot that watches the hub/B1 portion, whose packets feed K1.
Capture captureWormhole(std::uint64_t seed,
                        const chaos::FaultPlan* faults = nullptr,
                        NodeId* k1Spot = nullptr);

/// §VI-D. Replays captureWormhole into two Kalis nodes, each fed its own
/// spot's packets; `collaborative` toggles collective knowledge (the paper's
/// mechanism) on and off (the ablation).
struct WormholeResult {
  ScenarioResult combined;      ///< alerts of both Kalis nodes merged
  bool wormholeClassified = false;
  bool blackholeOnly = false;   ///< what happens without collaboration
  std::size_t collectiveExchanged = 0;
};
WormholeResult runWormhole(std::uint64_t seed, bool collaborative,
                           const chaos::FaultPlan* faults = nullptr);

/// §VI-C. Kalis starts with no detection module active and no a-priori
/// knowledge; measures whether dynamic activation still catches everything.
struct ReactivityResult {
  std::size_t detectionModulesActiveAtStart = 0;
  bool selectiveForwardingActivated = false;
  SimTime activationTime = kSimTimeMax;
  SimTime firstAlertTime = kSimTimeMax;
  double detectionRate = 0.0;
  std::size_t truthSize = 0;
};
ReactivityResult runReactivity(std::uint64_t seed);

/// Live countermeasure experiment (§VI-B metric iii, measured in-network):
/// a diamond WSN (two parallel relays) with a blackholing relay; the IDS's
/// alerts drive automatic revocation, and network health is the legitimate
/// delivery ratio after the response settles. Kalis revokes only the
/// attacker (the tree heals through the honest relay); the traditional
/// baseline also revokes the base station and collapses the network. The
/// one experiment whose IDS stays attached to the live World: its alerts
/// change the traffic it then observes.
struct LiveCountermeasureResult {
  double deliveryNoResponse = 0.0;  ///< attack unmitigated
  double deliveryKalis = 0.0;       ///< Kalis-driven revocation
  double deliveryTraditional = 0.0; ///< traditional-IDS-driven revocation
  std::vector<std::string> kalisRevoked;
  std::vector<std::string> tradRevoked;
};
LiveCountermeasureResult runLiveCountermeasure(std::uint64_t seed);

}  // namespace kalis::scenarios
