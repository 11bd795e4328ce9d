// attacks::evasion — budgeted adversarial perturbation of the Fig. 8 attack
// injectors (ROADMAP item 3; Papadopoulos et al., "Launching Adversarial
// Attacks against Network Intrusion Detection Systems for IoT").
//
// An EvasionPlan wraps any scenario's attacker traffic at the sim::World
// link-fault seam and applies semantics-preserving perturbations scaled by a
// single `budget` knob in [0, 1]:
//
//   timing   inter-packet-gap stretching + jitter: attacker transmissions are
//            spread along a per-(node, medium) monotone cursor so burst rates
//            sink below the flood modules' events-per-second thresholds
//            without reordering the attack stream;
//   dilute   rate dilution: a budget-scaled fraction of attack frames is
//            simply never sent. Ground truth is recorded at burst time, so
//            the symptom thins while the attack instances stand;
//   split    symptom splitting: the link-layer source rotates through a pool
//            of spoofed identities (802.15.4 src16, 802.11 src, BLE AdvA),
//            defeating per-EntityRef counters, cooldowns and per-sender
//            history. Frames are rewritten through dissect() + serialize()
//            with a freshly computed FCS;
//   mimic    mimicry of benign trace statistics: frames gain budget-scaled
//            size padding in the IP-layer trailer slack (the span benign
//            stacks legitimately carry), pulling attack frame sizes toward
//            the benign distribution.
//
// Each technique reaches its fixed scale (the constants at the top of
// evasion.cpp) at budget 1, so a plan is just (seed, budget).
//
// Determinism contract (same as chaos::FaultPlan): all draws flow from
// EvasionPlan::seed through one dedicated Rng, so a run is replayable from
// (scenario, seed, budget) alone. A zero plan (budget == 0) makes NO rng
// draws and returns neutral faults — installing it reproduces the
// unperturbed run byte-for-byte (asserted in tests/evasion_test.cpp via
// SIEM-stream equality).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/world.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace kalis::attacks::evasion {

struct EvasionPlan {
  /// Evasion stream seed — independent of the scenario seed, so the same
  /// perturbation sequence can replay against different traffic.
  std::uint64_t seed = 0xe7a5e;

  /// Master knob in [0, 1]: 0 = unperturbed attack, 1 = every technique at
  /// its fixed maximum.
  double budget = 0.0;

  /// True when the plan perturbs nothing (budget 0).
  bool zero() const { return budget <= 0.0; }

  /// Canonical "budget=<b>,seed=<s>" rendering (budget omitted when 0).
  std::string describe() const;
};

/// Exact per-run perturbation tallies (the alert diff's evasion lane and the
/// sweep JSON consume these).
struct Stats {
  std::uint64_t attackerFrames = 0;  ///< attacker transmissions seen
  std::uint64_t diluted = 0;         ///< frames dropped by rate dilution
  std::uint64_t delayed = 0;         ///< frames shifted by timing evasion
  std::uint64_t rewritten = 0;       ///< frames with a spoofed link source
  std::uint64_t padded = 0;          ///< frames grown by mimicry padding
  /// Relays whose malicious drop probability was relieved toward benign
  /// (the forwarding-family perturbation, which no injector sees: the
  /// forwarding capture counts it).
  std::uint64_t forwardRelieved = 0;
  std::uint64_t roundtripViolations = 0;  ///< serialize(dissect(x)) != x

  /// Perturbations the plan actually applied (drop/delay/rewrite/pad/relief).
  std::uint64_t perturbed() const {
    return diluted + delayed + rewritten + padded + forwardRelieved;
  }
};

/// The evasion injector. Chains to whatever LinkFaultInjector was installed
/// before it (chaos::LinkChaos composes underneath): non-attacker traffic
/// passes through untouched, attacker traffic is perturbed first and the
/// inner injector then sees the perturbed bytes. Attacker nodes are matched
/// by the scenario naming convention ("attacker", "replica*") at install
/// time.
class EvasionChaos : public sim::LinkFaultInjector {
 public:
  EvasionChaos(sim::World& world, const EvasionPlan& plan);
  ~EvasionChaos() override;

  const Stats& stats() const { return stats_; }

  TxFault onTransmit(NodeId from, net::Medium medium, const Bytes& frame,
                     SimTime now) override;
  RxFault onReceive(NodeId from, NodeId to, net::Medium medium,
                    SimTime now) override;

 private:
  bool isAttacker(NodeId id) const {
    return id < attackerNode_.size() && attackerNode_[id];
  }

  sim::World& world_;
  EvasionPlan plan_;
  sim::LinkFaultInjector* inner_ = nullptr;
  bool active_ = false;  ///< plan non-zero: perturb (and draw) at all
  Rng rng_;
  std::vector<bool> attackerNode_;  ///< by NodeId, fixed at install time
  /// Per-(node, medium) monotone release cursor for gap stretching.
  std::vector<SimTime> nextFreeAt_;
  Stats stats_;
};

/// Installs an EvasionChaos wrapping the world's current injector; nullptr
/// plan installs nothing. The guard detaches (restoring the previous
/// injector) on destruction — declare it AFTER the chaos guard so
/// destruction unwinds in reverse install order.
std::unique_ptr<EvasionChaos> installEvasionPlan(sim::World& world,
                                                 const EvasionPlan* plan);

/// Rate dilution for the forwarding-attack family, whose symptom is relay
/// misbehavior rather than attacker transmissions: scales the malicious
/// drop probability down with the budget. Identity when plan is null or
/// zero.
double effectiveForwardDropProb(const EvasionPlan* plan, double baseDropProb);

// --- frame mutators (exposed for tests and corpus generation) ---------------

/// Rewrites the link-layer source (wpan src16 / wifi src / BLE AdvA) to
/// spoofed identity #k (k >= 1), re-serializing with a fresh FCS. nullopt
/// when no link layer parsed.
std::optional<Bytes> rewriteLinkSource(net::Medium medium, const Bytes& frame,
                                       std::uint64_t identity);

/// Inserts `pad` bytes of IP-trailer slack before the link FCS and
/// recomputes it. nullopt when the frame carries no IP layer or when the
/// padded frame would no longer dissect to the same packet type.
std::optional<Bytes> padFrame(net::Medium medium, const Bytes& frame,
                              std::size_t pad);

// --- test tap ---------------------------------------------------------------

/// Test tap: when set, called with every perturbed frame the injectors emit
/// (after the internal serialize(dissect(x)) == x check). Pass nullptr to
/// clear.
using FrameTap = std::function<void(net::Medium, const Bytes&)>;
void setPerturbedFrameTap(FrameTap tap);

}  // namespace kalis::attacks::evasion
