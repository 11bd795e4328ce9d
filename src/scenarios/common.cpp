#include "scenarios/common.hpp"

#include <set>

#include "attacks/evasion.hpp"

namespace kalis::scenarios {

const char* systemName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kKalis: return "Kalis";
    case SystemKind::kTraditionalIds: return "Trad. IDS";
    case SystemKind::kSnort: return "Snort";
  }
  return "?";
}

void record(sim::World& world, std::initializer_list<NodeId> spots,
            std::initializer_list<net::Medium> media, SimTime end,
            Capture& into, const chaos::FaultPlan* faults,
            const attacks::evasion::EvasionPlan* evasion) {
  for (NodeId spot : spots) {
    for (net::Medium medium : media) {
      world.enableRadio(spot, medium);
      world.addSniffer(spot, medium,
                       [&into](const net::CapturedPacket& pkt,
                               const net::Dissection&) {
                         into.packets.push_back(pkt);
                       });
    }
  }
  const auto chaosGuard = chaos::installFaultPlan(world, faults);
  const auto evasionGuard = attacks::evasion::installEvasionPlan(world, evasion);
  world.start();
  world.sim().runUntil(end);
  into.end = end;
  if (chaosGuard) into.linkFaults = chaosGuard->stats();
  if (evasionGuard) into.evasionTally = evasionGuard->stats();
}

IdsHarness::IdsHarness(sim::Simulator& sim, Options options)
    : options_(std::move(options)) {
  if (options_.kind == SystemKind::kSnort) {
    snortEngine_ = std::make_unique<baseline::SnortEngine>();
    snortEngine_->loadRules(baseline::communityRuleset());
    return;
  }
  ids::KalisNode::Options nodeOptions;
  nodeOptions.id = options_.id;
  kalisNode_ = std::make_unique<ids::KalisNode>(sim, nodeOptions);
  const std::set<std::string> excluded(options_.excludeModules.begin(),
                                       options_.excludeModules.end());
  for (const std::string& name : ids::ModuleRegistry::global().names()) {
    if (!excluded.contains(name)) kalisNode_->addModuleByName(name);
  }
  if (options_.kind == SystemKind::kTraditionalIds) {
    kalisNode_->emulateTraditionalIds();
  }
}

void IdsHarness::replay(const net::CapturedPacket& pkt) {
  if (kalisNode_) {
    kalisNode_->replayFeed(pkt);
    return;
  }
  ++snortPacketsSeen_;
  snortEngine_->onPacket(pkt, net::dissect(pkt));
}

std::vector<ids::Alert> IdsHarness::alerts() const {
  if (kalisNode_) return kalisNode_->alerts();
  return snortEngine_->alerts();
}

double IdsHarness::cpuPercentOver(Duration simulated) const {
  const std::uint64_t workUnits = kalisNode_
                                      ? kalisNode_->modules().totalWorkUnits()
                                      : snortEngine_->workUnits();
  return metrics::cpuPercent(workUnits, simulated);
}

double IdsHarness::ramMb() const {
  if (kalisNode_) {
    const double stateMb =
        static_cast<double>(kalisNode_->memoryBytes()) / (1024.0 * 1024.0);
    return kKalisRuntimeBaseMb +
           kPerActiveModuleMb *
               static_cast<double>(kalisNode_->modules().activeCount()) +
           stateMb;
  }
  const double stateMb =
      static_cast<double>(snortEngine_->memoryBytes()) / (1024.0 * 1024.0);
  return kSnortRuntimeBaseMb +
         kPerRuleKb * static_cast<double>(snortEngine_->ruleCount()) / 1024.0 +
         stateMb;
}

std::uint64_t IdsHarness::packetsSeen() const {
  if (kalisNode_) return kalisNode_->modules().packetsProcessed();
  return snortPacketsSeen_;
}

ScenarioResult finishResult(const Capture& capture, IdsHarness& harness) {
  const metrics::GroundTruth& truth = capture.truth;
  ScenarioResult result;
  result.scenario = capture.scenario;
  result.system = harness.kind();
  result.alerts = harness.alerts();
  result.eval = metrics::evaluate(truth, result.alerts);
  result.counter = metrics::assessCountermeasures(truth, result.alerts);
  std::set<std::string> attackers;
  for (const auto& instance : truth.instances()) {
    if (!instance.suspectEntity.empty()) attackers.insert(instance.suspectEntity);
  }
  result.totalAttackers = attackers.size();
  result.cpuPercent = harness.cpuPercentOver(capture.end);
  result.ramMb = harness.ramMb();
  result.packetsSniffed = harness.packetsSeen();
  result.simulated = capture.end;
  result.truthSize = truth.size();
  return result;
}

ScenarioResult evaluate(SystemKind system, const Capture& capture) {
  sim::Simulator clock(1);
  IdsHarness::Options options{system, "K1", {}};
  if (system == SystemKind::kTraditionalIds) {
    options.excludeModules = capture.traditionalExcludes;
  }
  IdsHarness harness(clock, options);
  if (ids::KalisNode* node = harness.kalis()) node->start();
  for (const net::CapturedPacket& pkt : capture.packets) harness.replay(pkt);
  clock.runUntil(capture.end);

  ScenarioResult result = finishResult(capture, harness);
  // Snort captures only 802.11 (DLT_IEEE802_11): on WPAN-only traffic it
  // sees nothing at all.
  result.notApplicable = system == SystemKind::kSnort &&
                         harness.snort()->packetsProcessed() == 0;
  return result;
}

}  // namespace kalis::scenarios
