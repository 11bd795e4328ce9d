// §VI-C (reactivity), §VI-D (knowledge sharing / wormhole), and the Fig. 8
// scenario roster.
#include <memory>

#include "attacks/forwarding_attacks.hpp"
#include "kalis/countermeasures.hpp"
#include "scenarios/environments.hpp"
#include "scenarios/scenarios.hpp"

namespace kalis::scenarios {

namespace {

/// One run of the diamond-WSN countermeasure experiment.
/// mode: 0 = no response, 1 = Kalis-driven, 2 = traditional-IDS-driven.
struct DiamondRun {
  double deliveryRatio = 0.0;
  std::vector<std::string> revoked;
};

DiamondRun runDiamond(std::uint64_t seed, int mode) {
  sim::Simulator simulator(seed);
  sim::World world(simulator);
  tuneWpanPropagation(world);

  // Diamond: root at the apex, two parallel relays, one leaf below both.
  const NodeId root = world.addNode("base-station", sim::NodeRole::kHub, {0, 0});
  const NodeId relayA = world.addNode("relayA", sim::NodeRole::kSub, {12, 5});
  const NodeId relayB = world.addNode("relayB", sim::NodeRole::kSub, {12, -5});
  const NodeId leaf = world.addNode("leaf", sim::NodeRole::kSub, {24, 0});
  for (NodeId id : {root, relayA, relayB, leaf}) {
    world.enableRadio(id, net::Medium::kIeee802154, moteRadio());
  }

  sim::CtpAgent::Config rootConfig;
  rootConfig.isRoot = true;
  rootConfig.sendData = false;
  auto rootAgent = std::make_unique<sim::CtpAgent>(rootConfig);
  sim::CtpAgent* rootRaw = rootAgent.get();
  world.setBehavior(root, std::move(rootAgent));

  // The attacker advertises a slightly sweeter route so the leaf prefers it.
  sim::CtpAgent::Config attackerConfig;
  attackerConfig.perHopEtx = 4;
  auto attackerAgent = std::make_unique<sim::CtpAgent>(attackerConfig);
  attackerAgent->setForwardPolicy(
      std::make_shared<attacks::SelectiveForwardPolicy>(
          1.0, ids::AttackType::kBlackhole, nullptr));
  world.setBehavior(relayA, std::move(attackerAgent));

  world.setBehavior(relayB,
                    std::make_unique<sim::CtpAgent>(sim::CtpAgent::Config{}));
  world.setBehavior(leaf,
                    std::make_unique<sim::CtpAgent>(sim::CtpAgent::Config{}));

  const NodeId ids = world.addNode("kalis-box", sim::NodeRole::kIdsBox, {12, 0});
  world.enableRadio(ids, net::Medium::kIeee802154, idsWideRadio());

  // The IDS stays attached to the live World: its alerts revoke nodes, which
  // changes the traffic it observes next, so no recorded capture can stand
  // in for the run.
  IdsHarness harness(
      simulator,
      IdsHarness::Options{mode == 2 ? SystemKind::kTraditionalIds
                                    : SystemKind::kKalis,
                          "K1",
                          {}});
  ids::KalisNode& kalisNode = *harness.kalis();
  kalisNode.attach(world, ids, {net::Medium::kIeee802154});

  ids::CountermeasureEngine::Policy policy;
  policy.revocationPeriod = seconds(600);
  ids::CountermeasureEngine engine(world, policy);
  if (mode != 0) {
    kalisNode.setAlertSink(
        [&engine](const ids::Alert& alert) { engine.onAlert(alert); });
  }

  world.start();
  kalisNode.start();

  // Measure legitimate delivery (relayB + leaf origins) over the settled
  // window [80 s, 170 s].
  simulator.runUntil(seconds(80));
  auto legitDelivered = [&] {
    std::uint64_t n = 0;
    for (NodeId origin : {relayB, leaf}) {
      auto it = rootRaw->stats().deliveredByOrigin.find(
          world.mac16Of(origin).value);
      if (it != rootRaw->stats().deliveredByOrigin.end()) n += it->second;
    }
    return n;
  };
  const std::uint64_t before = legitDelivered();
  simulator.runUntil(seconds(170));
  const std::uint64_t delivered = legitDelivered() - before;
  // Two legitimate origins, one data packet per 3 s each, over 90 s.
  const double expected = 2.0 * 90.0 / 3.0;

  DiamondRun run;
  run.deliveryRatio = static_cast<double>(delivered) / expected;
  if (run.deliveryRatio > 1.0) run.deliveryRatio = 1.0;
  for (const auto& action : engine.actions()) {
    if (action.executed) run.revoked.push_back(action.entity);
  }
  return run;
}

}  // namespace

LiveCountermeasureResult runLiveCountermeasure(std::uint64_t seed) {
  LiveCountermeasureResult result;
  const DiamondRun none = runDiamond(seed, 0);
  const DiamondRun kalis = runDiamond(seed, 1);
  const DiamondRun trad = runDiamond(seed, 2);
  result.deliveryNoResponse = none.deliveryRatio;
  result.deliveryKalis = kalis.deliveryRatio;
  result.deliveryTraditional = trad.deliveryRatio;
  result.kalisRevoked = kalis.revoked;
  result.tradRevoked = trad.revoked;
  return result;
}

Capture captureWormhole(std::uint64_t seed, const chaos::FaultPlan* faults,
                        NodeId* k1Spot) {
  Capture cap;
  cap.scenario = "Wormhole";
  sim::Simulator simulator(seed);
  sim::World world(simulator);
  ZigbeeWormholeChain chain =
      buildZigbeeWormholeChain(world, /*commandInterval=*/milliseconds(1500));

  attacks::WormholeRelayPolicy::Config policyConfig;
  policyConfig.world = &world;
  policyConfig.peer = chain.b2;
  policyConfig.truth = &cap.truth;
  chain.b1Agent->setRelayPolicy(
      std::make_shared<attacks::WormholeRelayPolicy>(policyConfig));

  // Two IDS spots with deliberately constrained radios: each hears only
  // its own network portion (the premise of §VI-D).
  for (NodeId ids : {chain.ids1, chain.ids2}) {
    world.enableRadio(ids, net::Medium::kIeee802154, moteRadio());
  }
  record(world, {chain.ids1, chain.ids2}, {net::Medium::kIeee802154},
         seconds(120), cap, faults);
  if (k1Spot != nullptr) *k1Spot = chain.ids1;
  return cap;
}

WormholeResult runWormhole(std::uint64_t seed, bool collaborative,
                           const chaos::FaultPlan* faults) {
  NodeId firstSpot = kInvalidNode;
  const Capture cap = captureWormhole(seed, faults, &firstSpot);

  // Two Kalis nodes on one replay clock, each fed what its own spot heard.
  sim::Simulator clock(1);
  IdsHarness k1(clock, IdsHarness::Options{SystemKind::kKalis, "K1", {}});
  IdsHarness k2(clock, IdsHarness::Options{SystemKind::kKalis, "K2", {}});
  if (collaborative) {
    ids::KalisNode::discoverPeers(*k1.kalis(), *k2.kalis());
  }
  k1.kalis()->start();
  k2.kalis()->start();
  for (const net::CapturedPacket& pkt : cap.packets) {
    (pkt.meta.capturedBy == firstSpot ? k1 : k2).replay(pkt);
  }
  clock.runUntil(cap.end);

  WormholeResult result;
  std::vector<ids::Alert> merged = k1.alerts();
  const auto k2Alerts = k2.alerts();
  merged.insert(merged.end(), k2Alerts.begin(), k2Alerts.end());

  result.combined = finishResult(cap, k1);
  result.combined.alerts = merged;
  result.combined.eval = metrics::evaluate(cap.truth, merged);
  result.combined.counter = metrics::assessCountermeasures(cap.truth, merged);

  bool sawWormhole = false;
  bool sawBlackhole = false;
  for (const ids::Alert& alert : merged) {
    if (alert.type == ids::AttackType::kWormhole) sawWormhole = true;
    if (alert.type == ids::AttackType::kBlackhole) sawBlackhole = true;
  }
  result.wormholeClassified = sawWormhole;
  result.blackholeOnly = sawBlackhole && !sawWormhole;
  result.collectiveExchanged = static_cast<std::size_t>(
      k1.kalis()->collectiveSent() + k2.kalis()->collectiveSent());
  return result;
}

ReactivityResult runReactivity(std::uint64_t seed) {
  // The Fig. 8 selective-forwarding network: one mote drops half of what it
  // relays from the very first packets.
  const Capture cap = captureSelectiveForwarding(seed);

  // "A configuration file that does not activate any detection modules by
  // default and does not contain any a-priori knowgget" (§VI-C): the full
  // library is loaded, but nothing is required until knowledge appears.
  sim::Simulator clock(1);
  IdsHarness harness(clock,
                     IdsHarness::Options{SystemKind::kKalis, "K1", {}});
  ids::KalisNode* kalisNode = harness.kalis();
  kalisNode->start();

  ReactivityResult result;
  // Count detection modules active right after startup (before traffic).
  for (const std::string& name : kalisNode->modules().activeModuleNames()) {
    const ids::Module* module = kalisNode->modules().find(name);
    if (module->isDetection()) ++result.detectionModulesActiveAtStart;
  }

  // Poll the replay clock for the moment the selective-forwarding module
  // becomes required.
  auto poll = std::make_shared<std::function<void()>>();
  auto* resultPtr = &result;
  // Weak self-reference: a shared_ptr capture would cycle with the function
  // it lives in and leak (LeakSanitizer catches this in the CI job).
  std::weak_ptr<std::function<void()>> weakPoll = poll;
  *poll = [&clock, kalisNode, resultPtr, weakPoll] {
    if (resultPtr->activationTime == kSimTimeMax &&
        kalisNode->modules().isActive("SelectiveForwardingModule")) {
      resultPtr->activationTime = clock.now();
      return;  // found; stop polling
    }
    if (auto self = weakPoll.lock()) {
      clock.schedule(milliseconds(100), *self);
    }
  };
  clock.schedule(milliseconds(100), *poll);

  for (const net::CapturedPacket& pkt : cap.packets) harness.replay(pkt);
  clock.runUntil(cap.end);

  for (const ids::Alert& alert : kalisNode->alerts()) {
    if (alert.time < result.firstAlertTime) result.firstAlertTime = alert.time;
  }
  const auto eval = metrics::evaluate(cap.truth, kalisNode->alerts());
  result.detectionRate = eval.detectionRate();
  result.truthSize = cap.truth.size();
  result.selectiveForwardingActivated = result.activationTime != kSimTimeMax;
  return result;
}

namespace {

/// The Fig. 8 roster, in Fig. 8 order.
struct RosterEntry {
  const char* name;
  Capture (*capture)(std::uint64_t, const chaos::FaultPlan*,
                     const attacks::evasion::EvasionPlan*);
};
constexpr RosterEntry kFig8[] = {
    {"ICMP Flood", captureIcmpFlood},
    {"Smurf", captureSmurf},
    {"SYN Flood", captureSynFlood},
    {"Selective Forwarding", captureSelectiveForwarding},
    {"Blackhole", captureBlackhole},
    {"Replication", captureReplication},
    {"Sybil", captureSybil},
    {"Sinkhole", captureSinkhole},
};

}  // namespace

const std::vector<std::string>& scenarioNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const RosterEntry& entry : kFig8) out.emplace_back(entry.name);
    return out;
  }();
  return names;
}

std::optional<Capture> capture(const std::string& name, std::uint64_t seed,
                               const chaos::FaultPlan* faults,
                               const attacks::evasion::EvasionPlan* evasion) {
  for (const RosterEntry& entry : kFig8) {
    if (name == entry.name) return entry.capture(seed, faults, evasion);
  }
  return std::nullopt;
}

}  // namespace kalis::scenarios
