// WPAN-side Fig. 8 scenarios: selective forwarding, blackhole, sybil,
// sinkhole, and the §VI-B2 replication experiment.
#include <memory>

#include "attacks/evasion.hpp"
#include "attacks/forwarding_attacks.hpp"
#include "attacks/wpan_attacks.hpp"
#include "scenarios/environments.hpp"
#include "scenarios/scenarios.hpp"

namespace kalis::scenarios {

namespace {

Capture captureForwardingAttack(std::uint64_t seed, double dropProb,
                                ids::AttackType type, const char* name,
                                const chaos::FaultPlan* faults,
                                const attacks::evasion::EvasionPlan* evasion) {
  Capture cap;
  cap.scenario = name;
  sim::Simulator simulator(seed);
  sim::World world(simulator);
  Wsn wsn = buildWsn(world, 5, seconds(3));

  // motes[1] (two hops in) relays motes[2..4]'s data and misbehaves. The
  // forwarding family has no attacker-originated frames, so evasion here
  // means dropping *less*: the relay's drop probability shrinks with the
  // evasion budget toward the watchdog's detection floor.
  const double relievedProb =
      attacks::evasion::effectiveForwardDropProb(evasion, dropProb);
  auto policy = std::make_shared<attacks::SelectiveForwardPolicy>(
      relievedProb, type, &cap.truth, 50);
  wsn.moteAgents[1]->setForwardPolicy(policy);

  record(world, {wsn.ids}, {net::Medium::kIeee802154}, seconds(160), cap,
         faults, evasion);
  if (relievedProb != dropProb) ++cap.evasionTally.forwardRelieved;
  return cap;
}

}  // namespace

Capture captureSelectiveForwarding(
    std::uint64_t seed, const chaos::FaultPlan* faults,
    const attacks::evasion::EvasionPlan* evasion) {
  return captureForwardingAttack(seed, 0.5,
                                 ids::AttackType::kSelectiveForwarding,
                                 "Selective Forwarding", faults, evasion);
}

Capture captureBlackhole(std::uint64_t seed, const chaos::FaultPlan* faults,
                         const attacks::evasion::EvasionPlan* evasion) {
  return captureForwardingAttack(seed, 1.0, ids::AttackType::kBlackhole,
                                 "Blackhole", faults, evasion);
}

Capture captureSybil(std::uint64_t seed, const chaos::FaultPlan* faults,
                     const attacks::evasion::EvasionPlan* evasion) {
  Capture cap;
  cap.scenario = "Sybil";
  // The traditional baseline's static library holds one of the two
  // topology-specific sybil techniques, chosen blindly (cf. §VI-B2's random
  // module selection).
  cap.traditionalExcludes = {seed % 2 == 0 ? "SybilMultihopModule"
                                           : "SybilSinglehopModule"};
  sim::Simulator simulator(seed);
  sim::World world(simulator);
  Wsn wsn = buildWsn(world, 5, seconds(3));

  const NodeId attacker =
      world.addNode("attacker", sim::NodeRole::kGeneric, {32, 8});
  world.enableRadio(attacker, net::Medium::kIeee802154, moteRadio());
  attacks::SybilAttacker::Config attack;
  attack.flavor = attacks::SybilAttacker::Flavor::kMultihopCtp;
  attack.identityCount = 6;
  attack.target = world.mac16Of(wsn.root);
  attack.startAt = seconds(30);
  attack.interval = milliseconds(700);
  attack.rounds = 12;
  attack.truth = &cap.truth;
  world.setBehavior(attacker, std::make_unique<attacks::SybilAttacker>(attack));

  record(world, {wsn.ids}, {net::Medium::kIeee802154}, seconds(90), cap,
         faults, evasion);
  return cap;
}

Capture captureSinkhole(std::uint64_t seed, const chaos::FaultPlan* faults,
                        const attacks::evasion::EvasionPlan* evasion) {
  Capture cap;
  cap.scenario = "Sinkhole";
  sim::Simulator simulator(seed);
  sim::World world(simulator);
  Wsn wsn = buildWsn(world, 5, seconds(3));

  // Positioned inside the IDS's hearing range but outside the motes':
  // the luring beacons are observed without actually rewiring the tree, so
  // the scenario isolates route-advertisement detection.
  const NodeId attacker =
      world.addNode("attacker", sim::NodeRole::kGeneric, {39, 24});
  world.enableRadio(attacker, net::Medium::kIeee802154, moteRadio());
  attacks::SinkholeAttacker::Config attack;
  attack.startAt = seconds(15);
  attack.beaconInterval = seconds(2);
  attack.beaconCount = 50;
  attack.truth = &cap.truth;
  world.setBehavior(attacker,
                    std::make_unique<attacks::SinkholeAttacker>(attack));

  record(world, {wsn.ids}, {net::Medium::kIeee802154}, seconds(130), cap,
         faults, evasion);
  return cap;
}

Capture captureReplication(std::uint64_t seed, const chaos::FaultPlan* faults,
                           const attacks::evasion::EvasionPlan* evasion) {
  Capture cap;
  cap.scenario = "Replication";
  // "The traditional IDS randomly selects one of the two modules for each
  // of our experiment runs" (§VI-B2).
  Rng pick(seed * 2654435761u + 17);
  cap.traditionalExcludes = {pick.nextBool(0.5) ? "ReplicationMobileModule"
                                                : "ReplicationStaticModule"};
  sim::Simulator simulator(seed);
  sim::World world(simulator);
  ZigbeeStar star = buildZigbeeStar(world, 4, seconds(2));

  // Phase schedule: static for the first 60 s, mobile afterwards.
  const SimTime mobileAt = seconds(60);
  Rng scenarioRng(seed ^ 0x5eed);
  for (NodeId sub : star.subs) {
    sim::RandomWaypoint::Params params;
    params.areaMin = {5, 5};
    params.areaMax = {27, 27};
    params.minSpeedMps = 0.8;
    params.maxSpeedMps = 1.5;
    const sim::Vec2 start = world.positionOf(sub);
    world.setMobility(sub, std::make_unique<sim::RandomWaypoint>(
                               start, params, scenarioRng.fork(), mobileAt));
  }

  // Three replicas: one strikes in the static phase, two in the mobile one.
  struct ReplicaPlan {
    std::size_t cloneOf;
    SimTime startAt;
    sim::Vec2 pos;
    Duration interval;
    Duration phase;
  };
  const ReplicaPlan plans[3] = {
      {0, seconds(25), {38, 15}, seconds(2) + milliseconds(500), 0},
      {1, seconds(78), {38, 24}, seconds(2), milliseconds(300)},
      {2, seconds(95), {36, 5}, seconds(2), milliseconds(400)},
  };
  for (const ReplicaPlan& plan : plans) {
    const NodeId replica = world.addNode(
        "replica" + std::to_string(plan.cloneOf), sim::NodeRole::kGeneric,
        plan.pos);
    world.enableRadio(replica, net::Medium::kIeee802154, moteRadio());
    world.setMac16(replica, world.mac16Of(star.subs[plan.cloneOf]));
    attacks::ReplicaDevice::Config config;
    config.clonedId = world.mac16Of(star.subs[plan.cloneOf]);
    config.reportTo = world.mac16Of(star.coordinator);
    config.startAt = plan.startAt;
    config.interval = plan.interval;
    config.phaseOffset = plan.phase;
    config.packetCount = 10;
    config.truth = &cap.truth;
    world.setBehavior(replica,
                      std::make_unique<attacks::ReplicaDevice>(config));
  }

  record(world, {star.ids}, {net::Medium::kIeee802154}, seconds(125), cap,
         faults, evasion);
  return cap;
}

}  // namespace kalis::scenarios
