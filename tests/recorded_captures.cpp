#include "recorded_captures.hpp"

#include <memory>

#include "attacks/dos_attacks.hpp"
#include "attacks/forwarding_attacks.hpp"
#include "attacks/sixlowpan_attacks.hpp"
#include "metrics/ground_truth.hpp"
#include "scenarios/environments.hpp"

namespace kalis::recorded {

namespace {

/// Simulated span of the §VI-B1 flood scenarios.
constexpr Duration kFloodSpan = seconds(20 + 50 * 8 + 10);

/// Sniffs what the IDS node's radios hear, as KalisNode::attach would, and
/// appends it to `into`.
void record(sim::World& world, NodeId ids,
            std::initializer_list<net::Medium> media, Recording& into) {
  for (net::Medium medium : media) {
    world.enableRadio(ids, medium);
    world.addSniffer(ids, medium,
                     [&into](const net::CapturedPacket& pkt,
                             const net::Dissection&) {
                       into.packets.push_back(pkt);
                     });
  }
}

}  // namespace

Recording recordHomeFloods(std::uint64_t seed) {
  Recording rec;
  sim::Simulator simulator(seed);
  sim::World world(simulator);
  sim::InternetCloud cloud;
  const scenarios::HomeWifi home = scenarios::buildHomeWifi(world, cloud, seed);
  metrics::GroundTruth truth;

  const NodeId icmp =
      world.addNode("icmp-attacker", sim::NodeRole::kGeneric, {18, 16});
  world.enableRadio(icmp, net::Medium::kWifi);
  attacks::IcmpFloodAttacker::Config icmpAttack;
  icmpAttack.victimIp = world.ipv4Of(home.thermostat);
  icmpAttack.victimMac = world.mac48Of(home.thermostat);
  icmpAttack.bssid = world.mac48Of(home.router);
  icmpAttack.firstBurstAt = seconds(20);
  icmpAttack.burstInterval = seconds(8);
  icmpAttack.burstCount = 50;
  icmpAttack.truth = &truth;
  world.setBehavior(icmp,
                    std::make_unique<attacks::IcmpFloodAttacker>(icmpAttack));

  const NodeId syn =
      world.addNode("syn-attacker", sim::NodeRole::kGeneric, {19, 13});
  world.enableRadio(syn, net::Medium::kWifi);
  attacks::SynFloodAttacker::Config synAttack;
  synAttack.victimIp = world.ipv4Of(home.camera);
  synAttack.victimMac = world.mac48Of(home.camera);
  synAttack.bssid = world.mac48Of(home.router);
  synAttack.victimPort = 554;
  synAttack.firstBurstAt = seconds(24);
  synAttack.burstInterval = seconds(8);
  synAttack.burstCount = 50;
  synAttack.truth = &truth;
  world.setBehavior(syn, std::make_unique<attacks::SynFloodAttacker>(synAttack));

  record(world, home.ids, {net::Medium::kWifi, net::Medium::kBluetooth}, rec);
  world.start();
  simulator.runUntil(kFloodSpan);
  rec.end = kFloodSpan + seconds(10);
  return rec;
}

Recording recordWsnBlackhole(std::uint64_t seed) {
  Recording rec;
  sim::Simulator simulator(seed);
  sim::World world(simulator);
  scenarios::Wsn wsn = scenarios::buildWsn(world, 5, seconds(3));
  metrics::GroundTruth truth;
  wsn.moteAgents[1]->setForwardPolicy(
      std::make_shared<attacks::SelectiveForwardPolicy>(
          1.0, ids::AttackType::kBlackhole, &truth, 50));
  record(world, wsn.ids, {net::Medium::kIeee802154}, rec);
  world.start();
  rec.end = seconds(160);
  simulator.runUntil(rec.end);
  return rec;
}

Recording recordSixlowpanSmurf(std::uint64_t seed) {
  Recording rec;
  sim::Simulator simulator(seed);
  sim::World world(simulator);
  scenarios::SixlowpanTree tree =
      scenarios::buildSixlowpanTree(world, seconds(3));
  metrics::GroundTruth truth;
  const NodeId attacker =
      world.addNode("attacker", sim::NodeRole::kGeneric, {27, 5});
  world.enableRadio(attacker, net::Medium::kIeee802154, scenarios::moteRadio());
  attacks::SmurfAttacker6lw::Config attack;
  attack.victim = world.mac16Of(tree.leaves[0]);
  attack.neighbors = {world.mac16Of(tree.routers[0]),
                      world.mac16Of(tree.leaves[1]),
                      world.mac16Of(tree.leaves[2])};
  attack.requestsPerNeighbor = 12;
  attack.firstBurstAt = seconds(20);
  attack.burstInterval = seconds(8);
  attack.burstCount = 50;
  attack.truth = &truth;
  world.setBehavior(attacker,
                    std::make_unique<attacks::SmurfAttacker6lw>(attack));
  record(world, tree.ids, {net::Medium::kIeee802154}, rec);
  world.start();
  rec.end = kFloodSpan;
  simulator.runUntil(rec.end);
  return rec;
}

Recording recordZigbeeStar(std::uint64_t seed) {
  Recording rec;
  sim::Simulator simulator(seed);
  sim::World world(simulator);
  scenarios::ZigbeeStar star = scenarios::buildZigbeeStar(world, 4, seconds(2));
  record(world, star.ids, {net::Medium::kIeee802154}, rec);
  world.start();
  rec.end = seconds(60);
  simulator.runUntil(rec.end);
  return rec;
}

}  // namespace kalis::recorded
