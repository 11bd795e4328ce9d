// §VI-B1 and the WiFi/6LoWPAN DoS scenarios of Fig. 8.
#include <memory>

#include "attacks/dos_attacks.hpp"
#include "attacks/sixlowpan_attacks.hpp"
#include "scenarios/environments.hpp"
#include "scenarios/scenarios.hpp"

namespace kalis::scenarios {

Capture captureIcmpFlood(std::uint64_t seed, const chaos::FaultPlan* faults,
                         const attacks::evasion::EvasionPlan* evasion) {
  Capture cap;
  cap.scenario = "ICMP Flood";
  sim::Simulator simulator(seed);
  sim::World world(simulator);
  sim::InternetCloud cloud;
  HomeWifi home = buildHomeWifi(world, cloud, seed);

  const NodeId attacker =
      world.addNode("attacker", sim::NodeRole::kGeneric, {18, 16});
  world.enableRadio(attacker, net::Medium::kWifi);
  attacks::IcmpFloodAttacker::Config attack;
  attack.victimIp = world.ipv4Of(home.thermostat);
  attack.victimMac = world.mac48Of(home.thermostat);
  attack.bssid = world.mac48Of(home.router);
  attack.firstBurstAt = seconds(20);
  attack.burstInterval = seconds(8);
  attack.burstCount = 50;  // paper: 50 symptom instances
  attack.truth = &cap.truth;
  world.setBehavior(attacker,
                    std::make_unique<attacks::IcmpFloodAttacker>(attack));

  record(world, {home.ids}, {net::Medium::kWifi, net::Medium::kBluetooth},
         seconds(20 + 50 * 8 + 10), cap, faults, evasion);
  return cap;
}

Capture captureSmurf(std::uint64_t seed, const chaos::FaultPlan* faults,
                     const attacks::evasion::EvasionPlan* evasion) {
  Capture cap;
  cap.scenario = "Smurf";
  sim::Simulator simulator(seed);
  sim::World world(simulator);
  SixlowpanTree tree = buildSixlowpanTree(world, seconds(3));

  // Attacker sits in the leaves' portion, forging requests in the name of
  // leaf 1 toward its neighbors (router 1 and the adjacent leaves).
  const NodeId attacker =
      world.addNode("attacker", sim::NodeRole::kGeneric, {27, 5});
  world.enableRadio(attacker, net::Medium::kIeee802154, moteRadio());
  attacks::SmurfAttacker6lw::Config attack;
  attack.victim = world.mac16Of(tree.leaves[0]);
  attack.neighbors = {world.mac16Of(tree.routers[0]),
                      world.mac16Of(tree.leaves[1]),
                      world.mac16Of(tree.leaves[2])};
  attack.requestsPerNeighbor = 12;
  attack.firstBurstAt = seconds(20);
  attack.burstInterval = seconds(8);
  attack.burstCount = 50;
  attack.truth = &cap.truth;
  world.setBehavior(attacker,
                    std::make_unique<attacks::SmurfAttacker6lw>(attack));

  record(world, {tree.ids}, {net::Medium::kIeee802154},
         seconds(20 + 50 * 8 + 10), cap, faults, evasion);
  return cap;
}

Capture captureSynFlood(std::uint64_t seed, const chaos::FaultPlan* faults,
                        const attacks::evasion::EvasionPlan* evasion) {
  Capture cap;
  cap.scenario = "SYN Flood";
  sim::Simulator simulator(seed);
  sim::World world(simulator);
  sim::InternetCloud cloud;
  HomeWifi home = buildHomeWifi(world, cloud, seed);

  const NodeId attacker =
      world.addNode("attacker", sim::NodeRole::kGeneric, {19, 13});
  world.enableRadio(attacker, net::Medium::kWifi);
  attacks::SynFloodAttacker::Config attack;
  attack.victimIp = world.ipv4Of(home.camera);
  attack.victimMac = world.mac48Of(home.camera);
  attack.bssid = world.mac48Of(home.router);
  attack.victimPort = 554;
  attack.firstBurstAt = seconds(20);
  attack.burstInterval = seconds(8);
  attack.burstCount = 50;
  attack.truth = &cap.truth;
  world.setBehavior(attacker,
                    std::make_unique<attacks::SynFloodAttacker>(attack));

  record(world, {home.ids}, {net::Medium::kWifi}, seconds(20 + 50 * 8 + 10),
         cap, faults, evasion);
  return cap;
}

}  // namespace kalis::scenarios
