#include "recorded_captures.hpp"

#include <memory>

#include "attacks/dos_attacks.hpp"
#include "scenarios/environments.hpp"

namespace kalis::recorded {

namespace {

/// Simulated span of the §VI-B1 flood scenarios.
constexpr Duration kFloodSpan = seconds(20 + 50 * 8 + 10);

}  // namespace

scenarios::Capture recordHomeFloods(std::uint64_t seed) {
  scenarios::Capture cap;
  sim::Simulator simulator(seed);
  sim::World world(simulator);
  sim::InternetCloud cloud;
  const scenarios::HomeWifi home = scenarios::buildHomeWifi(world, cloud, seed);

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
  icmpAttack.truth = &cap.truth;
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
  synAttack.truth = &cap.truth;
  world.setBehavior(syn, std::make_unique<attacks::SynFloodAttacker>(synAttack));

  scenarios::record(world, {home.ids},
                    {net::Medium::kWifi, net::Medium::kBluetooth}, kFloodSpan,
                    cap);
  cap.end = kFloodSpan + seconds(10);
  return cap;
}

scenarios::Capture recordZigbeeStar(std::uint64_t seed) {
  scenarios::Capture cap;
  sim::Simulator simulator(seed);
  sim::World world(simulator);
  scenarios::ZigbeeStar star = scenarios::buildZigbeeStar(world, 4, seconds(2));
  scenarios::record(world, {star.ids}, {net::Medium::kIeee802154},
                    seconds(60), cap);
  return cap;
}

scenarios::Capture recordShortIcmpFlood(std::uint64_t seed) {
  scenarios::Capture cap;
  sim::Simulator simulator(seed);
  sim::World world(simulator);
  sim::InternetCloud cloud;
  scenarios::HomeWifi home = scenarios::buildHomeWifi(world, cloud, seed);

  const NodeId attacker =
      world.addNode("attacker", sim::NodeRole::kGeneric, {18, 16});
  world.enableRadio(attacker, net::Medium::kWifi);
  attacks::IcmpFloodAttacker::Config attack;
  attack.victimIp = world.ipv4Of(home.thermostat);
  attack.victimMac = world.mac48Of(home.thermostat);
  attack.bssid = world.mac48Of(home.router);
  attack.firstBurstAt = seconds(8);
  attack.burstCount = 2;
  attack.truth = &cap.truth;
  world.setBehavior(attacker,
                    std::make_unique<attacks::IcmpFloodAttacker>(attack));

  scenarios::record(world, {home.ids}, {net::Medium::kWifi}, seconds(25),
                    cap);
  return cap;
}

}  // namespace kalis::recorded
