// §VI-D live: two Kalis nodes, two network portions, one wormhole.
// Shows the collective-knowledge exchange (knowgget sync) and the moment
// the blackhole diagnosis upgrades to a wormhole.
//
//   ./collaborative_wormhole [seed] [--solo]   (--solo disables peering)
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>

#include "attacks/forwarding_attacks.hpp"
#include "kalis/kalis_node.hpp"
#include "scenarios/environments.hpp"
#include "util/strings.hpp"

using namespace kalis;

int main(int argc, char** argv) {
  std::uint64_t seed = 5;
  bool collaborative = true;
  for (int i = 1; i < argc; ++i) {
    const std::optional<long long> n = parseInt(argv[i]);
    if (std::strcmp(argv[i], "--solo") == 0) {
      collaborative = false;
    } else if (n && *n >= 0) {
      seed = static_cast<std::uint64_t>(*n);
    } else {
      std::fprintf(stderr,
                   "collaborative_wormhole: bad argument '%s' (expected a "
                   "seed, an integer >= 0, or --solo)\n"
                   "usage: collaborative_wormhole [seed] [--solo]\n",
                   argv[i]);
      return 2;
    }
  }

  sim::Simulator simulator(seed);
  sim::World world(simulator);
  scenarios::ZigbeeWormholeChain chain =
      scenarios::buildZigbeeWormholeChain(world, milliseconds(1500));

  metrics::GroundTruth truth;
  attacks::WormholeRelayPolicy::Config policyConfig;
  policyConfig.world = &world;
  policyConfig.peer = chain.b2;
  policyConfig.truth = &truth;
  chain.b1Agent->setRelayPolicy(
      std::make_shared<attacks::WormholeRelayPolicy>(policyConfig));

  for (NodeId ids : {chain.ids1, chain.ids2}) {
    world.enableRadio(ids, net::Medium::kIeee802154, scenarios::moteRadio());
  }
  ids::KalisNode k1(simulator, {.id = "K1", .dataStore = {},
                                .tickInterval = seconds(1),
                                .peerSyncLatency = milliseconds(10)});
  ids::KalisNode k2(simulator, {.id = "K2", .dataStore = {},
                                .tickInterval = seconds(1),
                                .peerSyncLatency = milliseconds(10)});
  k1.useStandardLibrary();
  k2.useStandardLibrary();
  k1.attach(world, chain.ids1, {net::Medium::kIeee802154});
  k2.attach(world, chain.ids2, {net::Medium::kIeee802154});
  if (collaborative) {
    ids::KalisNode::discoverPeers(k1, k2);
    std::printf("Peer discovery complete: K1 <-> K2 exchanging collective "
                "knowggets\n\n");
  } else {
    std::printf("Running solo (no collective knowledge)\n\n");
  }

  k1.setAlertSink([](const ids::Alert& alert) {
    std::printf("K1 ALERT  %s\n", ids::toString(alert).c_str());
  });
  k2.setAlertSink([](const ids::Alert& alert) {
    std::printf("K2 ALERT  %s\n", ids::toString(alert).c_str());
  });

  world.start();
  k1.start();
  k2.start();
  simulator.runUntil(seconds(120));

  std::printf("\nCollective knowggets: K1 sent %llu, K2 sent %llu\n",
              static_cast<unsigned long long>(k1.collectiveSent()),
              static_cast<unsigned long long>(k2.collectiveSent()));

  bool wormholeFound = false;
  for (const auto* node : {&k1, &k2}) {
    for (const ids::Alert& alert : node->alerts()) {
      if (alert.type == ids::AttackType::kWormhole) wormholeFound = true;
    }
  }
  std::printf("Wormhole classified: %s\n", wormholeFound ? "YES" : "no");
  if (!collaborative) {
    std::printf("(each node alone only sees its half: a blackhole at B1, "
                "unexplained traffic at B2)\n");
    return wormholeFound ? 1 : 0;  // solo run *should not* find it
  }
  return wormholeFound ? 0 : 1;
}
