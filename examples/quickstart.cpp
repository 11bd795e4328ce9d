// Quickstart: the paper's working example (Fig. 2) end to end.
//
// Builds a single-hop WiFi smart home, attaches a Kalis box sniffing
// promiscuously, and launches an ICMP flood against the thermostat. Kalis
// autonomously discovers that the network is single-hop, rules Smurf out,
// activates the ICMP-flood module, and names the one real attacker.
//
//   ./quickstart [seed]
#include <cstdio>
#include <memory>
#include <optional>

#include "attacks/dos_attacks.hpp"
#include "kalis/kalis_node.hpp"
#include "metrics/evaluation.hpp"
#include "scenarios/environments.hpp"
#include "util/strings.hpp"

using namespace kalis;

int main(int argc, char** argv) {
  const std::optional<long long> seedArg = argc > 1 ? parseInt(argv[1]) : 42;
  if (argc > 2 || !seedArg || *seedArg < 0) {
    std::fprintf(stderr,
                 "quickstart: bad argument '%s' (expected one seed, "
                 "an integer >= 0)\nusage: quickstart [seed]\n",
                 argv[argc - 1]);
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(*seedArg);

  // 1. A simulated home: router, thermostat, bulb, camera, dash button,
  //    BLE lock, and a cloud service behind the router.
  sim::Simulator simulator(seed);
  sim::World world(simulator);
  sim::InternetCloud cloud;
  scenarios::HomeWifi home = scenarios::buildHomeWifi(world, cloud, seed);

  // 2. The attacker: ICMP echo-reply bursts at the thermostat, under a
  //    dozen forged identities.
  metrics::GroundTruth truth;
  const NodeId attackerNode =
      world.addNode("attacker", sim::NodeRole::kGeneric, {18, 16});
  world.enableRadio(attackerNode, net::Medium::kWifi);
  attacks::IcmpFloodAttacker::Config attack;
  attack.victimIp = world.ipv4Of(home.thermostat);
  attack.victimMac = world.mac48Of(home.thermostat);
  attack.bssid = world.mac48Of(home.router);
  attack.firstBurstAt = seconds(20);
  attack.burstCount = 4;
  attack.truth = &truth;
  world.setBehavior(attackerNode,
                    std::make_unique<attacks::IcmpFloodAttacker>(attack));

  // 3. Kalis: full module library, zero configuration.
  ids::KalisNode kalisBox(simulator);
  kalisBox.useStandardLibrary();
  kalisBox.attach(world, home.ids, {net::Medium::kWifi, net::Medium::kBluetooth});
  kalisBox.setAlertSink([](const ids::Alert& alert) {
    std::printf("ALERT  %s\n", ids::toString(alert).c_str());
  });

  world.start();
  kalisBox.start();
  simulator.runUntil(seconds(70));

  // 4. What Kalis learned on its own.
  std::printf("\n--- Knowledge Base after %gs ---\n", toSeconds(simulator.now()));
  for (const ids::Knowgget& k : kalisBox.kb().all()) {
    if (startsWith(k.label, "TrafficFrequency") || k.label == "SignalStrength") {
      continue;  // noisy; elided for the demo
    }
    std::printf("  %s = %s\n",
                ids::encodeKey(k.creator, k.label, k.entity).c_str(),
                k.value.c_str());
  }

  std::printf("\n--- Active modules ---\n");
  for (const std::string& name : kalisBox.modules().activeModuleNames()) {
    std::printf("  %s\n", name.c_str());
  }
  std::printf("\nSmurfModule active? %s  (single-hop network: ruled out)\n",
              kalisBox.modules().isActive("SmurfModule") ? "yes" : "no");

  const auto eval = metrics::evaluate(truth, kalisBox.alerts());
  std::printf("\nDetection rate: %.0f%%   Classification accuracy: %.0f%%\n",
              eval.detectionRate() * 100.0,
              eval.classificationAccuracy() * 100.0);
  return eval.detectionRate() == 1.0 ? 0 : 1;
}
