// The paper's Fig. 1 home-automation scenario, full stack:
// a WiFi home (router + cloud + thermostat/bulb/camera/dash button), a BLE
// smart lock, AND a ZigBee-style hub-to-subs lighting system — three media
// monitored by one Kalis box simultaneously. A replication attack against a
// light bulb's ZigBee identity plays out mid-run.
//
//   ./home_automation [seed]
#include <cstdio>
#include <memory>
#include <optional>

#include "attacks/wpan_attacks.hpp"
#include "kalis/kalis_node.hpp"
#include "kalis/taxonomy.hpp"
#include "metrics/evaluation.hpp"
#include "scenarios/environments.hpp"
#include "util/strings.hpp"

using namespace kalis;

int main(int argc, char** argv) {
  const std::optional<long long> seedArg = argc > 1 ? parseInt(argv[1]) : 7;
  if (argc > 2 || !seedArg || *seedArg < 0) {
    std::fprintf(stderr,
                 "home_automation: bad argument '%s' (expected one seed, "
                 "an integer >= 0)\nusage: home_automation [seed]\n",
                 argv[argc - 1]);
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(*seedArg);
  sim::Simulator simulator(seed);
  sim::World world(simulator);

  // WiFi + BLE home (Fig. 1's Internet-connected half).
  sim::InternetCloud cloud;
  scenarios::HomeWifi home = scenarios::buildHomeWifi(world, cloud, seed);

  // The smart-lighting system: ZigBee hub + light bulbs ("hub-to-subs").
  scenarios::ZigbeeStar lighting = scenarios::buildZigbeeStar(world, 3, seconds(2));

  // A replica cloning bulb #1's ZigBee identity, transmitting from outside.
  metrics::GroundTruth truth;
  const NodeId replica =
      world.addNode("evil-twin", sim::NodeRole::kGeneric, {40, 15});
  world.enableRadio(replica, net::Medium::kIeee802154, scenarios::moteRadio());
  world.setMac16(replica, world.mac16Of(lighting.subs[0]));
  attacks::ReplicaDevice::Config attack;
  attack.clonedId = world.mac16Of(lighting.subs[0]);
  attack.reportTo = world.mac16Of(lighting.coordinator);
  attack.startAt = seconds(30);
  attack.interval = seconds(2) + milliseconds(500);
  attack.packetCount = 12;
  attack.truth = &truth;
  world.setBehavior(replica, std::make_unique<attacks::ReplicaDevice>(attack));

  // One Kalis box, three radios (high-gain 802.15.4 capture to cover the
  // whole lighting deployment plus the out-of-range replica).
  world.enableRadio(home.ids, net::Medium::kIeee802154,
                    scenarios::idsWideRadio());
  ids::KalisNode kalisBox(simulator);
  kalisBox.useStandardLibrary();
  kalisBox.attach(world, home.ids,
                  {net::Medium::kWifi, net::Medium::kBluetooth,
                   net::Medium::kIeee802154});
  kalisBox.setAlertSink([](const ids::Alert& alert) {
    std::printf("ALERT  %s\n", ids::toString(alert).c_str());
  });

  world.start();
  kalisBox.start();
  simulator.runUntil(seconds(90));

  std::printf("\n--- What one Kalis box learned across three media ---\n");
  for (const ids::Knowgget& k : kalisBox.kb().all()) {
    if (startsWith(k.label, "TrafficFrequency") ||
        k.label == "SignalStrength") {
      continue;
    }
    std::printf("  %-40s = %s\n",
                ids::encodeKey(k.creator, k.label, k.entity).c_str(),
                k.value.c_str());
  }

  std::printf("\n--- Features established (Fig. 3 vocabulary) ---\n");
  for (const auto feature : ids::taxonomy::featuresFrom(kalisBox.kb())) {
    std::printf("  %s — rules out:", ids::taxonomy::featureName(feature));
    const auto ruledOut = ids::taxonomy::ruledOutBy(feature);
    if (ruledOut.empty()) std::printf(" (nothing)");
    for (const auto attack_ : ruledOut) {
      std::printf(" %s", ids::attackName(attack_));
    }
    std::printf("\n");
  }

  const auto eval = metrics::evaluate(truth, kalisBox.alerts());
  std::printf("\nReplication attack detection rate: %.0f%%\n",
              eval.detectionRate() * 100.0);
  return eval.detectionRate() > 0.99 ? 0 : 1;
}
