// The paper's §VIII vision, end to end: "selecting a specific module
// configuration — based on the knowledge collected by Kalis in a network —
// and deploy[ing] that configuration at compile-time on very small devices".
//
// Phase 1: a full Kalis box learns the network's features from live traffic.
// Phase 2: the profile generator computes the minimal module set + frozen
//          knowledge and emits the Fig. 6 config + a build manifest.
// Phase 3: a "constrained" node boots from that frozen profile alone (no
//          sensing, no learning) and still catches the attack.
//
//   ./constrained_profile [seed]
#include <cstdio>
#include <memory>
#include <optional>

#include "attacks/forwarding_attacks.hpp"
#include "kalis/kalis_node.hpp"
#include "kalis/profile.hpp"
#include "metrics/evaluation.hpp"
#include "scenarios/environments.hpp"
#include "util/strings.hpp"

using namespace kalis;

int main(int argc, char** argv) {
  const std::optional<long long> seedArg = argc > 1 ? parseInt(argv[1]) : 9;
  if (argc > 2 || !seedArg || *seedArg < 0) {
    std::fprintf(stderr,
                 "constrained_profile: bad argument '%s' (expected one seed, "
                 "an integer >= 0)\nusage: constrained_profile [seed]\n",
                 argv[argc - 1]);
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(*seedArg);

  // --- Phase 1: learn ---------------------------------------------------------
  sim::Simulator learnSim(seed);
  sim::World learnWorld(learnSim);
  scenarios::Wsn wsn = scenarios::buildWsn(learnWorld, 5, seconds(3));
  ids::KalisNode learner(learnSim);
  learner.useStandardLibrary();
  learner.attach(learnWorld, wsn.ids, {net::Medium::kIeee802154});
  learnWorld.start();
  learner.start();
  learnSim.runUntil(seconds(40));

  std::printf("--- Phase 1: learned features ---\n");
  for (const ids::Knowgget& k : learner.kb().all()) {
    if (startsWith(k.label, "Multihop") || startsWith(k.label, "Protocols") ||
        k.label == "Mobility" || k.label == "CtpRoot") {
      std::printf("  %s = %s\n", k.label.c_str(), k.value.c_str());
    }
  }

  // --- Phase 2: generate the deployment profile --------------------------------
  const auto profile =
      ids::generateProfile(learner.kb(), ids::ModuleRegistry::global());
  std::printf("\n--- Phase 2: deployment profile ---\n");
  std::printf("%s\n", ids::formatBuildManifest(profile).c_str());
  const std::string frozenConfig = ids::formatConfig(profile.config);
  std::printf("Frozen configuration (Fig. 6 syntax):\n%s\n",
              frozenConfig.c_str());

  // --- Phase 3: constrained deployment -----------------------------------------
  sim::Simulator deploySim(seed + 1);
  sim::World deployWorld(deploySim);
  scenarios::Wsn wsn2 = scenarios::buildWsn(deployWorld, 5, seconds(3));
  metrics::GroundTruth truth;
  wsn2.moteAgents[1]->setForwardPolicy(
      std::make_shared<attacks::SelectiveForwardPolicy>(
          0.5, ids::AttackType::kSelectiveForwarding, &truth, 50));

  ids::KalisNode constrained(deploySim);
  const auto parsed = ids::parseConfig(frozenConfig);
  if (!parsed.ok) {
    std::printf("generated config failed to parse: %s\n", parsed.error.c_str());
    return 1;
  }
  constrained.applyConfig(parsed.config);  // only the profiled modules
  constrained.attach(deployWorld, wsn2.ids, {net::Medium::kIeee802154});
  deployWorld.start();
  constrained.start();
  deploySim.runUntil(seconds(160));

  const auto eval = metrics::evaluate(truth, constrained.alerts());
  std::printf("--- Phase 3: constrained node ---\n");
  std::printf("  modules loaded: %zu (vs %zu in the full library)\n",
              constrained.modules().moduleCount(),
              ids::ModuleRegistry::global().size());
  std::printf("  selective-forwarding detection rate: %.0f%%\n",
              eval.detectionRate() * 100.0);
  return eval.detectionRate() > 0.95 ? 0 : 1;
}
