// End-to-end integration tests: the paper's experiments as assertions.
// These are the contract the benches print; if these hold, the reproduced
// tables/figures keep their shape.
#include <gtest/gtest.h>

#include "chaos/fault_plan.hpp"
#include "scenarios/scenarios.hpp"

namespace kalis::scenarios {
namespace {

TEST(IcmpFloodScenario, KalisPerfectDetectionAndClassification) {
  const ScenarioResult result =
      evaluate(SystemKind::kKalis, captureIcmpFlood(42));
  EXPECT_DOUBLE_EQ(result.detectionRate(), 1.0);
  EXPECT_DOUBLE_EQ(result.accuracy(), 1.0);
  // Countermeasure: only the attacker is revoked.
  EXPECT_EQ(result.counter.revokedAttackers.size(), 1u);
  EXPECT_TRUE(result.counter.revokedInnocents.empty());
}

TEST(IcmpFloodScenario, TraditionalIdsMisclassifiesAndHitsVictim) {
  const ScenarioResult result =
      evaluate(SystemKind::kTraditionalIds, captureIcmpFlood(42));
  EXPECT_DOUBLE_EQ(result.detectionRate(), 1.0);  // symptoms noticed...
  EXPECT_LT(result.accuracy(), 0.75);             // ...but half the alerts wrong
  // §VI-B1's countermeasure disaster: the victim gets revoked.
  EXPECT_FALSE(result.counter.revokedInnocents.empty());
}

TEST(IcmpFloodScenario, SnortDetectsButCannotDisambiguate) {
  const ScenarioResult result =
      evaluate(SystemKind::kSnort, captureIcmpFlood(42));
  EXPECT_GT(result.detectionRate(), 0.9);
  EXPECT_LT(result.accuracy(), 0.75);
}

TEST(IcmpFloodScenario, ResourceOrdering) {
  const Capture capture = captureIcmpFlood(42);
  const auto kalis = evaluate(SystemKind::kKalis, capture);
  const auto trad = evaluate(SystemKind::kTraditionalIds, capture);
  const auto snort = evaluate(SystemKind::kSnort, capture);
  // Table II orderings: Kalis < Trad << Snort on both resources.
  EXPECT_LT(kalis.cpuPercent, trad.cpuPercent);
  EXPECT_LT(trad.cpuPercent, snort.cpuPercent);
  EXPECT_LT(kalis.ramMb, trad.ramMb);
  EXPECT_LT(trad.ramMb, snort.ramMb);
}

TEST(SmurfScenario, KalisNamesTheRealSpoofer) {
  const ScenarioResult result = evaluate(SystemKind::kKalis, captureSmurf(7));
  EXPECT_GT(result.detectionRate(), 0.9);
  EXPECT_DOUBLE_EQ(result.accuracy(), 1.0);
  EXPECT_GE(result.counter.revokedAttackers.size(), 1u);
}

TEST(SmurfScenario, SnortCannotSee802154) {
  const ScenarioResult result = evaluate(SystemKind::kSnort, captureSmurf(7));
  EXPECT_TRUE(result.notApplicable);
}

TEST(SynFloodScenario, BothEnginesDetect) {
  const Capture capture = captureSynFlood(7);
  EXPECT_GT(evaluate(SystemKind::kKalis, capture).detectionRate(), 0.95);
  EXPECT_GT(evaluate(SystemKind::kSnort, capture).detectionRate(), 0.9);
}

TEST(ForwardingScenarios, KalisSeparatesSelectiveFromBlackhole) {
  const auto selective =
      evaluate(SystemKind::kKalis, captureSelectiveForwarding(7));
  EXPECT_GT(selective.detectionRate(), 0.9);
  EXPECT_DOUBLE_EQ(selective.accuracy(), 1.0);
  for (const auto& alert : selective.alerts) {
    EXPECT_EQ(alert.type, ids::AttackType::kSelectiveForwarding);
  }
  const auto blackhole = evaluate(SystemKind::kKalis, captureBlackhole(7));
  EXPECT_GT(blackhole.detectionRate(), 0.9);
  for (const auto& alert : blackhole.alerts) {
    EXPECT_EQ(alert.type, ids::AttackType::kBlackhole);
  }
}

TEST(ForwardingScenarios, TraditionalIdsFlagsTheBaseStation) {
  // Without the CtpRoot knowgget, the all-modules baseline cannot know the
  // root never forwards, and marks it a blackhole — the knowledge-less
  // false positive.
  const Capture capture = captureSelectiveForwarding(7);
  const auto result = evaluate(SystemKind::kTraditionalIds, capture);
  bool rootAccused = false;
  for (const auto& alert : result.alerts) {
    for (const auto& suspect : alert.suspectEntities) {
      if (suspect == "0x0001") rootAccused = true;
    }
  }
  EXPECT_TRUE(rootAccused);
  EXPECT_LT(result.accuracy(),
            evaluate(SystemKind::kKalis, capture).accuracy());
}

TEST(ReplicationScenario, KalisBeatsStaticModuleChoice) {
  double kalisDr = 0;
  double tradDr = 0;
  constexpr int kRuns = 6;
  for (int run = 0; run < kRuns; ++run) {
    const Capture capture = captureReplication(1000 + run);
    kalisDr += evaluate(SystemKind::kKalis, capture).detectionRate();
    tradDr += evaluate(SystemKind::kTraditionalIds, capture).detectionRate();
  }
  EXPECT_GT(kalisDr / kRuns, 0.75);
  EXPECT_LT(tradDr / kRuns, kalisDr / kRuns);
}

TEST(ReplicationScenario, SnortNotApplicable) {
  EXPECT_TRUE(
      evaluate(SystemKind::kSnort, captureReplication(1000)).notApplicable);
}

TEST(SybilScenario, KnowledgeSelectsRightTechnique) {
  const Capture capture = captureSybil(100);  // even seed
  const auto kalis = evaluate(SystemKind::kKalis, capture);
  EXPECT_DOUBLE_EQ(kalis.detectionRate(), 1.0);
  // Trad with the wrong (single-hop) module library entry: nothing.
  const auto tradWrong = evaluate(SystemKind::kTraditionalIds, capture);
  EXPECT_LT(tradWrong.detectionRate(), kalis.detectionRate());
}

TEST(SinkholeScenario, OnlyKnowledgeOfTheRootExposesIt) {
  const Capture capture = captureSinkhole(100);
  const auto kalis = evaluate(SystemKind::kKalis, capture);
  EXPECT_GT(kalis.detectionRate(), 0.8);
  const auto trad = evaluate(SystemKind::kTraditionalIds, capture);
  EXPECT_DOUBLE_EQ(trad.detectionRate(), 0.0);
}

TEST(WormholeScenario, CollaborationUpgradesBlackholeToWormhole) {
  const auto with = runWormhole(7000, /*collaborative=*/true);
  EXPECT_TRUE(with.wormholeClassified);
  EXPECT_GT(with.collectiveExchanged, 0u);

  const auto without = runWormhole(7000, /*collaborative=*/false);
  EXPECT_FALSE(without.wormholeClassified);
  EXPECT_TRUE(without.blackholeOnly);
  EXPECT_EQ(without.collectiveExchanged, 0u);
}

TEST(ReactivityScenario, ColdStartStillCatchesEverything) {
  const auto result = runReactivity(500);
  EXPECT_EQ(result.detectionModulesActiveAtStart, 0u);
  EXPECT_TRUE(result.selectiveForwardingActivated);
  EXPECT_LT(result.activationTime, seconds(10));
  EXPECT_DOUBLE_EQ(result.detectionRate, 1.0);
}

TEST(LiveCountermeasure, KalisHealsTheNetworkTradCollapsesIt) {
  const auto live = runLiveCountermeasure(1);
  // Unmitigated: the honest relay still delivers, the leaf does not.
  EXPECT_NEAR(live.deliveryNoResponse, 0.5, 0.1);
  // Kalis revokes only the attacker; the tree heals through the honest
  // relay and full delivery resumes.
  EXPECT_GT(live.deliveryKalis, 0.9);
  ASSERT_EQ(live.kalisRevoked.size(), 1u);
  EXPECT_EQ(live.kalisRevoked[0], "0x0002");
  // The traditional baseline also revokes the base station: total collapse.
  EXPECT_LT(live.deliveryTraditional, 0.05);
  const bool rootRevoked =
      std::find(live.tradRevoked.begin(), live.tradRevoked.end(), "0x0001") !=
      live.tradRevoked.end();
  EXPECT_TRUE(rootRevoked);
}

TEST(Determinism, SameSeedSameResult) {
  const auto a = evaluate(SystemKind::kKalis, captureIcmpFlood(11));
  const auto b = evaluate(SystemKind::kKalis, captureIcmpFlood(11));
  EXPECT_EQ(a.alerts.size(), b.alerts.size());
  EXPECT_EQ(a.packetsSniffed, b.packetsSniffed);
  EXPECT_DOUBLE_EQ(a.cpuPercent, b.cpuPercent);
}

// --- scenarios under a nonzero fault plan (DESIGN.md §9) ---------------------
//
// Light but real link loss must degrade gracefully: the attacks are still
// detected and the alert stream stays correctly classified (no fault-induced
// false positives). Suites are Chaos* so CI's raised-iteration ASan+UBSan
// subset and its TSan subset, which select suites by name, replay them.

TEST(ChaosScenarioDos, IcmpFloodDetectedUnderLightLoss) {
  const auto plan = chaos::FaultPlan::parse("loss=0.05,burst=3");
  ASSERT_TRUE(plan.has_value());
  const ScenarioResult result =
      evaluate(SystemKind::kKalis, captureIcmpFlood(42, &*plan));
  // 5% burst loss thins some attack bursts below the detection threshold:
  // graceful degradation from the clean run's 1.0, never blindness.
  EXPECT_GT(result.detectionRate(), 0.8);
  // False positives bounded: every alert still matches a true instance.
  EXPECT_DOUBLE_EQ(result.accuracy(), 1.0);
  for (const auto& alert : result.alerts) {
    EXPECT_EQ(alert.type, ids::AttackType::kIcmpFlood);
  }
}

TEST(ChaosScenarioDos, SynFloodDetectedUnderLightLoss) {
  const auto plan = chaos::FaultPlan::parse("loss=0.05,burst=3");
  ASSERT_TRUE(plan.has_value());
  const ScenarioResult result =
      evaluate(SystemKind::kKalis, captureSynFlood(7, &*plan));
  EXPECT_GT(result.detectionRate(), 0.9);
  for (const auto& alert : result.alerts) {
    EXPECT_EQ(alert.type, ids::AttackType::kSynFlood);
  }
}

TEST(ChaosScenarioWpan, ForwardingAttacksDetectedUnderLoss) {
  const auto plan = chaos::FaultPlan::parse("loss=0.05,burst=2");
  ASSERT_TRUE(plan.has_value());
  const auto selective =
      evaluate(SystemKind::kKalis, captureSelectiveForwarding(7, &*plan));
  EXPECT_GT(selective.detectionRate(), 0.8);
  for (const auto& alert : selective.alerts) {
    // Loss may only push the verdict toward the *lossier* sibling class.
    EXPECT_TRUE(alert.type == ids::AttackType::kSelectiveForwarding ||
                alert.type == ids::AttackType::kBlackhole)
        << ids::attackName(alert.type);
  }
  const auto blackhole =
      evaluate(SystemKind::kKalis, captureBlackhole(7, &*plan));
  EXPECT_GT(blackhole.detectionRate(), 0.8);
  for (const auto& alert : blackhole.alerts) {
    // Lost sniffer observations can make a 100%-dropping relay look like a
    // selective forwarder — the same sibling-class blur, other direction.
    EXPECT_TRUE(alert.type == ids::AttackType::kBlackhole ||
                alert.type == ids::AttackType::kSelectiveForwarding)
        << ids::attackName(alert.type);
  }
}

TEST(ChaosScenarioSpecial, WormholeStillDetectedUnderLoss) {
  const auto plan = chaos::FaultPlan::parse("loss=0.03,burst=2");
  ASSERT_TRUE(plan.has_value());
  const auto result = runWormhole(7000, /*collaborative=*/true, &*plan);
  // The collective-knowledge upgrade must survive light loss: the relayed
  // command stream is redundant enough that both halves keep seeing it.
  EXPECT_FALSE(result.combined.alerts.empty());
  EXPECT_TRUE(result.wormholeClassified);
  EXPECT_GT(result.collectiveExchanged, 0u);
}

TEST(ChaosScenarioAll, LightPlanNeverZeroesDetection) {
  // The whole Fig. 8 roster under the light preset: chaos degrades, it must
  // not blind the IDS on any scenario.
  const auto plan = chaos::FaultPlan::parse("light");
  ASSERT_TRUE(plan.has_value());
  for (const std::string& name : scenarioNames()) {
    const ScenarioResult result =
        evaluate(SystemKind::kKalis, *capture(name, 100, &*plan));
    EXPECT_GT(result.detectionRate(), 0.5) << name;
  }
}

TEST(Fig8Shape, KalisNeverWorseThanTraditional) {
  for (const std::string& name : scenarioNames()) {
    const Capture fig8 = *capture(name, 100);
    const auto kalis = evaluate(SystemKind::kKalis, fig8);
    const auto trad = evaluate(SystemKind::kTraditionalIds, fig8);
    EXPECT_GE(kalis.detectionRate() + 1e-9, trad.detectionRate()) << name;
    EXPECT_GE(kalis.accuracy() + 1e-9, trad.accuracy()) << name;
  }
}

}  // namespace
}  // namespace kalis::scenarios
