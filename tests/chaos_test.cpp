// kalis::chaos tests (DESIGN.md §9): FaultPlan parsing, the zero-plan
// transparency guarantee, deterministic fault replay, malformed-frame
// handling under corruption, exact drop accounting under injected ingestion
// stalls, exchange reconciliation under stalls, and the divergence taxonomy
// of the alert diff — unit-level and end-to-end on the trace_replay
// workload.
//
// Suites are named Chaos* so the ThreadSanitizer CI job
// (^Pipeline|^Exchange|^Chaos|^Fuzz|...) picks them up.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "chaos/alert_diff.hpp"
#include "chaos/fault_plan.hpp"
#include "chaos/link_chaos.hpp"
#include "kalis/kalis_node.hpp"
#include "kalis/siem_export.hpp"
#include "pipeline/pipeline.hpp"
#include "scenarios/chaos_workload.hpp"
#include "scenarios/environments.hpp"
#include "scenarios/scenarios.hpp"
#include "support.hpp"

namespace kalis::chaos {
namespace {

using test::outputOf;
using test::viewOf;
using test::wifiFrom;

// --- FaultPlan parsing ------------------------------------------------------------

TEST(ChaosPlan, DefaultIsZero) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.zero());
  EXPECT_FALSE(plan.hasLinkFaults());
  EXPECT_FALSE(plan.ingestFaults().enabled());
}

TEST(ChaosPlan, ParseReadsEveryKnob) {
  std::string error;
  const auto plan = FaultPlan::parse(
      "loss=0.05,burst=4,dup=0.01,reorder=0.02,window-ms=7,corrupt=0.03,"
      "bits=5,jitter=2.5,crash-s=30,down-s=4,stall-batches=8,stall-us=500,"
      "seed=7",
      &error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_DOUBLE_EQ(plan->lossStart, 0.05);
  EXPECT_DOUBLE_EQ(plan->lossBurstLen, 4.0);
  EXPECT_DOUBLE_EQ(plan->duplicateProb, 0.01);
  EXPECT_DOUBLE_EQ(plan->reorderProb, 0.02);
  EXPECT_EQ(plan->reorderWindow, milliseconds(7));
  EXPECT_DOUBLE_EQ(plan->corruptProb, 0.03);
  EXPECT_EQ(plan->corruptBitsMax, 5);
  EXPECT_DOUBLE_EQ(plan->rssiJitterDb, 2.5);
  EXPECT_EQ(plan->crashMeanUptime, seconds(30));
  EXPECT_EQ(plan->crashDowntime, seconds(4));
  EXPECT_EQ(plan->stallEveryBatches, 8u);
  EXPECT_EQ(plan->stallMicros, 500u);
  EXPECT_EQ(plan->seed, 7u);
  EXPECT_FALSE(plan->zero());
  EXPECT_TRUE(plan->hasLinkFaults());
  EXPECT_TRUE(plan->ingestFaults().enabled());
}

TEST(ChaosPlan, PresetsAndRoundTrip) {
  ASSERT_TRUE(FaultPlan::parse("none").has_value());
  EXPECT_TRUE(FaultPlan::parse("none")->zero());

  const auto light = FaultPlan::parse("light");
  ASSERT_TRUE(light.has_value());
  EXPECT_TRUE(light->hasLinkFaults());
  const auto heavy = FaultPlan::parse("heavy");
  ASSERT_TRUE(heavy.has_value());
  EXPECT_GT(heavy->lossStart, light->lossStart);

  // A preset with overrides: the override wins.
  const auto tweaked = FaultPlan::parse("light,loss=0.2");
  ASSERT_TRUE(tweaked.has_value());
  EXPECT_DOUBLE_EQ(tweaked->lossStart, 0.2);

  // describe() round-trips through parse().
  const std::string spec = heavy->describe();
  std::string error;
  const auto reparsed = FaultPlan::parse(spec, &error);
  ASSERT_TRUE(reparsed.has_value()) << spec << ": " << error;
  EXPECT_EQ(reparsed->describe(), spec);
}

TEST(ChaosPlan, ParseRejectsCrashTimesPastVirtualTime) {
  for (const char* spec : {"crash-s=1e300", "down-s=1e300", "crash-s=inf",
                           "down-s=nan"}) {
    EXPECT_FALSE(FaultPlan::parse(spec).has_value()) << spec;
  }
  EXPECT_TRUE(FaultPlan::parse("crash-s=1e6,down-s=1e6").has_value());
}

TEST(ChaosPlan, ParseRejectsNanProbabilityAndJitter) {
  // NaN compares false, so a range check alone would let it through.
  for (const char* spec : {"loss=nan", "dup=nan", "reorder=nan",
                           "corrupt=nan", "jitter=nan", "burst=nan"}) {
    EXPECT_FALSE(FaultPlan::parse(spec).has_value()) << spec;
  }
}

TEST(ChaosPlan, ParseRejectsMalformedSpecs) {
  std::string error;
  EXPECT_FALSE(FaultPlan::parse("nosuchkey=1", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(FaultPlan::parse("loss=notanumber", &error).has_value());
  EXPECT_FALSE(FaultPlan::parse("loss=1.5", &error).has_value());  // prob > 1
  EXPECT_FALSE(FaultPlan::parse("loss", &error).has_value());      // no '='
  EXPECT_FALSE(FaultPlan::parse("bogus-preset", &error).has_value());
}

// --- zero-plan transparency -------------------------------------------------------
//
// The acceptance bar: running chaos-wrapped with an all-zero plan is
// byte-for-byte identical to not wrapping at all. The injector IS installed
// (installFaultPlan only skips null plans), so this asserts the hooks
// themselves are neutral, not that they were skipped.

TEST(ChaosZero, ScenarioOutputByteIdentical) {
  const FaultPlan zero;
  ASSERT_TRUE(zero.zero());
  const auto plain = scenarios::evaluate(scenarios::SystemKind::kKalis,
                                         scenarios::captureIcmpFlood(7));
  const auto wrapped = scenarios::evaluate(
      scenarios::SystemKind::kKalis, scenarios::captureIcmpFlood(7, &zero));
  EXPECT_EQ(ids::toSiemLines(plain.alerts), ids::toSiemLines(wrapped.alerts));
  EXPECT_EQ(plain.packetsSniffed, wrapped.packetsSniffed);
  EXPECT_DOUBLE_EQ(plain.cpuPercent, wrapped.cpuPercent);
}

TEST(ChaosZero, WorkloadOutputByteIdentical) {
  const FaultPlan zero;
  const RunOutput plain = scenarios::runTraceReplayWorkload(5, nullptr, 1);
  const RunOutput wrapped = scenarios::runTraceReplayWorkload(5, &zero, 1);
  ASSERT_FALSE(plain.siemLines.empty());
  EXPECT_EQ(plain.siemLines, wrapped.siemLines);
  EXPECT_EQ(plain.packetsFed, wrapped.packetsFed);
  EXPECT_EQ(wrapped.linkFaults.faults(), 0u);
}

// --- deterministic fault replay ---------------------------------------------------

TEST(ChaosLink, SamePlanSameSeedReplaysExactly) {
  const auto plan = FaultPlan::parse("loss=0.08,burst=3,dup=0.02,corrupt=0.02");
  ASSERT_TRUE(plan.has_value());
  const RunOutput a = scenarios::runTraceReplayWorkload(5, &*plan, 1);
  const RunOutput b = scenarios::runTraceReplayWorkload(5, &*plan, 1);
  // The faults actually fired...
  EXPECT_GT(a.linkFaults.rxDropped, 0u);
  EXPECT_GT(a.linkFaults.corrupted + a.linkFaults.duplicated, 0u);
  // ...and fired identically: same tallies, same packets, same alerts.
  EXPECT_EQ(a.linkFaults.rxDropped, b.linkFaults.rxDropped);
  EXPECT_EQ(a.linkFaults.corrupted, b.linkFaults.corrupted);
  EXPECT_EQ(a.linkFaults.duplicated, b.linkFaults.duplicated);
  EXPECT_EQ(a.packetsFed, b.packetsFed);
  EXPECT_EQ(a.siemLines, b.siemLines);
}

TEST(ChaosLink, DifferentChaosSeedDifferentFaultSequence) {
  const auto planA = FaultPlan::parse("loss=0.08,burst=3,seed=1");
  const auto planB = FaultPlan::parse("loss=0.08,burst=3,seed=2");
  ASSERT_TRUE(planA && planB);
  const RunOutput a = scenarios::runTraceReplayWorkload(5, &*planA, 1);
  const RunOutput b = scenarios::runTraceReplayWorkload(5, &*planB, 1);
  // Same knobs, different stream: the runs must not be the same run.
  EXPECT_NE(std::make_tuple(a.linkFaults.rxDropped, a.packetsFed),
            std::make_tuple(b.linkFaults.rxDropped, b.packetsFed));
}

TEST(ChaosLink, LossReducesDeliveredTraffic) {
  const auto plan = FaultPlan::parse("loss=0.2,burst=4");
  ASSERT_TRUE(plan.has_value());
  const RunOutput clean = scenarios::runTraceReplayWorkload(5, nullptr, 1);
  const RunOutput lossy = scenarios::runTraceReplayWorkload(5, &*plan, 1);
  EXPECT_GT(lossy.linkFaults.rxDropped, 0u);
  EXPECT_LT(lossy.packetsFed, clean.packetsFed);
}

TEST(ChaosLink, CorruptedFramesReachModulesAsMalformedNotUb) {
  // A live KalisNode behind a heavily corrupting link: frames with flipped
  // bits must be dissected to kMalformed verdicts and counted, never crash.
  sim::Simulator simulator(11);
  sim::World world(simulator);
  sim::InternetCloud cloud;
  const scenarios::HomeWifi home =
      scenarios::buildHomeWifi(world, cloud, 11);

  ids::KalisNode node(simulator);
  node.useStandardLibrary();
  node.attach(world, home.ids, {net::Medium::kWifi});

  const auto plan = FaultPlan::parse("corrupt=0.6,bits=8");
  ASSERT_TRUE(plan.has_value());
  const LinkChaos injector(world, *plan);
  world.start();
  node.start();
  simulator.runUntil(seconds(30));

  EXPECT_GT(injector.stats().corrupted, 0u);
  EXPECT_GT(node.modules().malformedPackets(), 0u);
}

TEST(ChaosCrash, NodesCrashAndRestartDeterministically) {
  const auto plan = FaultPlan::parse("crash-s=10,down-s=3");
  ASSERT_TRUE(plan.has_value());
  const RunOutput a = scenarios::runTraceReplayWorkload(5, &*plan, 1);
  EXPECT_GT(a.linkFaults.crashes, 0u);
  // Crashed senders transmit nothing while down.
  const RunOutput clean = scenarios::runTraceReplayWorkload(5, nullptr, 1);
  EXPECT_LT(a.packetsFed, clean.packetsFed);
  const RunOutput b = scenarios::runTraceReplayWorkload(5, &*plan, 1);
  EXPECT_EQ(a.linkFaults.crashes, b.linkFaults.crashes);
  EXPECT_EQ(a.packetsFed, b.packetsFed);
}

// --- ingestion stalls: exact loss accounting --------------------------------------

/// Counts packets across engine instances (engines die with their workers).
class CountingEngine : public pipeline::PacketEngine {
 public:
  explicit CountingEngine(std::atomic<std::uint64_t>& seen) : seen_(seen) {}
  void onPacket(const net::CapturedPacket& pkt) override {
    seen_.fetch_add(1, std::memory_order_relaxed);
    watermark_ = pkt.meta.timestamp;
  }
  std::vector<ids::Alert> takeAlerts() override { return {}; }
  SimTime watermark() const override { return watermark_; }

 private:
  std::atomic<std::uint64_t>& seen_;
  SimTime watermark_ = 0;
};

TEST(ChaosStall, DropNewestTallyAccountsEveryPacket) {
  const auto plan = FaultPlan::parse("stall-batches=1,stall-us=1500");
  ASSERT_TRUE(plan.has_value());
  pipeline::Options opts;
  opts.workers = 1;
  opts.queueCapacity = 32;
  opts.maxBatch = 8;
  opts.policy = pipeline::Backpressure::kDropNewest;
  opts.faults = plan->ingestFaults();
  std::atomic<std::uint64_t> seen{0};
  pipeline::Pipeline pipe(opts, [&seen](std::size_t) {
    return std::make_unique<CountingEngine>(seen);
  });
  pipe.start();
  const std::uint64_t kAttempts = 3000;
  std::uint64_t accepted = 0;
  for (std::uint64_t i = 0; i < kAttempts; ++i) {
    if (pipe.enqueue(wifiFrom(1, seconds(1) + i, i))) ++accepted;
  }
  pipe.stop();

  const pipeline::Pipeline::Stats stats = pipe.stats();
  // The stalled consumer was overrun: the ring rejected packets...
  EXPECT_GT(stats.droppedNewest, 0u);
  // ...and the tallies account for every single one of the 3000 attempts.
  EXPECT_EQ(stats.enqueued, accepted);
  EXPECT_EQ(stats.enqueued + stats.droppedNewest, kAttempts);
  // Drain-on-shutdown: everything accepted was processed, nothing vanished.
  EXPECT_EQ(stats.processed, stats.enqueued);
  EXPECT_EQ(seen.load(), stats.processed);
  EXPECT_EQ(stats.droppedOldest, 0u);
}

TEST(ChaosStall, DropOldestTallyAccountsEveryEviction) {
  const auto plan = FaultPlan::parse("stall-batches=1,stall-us=1500");
  ASSERT_TRUE(plan.has_value());
  pipeline::Options opts;
  opts.workers = 1;
  opts.queueCapacity = 32;
  opts.maxBatch = 8;
  opts.policy = pipeline::Backpressure::kDropOldest;
  opts.faults = plan->ingestFaults();
  std::atomic<std::uint64_t> seen{0};
  pipeline::Pipeline pipe(opts, [&seen](std::size_t) {
    return std::make_unique<CountingEngine>(seen);
  });
  pipe.start();
  const std::uint64_t kAttempts = 3000;
  for (std::uint64_t i = 0; i < kAttempts; ++i) {
    // kDropOldest always accepts the incoming packet.
    ASSERT_TRUE(pipe.enqueue(wifiFrom(1, seconds(1) + i, i)));
  }
  pipe.stop();

  const pipeline::Pipeline::Stats stats = pipe.stats();
  EXPECT_GT(stats.droppedOldest, 0u);
  EXPECT_EQ(stats.enqueued, kAttempts);
  // Exact identity: everything enqueued was either evicted or processed.
  EXPECT_EQ(stats.processed + stats.droppedOldest, stats.enqueued);
  EXPECT_EQ(seen.load(), stats.processed);
  EXPECT_EQ(stats.droppedNewest, 0u);
}

// --- exchange reconciliation under stalls -----------------------------------------

TEST(ChaosStallExchange, ReconciliationConvergesUnderStallsAndDrops) {
  // Stalled workers + tiny kDropOldest rings: packets are lost mid-run, but
  // the shutdown barrier + final-snapshot reconciliation must still leave
  // every shard with the identical collective view.
  const auto plan = FaultPlan::parse("stall-batches=2,stall-us=800");
  ASSERT_TRUE(plan.has_value());
  pipeline::Options opts;
  opts.workers = 3;
  opts.queueCapacity = 16;
  opts.maxBatch = 4;
  opts.policy = pipeline::Backpressure::kDropOldest;
  opts.knowledgeExchange = true;
  opts.knowledgeSyncInterval = milliseconds(10);
  opts.faults = plan->ingestFaults();
  pipeline::Pipeline pipe(opts, [](std::size_t shard) {
    return std::make_unique<test::KnowledgeEngine>(shard);
  });
  pipe.start();
  const std::uint64_t kPackets = 1200;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    ASSERT_TRUE(pipe.enqueue(wifiFrom(
        static_cast<std::uint8_t>(1 + i % 9), seconds(1) + i * 1000, i)));
  }
  pipe.stop();

  const pipeline::Pipeline::Stats stats = pipe.stats();
  // The stalls really drove the rings into eviction...
  EXPECT_GT(stats.droppedOldest, 0u);
  EXPECT_EQ(stats.processed + stats.droppedOldest, stats.enqueued);
  // ...and reconciliation still converged: identical collective views.
  const auto reference = viewOf(pipe.collectiveKnowledge(0));
  ASSERT_FALSE(reference.empty());
  for (std::size_t s = 1; s < pipe.shardCount(); ++s) {
    EXPECT_EQ(viewOf(pipe.collectiveKnowledge(s)), reference)
        << "shard " << s << " diverged";
  }
  EXPECT_GT(stats.knowledgePublished, 0u);
}

// --- divergence taxonomy (unit) ---------------------------------------------------

ids::Alert alertOf(ids::AttackType type, SimTime time,
                   const std::string& module, const std::string& victim,
                   std::vector<std::string> suspects) {
  ids::Alert a;
  a.type = type;
  a.time = time;
  a.moduleName = module;
  a.victimEntity = victim;
  a.suspectEntities = std::move(suspects);
  return a;
}

TEST(ChaosDiff, IdenticalStreamsDiffClean) {
  const auto alerts = std::vector<ids::Alert>{
      alertOf(ids::AttackType::kIcmpFlood, seconds(21), "IcmpFloodModule",
              "10.0.0.3", {"aa:bb:cc:00:00:01"})};
  const DiffResult diff =
      diffAlertStreams(outputOf("a", alerts), outputOf("b", alerts));
  EXPECT_TRUE(diff.identical);
  EXPECT_TRUE(diff.divergences.empty());
}

TEST(ChaosDiff, ShiftedTimestampIsReorderingTolerant) {
  const auto baseline = outputOf(
      "baseline", {alertOf(ids::AttackType::kIcmpFlood, seconds(21),
                           "IcmpFloodModule", "10.0.0.3", {"02:aa"})});
  const auto subject = outputOf(
      "subject", {alertOf(ids::AttackType::kIcmpFlood, seconds(23),
                          "IcmpFloodModule", "10.0.0.3", {"02:aa"})});
  const DiffResult diff = diffAlertStreams(baseline, subject);
  EXPECT_FALSE(diff.identical);
  ASSERT_EQ(diff.divergences.size(), 1u);
  EXPECT_EQ(diff.divergences[0].kind, DivergenceKind::kReorderingTolerant);
  EXPECT_FALSE(diff.hasRegression());
}

TEST(ChaosDiff, MissingAlertUnderInjectedLossIsAccounted) {
  const auto baseline = outputOf(
      "baseline", {alertOf(ids::AttackType::kIcmpFlood, seconds(21),
                           "IcmpFloodModule", "10.0.0.3", {"02:aa"}),
                   alertOf(ids::AttackType::kSynFlood, seconds(30),
                           "SynFloodModule", "10.0.0.4", {"02:bb"})});
  auto subject = outputOf(
      "subject", {alertOf(ids::AttackType::kIcmpFlood, seconds(21),
                          "IcmpFloodModule", "10.0.0.3", {"02:aa"})});
  subject.linkFaults.rxDropped = 57;  // the subject run really did lose frames
  const DiffResult diff = diffAlertStreams(baseline, subject);
  ASSERT_EQ(diff.divergences.size(), 1u);
  EXPECT_EQ(diff.divergences[0].kind, DivergenceKind::kAccountedLoss);
  EXPECT_FALSE(diff.hasRegression());
}

TEST(ChaosDiff, MissingAlertWithoutFaultsIsRegression) {
  const auto baseline = outputOf(
      "baseline", {alertOf(ids::AttackType::kIcmpFlood, seconds(21),
                           "IcmpFloodModule", "10.0.0.3", {"02:aa"})});
  const auto subject = outputOf("subject", {});
  const DiffResult diff = diffAlertStreams(baseline, subject);
  ASSERT_EQ(diff.divergences.size(), 1u);
  EXPECT_EQ(diff.divergences[0].kind, DivergenceKind::kRegression);
  EXPECT_TRUE(diff.hasRegression());
}

// --- differential verification end to end ----------------------------------------

TEST(ChaosDiffRunner, ZeroPlanRunIsFullyIdentical) {
  const FaultPlan zero;
  const DiffReport report = scenarios::diffTraceReplay(11, zero, 1);
  EXPECT_TRUE(report.faultedVsBaseline.identical);
  EXPECT_FALSE(report.hasRegression());
  // The report serializes (CI artifact shape).
  const std::string json = report.toJson();
  EXPECT_NE(json.find("\"faulted_vs_baseline\""), std::string::npos);
  EXPECT_NE(json.find("\"workers_vs_deterministic\""), std::string::npos);
}

TEST(ChaosDiffRunner, LossyPlanDegradesWithoutRegression) {
  const auto plan = FaultPlan::parse("loss=0.06,burst=3,corrupt=0.01");
  ASSERT_TRUE(plan.has_value());
  const DiffReport report = scenarios::diffTraceReplay(11, *plan, 2);
  // Faults fired, so the streams may legitimately diverge — but every
  // missing/extra alert must be accounted or reordering-tolerant.
  EXPECT_FALSE(report.faultedVsBaseline.hasRegression())
      << report.toJson();
}

}  // namespace
}  // namespace kalis::chaos
