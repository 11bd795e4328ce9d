// Cross-shard knowledge exchange tests (DESIGN.md §8): publish fan-out,
// drain + bounded-staleness watermark, inbox overflow accounting, the
// shutdown barrier + final-snapshot reconciliation, the one-way update rule
// across shards, sync-interval gating, drain-on-shutdown of in-flight
// knowggets, multi-worker/one-worker convergence, and byte-identical
// one-worker output with the exchange enabled.
//
// Suites are named Exchange* so the CI ThreadSanitizer job
// (-R '^Pipeline|^Exchange') covers every threaded path here.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kalis/kalis_node.hpp"
#include "kalis/siem_export.hpp"
#include "pipeline/kalis_engine.hpp"
#include "pipeline/knowledge_exchange.hpp"
#include "pipeline/pipeline.hpp"
#include "recorded_captures.hpp"
#include "support.hpp"
#include "trace/trace_file.hpp"

namespace kalis {
namespace {

using pipeline::KnowledgeExchange;
using pipeline::Pipeline;
using pipeline::RemoteKnowgget;
using test::ExchangeProbe;
using test::KnowledgeEngine;
using test::knowgget;
using test::viewOf;
using test::wifiFrom;

// --- exchange unit tests ----------------------------------------------------------

TEST(ExchangeUnit, PublishFansOutToEveryOtherShard) {
  KnowledgeExchange::Options opts;
  opts.shards = 3;
  KnowledgeExchange xchg(opts);
  xchg.publish(0, knowgget("E0", "Mobility", "true"), seconds(5));

  std::vector<RemoteKnowgget> got;
  const auto record = [&got](const RemoteKnowgget& rk) {
    got.push_back(rk);
    return true;
  };
  EXPECT_EQ(xchg.drain(0, record), 0u);  // never echoed to the publisher
  EXPECT_EQ(xchg.drain(1, record), 1u);
  EXPECT_EQ(xchg.drain(2, record), 1u);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].knowgget.creator, "E0");
  EXPECT_EQ(got[0].fromShard, 0u);
  EXPECT_EQ(got[0].publishedAt, seconds(5));

  const KnowledgeExchange::Stats stats = xchg.stats();
  EXPECT_EQ(stats.published, 1u);
  EXPECT_EQ(stats.deliveries, 2u);
  EXPECT_EQ(stats.applied, 2u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(ExchangeUnit, WatermarkTracksHighestAppliedPublishTime) {
  KnowledgeExchange::Options opts;
  opts.shards = 2;
  KnowledgeExchange xchg(opts);
  EXPECT_EQ(xchg.appliedWatermark(1), 0u);
  xchg.publish(0, knowgget("E0", "A", "1"), seconds(3));
  xchg.publish(0, knowgget("E0", "B", "1"), seconds(7));
  EXPECT_EQ(xchg.appliedWatermark(1), 0u);  // nothing applied yet
  xchg.drain(1, [](const RemoteKnowgget&) { return true; });
  EXPECT_EQ(xchg.appliedWatermark(1), seconds(7));
  // Watermark never regresses.
  xchg.publish(0, knowgget("E0", "C", "1"), seconds(4));
  xchg.drain(1, [](const RemoteKnowgget&) { return true; });
  EXPECT_EQ(xchg.appliedWatermark(1), seconds(7));
}

TEST(ExchangeUnit, InboxOverflowEvictsOldestAndCounts) {
  KnowledgeExchange::Options opts;
  opts.shards = 2;
  opts.inboxCapacity = 2;
  KnowledgeExchange xchg(opts);
  for (int i = 0; i < 5; ++i) {
    xchg.publish(0, knowgget("E0", "L" + std::to_string(i), "1"), seconds(i));
  }
  std::vector<std::string> labels;
  xchg.drain(1, [&labels](const RemoteKnowgget& rk) {
    labels.push_back(rk.knowgget.label);
    return true;
  });
  // The two newest survived; three were evicted in flight.
  EXPECT_EQ(labels, (std::vector<std::string>{"L3", "L4"}));
  EXPECT_EQ(xchg.stats().droppedInFlight, 3u);
}

TEST(ExchangeUnit, FinishBarrierAndFinalSnapshotApply) {
  KnowledgeExchange::Options opts;
  opts.shards = 2;
  KnowledgeExchange xchg(opts);
  EXPECT_FALSE(xchg.allFinished());
  EXPECT_FALSE(xchg.waitAllFinished(std::chrono::milliseconds(1)));

  xchg.finishShard(0, {knowgget("E0", "X", "1")});
  xchg.finishShard(1, {knowgget("E1", "Y", "2")});
  EXPECT_TRUE(xchg.allFinished());
  EXPECT_TRUE(xchg.waitAllFinished(std::chrono::milliseconds(1)));

  // Each shard is offered exactly the other shards' final sets.
  std::vector<std::string> offered;
  EXPECT_EQ(xchg.applyFinalFrom(0,
                                [&offered](const ids::Knowgget& k) {
                                  offered.push_back(k.creator);
                                  return true;
                                }),
            1u);
  EXPECT_EQ(offered, std::vector<std::string>{"E1"});
}

TEST(ExchangeUnit, SingleShardExchangeIsInert) {
  KnowledgeExchange::Options opts;
  opts.shards = 1;
  KnowledgeExchange xchg(opts);
  xchg.publish(0, knowgget("E0", "X", "1"), seconds(1));
  EXPECT_EQ(xchg.drain(0, [](const RemoteKnowgget&) { return true; }), 0u);
  EXPECT_EQ(xchg.stats().published, 1u);
  EXPECT_EQ(xchg.stats().deliveries, 0u);
}

// --- one-way rule across shards ---------------------------------------------------

TEST(ExchangeOneWayRule, ImpersonationAndForeignUpdatesRejected) {
  // Two shard KBs bridged by an exchange: the receiving KB's putRemote is
  // the enforcement point (§IV-B3), the exchange only counts the outcome.
  KnowledgeExchange::Options opts;
  opts.shards = 2;
  KnowledgeExchange xchg(opts);
  ids::KnowledgeBase kb1("E1");

  const auto applyTo = [&kb1](const RemoteKnowgget& rk) {
    return kb1.putRemote(rk.knowgget);
  };
  // A knowgget claiming to have been created by the receiver itself.
  xchg.publish(0, knowgget("E1", "Mobility", "true"), seconds(1));
  xchg.drain(1, applyTo);
  EXPECT_EQ(kb1.size(), 0u);
  EXPECT_EQ(xchg.stats().rejected, 1u);
  EXPECT_EQ(xchg.stats().applied, 0u);

  // A legitimate remote knowgget is applied, and its creator may update it.
  xchg.publish(0, knowgget("E0", "Mobility", "true"), seconds(2));
  xchg.publish(0, knowgget("E0", "Mobility", "false"), seconds(3));
  xchg.drain(1, applyTo);
  EXPECT_EQ(xchg.stats().applied, 2u);
  EXPECT_EQ(kb1.raw("E0$Mobility"), "false");
}

// --- pipeline-level tests with a knowledge-bearing test engine --------------------

TEST(ExchangeSyncInterval, HugeIntervalDefersApplicationToShutdown) {
  pipeline::Options opts;
  opts.workers = 2;
  opts.knowledgeExchange = true;
  // Shard clocks stay far below the interval, so the batch-boundary gate
  // never opens: remote knowggets may only be applied by the forced drains
  // of the shutdown protocol, i.e. after finish().
  opts.knowledgeSyncInterval = seconds(24 * 3600);
  ExchangeProbe probe;
  Pipeline pipe(opts, [&probe](std::size_t shard) {
    return std::make_unique<KnowledgeEngine>(shard, &probe);
  });
  pipe.start();
  for (std::uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(pipe.enqueue(
        wifiFrom(static_cast<std::uint8_t>(1 + i % 8), seconds(1 + i))));
  }
  pipe.stop();
  EXPECT_EQ(probe.appliedBeforeFinish.load(), 0u);
  EXPECT_GT(probe.appliedAfterFinish.load(), 0u);
  EXPECT_EQ(pipe.stats().knowledgeApplied,
            probe.appliedAfterFinish.load());
}

TEST(ExchangeDrainOnShutdown, InFlightKnowggetsSurviveImmediateStop) {
  pipeline::Options opts;
  opts.workers = 4;
  opts.knowledgeExchange = true;
  opts.knowledgeSyncInterval = 0;  // drain at every batch boundary
  Pipeline pipe(opts, [](std::size_t shard) {
    return std::make_unique<KnowledgeEngine>(shard);
  });
  pipe.start();
  for (std::uint64_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(pipe.enqueue(
        wifiFrom(static_cast<std::uint8_t>(1 + i % 16), seconds(1 + i))));
  }
  pipe.stop();  // immediately: queued packets and in-flight knowggets drain

  // Every shard converged to the identical union of all final sets.
  const auto reference = viewOf(pipe.collectiveKnowledge(0));
  EXPECT_FALSE(reference.empty());
  for (std::size_t s = 1; s < pipe.shardCount(); ++s) {
    EXPECT_EQ(viewOf(pipe.collectiveKnowledge(s)), reference)
        << "shard " << s << " diverged";
  }
  const Pipeline::Stats stats = pipe.stats();
  EXPECT_GT(stats.knowledgePublished, 0u);
  EXPECT_GT(stats.knowledgeApplied, 0u);
  // The bounded-staleness watermark advanced on at least the shards that
  // applied in-flight knowggets from the rings.
  std::uint64_t advanced = 0;
  for (std::size_t s = 0; s < pipe.shardCount(); ++s) {
    if (pipe.knowledgeWatermark(s) > 0) ++advanced;
  }
  EXPECT_GT(advanced, 0u);
}

TEST(ExchangeShutdown, StalledShardRendezvousNeitherSpinsNorDeadlocks) {
  // One shard dawdles per packet while its peers finish early. The early
  // finishers must park in a single blocking wait for the straggler — the
  // old code re-polled waitAllFinished every 1 ms, which shows up as one
  // finishWaits increment per poll. With the predicate wait the counter is
  // bounded by the worker count, and stop() still terminates (no deadlock
  // between the parked waiters and the straggler's late publishes).
  pipeline::Options opts;
  opts.workers = 2;
  opts.knowledgeExchange = true;
  opts.knowledgeSyncInterval = 0;  // exchange on every batch boundary
  Pipeline pipe(opts, [](std::size_t shard) {
    // Shard 1 stalls ~2 ms per packet; shard 0 runs full speed.
    return std::make_unique<KnowledgeEngine>(
        shard, nullptr,
        shard == 1 ? std::chrono::microseconds(2000)
                   : std::chrono::microseconds(0));
  });
  pipe.start();
  for (std::uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(pipe.enqueue(
        wifiFrom(static_cast<std::uint8_t>(1 + i % 16), seconds(1 + i))));
  }
  pipe.stop();  // must complete: the fast shard waits, the slow one catches up

  EXPECT_EQ(pipe.stats().processed, 200u);
  obs::Registry reg;
  pipe.collectMetrics(reg, "pipeline");
  // <= one rendezvous wait per worker; ~100+ would mean a poll loop is back.
  EXPECT_LE(reg.counterValue("pipeline.exchange.finish_waits"),
            opts.workers);
}

// --- convergence with real Kalis shard engines ------------------------------------

/// Sensing module doing per-source collective bookkeeping: counts packets
/// per link source and publishes the count as a collective knowgget with
/// entity = source. Shard affinity guarantees exactly one creator per
/// entity, so the exchanged sets are disjoint and must converge exactly.
class PresenceSensor : public ids::SensingModule {
 public:
  std::string name() const override { return "PresenceSensor"; }

  void onPacket(const net::CapturedPacket& pkt, const net::Dissection& dis,
                ids::ModuleContext& ctx) override {
    (void)pkt;
    const std::string source = dis.linkSource();
    if (source == "?") return;
    const long long n = ++counts_[source];
    ctx.kb.put("SeenPackets", n, source, /*collective=*/true);
  }

  std::size_t memoryBytes() const override { return counts_.size() * 32; }

 private:
  std::map<std::string, long long> counts_;
};

/// Strips the "-s<shard>" suffix KalisShardEngine appends to node ids, so
/// multi-worker creators compare against the one-worker run's node.
std::string normalizeCreator(std::string creator) {
  const std::size_t pos = creator.rfind("-s");
  if (pos != std::string::npos &&
      creator.find_first_not_of("0123456789", pos + 2) == std::string::npos) {
    creator.erase(pos);
  }
  return creator;
}

test::KnowggetView normalizedViewOf(std::vector<ids::Knowgget> ks) {
  for (ids::Knowgget& k : ks) k.creator = normalizeCreator(k.creator);
  return viewOf(ks);
}

TEST(ExchangeConvergence, MultiWorkerMatchesDeterministicRun) {
  std::vector<net::CapturedPacket> trace;
  for (std::uint64_t i = 0; i < 60; ++i) {
    for (std::uint8_t tag = 1; tag <= 10; ++tag) {
      trace.push_back(wifiFrom(tag, seconds(1) + i * milliseconds(100)));
    }
  }
  pipeline::KalisEngineOptions engineOpts;
  engineOpts.seedBase = 7;
  engineOpts.configure = [](ids::KalisNode& node) {
    node.addModule(std::make_unique<PresenceSensor>());
  };

  // Reference: the deterministic one-worker run.
  pipeline::Options detOpts;
  detOpts.workers = 1;
  detOpts.knowledgeExchange = true;
  Pipeline det(detOpts, pipeline::makeKalisEngineFactory(engineOpts));
  det.start();
  for (const auto& pkt : trace) ASSERT_TRUE(det.enqueue(pkt));
  det.stop();
  const auto reference = normalizedViewOf(det.collectiveKnowledge(0));
  ASSERT_FALSE(reference.empty());

  // Multi-worker run with the exchange on: every shard's final collective
  // view must carry the same keys, values and (normalized) creators.
  pipeline::Options opts;
  opts.workers = 4;
  opts.knowledgeExchange = true;
  opts.knowledgeSyncInterval = milliseconds(10);
  Pipeline pipe(opts, pipeline::makeKalisEngineFactory(engineOpts));
  pipe.start();
  for (const auto& pkt : trace) ASSERT_TRUE(pipe.enqueue(pkt));
  pipe.stop();

  const auto shard0 = viewOf(pipe.collectiveKnowledge(0));
  ASSERT_FALSE(shard0.empty());
  for (std::size_t s = 1; s < pipe.shardCount(); ++s) {
    EXPECT_EQ(viewOf(pipe.collectiveKnowledge(s)), shard0)
        << "shard " << s << " did not converge";
  }
  EXPECT_EQ(normalizedViewOf(pipe.collectiveKnowledge(0)), reference);
  EXPECT_GT(pipe.stats().knowledgePublished, 0u);
}

// --- one worker stays byte-identical with the exchange on -------------------------

TEST(ExchangeDeterminism, DeterministicModeWithExchangeIsByteIdentical) {
  const trace::Trace trace = recorded::recordShortIcmpFlood(21).packets;
  ASSERT_GT(trace.size(), 100u);
  const SimTime drainUntil = seconds(30);

  const std::vector<std::string> direct =
      test::replaySiemLines(trace, 7, drainUntil);

  pipeline::Options opts;
  opts.workers = 1;
  opts.knowledgeExchange = true;  // must not perturb single-shard output
  Pipeline pipe(opts, pipeline::makeKalisEngineFactory(
                          test::fullLibraryEngine(7, drainUntil)));
  pipe.start();
  for (const auto& pkt : trace) ASSERT_TRUE(pipe.enqueue(pkt));
  pipe.stop();

  ASSERT_GT(direct.size(), 0u) << "attack trace raised no alerts";
  EXPECT_EQ(ids::toSiemLines(pipe.alerts()), direct);
  // The exchange had no receivers but still accounted the publishes.
  EXPECT_EQ(pipe.stats().knowledgeDroppedInFlight, 0u);
}

}  // namespace
}  // namespace kalis
