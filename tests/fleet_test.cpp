// kalis::fleet tests (DESIGN.md §11), mirroring exchange_test.cpp one tier
// up: the broadcast-log/tier-table primitives, the home→region→global
// one-way flow, bounded staleness per tier, overflow accounting at the
// region/global inboxes and logs, shutdown-reconciliation convergence, the
// shared-baseline CoW overlay, and end-to-end fleet runs (multi-worker,
// deterministic, CoW vs naive equivalence).
//
// Suites are named Fleet* so the CI ThreadSanitizer job
// (-R '^Pipeline|^Exchange|^Chaos|^Fuzz|^Fleet') covers the threaded runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "fleet/hier_exchange.hpp"
#include "fleet/home_model.hpp"
#include "kalis/knowledge.hpp"
#include "support.hpp"

namespace kalis {
namespace {

using fleet::BroadcastLog;
using fleet::Fleet;
using fleet::HierarchicalExchange;
using fleet::HomeNode;
using fleet::TierItem;
using fleet::TierTable;
using test::knowgget;
using test::viewOf;

TierItem remote(const ids::Knowgget& k, SimTime at) { return {k, at}; }

// --- broadcast log ----------------------------------------------------------

TEST(FleetBroadcastLog, PollHandsOutEntriesOldestFirst) {
  BroadcastLog log(4);
  log.append(remote(knowgget("H0", "A", "1"), seconds(1)));
  log.append(remote(knowgget("H0", "B", "1"), seconds(2)));
  BroadcastLog::Cursor cursor;
  std::vector<std::string> labels;
  EXPECT_EQ(log.poll(cursor, [&](const TierItem& item) {
    labels.push_back(item.knowgget.label);
  }), 2u);
  EXPECT_EQ(labels, (std::vector<std::string>{"A", "B"}));
  EXPECT_EQ(cursor.missed, 0u);
  // Nothing new: poll is a no-op.
  EXPECT_EQ(log.poll(cursor, [&](const TierItem&) { FAIL(); }), 0u);
}

TEST(FleetBroadcastLog, LaggingCursorChargesOverwrittenEntriesAsMissed) {
  BroadcastLog log(2);
  for (int i = 0; i < 5; ++i) {
    log.append(remote(knowgget("H0", "L" + std::to_string(i), "1"), 0));
  }
  BroadcastLog::Cursor cursor;
  std::vector<std::string> labels;
  EXPECT_EQ(log.poll(cursor, [&](const TierItem& item) {
    labels.push_back(item.knowgget.label);
  }), 2u);
  // Capacity 2 of 5 appends: the three oldest are gone, and counted.
  EXPECT_EQ(cursor.missed, 3u);
  EXPECT_EQ(labels, (std::vector<std::string>{"L3", "L4"}));
  EXPECT_EQ(cursor.next, log.head());
}

TEST(FleetBroadcastLog, IndependentCursorsTrackIndependently) {
  BroadcastLog log(8);
  log.append(remote(knowgget("H0", "A", "1"), 0));
  BroadcastLog::Cursor fast, slow;
  EXPECT_EQ(log.poll(fast, [](const TierItem&) {}), 1u);
  log.append(remote(knowgget("H0", "B", "1"), 0));
  EXPECT_EQ(log.poll(fast, [](const TierItem&) {}), 1u);
  EXPECT_EQ(log.poll(slow, [](const TierItem&) {}), 2u);
}

// --- tier table -------------------------------------------------------------

TEST(FleetTierTable, AcceptsNewAndChangedRejectsResends) {
  TierTable table;
  EXPECT_EQ(table.apply(knowgget("H0", "Sig", "true")),
            TierTable::Apply::kAccepted);
  // Same value again: unchanged — the loop-freedom property of the
  // up/down circulation.
  EXPECT_EQ(table.apply(knowgget("H0", "Sig", "true")),
            TierTable::Apply::kUnchanged);
  EXPECT_EQ(table.apply(knowgget("H0", "Sig", "false")),
            TierTable::Apply::kAccepted);
  // A different creator writes under its own key — never a collision.
  EXPECT_EQ(table.apply(knowgget("H1", "Sig", "true")),
            TierTable::Apply::kAccepted);
  EXPECT_EQ(table.size(), 2u);
}

// --- hierarchical exchange flow --------------------------------------------

HierarchicalExchange::Options smallExchange(std::size_t regions,
                                            std::size_t homes) {
  HierarchicalExchange::Options o;
  o.regions = regions;
  o.homes = homes;
  return o;
}

TEST(FleetExchange, KnowggetCrossesRegionBoundaryThroughGlobalTier) {
  HierarchicalExchange xchg(smallExchange(2, 4));
  xchg.publishFromHome(0, 0, knowgget("H0", "Signature.7", "true"), seconds(1));

  // Upward: region 0 drains its inbox, forwards to the global inbox.
  EXPECT_EQ(xchg.syncRegion(0), 1u);
  EXPECT_EQ(xchg.syncGlobal(), 1u);
  // Downward: region 1 pulls the global log, its homes pull the region log.
  EXPECT_EQ(xchg.pullGlobalIntoRegion(1), 1u);
  BroadcastLog::Cursor cursor;
  std::vector<ids::Knowgget> seen;
  xchg.pullRegionIntoHome(1, cursor, [&](const TierItem& item) {
    seen.push_back(item.knowgget);
  });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].creator, "H0");
  EXPECT_EQ(seen[0].label, "Signature.7");

  // The publisher's own region also fans it down (to sibling homes).
  BroadcastLog::Cursor sibling;
  std::size_t siblingSeen = 0;
  xchg.pullRegionIntoHome(0, sibling,
                          [&](const TierItem&) { ++siblingSeen; });
  EXPECT_EQ(siblingSeen, 1u);

  const HierarchicalExchange::Stats s = xchg.stats();
  EXPECT_EQ(s.published, 1u);
  EXPECT_EQ(s.regionAccepted, 2u);  // region 0 (upward) + region 1 (downward)
  EXPECT_EQ(s.globalAccepted, 1u);
  EXPECT_EQ(s.regionDropped, 0u);
  EXPECT_EQ(s.globalDropped, 0u);
}

TEST(FleetExchange, DownwardPullDoesNotEchoBackUpward) {
  HierarchicalExchange xchg(smallExchange(2, 4));
  xchg.publishFromHome(0, 0, knowgget("H0", "Sig", "true"), seconds(1));
  xchg.syncRegion(0);
  xchg.syncGlobal();
  xchg.pullGlobalIntoRegion(1);
  // Region 1 accepted the entry downward; nothing may re-enter the global
  // inbox (that would circulate forever).
  EXPECT_EQ(xchg.syncGlobal(), 0u);
  // And the origin region pulling the global log sees its own entry as
  // unchanged — not re-appended to its log.
  const std::uint64_t headBefore = xchg.stats().regionAccepted;
  xchg.pullGlobalIntoRegion(0);
  EXPECT_EQ(xchg.stats().regionAccepted, headBefore);
}

TEST(FleetExchange, PerTierWatermarksTrackAppliedPublishTimes) {
  HierarchicalExchange xchg(smallExchange(2, 4));
  EXPECT_EQ(xchg.regionWatermark(0), 0u);
  EXPECT_EQ(xchg.globalWatermark(), 0u);
  xchg.publishFromHome(0, 0, knowgget("H0", "A", "1"), seconds(3));
  xchg.publishFromHome(1, 0, knowgget("H1", "B", "1"), seconds(7));
  EXPECT_EQ(xchg.regionWatermark(0), 0u);  // nothing drained yet
  xchg.syncRegion(0);
  EXPECT_EQ(xchg.regionWatermark(0), seconds(7));
  EXPECT_EQ(xchg.globalWatermark(), 0u);  // not yet through the global tier
  xchg.syncGlobal();
  EXPECT_EQ(xchg.globalWatermark(), seconds(7));
  // Watermarks never regress.
  xchg.publishFromHome(0, 0, knowgget("H0", "C", "1"), seconds(4));
  xchg.syncRegion(0);
  EXPECT_EQ(xchg.regionWatermark(0), seconds(7));
}

TEST(FleetExchange, RegionInboxOverflowEvictsOldestAndCounts) {
  HierarchicalExchange::Options o = smallExchange(2, 4);
  o.regionInboxCapacity = 2;
  HierarchicalExchange xchg(o);
  for (int i = 0; i < 5; ++i) {
    xchg.publishFromHome(0, 0, knowgget("H0", "L" + std::to_string(i), "1"),
                         seconds(i));
  }
  EXPECT_EQ(xchg.stats().regionDropped, 3u);
  // Only the newest two survive; published == drained + dropped closes.
  xchg.syncRegion(0);
  const HierarchicalExchange::Stats s = xchg.stats();
  EXPECT_EQ(s.published, 5u);
  EXPECT_EQ(s.regionDrained, 2u);
  EXPECT_EQ(s.published, s.regionDrained + s.regionDropped);
}

TEST(FleetExchange, GlobalInboxOverflowEvictsOldestAndCounts) {
  HierarchicalExchange::Options o = smallExchange(2, 4);
  o.globalInboxCapacity = 2;
  HierarchicalExchange xchg(o);
  for (int i = 0; i < 5; ++i) {
    xchg.publishFromHome(0, 0, knowgget("H0", "L" + std::to_string(i), "1"),
                         seconds(i));
  }
  xchg.syncRegion(0);  // forwards all five upward into capacity 2
  const HierarchicalExchange::Stats before = xchg.stats();
  EXPECT_EQ(before.globalForwarded, 5u);
  EXPECT_EQ(before.globalDropped, 3u);
  xchg.syncGlobal();
  const HierarchicalExchange::Stats s = xchg.stats();
  EXPECT_EQ(s.globalDrained, 2u);
  EXPECT_EQ(s.globalForwarded, s.globalDrained + s.globalDropped);
}

TEST(FleetExchange, GlobalOverflowAcrossRegionsKeepsNewestInRegionOrder) {
  HierarchicalExchange::Options o = smallExchange(3, 6);
  o.globalInboxCapacity = 3;
  HierarchicalExchange xchg(o);
  for (int i = 0; i < 3; ++i) {
    xchg.publishFromHome(0, 0, knowgget("H0", "A" + std::to_string(i), "1"),
                         seconds(i));
  }
  for (int i = 0; i < 2; ++i) {
    xchg.publishFromHome(2, 1, knowgget("H2", "B" + std::to_string(i), "1"),
                         seconds(i));
  }
  // Region 1 syncs first, as a faster worker would: the survivors follow
  // region order, not sync order.
  EXPECT_EQ(xchg.syncRegion(1), 2u);
  EXPECT_EQ(xchg.syncRegion(0), 3u);
  EXPECT_EQ(xchg.syncGlobal(), 3u);
  // Region 2 forwarded nothing; its homes receive the global survivors.
  EXPECT_EQ(xchg.pullGlobalIntoRegion(2), 3u);
  BroadcastLog::Cursor cursor;
  std::vector<std::string> labels;
  xchg.pullRegionIntoHome(2, cursor, [&](const TierItem& item) {
    labels.push_back(item.knowgget.label);
  });
  EXPECT_EQ(labels, (std::vector<std::string>{"A2", "B0", "B1"}));
  const HierarchicalExchange::Stats s = xchg.stats();
  EXPECT_EQ(s.globalForwarded, 5u);
  EXPECT_EQ(s.globalDropped, 2u);
  EXPECT_EQ(s.globalDrained, 3u);
  EXPECT_EQ(s.published, s.regionDrained + s.regionDropped);
  EXPECT_EQ(s.globalForwarded, s.globalDrained + s.globalDropped);
}

TEST(FleetExchange, ReconciliationRepairsOverflowEvictions) {
  HierarchicalExchange::Options o = smallExchange(2, 2);
  o.regionInboxCapacity = 1;
  o.globalInboxCapacity = 1;
  HierarchicalExchange xchg(o);
  // Home 0 publishes more than any ring can hold; nothing is synced until
  // shutdown, so almost everything is evicted in flight.
  std::vector<ids::Knowgget> own;
  for (int i = 0; i < 8; ++i) {
    const ids::Knowgget k = knowgget("H0", "L" + std::to_string(i), "1");
    own.push_back(k);
    xchg.publishFromHome(0, 0, k, seconds(i));
  }
  xchg.finishChild(0, own);
  xchg.finishChild(1, {});
  xchg.reconcile();
  // The deposited finals repaired every eviction: the global snapshot holds
  // all eight entries.
  EXPECT_EQ(xchg.globalSnapshot().size(), 8u);
}

// --- shared baseline / CoW overlay -----------------------------------------

std::shared_ptr<const ids::BaselineSegment> makeBaseline() {
  std::vector<ids::Knowgget> entries;
  entries.push_back(knowgget("baseline", "Signature.0", "true"));
  entries.push_back(knowgget("baseline", "BaselineRule.1", "enabled"));
  return std::make_shared<ids::BaselineSegment>(std::move(entries));
}

TEST(FleetBaseline, ReadsFallThroughToSharedSegment) {
  ids::KnowledgeBase kb("H1");
  kb.setBaseline(makeBaseline());
  EXPECT_EQ(kb.raw("baseline$Signature.0"), "true");
  EXPECT_EQ(kb.size(), 2u);
  EXPECT_EQ(kb.overlaySize(), 0u);  // no private memory spent
  EXPECT_EQ(kb.byLabel("Signature.0").size(), 1u);
}

TEST(FleetBaseline, MatchingRemoteWriteCostsNoOverlayEntry) {
  ids::KnowledgeBase kb("H1");
  kb.setBaseline(makeBaseline());
  // Re-asserting the baseline value is accepted but stores nothing (CoW).
  EXPECT_TRUE(kb.putRemote(knowgget("baseline", "Signature.0", "true")));
  EXPECT_EQ(kb.overlaySize(), 0u);
  // A diverging value creates exactly one overlay entry shadowing the
  // baseline; the logical size is unchanged.
  EXPECT_TRUE(kb.putRemote(knowgget("baseline", "Signature.0", "false")));
  EXPECT_EQ(kb.overlaySize(), 1u);
  EXPECT_EQ(kb.size(), 2u);
  EXPECT_EQ(kb.raw("baseline$Signature.0"), "false");
}

TEST(FleetBaseline, AllMergesOverlayOverBaselineInKeyOrder) {
  ids::KnowledgeBase kb("H1");
  kb.setBaseline(makeBaseline());
  kb.put("Own", true, "", true);
  kb.putRemote(knowgget("baseline", "Signature.0", "false"));  // shadows
  const std::vector<ids::Knowgget> all = kb.all();
  ASSERT_EQ(all.size(), 3u);
  std::size_t sigEntries = 0;
  for (const ids::Knowgget& k : all) {
    if (k.label == "Signature.0") {
      ++sigEntries;
      EXPECT_EQ(k.value, "false");  // the overlay wins
    }
  }
  EXPECT_EQ(sigEntries, 1u);
}

TEST(FleetBaseline, HomeNodeSeedsSignatureMaskFromBaseline) {
  fleet::HomeProfile profile;
  profile.devices = 4;
  profile.packetsPerRound = 8;
  profile.signatureId = 7;
  HomeNode home(1, profile, /*fleetSeed=*/9, makeBaseline());
  EXPECT_TRUE(home.knowsSignature(0));   // pre-loaded in the baseline
  EXPECT_FALSE(home.knowsSignature(7));  // the novel one is absent
  // A fleet-propagated activation flips the cached mask.
  EXPECT_TRUE(home.applyRemote(knowgget("H0", "Signature.7", "true")));
  EXPECT_TRUE(home.knowsSignature(7));
}

TEST(FleetBaseline, OneWayRuleHoldsAcrossRegions) {
  fleet::HomeProfile profile;
  profile.devices = 4;
  profile.packetsPerRound = 8;
  HomeNode home(0, profile, 9, makeBaseline());
  // A knowgget arriving from another region claiming to be H0's own
  // creation is impersonation — rejected by the KB's one-way rule.
  EXPECT_FALSE(home.applyRemote(knowgget("H0", "Sig", "true")));
  // The same label from a genuinely different creator is fine.
  EXPECT_TRUE(home.applyRemote(knowgget("H42", "Sig", "true")));
}

// --- end-to-end fleet runs --------------------------------------------------

Fleet::Options smallFleet(std::size_t homes, std::size_t workers) {
  Fleet::Options o;
  o.homes = homes;
  o.regions = 8;
  o.workers = workers;
  o.seed = 11;
  o.rounds = 24;
  return o;
}

TEST(FleetRun, SignaturePropagatesToEveryHomeWithinStalenessBound) {
  Fleet f(smallFleet(512, 4));
  f.run();
  const Fleet::Stats stats = f.stats();
  ASSERT_TRUE(stats.propagation.activated);
  EXPECT_EQ(stats.propagation.homesObserved, stats.propagation.homesTotal);
  EXPECT_LE(stats.propagation.maxLagRounds, f.stalenessBoundRounds());
  EXPECT_LE(stats.propagation.maxLagVirtual, f.stalenessBoundVirtual());
  EXPECT_GT(stats.packetsProcessed, 0u);
}

TEST(FleetRun, SlowerSyncCadenceStaysWithinWidenedBound) {
  Fleet::Options o = smallFleet(512, 4);
  o.regionSyncEvery = 3;
  o.globalSyncEvery = 2;
  o.globalPullEvery = 4;
  Fleet f(o);
  f.run();
  EXPECT_EQ(f.stalenessBoundRounds(), 9u);
  const Fleet::Stats stats = f.stats();
  ASSERT_TRUE(stats.propagation.activated);
  EXPECT_EQ(stats.propagation.homesObserved, stats.propagation.homesTotal);
  EXPECT_LE(stats.propagation.maxLagRounds, f.stalenessBoundRounds());
}

TEST(FleetRun, AllHomesConvergeToOneCollectiveViewAfterReconciliation) {
  Fleet f(smallFleet(256, 4));
  f.run();
  const auto reference = viewOf(f.homeCollectiveView(0));
  EXPECT_FALSE(reference.empty());
  for (std::size_t h = 1; h < f.options().homes; ++h) {
    ASSERT_EQ(viewOf(f.homeCollectiveView(h)), reference) << "home " << h;
  }
}

TEST(FleetRun, ExchangeAccountingClosesExactly) {
  Fleet f(smallFleet(512, 4));
  f.run();
  const HierarchicalExchange::Stats s = f.stats().exchange;
  EXPECT_EQ(s.published, s.regionDrained + s.regionDropped);
  EXPECT_EQ(s.globalForwarded, s.globalDrained + s.globalDropped);
}

TEST(FleetRun, SameSeedIsDeterministicAcrossWorkerCounts) {
  Fleet reference(smallFleet(256, 1));
  reference.run();
  for (const std::size_t workers : {2u, 4u, 8u}) {
    Fleet f(smallFleet(256, workers));
    f.run();
    ASSERT_EQ(f.options().workers, workers);
    // Home behavior is a pure function of (seed, homeIndex), and the global
    // tier takes the regions' entries in region order: packet counts,
    // alerts, every exchange tally and the converged views are
    // worker-count independent.
    EXPECT_EQ(f.stats().packetsProcessed, reference.stats().packetsProcessed)
        << workers << " workers";
    EXPECT_EQ(f.stats().alertsRaised, reference.stats().alertsRaised)
        << workers << " workers";
    EXPECT_EQ(f.stats().exchange, reference.stats().exchange)
        << workers << " workers";
    EXPECT_EQ(viewOf(f.homeCollectiveView(0)),
              viewOf(reference.homeCollectiveView(0)))
        << workers << " workers";
  }
}

TEST(FleetRun, NaiveAndSharedBaselineModelsDetectIdentically) {
  Fleet::Options cow = smallFleet(256, 2);
  Fleet::Options naive = cow;
  naive.shareBaseline = false;
  Fleet a(cow), b(naive);
  a.run();
  b.run();
  EXPECT_EQ(a.stats().alertsRaised, b.stats().alertsRaised);
  EXPECT_EQ(a.stats().packetsProcessed, b.stats().packetsProcessed);
  EXPECT_EQ(viewOf(a.homeCollectiveView(7)), viewOf(b.homeCollectiveView(7)));
  // ...but the CoW model pays a fraction of the naive model's KB bytes.
  const std::size_t cowBytes =
      a.stats().homeHeapBytes + a.stats().baselineBytes;
  const std::size_t naiveBytes =
      b.stats().homeHeapBytes + b.stats().baselineBytes;
  EXPECT_LT(cowBytes * 4, naiveBytes);
}

TEST(FleetRun, MemoryStaysSublinearViaSharedSegments) {
  Fleet small(smallFleet(128, 2));
  Fleet large(smallFleet(1024, 2));
  small.run();
  large.run();
  // Per-home KB bytes must not grow with fleet size (the shared segments
  // amortize): allow a small tolerance for the origin home's overlay.
  const double perHomeSmall =
      static_cast<double>(small.stats().homeHeapBytes +
                          small.stats().baselineBytes) /
      small.options().homes;
  const double perHomeLarge =
      static_cast<double>(large.stats().homeHeapBytes +
                          large.stats().baselineBytes) /
      large.options().homes;
  EXPECT_LE(perHomeLarge, perHomeSmall * 1.25);
}

}  // namespace
}  // namespace kalis
