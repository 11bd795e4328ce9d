// Observability-layer tests: the kalis::obs primitives (counter, gauge,
// fixed-bucket histogram), the registry's JSON snapshot including a
// parse-back round trip, and the per-component instrumentation threaded
// through ModuleManager, KnowledgeBase, DataStore and the Simulator.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "kalis/module_manager.hpp"
#include "metrics/metrics_export.hpp"
#include "sim/simulator.hpp"
#include "util/metrics.hpp"

namespace kalis {
namespace {

// --- naive JSON scrapers for the round-trip checks ---------------------------

std::uint64_t jsonUint(const std::string& json, const std::string& name) {
  const std::string needle = "\"" + name + "\": ";
  const std::size_t pos = json.find(needle);
  EXPECT_NE(pos, std::string::npos) << "missing " << name;
  if (pos == std::string::npos) return 0;
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

bool jsonHas(const std::string& json, const std::string& name) {
  return json.find("\"" + name + "\"") != std::string::npos;
}

// --- primitives --------------------------------------------------------------

TEST(ObsCounter, MonotonicIncrement) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsGauge, TracksHighWater) {
  obs::Gauge g;
  g.set(3.0);
  g.set(17.0);
  g.set(5.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  EXPECT_DOUBLE_EQ(g.highWater(), 17.0);
}

TEST(ObsHistogram, CountSumMinMaxMean) {
  obs::Histogram h;
  h.record(100);
  h.record(200);
  h.record(700);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1000u);
  EXPECT_EQ(h.min(), 100u);
  EXPECT_EQ(h.max(), 700u);
  EXPECT_DOUBLE_EQ(h.mean(), 1000.0 / 3.0);
}

TEST(ObsHistogram, BucketPlacementIsPowerOfTwo) {
  obs::Histogram h;
  h.record(0);    // bit_width(0)=0 -> bucket 0
  h.record(1);    // bucket 1 (le 1)
  h.record(5);    // bucket 3 (le 7)
  h.record(800);  // bucket 10 (le 1023)
  EXPECT_EQ(h.bucketCount(0), 1u);
  EXPECT_EQ(h.bucketCount(1), 1u);
  EXPECT_EQ(h.bucketCount(3), 1u);
  EXPECT_EQ(h.bucketCount(10), 1u);
  EXPECT_EQ(obs::Histogram::bucketUpperBound(3), 7u);
  EXPECT_EQ(obs::Histogram::bucketUpperBound(10), 1023u);
}

TEST(ObsHistogram, QuantileWithinOneBucket) {
  obs::Histogram h;
  for (int i = 0; i < 90; ++i) h.record(100);   // bucket le 127
  for (int i = 0; i < 10; ++i) h.record(5000);  // bucket le 8191
  EXPECT_EQ(h.quantile(0.5), 127u);
  EXPECT_EQ(h.quantile(0.9), 127u);
  // p99 lands in the tail bucket; clamped to the observed max.
  EXPECT_EQ(h.quantile(0.99), 5000u);
  // Quantiles never exceed the recorded max.
  EXPECT_LE(h.quantile(1.0), h.max());
}

// --- registry snapshots ------------------------------------------------------

TEST(ObsRegistry, JsonSnapshotRoundTrip) {
  obs::Registry reg;
  reg.setLabel("run", "unit-test");
  reg.counter("alpha.count", 1234u);
  reg.gauge("beta.depth", 7.0, 19.0);
  obs::Histogram h;
  h.record(50);
  h.record(60);
  reg.histogram("gamma.latency_ns", h);

  const std::string json = reg.toJson();
  EXPECT_TRUE(jsonHas(json, "run"));
  EXPECT_EQ(jsonUint(json, "alpha.count"), 1234u);
  const std::size_t gpos = json.find("\"beta.depth\"");
  ASSERT_NE(gpos, std::string::npos);
  EXPECT_NE(json.find("\"high_water\": 19", gpos), std::string::npos);
  const std::size_t hpos = json.find("\"gamma.latency_ns\"");
  ASSERT_NE(hpos, std::string::npos);
  EXPECT_NE(json.find("\"count\": 2", hpos), std::string::npos);
  EXPECT_NE(json.find("\"sum\": 110", hpos), std::string::npos);
  // Structural validity: balanced braces/brackets, quoted keys.
  int depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(ObsRegistry, WriteJsonFileRoundTrip) {
  obs::Registry reg;
  reg.counter("file.count", 77u);
  const std::string path = ::testing::TempDir() + "obs_registry_test.json";
  ASSERT_TRUE(reg.writeJsonFile(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(jsonUint(buf.str(), "file.count"), 77u);
  std::remove(path.c_str());
}

TEST(ObsRegistry, EscapesQuotesInNames) {
  obs::Registry reg;
  reg.setLabel("weird", "a\"b\\c");
  const std::string json = reg.toJson();
  EXPECT_NE(json.find("a\\\"b\\\\c"), std::string::npos);
}

// --- instrumented components -------------------------------------------------

/// Always-on detection module that alerts on every packet.
class NoisyModule : public ids::DetectionModule {
 public:
  std::string name() const override { return "NoisyModule"; }
  ids::AttackType attack() const override {
    return ids::AttackType::kUnknownAnomaly;
  }
  void onPacket(const net::CapturedPacket&, const net::Dissection&,
                ids::ModuleContext& ctx) override {
    ids::Alert alert;
    alert.type = ids::AttackType::kUnknownAnomaly;
    alert.moduleName = name();
    alert.time = ctx.now;
    ctx.raiseAlert(std::move(alert));
  }
  std::uint32_t workUnitsPerPacket() const override { return 3; }
};

/// Module gated on the "Obs.Feature" knowgget; never alerts.
class QuietGatedModule : public ids::SensingModule {
 public:
  std::string name() const override { return "QuietGatedModule"; }
  bool required(const ids::KnowledgeBase& kb) const override {
    return kb.local<bool>("Obs.Feature").value_or(false);
  }
  std::vector<std::string> watchedLabels() const override {
    return {"Obs.Feature"};
  }
};

net::CapturedPacket obsTestPacket() {
  net::Ieee802154Frame frame;
  frame.src = net::Mac16{0x0009};
  net::CapturedPacket pkt;
  pkt.medium = net::Medium::kIeee802154;
  pkt.raw = frame.encode();
  pkt.meta.timestamp = seconds(1);
  return pkt;
}

struct ObsManagerFixture : ::testing::Test {
  ids::KnowledgeBase kb{"K1"};
  ids::DataStore store;
  ids::ModuleManager manager{kb, store};

  /// Routes obsTestPacket() through the manager at `now`.
  void route(SimTime now) {
    const net::CapturedPacket pkt = obsTestPacket();
    manager.onPacket(pkt, net::dissect(pkt), now);
  }
};

TEST_F(ObsManagerFixture, PerModulePacketAlertAndWorkCounters) {
  manager.addModule(std::make_unique<NoisyModule>());
  manager.addModule(std::make_unique<QuietGatedModule>());
  manager.start(seconds(1));
  const int kPackets = 40;
  for (int i = 0; i < kPackets; ++i) route(seconds(2));

  const auto* noisy = manager.statsFor("NoisyModule");
  const auto* quiet = manager.statsFor("QuietGatedModule");
  ASSERT_NE(noisy, nullptr);
  ASSERT_NE(quiet, nullptr);
  EXPECT_EQ(manager.statsFor("NoSuchModule"), nullptr);

  EXPECT_EQ(noisy->packets.value(), static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(noisy->workUnits.value(), static_cast<std::uint64_t>(3 * kPackets));
  EXPECT_EQ(noisy->alerts.value(), static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(noisy->activationFlips.value(), 1u);  // the initial activation
  // Inactive module: never routed a packet.
  EXPECT_EQ(quiet->packets.value(), 0u);
  EXPECT_EQ(quiet->alerts.value(), 0u);
  // Latency is sampled 1-in-kLatencySampleEvery.
  EXPECT_EQ(noisy->onPacketNs.count(),
            static_cast<std::uint64_t>(kPackets) /
                ids::ModuleManager::kLatencySampleEvery);
  // The plain counters behind the CPU proxy agree with the obs counters.
  EXPECT_EQ(manager.packetsProcessed(), static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(manager.totalWorkUnits(), static_cast<std::uint64_t>(3 * kPackets));
}

TEST_F(ObsManagerFixture, ActivationFlipCounterFollowsKnowledge) {
  manager.addModule(std::make_unique<QuietGatedModule>());
  manager.start(seconds(1));
  kb.put("Obs.Feature", true);   // flip on
  kb.put("Obs.Feature", false);  // flip off
  kb.put("Obs.Feature", true);   // flip on again
  const auto* stats = manager.statsFor("QuietGatedModule");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->activationFlips.value(), 3u);
  EXPECT_TRUE(manager.isActive("QuietGatedModule"));
}

TEST_F(ObsManagerFixture, CollectMetricsEmitsPerModuleNames) {
  manager.addModule(std::make_unique<NoisyModule>());
  manager.start(seconds(1));
  route(seconds(2));
  obs::Registry reg;
  manager.collectMetrics(reg, "kalis");
  EXPECT_TRUE(reg.hasCounter("kalis.packets_routed"));
  EXPECT_TRUE(reg.hasCounter("kalis.module.NoisyModule.packets"));
  EXPECT_TRUE(reg.hasCounter("kalis.module.NoisyModule.alerts"));
  ASSERT_NE(reg.findHistogram("kalis.module.NoisyModule.on_packet_ns"),
            nullptr);
  EXPECT_EQ(reg.counterValue("kalis.packets_routed"), 1u);
  EXPECT_EQ(reg.counterValue("kalis.module.NoisyModule.alerts"), 1u);
}

TEST(ObsKnowledgeBase, PublishAndSubscriptionCounters) {
  ids::KnowledgeBase kb("K1");
  int fired = 0;
  kb.subscribe("Traffic.*", [&](const ids::Knowgget&) { ++fired; });
  kb.put("Traffic.TCP", 1);
  kb.put("Traffic.TCP", 1);  // unchanged: no publish, no fire
  kb.put("Traffic.UDP", 2);
  kb.put("Other", 3);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(kb.publishes().value(), 3u);
  EXPECT_EQ(kb.subscriptionFires().value(), 2u);

  ids::Knowgget remote;
  remote.label = "Multihop";
  remote.value = "true";
  remote.creator = "K2";
  EXPECT_TRUE(kb.putRemote(remote));
  remote.creator = "K1";  // impersonation -> rejected
  EXPECT_FALSE(kb.putRemote(remote));
  EXPECT_EQ(kb.remoteAccepted().value(), 1u);
  EXPECT_EQ(kb.remoteRejected().value(), 1u);

  obs::Registry reg;
  kb.collectMetrics(reg, "kb");
  EXPECT_TRUE(reg.hasCounter("kb.publishes"));
  EXPECT_TRUE(reg.hasCounter("kb.remote_rejected"));
}

TEST(ObsDataStore, WindowEvictionCounter) {
  ids::DataStore::Config config;
  config.windowCapacity = 8;
  ids::DataStore store(config);
  for (int i = 0; i < 20; ++i) store.onPacket(obsTestPacket());
  EXPECT_EQ(store.window().size(), 8u);
  EXPECT_EQ(store.totalPackets(), 20u);
  EXPECT_EQ(store.windowEvictions().value(), 12u);
  obs::Registry reg;
  store.collectMetrics(reg, "ds");
  EXPECT_EQ(reg.counterValue("ds.packets"), 20u);
}

TEST(ObsSimulator, EventLoopCounters) {
  sim::Simulator simulator(1);
  for (int i = 0; i < 5; ++i) simulator.schedule(seconds(i + 1), [] {});
  simulator.runAll();
  EXPECT_EQ(simulator.eventsDispatched().value(), 5u);
  EXPECT_DOUBLE_EQ(simulator.queueDepth().highWater(), 5.0);
  EXPECT_GT(simulator.wallElapsedNs(), 0u);
  EXPECT_GT(simulator.simWallRatio(), 0.0);
  obs::Registry reg;
  simulator.collectMetrics(reg, "sim");
  EXPECT_TRUE(reg.hasCounter("sim.events_dispatched"));
  EXPECT_EQ(reg.counterValue("sim.sim_time_us"), seconds(5));
}

TEST(ObsSimulator, MetricsNeverPerturbDeterminism) {
  // Two identical runs must dispatch identical event streams: wall-clock
  // reads may observe but never steer.
  auto run = [] {
    sim::Simulator simulator(99);
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
      simulator.schedule(milliseconds(100 - i * 3),
                         [&order, i] { order.push_back(i); });
    }
    simulator.runAll();
    return order;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace kalis
