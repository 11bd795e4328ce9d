// Tests for the extension features beyond the core reproduction: the
// countermeasure engine (§VI-A's automated revocation), SIEM export (§I),
// the deployment-profile generator (§VIII future work), and the
// anomaly-detection module.
#include <gtest/gtest.h>

#include "kalis/countermeasures.hpp"
#include "kalis/kalis_node.hpp"
#include "kalis/modules/anomaly.hpp"
#include "kalis/profile.hpp"
#include "kalis/siem_export.hpp"

namespace kalis::ids {
namespace {

// --- CountermeasureEngine --------------------------------------------------------

struct CountermeasureFixture : ::testing::Test {
  sim::Simulator simulator{23};
  sim::World world{simulator};
  NodeId mote = kInvalidNode;
  NodeId station = kInvalidNode;

  void SetUp() override {
    mote = world.addNode("mote", sim::NodeRole::kSub, {0, 0});
    world.enableRadio(mote, net::Medium::kIeee802154);
    station = world.addNode("station", sim::NodeRole::kHub, {1, 1});
    world.enableRadio(station, net::Medium::kWifi);
  }

  Alert alertAgainst(std::string suspect, double confidence = 1.0,
                     AttackType type = AttackType::kBlackhole,
                     SimTime t = seconds(5)) {
    Alert alert;
    alert.type = type;
    alert.time = t;
    alert.confidence = confidence;
    alert.suspectEntities = {std::move(suspect)};
    return alert;
  }
};

TEST_F(CountermeasureFixture, RevokesByMac16) {
  CountermeasureEngine engine(world, {});
  simulator.runUntil(seconds(5));
  engine.onAlert(alertAgainst(net::toString(world.mac16Of(mote))));
  EXPECT_TRUE(world.isRevoked(mote));
  EXPECT_EQ(engine.executedCount(), 1u);
}

TEST_F(CountermeasureFixture, ResolvesMac48AndIpv4Entities) {
  CountermeasureEngine engine(world, {});
  EXPECT_EQ(engine.resolveEntity(net::toString(world.mac48Of(station))),
            station);
  EXPECT_EQ(engine.resolveEntity(net::toString(world.ipv4Of(station))),
            station);
  EXPECT_EQ(engine.resolveEntity("not-an-entity"), std::nullopt);
}

TEST_F(CountermeasureFixture, LowConfidenceIgnored) {
  CountermeasureEngine engine(world, {});
  engine.onAlert(alertAgainst(net::toString(world.mac16Of(mote)), 0.3));
  EXPECT_FALSE(world.isRevoked(mote));
  EXPECT_TRUE(engine.actions().empty());
}

TEST_F(CountermeasureFixture, ProtectedEntitiesNeverRevoked) {
  CountermeasureEngine::Policy policy;
  policy.neverRevoke = {net::toString(world.mac16Of(mote))};
  CountermeasureEngine engine(world, policy);
  engine.onAlert(alertAgainst(net::toString(world.mac16Of(mote))));
  EXPECT_FALSE(world.isRevoked(mote));
  ASSERT_EQ(engine.actions().size(), 1u);
  EXPECT_EQ(engine.actions()[0].reason, "protected entity");
}

TEST_F(CountermeasureFixture, CooldownPreventsRepeatRevocation) {
  CountermeasureEngine::Policy policy;
  policy.perEntityCooldown = seconds(60);
  CountermeasureEngine engine(world, policy);
  const std::string entity = net::toString(world.mac16Of(mote));
  engine.onAlert(alertAgainst(entity, 1.0, AttackType::kBlackhole, seconds(5)));
  engine.onAlert(alertAgainst(entity, 1.0, AttackType::kBlackhole, seconds(20)));
  EXPECT_EQ(engine.executedCount(), 1u);
  engine.onAlert(alertAgainst(entity, 1.0, AttackType::kBlackhole, seconds(80)));
  EXPECT_EQ(engine.executedCount(), 2u);
}

TEST_F(CountermeasureFixture, AttackTypeFilter) {
  CountermeasureEngine::Policy policy;
  policy.actOn = {AttackType::kBlackhole};
  CountermeasureEngine engine(world, policy);
  engine.onAlert(alertAgainst(net::toString(world.mac16Of(mote)), 1.0,
                              AttackType::kSybil));
  EXPECT_FALSE(world.isRevoked(mote));
  engine.onAlert(alertAgainst(net::toString(world.mac16Of(mote)), 1.0,
                              AttackType::kBlackhole));
  EXPECT_TRUE(world.isRevoked(mote));
}

// --- SIEM export ----------------------------------------------------------------

TEST(SiemExport, AlertJsonShape) {
  Alert alert;
  alert.type = AttackType::kIcmpFlood;
  alert.time = seconds(12) + milliseconds(500);
  alert.moduleName = "IcmpFloodModule";
  alert.victimEntity = "10.0.0.2";
  alert.suspectEntities = {"02:4b:41:00:00:07"};
  alert.detail = "rate 12/s";
  const std::string json = toSiemJson(alert);
  EXPECT_NE(json.find("\"kind\":\"alert\""), std::string::npos);
  EXPECT_NE(json.find("\"attack\":\"ICMPFlood\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":12.5"), std::string::npos);
  EXPECT_NE(json.find("\"victim\":\"10.0.0.2\""), std::string::npos);
  EXPECT_NE(json.find("\"suspects\":[\"02:4b:41:00:00:07\"]"),
            std::string::npos);
}

TEST(SiemExport, KnowggetJsonShape) {
  Knowgget k;
  k.creator = "K1";
  k.label = "Multihop";
  k.value = "true";
  k.collective = true;
  k.updated = seconds(3);
  const std::string json = toSiemJson(k);
  EXPECT_NE(json.find("\"key\":\"K1$Multihop\""), std::string::npos);
  EXPECT_NE(json.find("\"collective\":true"), std::string::npos);
}

TEST(SiemExport, JsonEscaping) {
  EXPECT_EQ(jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(jsonEscape(std::string(1, '\x02')), "\\u0002");
}

TEST(SiemExport, StreamsKnowledgeChanges) {
  KnowledgeBase kb("K1");
  std::vector<std::string> lines;
  SiemExporter exporter([&](const std::string& line) { lines.push_back(line); });
  exporter.watchKnowledge(kb);
  kb.put("Multihop", true);
  kb.put("Multihop", true);  // unchanged: no event
  kb.put("MonitoredNodes", 5);
  EXPECT_EQ(lines.size(), 2u);
  EXPECT_EQ(exporter.knowggetsExported(), 2u);
}

TEST(SiemExport, ComposesWithAlertSink) {
  sim::Simulator simulator(3);
  KalisNode node(simulator);
  node.useStandardLibrary();
  std::vector<std::string> lines;
  auto exporter = std::make_shared<SiemExporter>(
      [&lines](const std::string& line) { lines.push_back(line); });
  node.setAlertSink(
      [exporter](const Alert& alert) { exporter->exportAlert(alert); });
  node.start();
  // Trigger: feed enough flood traffic for an alert (single-hop known).
  node.kb().put(labels::kMultihopWifi, false);
  net::IcmpMessage reply;
  reply.type = net::IcmpType::kEchoReply;
  for (int i = 0; i < 80; ++i) {
    net::Ipv4Header ip;
    ip.src = net::Ipv4Addr{0xac100700u + static_cast<std::uint32_t>(i % 12)};
    ip.dst = net::Ipv4Addr{0x0a000002};
    ip.protocol = net::IpProto::kIcmp;
    net::WifiFrame frame;
    frame.kind = net::WifiFrameKind::kData;
    frame.body = net::llcSnapWrap(net::kEthertypeIpv4,
                                  BytesView(ip.encode(reply.encode())));
    net::CapturedPacket pkt;
    pkt.medium = net::Medium::kWifi;
    pkt.raw = frame.encode();
    pkt.meta.timestamp = seconds(10) + i * milliseconds(20);
    node.feed(pkt, net::dissect(pkt));
  }
  simulator.runUntil(seconds(13));
  EXPECT_GE(exporter->alertsExported(), 1u);
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines.back().find("\"kind\":\"alert\""), std::string::npos);
}

// --- deployment profiles -----------------------------------------------------------

TEST(Profile, SinglehopStaticHomeExcludesMultihopTechniques) {
  KnowledgeBase kb("K1");
  kb.put(labels::kMultihop, false);
  kb.put(labels::kMultihopWifi, false);
  kb.put(labels::kMultihopWpan, false);
  kb.put(labels::kMobility, false);
  kb.put("Protocols.ICMP", true);
  kb.put("Protocols.TCP", true);
  kb.put("Protocols.WiFi", true);

  const auto profile = generateProfile(kb, ModuleRegistry::global());
  const auto has = [&](const char* name) {
    return std::find(profile.modules.begin(), profile.modules.end(), name) !=
           profile.modules.end();
  };
  EXPECT_TRUE(has("IcmpFloodModule"));
  EXPECT_TRUE(has("SynFloodModule"));
  EXPECT_TRUE(has("ReplicationStaticModule"));
  EXPECT_FALSE(has("SmurfModule"));
  EXPECT_FALSE(has("SelectiveForwardingModule"));
  EXPECT_FALSE(has("WormholeModule"));
  EXPECT_FALSE(has("ReplicationMobileModule"));
}

TEST(Profile, GeneratedConfigRoundTripsAndFreezesKnowledge) {
  KnowledgeBase kb("K1");
  kb.put(labels::kMultihopWpan, true);
  kb.put(labels::kMobility, false);
  kb.put("Protocols.CTP", true);
  kb.put(labels::kCtpRoot, "0x0001");

  const auto profile = generateProfile(kb, ModuleRegistry::global());
  const std::string configText = formatConfig(profile.config);
  const auto reparsed = parseConfig(configText);
  ASSERT_TRUE(reparsed.ok) << reparsed.error << "\n" << configText;

  // Applying the frozen profile to a fresh constrained node reproduces the
  // same activation set without any learning.
  sim::Simulator simulator(1);
  KalisNode constrained(simulator);
  EXPECT_TRUE(constrained.applyConfig(reparsed.config));
  constrained.start();
  EXPECT_TRUE(constrained.modules().isActive("SelectiveForwardingModule"));
  EXPECT_TRUE(constrained.modules().isActive("SinkholeModule"));
  EXPECT_FALSE(constrained.modules().isActive("ReplicationMobileModule"));
  EXPECT_EQ(constrained.kb().local(labels::kCtpRoot), "0x0001");
}

TEST(Profile, BuildManifestListsModules) {
  KnowledgeBase kb("K1");
  kb.put("Protocols.TCP", true);
  const auto profile = generateProfile(kb, ModuleRegistry::global());
  const std::string manifest = formatBuildManifest(profile);
  EXPECT_NE(manifest.find("module SynFloodModule"), std::string::npos);
  EXPECT_NE(manifest.find("# excluded SmurfModule"), std::string::npos);
}

// --- anomaly module ------------------------------------------------------------------

struct AnomalyHarness {
  KnowledgeBase kb{"K1"};
  DataStore store;
  std::vector<Alert> alerts;
  AnomalyDetectionModule module;

  void tickWithRate(const char* type, double rate, SimTime now) {
    kb.put(std::string(labels::kTrafficFrequency) + "." + type, rate);
    ModuleContext ctx{kb, store, now,
                      [this](Alert a) { alerts.push_back(std::move(a)); }};
    module.onTick(ctx);
  }
};

TEST(Anomaly, OptInActivation) {
  KnowledgeBase kb("K1");
  AnomalyDetectionModule module;
  EXPECT_FALSE(module.required(kb));
  kb.put("AnomalyDetection", true);
  EXPECT_TRUE(module.required(kb));
}

TEST(Anomaly, FlagsRateExcursionAfterLearning) {
  AnomalyHarness h;
  for (int i = 0; i < 20; ++i) {
    h.tickWithRate("UDP", 2.0 + 0.1 * (i % 3), seconds(i));
  }
  EXPECT_TRUE(h.alerts.empty());  // learning + in-envelope
  h.tickWithRate("UDP", 40.0, seconds(30));
  ASSERT_EQ(h.alerts.size(), 1u);
  EXPECT_EQ(h.alerts[0].type, AttackType::kUnknownAnomaly);
  EXPECT_NE(h.alerts[0].detail.find("TrafficFrequency.UDP"), std::string::npos);
}

TEST(Anomaly, QuietWhileLearning) {
  AnomalyHarness h;
  h.tickWithRate("UDP", 500.0, seconds(1));  // huge, but no baseline yet
  EXPECT_TRUE(h.alerts.empty());
}

TEST(Anomaly, AnomalousSamplesDontPoisonBaseline) {
  AnomalyHarness h;
  for (int i = 0; i < 20; ++i) h.tickWithRate("UDP", 2.0, seconds(i));
  h.tickWithRate("UDP", 40.0, seconds(30));   // excursion
  ASSERT_EQ(h.alerts.size(), 1u);
  // Sustained excursion keeps alerting after the cooldown because the
  // baseline did not absorb the attack rate.
  h.tickWithRate("UDP", 40.0, seconds(50));
  EXPECT_EQ(h.alerts.size(), 2u);
}

TEST(Anomaly, SmallAbsoluteRatesIgnored) {
  AnomalyHarness h;
  for (int i = 0; i < 20; ++i) h.tickWithRate("BLEAdv", 0.1, seconds(i));
  h.tickWithRate("BLEAdv", 1.0, seconds(30));  // 10x, but tiny in absolute
  EXPECT_TRUE(h.alerts.empty());
}

}  // namespace
}  // namespace kalis::ids
