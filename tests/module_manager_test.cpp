// Module Manager tests: dynamic knowledge-driven (de)activation via the KB's
// publish/subscribe, the traditional-IDS emulation, packet routing, alert
// collection, and the registry's instantiate-by-name mechanism.
#include <gtest/gtest.h>

#include "kalis/module_manager.hpp"
#include "kalis/module_registry.hpp"

namespace kalis::ids {
namespace {

/// A test module whose required() follows the "TestFeature" knowgget and
/// which raises one alert per packet while active.
class FeatureGatedModule : public DetectionModule {
 public:
  std::string name() const override { return "FeatureGatedModule"; }
  AttackType attack() const override { return AttackType::kUnknownAnomaly; }
  bool required(const KnowledgeBase& kb) const override {
    return kb.local<bool>("TestFeature").value_or(false);
  }
  std::vector<std::string> watchedLabels() const override {
    return {"TestFeature"};
  }
  void onActivate(ModuleContext&) override { ++activations; }
  void onDeactivate(ModuleContext&) override { ++deactivations; }
  void onPacket(const net::CapturedPacket&, const net::Dissection&,
                ModuleContext& ctx) override {
    ++packets;
    Alert alert;
    alert.type = AttackType::kUnknownAnomaly;
    alert.moduleName = name();
    alert.time = ctx.now;
    ctx.raiseAlert(std::move(alert));
  }
  std::uint32_t workUnitsPerPacket() const override { return 5; }

  int activations = 0;
  int deactivations = 0;
  int packets = 0;
};

net::CapturedPacket somePacket() {
  net::Ieee802154Frame frame;
  frame.src = net::Mac16{0x0004};
  net::CapturedPacket pkt;
  pkt.medium = net::Medium::kIeee802154;
  pkt.raw = frame.encode();
  pkt.meta.timestamp = seconds(1);
  return pkt;
}

struct ManagerFixture : ::testing::Test {
  KnowledgeBase kb{"K1"};
  DataStore store;
  ModuleManager manager{kb, store};

  /// Routes somePacket() through the manager at `now`.
  void route(SimTime now) {
    const net::CapturedPacket pkt = somePacket();
    manager.onPacket(pkt, net::dissect(pkt), now);
  }
};

TEST_F(ManagerFixture, ModuleInactiveUntilKnowledgeAppears) {
  auto module = std::make_unique<FeatureGatedModule>();
  FeatureGatedModule* raw = module.get();
  manager.addModule(std::move(module));
  manager.start(0);
  EXPECT_FALSE(manager.isActive("FeatureGatedModule"));

  route(seconds(1));
  EXPECT_EQ(raw->packets, 0);  // inactive modules see no traffic

  kb.put("TestFeature", true);
  EXPECT_TRUE(manager.isActive("FeatureGatedModule"));
  EXPECT_EQ(raw->activations, 1);

  route(seconds(2));
  EXPECT_EQ(raw->packets, 1);
}

TEST_F(ManagerFixture, DeactivatesWhenKnowledgeFlips) {
  auto module = std::make_unique<FeatureGatedModule>();
  FeatureGatedModule* raw = module.get();
  manager.addModule(std::move(module));
  manager.start(0);
  kb.put("TestFeature", true);
  kb.put("TestFeature", false);
  EXPECT_FALSE(manager.isActive("FeatureGatedModule"));
  EXPECT_EQ(raw->activations, 1);
  EXPECT_EQ(raw->deactivations, 1);
}

TEST_F(ManagerFixture, AllAlwaysActiveIgnoresRequired) {
  manager.setAllAlwaysActive(true);
  auto module = std::make_unique<FeatureGatedModule>();
  FeatureGatedModule* raw = module.get();
  manager.addModule(std::move(module));
  manager.start(0);
  EXPECT_TRUE(manager.isActive("FeatureGatedModule"));
  route(seconds(1));
  EXPECT_EQ(raw->packets, 1);
}

TEST_F(ManagerFixture, AlertsCollectedAndSinkInvoked) {
  manager.setAllAlwaysActive(true);
  manager.addModule(std::make_unique<FeatureGatedModule>());
  manager.start(0);
  int sinkCalls = 0;
  manager.setAlertSink([&](const Alert&) { ++sinkCalls; });
  route(seconds(1));
  route(seconds(2));
  EXPECT_EQ(manager.alerts().size(), 2u);
  EXPECT_EQ(sinkCalls, 2);
}

TEST_F(ManagerFixture, WorkUnitAccounting) {
  manager.setAllAlwaysActive(true);
  manager.addModule(std::make_unique<FeatureGatedModule>());
  manager.start(0);
  route(seconds(1));
  route(seconds(2));
  EXPECT_EQ(manager.totalWorkUnits(), 10u);  // 2 packets x 5 units
  EXPECT_EQ(manager.packetsProcessed(), 2u);
}

TEST_F(ManagerFixture, PacketsFlowIntoDataStore) {
  manager.start(0);
  route(seconds(1));
  EXPECT_EQ(store.totalPackets(), 1u);
  EXPECT_EQ(store.window().size(), 1u);
}

TEST_F(ManagerFixture, AddModuleAfterStartIsEvaluatedImmediately) {
  manager.start(0);
  kb.put("TestFeature", true);
  auto module = std::make_unique<FeatureGatedModule>();
  FeatureGatedModule* raw = module.get();
  manager.addModule(std::move(module));
  EXPECT_TRUE(manager.isActive("FeatureGatedModule"));
  EXPECT_EQ(raw->activations, 1);
}

TEST_F(ManagerFixture, FindAndNames) {
  manager.addModule(std::make_unique<FeatureGatedModule>());
  manager.start(0);
  EXPECT_NE(manager.find("FeatureGatedModule"), nullptr);
  EXPECT_EQ(manager.find("NoSuchModule"), nullptr);
  EXPECT_EQ(manager.allModuleNames().size(), 1u);
  EXPECT_EQ(manager.activeCount(), 0u);
}

// --- registry ---------------------------------------------------------------------

TEST(Registry, StandardLibraryComplete) {
  ModuleRegistry& registry = ModuleRegistry::global();
  // 5 sensing + 14 detection modules.
  EXPECT_GE(registry.size(), 19u);
  for (const char* name :
       {"TopologyDiscoveryModule", "TrafficStatsModule",
        "MobilityAwarenessModule", "IcmpFloodModule", "SmurfModule",
        "SynFloodModule", "SelectiveForwardingModule", "BlackholeModule",
        "WormholeModule", "ReplicationStaticModule",
        "ReplicationMobileModule", "SybilSinglehopModule",
        "SybilMultihopModule", "SinkholeModule", "HelloFloodModule",
        "DeauthFloodModule", "DataAlterationModule",
        "EncryptionDetectionModule", "DeviceClassifierModule"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    auto instance = registry.create(name);
    ASSERT_NE(instance, nullptr) << name;
    EXPECT_EQ(instance->name(), name);
  }
}

TEST(Registry, UnknownNameYieldsNull) {
  EXPECT_EQ(ModuleRegistry::global().create("FluxCapacitorModule"), nullptr);
}

TEST(Registry, DuplicateRegistrationRejected) {
  ModuleRegistry registry;
  EXPECT_TRUE(registry.add("X", [] { return nullptr; }));
  EXPECT_FALSE(registry.add("X", [] { return nullptr; }));
}

// Every registered module must instantiate, answer required() against an
// empty KB without crashing, and report a name matching its registry key.
class AllModules : public ::testing::TestWithParam<std::string> {};

TEST_P(AllModules, BasicContract) {
  // Declared first: a module may subscribe to the KB it is fed with, and
  // the KB must outlive it (as in KalisNode).
  KnowledgeBase kb("K1");
  auto module = ModuleRegistry::global().create(GetParam());
  ASSERT_NE(module, nullptr);
  EXPECT_EQ(module->name(), GetParam());
  (void)module->required(kb);
  (void)module->watchedLabels();
  (void)module->memoryBytes();
  EXPECT_GE(module->workUnitsPerPacket(), 1u);
  // Feeding packets while (possibly) inactive must be harmless too.
  DataStore store;
  ModuleContext ctx{kb, store, 0, [](Alert) {}};
  module->onPacket(somePacket(), net::dissect(somePacket()), ctx);
  module->onTick(ctx);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, AllModules,
    ::testing::ValuesIn(ModuleRegistry::global().names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace kalis::ids
