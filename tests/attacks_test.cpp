// Attack-injector tests: each injector must emit protocol-correct traffic
// with the intended malicious property, and record faithful ground truth.
#include <gtest/gtest.h>

#include <memory>

#include "attacks/dos_attacks.hpp"
#include "attacks/forwarding_attacks.hpp"
#include "attacks/sixlowpan_attacks.hpp"
#include "attacks/wpan_attacks.hpp"
#include "scenarios/environments.hpp"

namespace kalis::attacks {
namespace {

/// Captures everything on one medium at a fixed observation point.
struct Capture {
  // Dissections are views: each aliases the owned copy of its frame in
  // `frames` (Bytes buffers stay put when the vector reallocates).
  std::vector<net::CapturedPacket> frames;
  std::vector<net::Dissection> packets;

  void attach(sim::World& world, NodeId node, net::Medium medium) {
    world.addSniffer(node, medium,
                     [this](const net::CapturedPacket& pkt,
                            const net::Dissection& /*dis*/) {
                       frames.push_back(pkt);
                       packets.push_back(net::dissect(frames.back()));
                     });
  }

  std::size_t count(net::PacketType type) const {
    std::size_t n = 0;
    for (const auto& d : packets) {
      if (d.type == type) ++n;
    }
    return n;
  }
};

struct AttackFixture : ::testing::Test {
  sim::Simulator simulator{31};
  sim::World world{simulator};
  metrics::GroundTruth truth;
  Capture capture;

  NodeId addWifiNode(const char* name, sim::Vec2 pos) {
    const NodeId id = world.addNode(name, sim::NodeRole::kGeneric, pos);
    world.enableRadio(id, net::Medium::kWifi);
    return id;
  }
  NodeId addWpanNode(const char* name, sim::Vec2 pos) {
    const NodeId id = world.addNode(name, sim::NodeRole::kGeneric, pos);
    world.enableRadio(id, net::Medium::kIeee802154, scenarios::moteRadio());
    return id;
  }
};

TEST_F(AttackFixture, IcmpFloodEmitsSpoofedReplies) {
  const NodeId attacker = addWifiNode("attacker", {0, 0});
  const NodeId ids = addWifiNode("ids", {3, 0});
  capture.attach(world, ids, net::Medium::kWifi);

  IcmpFloodAttacker::Config config;
  config.victimIp = net::Ipv4Addr{0x0a000002};
  config.victimMac = net::Mac48{{2, 0, 0, 0, 0, 2}};
  config.repliesPerBurst = 20;
  config.spoofPool = 7;
  config.firstBurstAt = seconds(1);
  config.burstCount = 2;
  config.burstInterval = seconds(5);
  config.truth = &truth;
  world.setBehavior(attacker, std::make_unique<IcmpFloodAttacker>(config));
  world.start();
  simulator.runUntil(seconds(10));

  EXPECT_EQ(capture.count(net::PacketType::kIcmpEchoRep), 40u);
  EXPECT_EQ(truth.size(), 2u);
  EXPECT_EQ(truth.instances()[0].type, ids::AttackType::kIcmpFlood);
  EXPECT_EQ(truth.instances()[0].victimEntity, "10.0.0.2");

  // Distinct forged sources, one physical transmitter.
  std::set<std::string> sources;
  for (const auto& d : capture.packets) {
    if (d.type != net::PacketType::kIcmpEchoRep) continue;
    sources.insert(*d.networkSource());
    EXPECT_EQ(d.linkSource(), net::toString(world.mac48Of(attacker)));
  }
  EXPECT_EQ(sources.size(), 7u);
}

TEST_F(AttackFixture, SmurfForgesVictimSourceTowardNeighbors) {
  const NodeId attacker = addWifiNode("attacker", {0, 0});
  const NodeId ids = addWifiNode("ids", {3, 0});
  capture.attach(world, ids, net::Medium::kWifi);

  SmurfAttacker::Config config;
  config.victimIp = net::Ipv4Addr{0x0a000002};
  config.neighbors = {{net::Ipv4Addr{0x0a000003}, net::Mac48{{2, 0, 0, 0, 0, 3}}},
                      {net::Ipv4Addr{0x0a000004}, net::Mac48{{2, 0, 0, 0, 0, 4}}}};
  config.requestsPerNeighbor = 5;
  config.firstBurstAt = seconds(1);
  config.burstCount = 1;
  config.truth = &truth;
  world.setBehavior(attacker, std::make_unique<SmurfAttacker>(config));
  world.start();
  simulator.runUntil(seconds(5));

  EXPECT_EQ(capture.count(net::PacketType::kIcmpEchoReq), 10u);
  for (const auto& d : capture.packets) {
    if (d.type != net::PacketType::kIcmpEchoReq) continue;
    EXPECT_EQ(*d.networkSource(), "10.0.0.2");  // the forgery
  }
  ASSERT_EQ(truth.size(), 1u);
  EXPECT_EQ(truth.instances()[0].type, ids::AttackType::kSmurf);
}

TEST_F(AttackFixture, SynFloodHalfOpens) {
  const NodeId attacker = addWifiNode("attacker", {0, 0});
  const NodeId ids = addWifiNode("ids", {3, 0});
  capture.attach(world, ids, net::Medium::kWifi);

  SynFloodAttacker::Config config;
  config.victimIp = net::Ipv4Addr{0x0a000005};
  config.victimMac = net::Mac48{{2, 0, 0, 0, 0, 5}};
  config.synsPerBurst = 25;
  config.firstBurstAt = seconds(1);
  config.burstCount = 1;
  config.truth = &truth;
  world.setBehavior(attacker, std::make_unique<SynFloodAttacker>(config));
  world.start();
  simulator.runUntil(seconds(5));
  EXPECT_EQ(capture.count(net::PacketType::kTcpSyn), 25u);
  EXPECT_EQ(capture.count(net::PacketType::kTcpAck), 0u);  // never completes
}

TEST_F(AttackFixture, ReplicaTransmitsUnderClonedIdentity) {
  const NodeId replica = addWpanNode("replica", {0, 0});
  const NodeId ids = addWpanNode("ids", {3, 0});
  capture.attach(world, ids, net::Medium::kIeee802154);
  world.setMac16(replica, net::Mac16{0x0042});

  ReplicaDevice::Config config;
  config.clonedId = net::Mac16{0x0042};
  config.reportTo = net::Mac16{0x0001};
  config.startAt = seconds(1);
  config.interval = seconds(1);
  config.packetCount = 5;
  config.truth = &truth;
  world.setBehavior(replica, std::make_unique<ReplicaDevice>(config));
  world.start();
  simulator.runUntil(seconds(10));

  EXPECT_EQ(capture.count(net::PacketType::kZigbeeData), 5u);
  for (const auto& d : capture.packets) {
    if (d.type == net::PacketType::kZigbeeData) {
      EXPECT_EQ(d.linkSource(), "0x0042");
    }
  }
  ASSERT_EQ(truth.size(), 1u);  // one instance per replica, at first packet
  EXPECT_EQ(truth.instances()[0].suspectEntity, "0x0042");
}

TEST_F(AttackFixture, SybilSinglehopForgesLinkIdentities) {
  const NodeId attacker = addWpanNode("attacker", {0, 0});
  const NodeId ids = addWpanNode("ids", {3, 0});
  capture.attach(world, ids, net::Medium::kIeee802154);

  SybilAttacker::Config config;
  config.flavor = SybilAttacker::Flavor::kSinglehopZigbee;
  config.identityCount = 4;
  config.rounds = 3;
  config.startAt = seconds(1);
  config.truth = &truth;
  world.setBehavior(attacker, std::make_unique<SybilAttacker>(config));
  world.start();
  simulator.runUntil(seconds(10));

  std::set<std::string> linkIds;
  for (const auto& d : capture.packets) {
    if (d.type == net::PacketType::kZigbeeData) linkIds.insert(d.linkSource());
  }
  EXPECT_EQ(linkIds.size(), 4u);
  EXPECT_EQ(truth.size(), 4u);  // one instance per fabricated identity
}

TEST_F(AttackFixture, SybilMultihopKeepsOwnLinkIdentityForgesOrigins) {
  const NodeId attacker = addWpanNode("attacker", {0, 0});
  const NodeId ids = addWpanNode("ids", {3, 0});
  capture.attach(world, ids, net::Medium::kIeee802154);

  SybilAttacker::Config config;
  config.flavor = SybilAttacker::Flavor::kMultihopCtp;
  config.identityCount = 4;
  config.rounds = 2;
  config.startAt = seconds(1);
  config.truth = &truth;
  world.setBehavior(attacker, std::make_unique<SybilAttacker>(config));
  world.start();
  simulator.runUntil(seconds(10));

  std::set<std::string> origins;
  for (const auto& d : capture.packets) {
    if (d.type != net::PacketType::kCtpData) continue;
    EXPECT_EQ(d.linkSource(), net::toString(world.mac16Of(attacker)));
    EXPECT_EQ(d.ctpData->thl, 1);  // the relay pose
    origins.insert(net::toString(d.ctpData->origin));
  }
  EXPECT_EQ(origins.size(), 4u);
}

TEST_F(AttackFixture, SinkholeBeaconsAdvertiseRootGradeCost) {
  const NodeId attacker = addWpanNode("attacker", {0, 0});
  const NodeId ids = addWpanNode("ids", {3, 0});
  capture.attach(world, ids, net::Medium::kIeee802154);

  SinkholeAttacker::Config config;
  config.startAt = seconds(1);
  config.beaconInterval = seconds(1);
  config.beaconCount = 6;
  config.truth = &truth;
  world.setBehavior(attacker, std::make_unique<SinkholeAttacker>(config));
  world.start();
  simulator.runUntil(seconds(10));

  EXPECT_EQ(capture.count(net::PacketType::kCtpRouting), 6u);
  for (const auto& d : capture.packets) {
    if (d.type == net::PacketType::kCtpRouting) {
      EXPECT_EQ(d.ctpBeacon->etx, 0);
    }
  }
  EXPECT_EQ(truth.size(), 6u);
}

TEST_F(AttackFixture, HelloFloodRateFarAboveCadence) {
  const NodeId attacker = addWpanNode("attacker", {0, 0});
  const NodeId ids = addWpanNode("ids", {3, 0});
  capture.attach(world, ids, net::Medium::kIeee802154);

  HelloFloodAttacker::Config config;
  config.startAt = seconds(1);
  config.spacing = milliseconds(100);
  config.burstLength = seconds(2);
  config.burstCount = 1;
  config.truth = &truth;
  world.setBehavior(attacker, std::make_unique<HelloFloodAttacker>(config));
  world.start();
  simulator.runUntil(seconds(5));
  EXPECT_EQ(capture.count(net::PacketType::kCtpRouting), 20u);  // 10/s x 2 s
}

TEST_F(AttackFixture, SelectiveForwardPolicyRespectsProbabilityAndCap) {
  sim::Simulator simulator2(77);
  sim::World world2(simulator2);
  scenarios::Wsn wsn = scenarios::buildWsn(world2, 4, seconds(1));
  auto policy = std::make_shared<SelectiveForwardPolicy>(
      0.5, ids::AttackType::kSelectiveForwarding, &truth, /*maxInstances=*/10);
  wsn.moteAgents[0]->setForwardPolicy(policy);
  world2.start();
  simulator2.runUntil(seconds(120));
  // ~50% of many forwarding opportunities dropped.
  const auto& stats = wsn.moteAgents[0]->stats();
  const double total =
      static_cast<double>(stats.dataForwarded + stats.dataDropped);
  ASSERT_GT(total, 50.0);
  const double ratio = static_cast<double>(stats.dataDropped) / total;
  EXPECT_NEAR(ratio, 0.5, 0.12);
  // Ground truth capped as configured.
  EXPECT_EQ(truth.size(), 10u);
}

TEST_F(AttackFixture, WormholePolicyTunnelsToPeer) {
  const NodeId b1 = addWpanNode("B1", {0, 0});
  const NodeId b2 = addWpanNode("B2", {4, 0});
  const NodeId ids = addWpanNode("ids", {2, 2});
  capture.attach(world, ids, net::Medium::kIeee802154);

  WormholeRelayPolicy::Config config;
  config.world = &world;
  config.peer = b2;
  config.truth = &truth;
  auto policy = std::make_shared<WormholeRelayPolicy>(config);

  // Drive the policy directly with a frame "to relay".
  net::ZigbeeNwkFrame nwk;
  nwk.src = net::Mac16{0x0001};
  nwk.dst = net::Mac16{0x0009};
  nwk.seq = 42;
  nwk.payload = {net::kZigbeeAppCommand, 1, 2, 3};
  sim::NodeHandle handle = world.handle(b1);
  const Bytes nwkRaw = nwk.encode();
  std::optional<net::ZigbeeNwkFrameView> nwkView;
  ASSERT_TRUE(net::decodeZigbeeNwk(BytesView(nwkRaw), nwkView));
  EXPECT_FALSE(policy->shouldRelay(handle, *nwkView));  // B1 drops...
  simulator.runUntil(seconds(1));

  // ...and B2 re-emits the identical NWK frame under its own link identity.
  ASSERT_EQ(capture.count(net::PacketType::kZigbeeData), 1u);
  for (const auto& d : capture.packets) {
    if (d.type != net::PacketType::kZigbeeData) continue;
    EXPECT_EQ(d.linkSource(), net::toString(world.mac16Of(b2)));
    EXPECT_EQ(d.zigbee->src, net::Mac16{0x0001});
    EXPECT_EQ(d.zigbee->seq, 42);
    EXPECT_EQ(toBytes(d.zigbee->payload), nwk.payload);
  }
  EXPECT_EQ(policy->tunneled(), 1u);
  EXPECT_EQ(truth.size(), 1u);
}

TEST_F(AttackFixture, Smurf6lwForgesVictimIpv6Source) {
  const NodeId attacker = addWpanNode("attacker", {0, 0});
  const NodeId ids = addWpanNode("ids", {3, 0});
  capture.attach(world, ids, net::Medium::kIeee802154);

  SmurfAttacker6lw::Config config;
  config.victim = net::Mac16{0x0005};
  config.neighbors = {net::Mac16{0x0003}, net::Mac16{0x0004}};
  config.requestsPerNeighbor = 3;
  config.firstBurstAt = seconds(1);
  config.burstCount = 1;
  config.truth = &truth;
  world.setBehavior(attacker, std::make_unique<SmurfAttacker6lw>(config));
  world.start();
  simulator.runUntil(seconds(5));

  EXPECT_EQ(capture.count(net::PacketType::kIcmpv6EchoReq), 6u);
  const std::string victimIp =
      net::toString(net::Ipv6Addr::linkLocalFromShort(net::Mac16{0x0005}));
  for (const auto& d : capture.packets) {
    if (d.type == net::PacketType::kIcmpv6EchoReq) {
      EXPECT_EQ(*d.networkSource(), victimIp);
    }
  }
}

TEST_F(AttackFixture, DeauthAttackerForgesApIdentity) {
  const NodeId attacker = addWifiNode("attacker", {0, 0});
  const NodeId ids = addWifiNode("ids", {3, 0});
  capture.attach(world, ids, net::Medium::kWifi);

  DeauthAttacker::Config config;
  config.victimMac = net::Mac48{{2, 0, 0, 0, 0, 5}};
  config.apMac = net::Mac48{{2, 0, 0, 0, 0, 1}};
  config.framesPerBurst = 8;
  config.firstBurstAt = seconds(1);
  config.burstCount = 1;
  config.truth = &truth;
  world.setBehavior(attacker, std::make_unique<DeauthAttacker>(config));
  world.start();
  simulator.runUntil(seconds(5));

  EXPECT_EQ(capture.count(net::PacketType::kWifiDeauth), 8u);
  for (const auto& d : capture.packets) {
    if (d.type == net::PacketType::kWifiDeauth) {
      EXPECT_EQ(d.linkSource(), "02:00:00:00:00:01");  // forged AP identity
    }
  }
}

}  // namespace
}  // namespace kalis::attacks
