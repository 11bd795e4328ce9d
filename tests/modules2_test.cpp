// Unit tests for the remaining sensing and detection modules: sybil (both
// techniques), sinkhole (CTP + RPL), hello flood, deauth flood, wormhole
// (single-KB unit level), data alteration, encryption detection, device
// classifier and mobility awareness.
#include <gtest/gtest.h>

#include "kalis/modules/data_alteration.hpp"
#include "kalis/modules/deauth_flood.hpp"
#include "kalis/modules/device_classifier.hpp"
#include "kalis/modules/encryption_detection.hpp"
#include "kalis/modules/hello_flood.hpp"
#include "kalis/modules/mobility_awareness.hpp"
#include "kalis/modules/sinkhole.hpp"
#include "kalis/modules/sybil.hpp"
#include "kalis/modules/wormhole.hpp"
#include "support.hpp"
#include "util/rng.hpp"

namespace kalis::ids {
namespace {

using test::ctpBeaconPacket;
using test::ctpDataPacket;
using test::ModuleHarness;
using test::wpanPacket;

net::CapturedPacket zigbeeData(net::Mac16 linkSrc, net::Mac16 linkDst,
                               net::Mac16 nwkSrc, net::Mac16 nwkDst,
                               std::uint8_t seq, SimTime t,
                               double rssi = -60.0,
                               Bytes appPayload = {net::kZigbeeAppReport, 1, 2}) {
  net::ZigbeeNwkFrame nwk;
  nwk.src = nwkSrc;
  nwk.dst = nwkDst;
  nwk.seq = seq;
  nwk.radius = 4;
  nwk.payload = std::move(appPayload);
  net::Ieee802154Frame frame;
  frame.src = linkSrc;
  frame.dst = linkDst;
  frame.payload = nwk.encode();
  return wpanPacket(frame, t, rssi);
}

// --- SybilSinglehopModule ------------------------------------------------------

TEST(SybilSinglehop, ClusterOfFreshIdentitiesAtOneFingerprint) {
  ModuleHarness h;
  SybilSinglehopModule module;
  // Long-lived legit nodes at distinct RSSIs.
  for (int round = 0; round < 12; ++round) {
    const SimTime t = seconds(1 + round * 2);
    h.feed(module, zigbeeData(net::Mac16{2}, net::Mac16{1}, net::Mac16{2},
                              net::Mac16{1}, static_cast<std::uint8_t>(round),
                              t, -52.0));
    h.feed(module, zigbeeData(net::Mac16{3}, net::Mac16{1}, net::Mac16{3},
                              net::Mac16{1}, static_cast<std::uint8_t>(round),
                              t + milliseconds(100), -66.0));
  }
  // Burst of 5 fresh identities, all from one radio (~-73 dBm).
  for (int round = 0; round < 4; ++round) {
    for (std::uint16_t k = 0; k < 5; ++k) {
      h.feed(module,
             zigbeeData(net::Mac16{static_cast<std::uint16_t>(0x900 + k)},
                        net::Mac16{1},
                        net::Mac16{static_cast<std::uint16_t>(0x900 + k)},
                        net::Mac16{1}, static_cast<std::uint8_t>(round),
                        seconds(26) + round * seconds(2) + k * milliseconds(50),
                        -73.0 + 0.3 * k));
    }
  }
  h.tick(module, seconds(33));
  ASSERT_TRUE(h.sawAttack(AttackType::kSybil));
  EXPECT_GE(h.alerts[0].suspectEntities.size(), 4u);
}

TEST(SybilSinglehop, DistinctFingerprintsStayClean) {
  ModuleHarness h;
  SybilSinglehopModule module;
  for (int round = 0; round < 10; ++round) {
    for (std::uint16_t node = 2; node <= 7; ++node) {
      h.feed(module, zigbeeData(net::Mac16{node}, net::Mac16{1},
                                net::Mac16{node}, net::Mac16{1},
                                static_cast<std::uint8_t>(round),
                                seconds(1 + round * 2) + node * milliseconds(40),
                                -50.0 - 6.0 * node));
    }
  }
  h.tick(module, seconds(21));
  EXPECT_FALSE(h.sawAttack(AttackType::kSybil));
}

TEST(SybilSinglehop, RequiredOnlyOnKnownSinglehop) {
  KnowledgeBase kb("K1");
  SybilSinglehopModule module;
  EXPECT_FALSE(module.required(kb));  // unknown topology
  kb.put(labels::kMultihopWpan, false);
  EXPECT_TRUE(module.required(kb));
  kb.put(labels::kMultihopWpan, true);
  EXPECT_FALSE(module.required(kb));
}

// --- SybilMultihopModule -------------------------------------------------------

TEST(SybilMultihop, GhostOriginsFlagged) {
  ModuleHarness h;
  SybilMultihopModule module;
  // Legit relay 3 beacons and forwards origin 5's data: both participate.
  h.feed(module, ctpBeaconPacket(net::Mac16{3}, 20, seconds(1)));
  h.feed(module, ctpBeaconPacket(net::Mac16{5}, 30, seconds(2)));
  h.feed(module, ctpDataPacket(net::Mac16{3}, net::Mac16{2}, net::Mac16{5}, 1,
                               1, seconds(3), -60.0, bytesOf("xy")));
  // Attacker (link 9, which also "relays") injects 5 ghost origins.
  for (std::uint16_t k = 0; k < 5; ++k) {
    h.feed(module,
           ctpDataPacket(net::Mac16{9}, net::Mac16{1},
                         net::Mac16{static_cast<std::uint16_t>(0xa00 + k)},
                         static_cast<std::uint8_t>(k), 1,
                         seconds(10) + k * milliseconds(300), -60.0,
                         bytesOf("xy")));
  }
  h.tick(module, seconds(12));
  ASSERT_TRUE(h.sawAttack(AttackType::kSybil));
  EXPECT_GE(h.alerts[0].suspectEntities.size(), 4u);
  // Legit origin 5 must not be among the ghosts.
  for (const auto& suspect : h.alerts[0].suspectEntities) {
    EXPECT_NE(suspect, "0x0005");
  }
}

TEST(SybilMultihop, SteadyNetworkStaysClean) {
  ModuleHarness h;
  SybilMultihopModule module;
  for (int round = 0; round < 10; ++round) {
    for (std::uint16_t node = 2; node <= 6; ++node) {
      h.feed(module,
             ctpBeaconPacket(net::Mac16{node}, 20, seconds(round * 2) + node));
      h.feed(module,
             ctpDataPacket(net::Mac16{node}, net::Mac16{1}, net::Mac16{node},
                           static_cast<std::uint8_t>(round), 0,
                           seconds(round * 2) + node * milliseconds(100),
                           -60.0, bytesOf("xy")));
    }
  }
  h.tick(module, seconds(25));
  EXPECT_FALSE(h.sawAttack(AttackType::kSybil));
}

// --- SinkholeModule --------------------------------------------------------------

TEST(Sinkhole, NonRootAdvertisingEtxZero) {
  ModuleHarness h;
  h.kb.put(labels::kCtpRoot, "0x0001");
  SinkholeModule module;
  h.feed(module, ctpBeaconPacket(net::Mac16{1}, 0, seconds(1)));  // real root
  EXPECT_TRUE(h.alerts.empty());
  h.feed(module, ctpBeaconPacket(net::Mac16{8}, 0, seconds(2)));  // impostor
  ASSERT_TRUE(h.sawAttack(AttackType::kSinkhole));
  EXPECT_EQ(h.alerts[0].suspectEntities[0], "0x0008");
}

TEST(Sinkhole, SuddenEtxCollapse) {
  ModuleHarness h;
  h.kb.put(labels::kCtpRoot, "0x0001");
  SinkholeModule module;
  h.feed(module, ctpBeaconPacket(net::Mac16{4}, 40, seconds(1)));
  EXPECT_TRUE(h.alerts.empty());
  h.feed(module, ctpBeaconPacket(net::Mac16{4}, 5, seconds(3)));  // -35 at once
  EXPECT_TRUE(h.sawAttack(AttackType::kSinkhole));
}

TEST(Sinkhole, GradualImprovementTolerated) {
  ModuleHarness h;
  h.kb.put(labels::kCtpRoot, "0x0001");
  SinkholeModule module;
  for (std::uint16_t etx = 40; etx >= 20; etx -= 5) {
    h.feed(module, ctpBeaconPacket(net::Mac16{4}, etx, seconds(41 - etx)));
  }
  EXPECT_TRUE(h.alerts.empty());
}

TEST(Sinkhole, RplRankBelowRoot) {
  ModuleHarness h;
  SinkholeModule module;
  net::RplDio dio;
  dio.rank = 256;  // the root's rank
  dio.dodagId = net::Ipv6Addr::linkLocalFromShort(net::Mac16{1});
  net::Icmpv6Message msg;
  msg.type = net::Icmpv6Type::kRplControl;
  msg.code = net::kRplCodeDio;
  msg.body = dio.encodeBody();
  net::Ipv6Header ip;
  ip.src = net::Ipv6Addr::linkLocalFromShort(net::Mac16{9});
  ip.dst = net::Ipv6Addr::allNodesMulticast();
  ip.hopLimit = 1;
  Bytes payload;
  payload.push_back(net::kDispatchIpv6Uncompressed);
  const Bytes packet = ip.encode(msg.encode(ip.src, ip.dst));
  payload.insert(payload.end(), packet.begin(), packet.end());
  net::Ieee802154Frame frame;
  frame.src = net::Mac16{9};  // NOT the DODAG root
  frame.dst = net::Mac16{net::Mac16::kBroadcast};
  frame.payload = std::move(payload);
  h.feed(module, wpanPacket(frame, seconds(1)));
  ASSERT_TRUE(h.sawAttack(AttackType::kSinkhole));
}

// --- HelloFloodModule --------------------------------------------------------------

TEST(HelloFlood, BeaconStormFlagged) {
  ModuleHarness h;
  HelloFloodModule module;
  for (int i = 0; i < 40; ++i) {
    h.feed(module, ctpBeaconPacket(net::Mac16{6}, 20,
                                   seconds(5) + i * milliseconds(100)));
  }
  h.tick(module, seconds(9));
  ASSERT_TRUE(h.sawAttack(AttackType::kHelloFlood));
  EXPECT_EQ(h.alerts[0].suspectEntities[0], "0x0006");
}

TEST(HelloFlood, NormalCadenceClean) {
  ModuleHarness h;
  HelloFloodModule module;
  for (int i = 0; i < 20; ++i) {
    h.feed(module, ctpBeaconPacket(net::Mac16{6}, 20, seconds(2 * i)));
  }
  h.tick(module, seconds(41));
  EXPECT_FALSE(h.sawAttack(AttackType::kHelloFlood));
}

// --- DeauthFloodModule ---------------------------------------------------------------

TEST(DeauthFlood, BurstFlagged) {
  ModuleHarness h;
  DeauthFloodModule module;
  for (int i = 0; i < 30; ++i) {
    net::WifiFrame deauth;
    deauth.kind = net::WifiFrameKind::kDeauth;
    deauth.dst = net::Mac48{{2, 0, 0, 0, 0, 5}};
    deauth.src = net::Mac48{{2, 0, 0, 0, 0, 9}};
    net::CapturedPacket pkt;
    pkt.medium = net::Medium::kWifi;
    pkt.raw = deauth.encode();
    pkt.meta.timestamp = seconds(3) + i * milliseconds(100);
    h.feed(module, pkt);
  }
  h.tick(module, seconds(7));
  ASSERT_TRUE(h.sawAttack(AttackType::kDeauthFlood));
  EXPECT_EQ(h.alerts[0].victimEntity, "02:00:00:00:00:05");
  EXPECT_EQ(h.alerts[0].suspectEntities[0], "02:00:00:00:00:09");
}

// --- WormholeModule (single-KB unit) ---------------------------------------------------

TEST(Wormhole, UnexplainedInjectionPlusDropEvidenceCorrelate) {
  ModuleHarness h;
  WormholeModule module;
  // B2 (0x0004) transmits frames in the name of the hub (0x0001), which was
  // never heard directly and never handed anything to B2.
  for (std::uint8_t seq = 0; seq < 4; ++seq) {
    h.feed(module, zigbeeData(net::Mac16{4}, net::Mac16{3}, net::Mac16{1},
                              net::Mac16{3}, seq,
                              seconds(5) + seq * seconds(1)));
  }
  // First tick publishes the local Wormhole.Unexplained knowgget.
  h.tick(module, seconds(10));
  const auto unexplained = h.kb.byLabel(labels::kWormholeUnexplained);
  ASSERT_EQ(unexplained.size(), 1u);
  EXPECT_EQ(unexplained[0].entity, "0x0004");

  // Drop evidence arrives (here: injected as if synced from a peer), with
  // matching fingerprints.
  Knowgget drops;
  drops.creator = "K2";
  drops.label = labels::kWormholeDrops;
  drops.entity = "0x0002";
  drops.value = unexplained[0].value;  // identical fingerprints
  ASSERT_TRUE(h.kb.putRemote(drops));
  h.tick(module, seconds(11));
  ASSERT_TRUE(h.sawAttack(AttackType::kWormhole));
  const auto& suspects = h.alerts.back().suspectEntities;
  ASSERT_EQ(suspects.size(), 2u);
  EXPECT_EQ(suspects[0], "0x0002");
  EXPECT_EQ(suspects[1], "0x0004");
}

TEST(Wormhole, MalformedPeerFingerprintsAreSkipped) {
  // Drop evidence is a peer's value (putRemote). A field that is not 1-16
  // hex digits is skipped instead of throwing out of the tick, and the
  // well-formed fields of the same value still correlate.
  ModuleHarness h;
  WormholeModule module;
  h.kb.put(labels::kWormholeUnexplained,
           "def456,abc123,facade,ffffffffffffffff", "0x0004",
           /*collective=*/true);
  Knowgget drops;
  drops.creator = "K9";
  drops.label = labels::kWormholeDrops;
  drops.entity = "0x0005";
  drops.value =
      "zz,abc123,-1,0xdef456, facade,1ffffffffffffffff,ffffffffffffffff,,12";
  ASSERT_TRUE(h.kb.putRemote(drops));
  ASSERT_NO_THROW(h.tick(module, seconds(1)));
  ASSERT_EQ(h.alerts.size(), 1u);
  EXPECT_EQ(h.alerts[0].detail, "2 tunneled packets matched between K9 and K1");
  EXPECT_EQ(h.alerts[0].suspectEntities,
            (std::vector<std::string>{"0x0005", "0x0004"}));
}

TEST(Wormhole, HonestRelayNotUnexplained) {
  ModuleHarness h;
  WormholeModule module;
  // The frame is first handed TO the relay, then re-emitted by it: explained.
  h.feed(module, zigbeeData(net::Mac16{1}, net::Mac16{4}, net::Mac16{1},
                            net::Mac16{3}, 7, seconds(5)));
  h.feed(module, zigbeeData(net::Mac16{4}, net::Mac16{3}, net::Mac16{1},
                            net::Mac16{3}, 7, seconds(5) + milliseconds(20)));
  h.tick(module, seconds(6));
  EXPECT_TRUE(h.kb.byLabel(labels::kWormholeUnexplained).empty());
}

// --- DataAlterationModule ----------------------------------------------------------------

TEST(DataAlteration, TamperedForwardAlerts) {
  ModuleHarness h;
  h.kb.put(labels::kCtpRoot, "0x0001");
  DataAlterationModule module;
  net::CtpData original;
  original.origin = net::Mac16{5};
  original.seqno = 3;
  original.thl = 0;
  original.payload = bytesOf("good");
  net::Ieee802154Frame handoff;
  handoff.src = net::Mac16{5};
  handoff.dst = net::Mac16{4};
  handoff.payload =
      net::wrapTinyosAm(net::kAmCtpData, BytesView(original.encode()));
  h.feed(module, wpanPacket(handoff, seconds(1)));

  net::CtpData tampered = original;
  tampered.thl = 1;
  tampered.payload = bytesOf("evil");
  net::Ieee802154Frame forward;
  forward.src = net::Mac16{4};
  forward.dst = net::Mac16{3};
  forward.payload =
      net::wrapTinyosAm(net::kAmCtpData, BytesView(tampered.encode()));
  h.feed(module, wpanPacket(forward, seconds(1) + milliseconds(50)));
  h.tick(module, seconds(2));
  ASSERT_TRUE(h.sawAttack(AttackType::kDataAlteration));
  EXPECT_EQ(h.alerts[0].suspectEntities[0], "0x0004");
  EXPECT_EQ(h.alerts[0].victimEntity, "0x0005");
}

TEST(DataAlteration, DeactivatedUnderLinkCrypto) {
  KnowledgeBase kb("K1");
  kb.put(labels::kMultihopWpan, true);
  DataAlterationModule module;
  EXPECT_TRUE(module.required(kb));
  kb.put("LinkEncryption.P802154", true);
  EXPECT_FALSE(module.required(kb));
}

// --- EncryptionDetectionModule --------------------------------------------------------------

TEST(EncryptionDetection, LinkSecurityBitPublishes) {
  ModuleHarness h;
  EncryptionDetectionModule module;
  net::Ieee802154Frame frame;
  frame.src = net::Mac16{5};
  frame.securityEnabled = true;
  frame.payload = bytesOf("x");
  h.feed(module, wpanPacket(frame, seconds(1)));
  EXPECT_EQ(h.kb.local<bool>("LinkEncryption.P802154"), true);
  EXPECT_EQ(h.kb.local<bool>("Encrypted", "0x0005"), true);
}

TEST(EncryptionDetection, HighEntropyPayloadFlagsEntity) {
  ModuleHarness h;
  EncryptionDetectionModule module;
  Rng rng(5);
  Bytes noise;
  // A realistic TLS record size; small samples sit below the entropy
  // threshold simply because 256 draws can't fill 256 bins.
  for (int i = 0; i < 1024; ++i) {
    noise.push_back(static_cast<std::uint8_t>(rng.next() & 0xff));
  }
  h.feed(module, zigbeeData(net::Mac16{6}, net::Mac16{1}, net::Mac16{6},
                            net::Mac16{1}, 1, seconds(1), -60.0, noise));
  EXPECT_EQ(h.kb.local<bool>("Encrypted", "0x0006"), true);
  EXPECT_EQ(h.kb.local<bool>("LinkEncryption.P802154"), std::nullopt);
}

TEST(EncryptionDetection, PlaintextStaysUnflagged) {
  ModuleHarness h;
  EncryptionDetectionModule module;
  Bytes text = bytesOf(
      "plain old ascii sensor report with very low byte entropy indeed, "
      "repeated words repeated words repeated words");
  h.feed(module, zigbeeData(net::Mac16{6}, net::Mac16{1}, net::Mac16{6},
                            net::Mac16{1}, 1, seconds(1), -60.0, text));
  EXPECT_EQ(h.kb.local<bool>("Encrypted", "0x0006"), std::nullopt);
}

// --- DeviceClassifierModule ----------------------------------------------------------------

TEST(DeviceClassifier, RolesFromTrafficShape) {
  ModuleHarness h;
  DeviceClassifierModule module;
  // AP beacon: router.
  net::WifiFrame beacon;
  beacon.kind = net::WifiFrameKind::kBeacon;
  beacon.src = net::Mac48{{2, 0, 0, 0, 0, 1}};
  beacon.bssid = beacon.src;
  beacon.body = net::beaconBody("home");
  net::CapturedPacket beaconPkt;
  beaconPkt.medium = net::Medium::kWifi;
  beaconPkt.raw = beacon.encode();
  beaconPkt.meta.timestamp = seconds(1);
  h.feed(module, beaconPkt);

  // ZigBee commander to 2 targets: hub; reporters: subs.
  for (std::uint16_t target : {3, 4}) {
    h.feed(module,
           zigbeeData(net::Mac16{2}, net::Mac16{target}, net::Mac16{2},
                      net::Mac16{target}, 1, seconds(2),
                      -60.0, {net::kZigbeeAppCommand, 0, 0, 0}));
  }
  h.feed(module, zigbeeData(net::Mac16{3}, net::Mac16{2}, net::Mac16{3},
                            net::Mac16{2}, 1, seconds(3)));
  h.tick(module, seconds(4));
  EXPECT_EQ(h.kb.local(labels::kRole, "02:00:00:00:00:01"), "router");
  EXPECT_EQ(h.kb.local(labels::kRole, "0x0002"), "hub");
  EXPECT_EQ(h.kb.local(labels::kRole, "0x0003"), "sub");
}

// --- MobilityAwarenessModule ----------------------------------------------------------------

TEST(MobilityAwareness, StaticNetworkPublishesFalse) {
  ModuleHarness h;
  MobilityAwarenessModule module;
  for (int i = 0; i < 15; ++i) {
    h.feed(module, zigbeeData(net::Mac16{2}, net::Mac16{1}, net::Mac16{2},
                              net::Mac16{1}, static_cast<std::uint8_t>(i),
                              seconds(i), -60.0 + 0.2 * (i % 3)));
  }
  h.tick(module, seconds(16));
  EXPECT_EQ(h.kb.local<bool>(labels::kMobility), false);
}

TEST(MobilityAwareness, TwoMovingEntitiesPublishTrue) {
  ModuleHarness h;
  MobilityAwarenessModule module;
  for (int i = 0; i < 25; ++i) {
    // Both nodes drifting away: RSSI falls steadily.
    h.feed(module, zigbeeData(net::Mac16{2}, net::Mac16{1}, net::Mac16{2},
                              net::Mac16{1}, static_cast<std::uint8_t>(i),
                              seconds(i), -50.0 - 1.2 * i));
    h.feed(module, zigbeeData(net::Mac16{3}, net::Mac16{1}, net::Mac16{3},
                              net::Mac16{1}, static_cast<std::uint8_t>(i),
                              seconds(i) + milliseconds(200), -48.0 - 1.1 * i));
  }
  h.tick(module, seconds(25));
  EXPECT_EQ(h.kb.local<bool>(labels::kMobility), true);
}

TEST(MobilityAwareness, SingleAnomalousEntityIsNotNetworkMobility) {
  // One identity with wild RSSI (a replica!) must not flip the network to
  // mobile while everyone else is rock-steady.
  ModuleHarness h;
  MobilityAwarenessModule module;
  for (int i = 0; i < 25; ++i) {
    h.feed(module, zigbeeData(net::Mac16{2}, net::Mac16{1}, net::Mac16{2},
                              net::Mac16{1}, static_cast<std::uint8_t>(i),
                              seconds(i), -60.0));
    h.feed(module, zigbeeData(net::Mac16{3}, net::Mac16{1}, net::Mac16{3},
                              net::Mac16{1}, static_cast<std::uint8_t>(i),
                              seconds(i) + milliseconds(300),
                              (i % 2) ? -55.0 : -85.0));
  }
  h.tick(module, seconds(25));
  EXPECT_EQ(h.kb.local<bool>(labels::kMobility), false);
}

TEST(MobilityAwareness, PublishesCollectiveSignalStrength) {
  ModuleHarness h;
  MobilityAwarenessModule module;
  for (int i = 0; i < 5; ++i) {
    h.feed(module, zigbeeData(net::Mac16{2}, net::Mac16{1}, net::Mac16{2},
                              net::Mac16{1}, static_cast<std::uint8_t>(i),
                              seconds(i), -67.0));
  }
  h.tick(module, seconds(6));
  const auto strength = h.kb.byLabel(labels::kSignalStrength);
  ASSERT_EQ(strength.size(), 1u);
  EXPECT_EQ(strength[0].entity, "0x0002");
  EXPECT_EQ(strength[0].value, "-67");
  EXPECT_TRUE(strength[0].collective);  // the paper's sharing example
}

}  // namespace
}  // namespace kalis::ids
