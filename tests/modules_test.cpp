// Per-module unit tests driving each sensing and detection module with
// synthetic captured packets — no simulator involved, so each test pins one
// behavioral contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <set>

#include "kalis/module_registry.hpp"
#include "kalis/modules/forwarding_watchdog.hpp"
#include "kalis/modules/icmp_flood.hpp"
#include "kalis/modules/replication.hpp"
#include "kalis/modules/selective_forwarding.hpp"
#include "kalis/modules/smurf.hpp"
#include "kalis/modules/syn_flood.hpp"
#include "kalis/modules/topology_discovery.hpp"
#include "kalis/modules/traffic_stats.hpp"
#include "support.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace kalis::ids {
namespace {

using test::ctpBeaconPacket;
using test::ctpDataPacket;
using test::ModuleHarness;

net::CapturedPacket icmpPacket(net::Mac48 linkSrc, net::Ipv4Addr src,
                               net::Ipv4Addr dst, net::IcmpType type,
                               SimTime t, double rssi = -55.0) {
  net::IcmpMessage msg;
  msg.type = type;
  net::Ipv4Header ip;
  ip.src = src;
  ip.dst = dst;
  ip.protocol = net::IpProto::kIcmp;
  net::WifiFrame frame;
  frame.kind = net::WifiFrameKind::kData;
  frame.src = linkSrc;
  frame.dst = net::Mac48{{2, 0, 0, 0, 0, 99}};
  frame.body = net::llcSnapWrap(net::kEthertypeIpv4,
                                BytesView(ip.encode(msg.encode())));
  net::CapturedPacket pkt;
  pkt.medium = net::Medium::kWifi;
  pkt.raw = frame.encode();
  pkt.meta.timestamp = t;
  pkt.meta.rssiDbm = rssi;
  return pkt;
}

constexpr net::Mac48 kAttackerMac{{2, 0, 0, 0, 0, 7}};
constexpr net::Mac48 kVictimMac{{2, 0, 0, 0, 0, 2}};
constexpr net::Ipv4Addr kVictimIp{0x0a000002};

// --- TopologyDiscoveryModule --------------------------------------------------------

TEST(TopologyDiscovery, ThlAboveZeroMeansMultihop) {
  ModuleHarness h;
  TopologyDiscoveryModule module;
  h.feed(module, ctpDataPacket(net::Mac16{3}, net::Mac16{2}, net::Mac16{4}, 1,
                               /*thl=*/1, seconds(1)));
  EXPECT_EQ(h.kb.local<bool>(labels::kMultihopWpan), true);
  EXPECT_EQ(h.kb.local<bool>(labels::kMultihop), true);
}

TEST(TopologyDiscovery, SettlesToSinglehopAfterQuietEvidence) {
  ModuleHarness h;
  TopologyDiscoveryModule module;
  module.configure({{"settlePackets", "10"}});
  for (int i = 0; i < 12; ++i) {
    h.feed(module, ctpDataPacket(net::Mac16{2}, net::Mac16{1}, net::Mac16{2},
                                 static_cast<std::uint8_t>(i), /*thl=*/0,
                                 seconds(i)));
  }
  EXPECT_EQ(h.kb.local<bool>(labels::kMultihopWpan), false);
}

TEST(TopologyDiscovery, SameOriginSeqFromTwoSendersMeansMultihop) {
  ModuleHarness h;
  TopologyDiscoveryModule module;
  h.feed(module, ctpDataPacket(net::Mac16{4}, net::Mac16{3}, net::Mac16{4}, 9,
                               0, seconds(1)));
  h.feed(module, ctpDataPacket(net::Mac16{3}, net::Mac16{2}, net::Mac16{4}, 9,
                               0, seconds(1) + milliseconds(10)));
  EXPECT_EQ(h.kb.local<bool>(labels::kMultihopWpan), true);
}

TEST(TopologyDiscovery, FirstRootWinsAgainstLaterEtxZero) {
  ModuleHarness h;
  TopologyDiscoveryModule module;
  h.feed(module, ctpBeaconPacket(net::Mac16{1}, 0, seconds(1)));
  EXPECT_EQ(h.kb.local(labels::kCtpRoot), "0x0001");
  // A sinkhole later advertising ETX 0 must not steal root status.
  h.feed(module, ctpBeaconPacket(net::Mac16{8}, 0, seconds(5)));
  EXPECT_EQ(h.kb.local(labels::kCtpRoot), "0x0001");
}

TEST(TopologyDiscovery, CountsMonitoredNodes) {
  ModuleHarness h;
  TopologyDiscoveryModule module;
  for (std::uint16_t i = 1; i <= 5; ++i) {
    h.feed(module, ctpBeaconPacket(net::Mac16{i}, 20, seconds(i)));
  }
  EXPECT_EQ(h.kb.local<long long>(labels::kMonitoredNodes), 5);
}

// --- TrafficStatsModule ----------------------------------------------------------------

TEST(TrafficStats, PublishesProtocolPresence) {
  ModuleHarness h;
  TrafficStatsModule module;
  h.feed(module, icmpPacket(kAttackerMac, net::Ipv4Addr{1}, kVictimIp,
                            net::IcmpType::kEchoReply, seconds(1)));
  EXPECT_EQ(h.kb.local<bool>("Protocols.ICMP"), true);
  EXPECT_EQ(h.kb.local<bool>("Protocols.TCP"), std::nullopt);
  h.feed(module, ctpDataPacket(net::Mac16{2}, net::Mac16{1}, net::Mac16{2}, 0,
                               0, seconds(2)));
  EXPECT_EQ(h.kb.local<bool>("Protocols.CTP"), true);
}

TEST(TrafficStats, PublishesGlobalAndPerDeviceRates) {
  ModuleHarness h;
  TrafficStatsModule module;
  for (int i = 0; i < 10; ++i) {
    h.feed(module, icmpPacket(kAttackerMac, net::Ipv4Addr{1}, kVictimIp,
                              net::IcmpType::kEchoReply,
                              seconds(4) + i * milliseconds(100)));
  }
  h.tick(module, seconds(5));
  const auto global = h.kb.local<double>("TrafficFrequency.ICMPEchoRep");
  ASSERT_TRUE(global.has_value());
  EXPECT_NEAR(*global, 2.0, 0.01);  // 10 packets / 5 s window
  const auto perVictim =
      h.kb.local<double>("TrafficFrequency.ICMPEchoRep", "10.0.0.2");
  ASSERT_TRUE(perVictim.has_value());
  EXPECT_NEAR(*perVictim, 2.0, 0.01);
}

TEST(TrafficStats, RatesQueryable) {
  ModuleHarness h;
  TrafficStatsModule module;
  for (int i = 0; i < 5; ++i) {
    h.feed(module, icmpPacket(kAttackerMac, net::Ipv4Addr{1}, kVictimIp,
                              net::IcmpType::kEchoRequest,
                              seconds(1) + i * milliseconds(200)));
  }
  EXPECT_NEAR(module.globalRate(net::PacketType::kIcmpEchoReq, seconds(2)),
              1.0, 0.01);
  EXPECT_DOUBLE_EQ(module.globalRate(net::PacketType::kTcpSyn, seconds(2)),
                   0.0);
}

/// TrafficStatsModule's rate publishing restated the direct way: every tick
/// puts every nonzero rate, globally and per target, in type then label
/// order, and leaves it to the KB to drop the puts that change nothing.
class PutEveryTickTrafficReference {
 public:
  void setWindow(Duration window) {
    window_ = window;
    global_.clear();
    perTarget_.clear();
  }

  void onPacket(const net::Dissection& dis, SimTime t) {
    const auto type = static_cast<std::size_t>(dis.type);
    net::EntityRef target = dis.networkDestRef();
    if (!target.valid()) target = dis.linkDestRef();
    global_.try_emplace(type, window_).first->second.record(t);
    perTarget_.try_emplace({type, target.toString()}, window_)
        .first->second.record(t);
  }

  void onTick(KnowledgeBase& kb, SimTime now) {
    for (auto& [type, counter] : global_) {
      const double rate = counter.rate(now);
      if (rate > 0.0) kb.put(label(type), rate);
    }
    for (auto& [key, counter] : perTarget_) {
      const double rate = counter.rate(now);
      if (rate > 0.0) kb.put(label(key.first), rate, key.second);
    }
  }

 private:
  static std::string label(std::size_t type) {
    return std::string(labels::kTrafficFrequency) + "." +
           net::packetTypeName(static_cast<net::PacketType>(type));
  }

  Duration window_ = seconds(5);
  std::map<std::size_t, SlidingCounter> global_;
  std::map<std::pair<std::size_t, std::string>, SlidingCounter> perTarget_;
};

TEST(TrafficStats, ChangeOnlyPublishingMatchesPutEveryTickReference) {
  // Per seed, four targets each run 10 s phases of silence, a steady
  // 4 packets/s (the same rate on consecutive ticks, and again after a
  // silence: A -> 0 -> A) or a random burst, in one of three ICMP types.
  // The window changes from 5 s to 2.5 s at 60 s; on even seeds writes are
  // disabled at 100 s. The TrafficFrequency.* change streams (key, value,
  // `updated`) of the module and the reference must be equal.
  const net::IcmpType kTypes[] = {net::IcmpType::kEchoReply,
                                  net::IcmpType::kEchoRequest,
                                  net::IcmpType::kDestUnreachable};
  std::size_t totalChanges = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SimTime now = 0;
    ModuleHarness h;
    KnowledgeBase referenceKb("K1");
    h.kb.setClock([&] { return now; });
    referenceKb.setClock([&] { return now; });
    std::vector<std::string> actual;
    std::vector<std::string> expected;
    const auto recordInto = [](std::vector<std::string>& stream) {
      return [&stream](const Knowgget& k) {
        stream.push_back(encodeKey(k.creator, k.label, k.entity) + "=" +
                         k.value + " @" + std::to_string(k.updated));
      };
    };
    h.kb.subscribe("TrafficFrequency.*", recordInto(actual));
    referenceKb.subscribe("TrafficFrequency.*", recordInto(expected));

    Rng rng(seed);
    std::vector<net::CapturedPacket> packets;
    for (std::uint32_t target = 0; target < 4; ++target) {
      const net::Ipv4Addr dst{kVictimIp.value + target};
      for (SimTime phase = 0; phase < seconds(120); phase += seconds(10)) {
        const net::IcmpType type = kTypes[rng.pickIndex(3)];
        const auto add = [&](SimTime t) {
          packets.push_back(
              icmpPacket(kAttackerMac, net::Ipv4Addr{1}, dst, type, t));
        };
        switch (rng.nextBelow(3)) {
          case 0:  // silence
            break;
          case 1:  // steady
            for (SimTime t = phase; t < phase + seconds(10);
                 t += milliseconds(250)) {
              add(t);
            }
            break;
          default:  // burst on a 50 ms grid
            for (std::int64_t n = rng.nextInt(5, 40); n > 0; --n) {
              add(phase + milliseconds(50) * rng.nextBelow(200));
            }
            break;
        }
      }
    }
    std::stable_sort(packets.begin(), packets.end(),
                     [](const auto& a, const auto& b) {
                       return a.meta.timestamp < b.meta.timestamp;
                     });

    TrafficStatsModule module;
    PutEveryTickTrafficReference reference;
    const auto tickBoth = [&](SimTime t) {
      now = t;
      h.tick(module, t);
      reference.onTick(referenceKb, t);
      if (t == seconds(60)) {
        module.configure({{"windowSeconds", "2.5"}});
        reference.setWindow(milliseconds(2500));
      }
      if (t == seconds(100) && seed % 2 == 0) {
        h.kb.disableWrites();
        referenceKb.disableWrites();
      }
    };
    SimTime nextTick = seconds(1);
    for (const net::CapturedPacket& pkt : packets) {
      for (; nextTick <= pkt.meta.timestamp; nextTick += seconds(1)) {
        tickBoth(nextTick);
      }
      now = pkt.meta.timestamp;
      h.feed(module, pkt);
      reference.onPacket(net::dissect(pkt), pkt.meta.timestamp);
    }
    for (; nextTick <= seconds(130); nextTick += seconds(1)) tickBoth(nextTick);

    EXPECT_EQ(actual, expected) << "seed " << seed;
    totalChanges += expected.size();
  }
  EXPECT_GT(totalChanges, 500u);
}

// --- IcmpFloodModule ------------------------------------------------------------------------

net::CapturedPacket floodReply(int i, SimTime t) {
  const net::Ipv4Addr spoofed{0xac100700u + static_cast<std::uint32_t>(i % 12)};
  return icmpPacket(kAttackerMac, spoofed, kVictimIp,
                    net::IcmpType::kEchoReply, t);
}

/// Replies at kVictimIp for a tick at `tick`: 60 inside the 5 s window
/// (tick - 5 s, tick] from exactly `distinct` claimed sources, each at least
/// once and the rest duplicates, in shuffled order, after replies from four
/// other sources up to and exactly at the window's edge, which the tick
/// must not count.
std::vector<net::CapturedPacket> replyStormAcrossWindowEdge(
    Rng& rng, std::uint32_t distinct, SimTime tick) {
  const SimTime edge = tick - seconds(5);
  std::vector<net::CapturedPacket> out;
  for (std::uint32_t i = 0; i < 4; ++i) {
    out.push_back(icmpPacket(kAttackerMac, net::Ipv4Addr{0xac100800u + i},
                             kVictimIp, net::IcmpType::kEchoReply,
                             edge - milliseconds(300) * (3 - i)));
  }
  std::vector<std::uint32_t> sources;
  for (std::uint32_t i = 0; i < 60; ++i) {
    sources.push_back(
        i < distinct ? i : static_cast<std::uint32_t>(rng.nextBelow(distinct)));
  }
  rng.shuffle(sources);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    out.push_back(icmpPacket(kAttackerMac,
                             net::Ipv4Addr{0xac100700u + sources[i]}, kVictimIp,
                             net::IcmpType::kEchoReply,
                             edge + 1 + milliseconds(70) * i));
  }
  return out;
}

/// The echo replies a tick at `tick` sees, with their claimed sources
/// collected in a set: the set-building reference for the ICMP flood and
/// smurf modules' "enough sources?" test.
struct ReplyWindow {
  std::size_t replies = 0;
  std::set<std::string> sources;
};

ReplyWindow replyWindowAt(const std::vector<net::CapturedPacket>& packets,
                          SimTime tick) {
  ReplyWindow window;
  for (const net::CapturedPacket& pkt : packets) {
    const net::Dissection dis = net::dissect(pkt);
    if (dis.type != net::PacketType::kIcmpEchoRep ||
        pkt.meta.timestamp <= tick - seconds(5)) {
      continue;
    }
    ++window.replies;
    window.sources.insert(dis.networkSourceRef().toString());
  }
  return window;
}

TEST(IcmpFlood, DetectsReplyStormOnKnownSinglehop) {
  ModuleHarness h;
  h.kb.put(labels::kMultihopWifi, false);
  IcmpFloodModule module;
  for (int i = 0; i < 80; ++i) {
    h.feed(module, floodReply(i, seconds(10) + i * milliseconds(20)));
  }
  h.tick(module, seconds(12));
  ASSERT_EQ(h.alerts.size(), 1u);
  EXPECT_EQ(h.alerts[0].type, AttackType::kIcmpFlood);
  EXPECT_EQ(h.alerts[0].victimEntity, "10.0.0.2");
  ASSERT_EQ(h.alerts[0].suspectEntities.size(), 1u);
  EXPECT_EQ(h.alerts[0].suspectEntities[0], net::toString(kAttackerMac));
}

TEST(IcmpFlood, StaysQuietBelowThreshold) {
  ModuleHarness h;
  h.kb.put(labels::kMultihopWifi, false);
  IcmpFloodModule module;
  for (int i = 0; i < 20; ++i) {
    h.feed(module, floodReply(i, seconds(10) + i * milliseconds(400)));
  }
  h.tick(module, seconds(14));
  EXPECT_TRUE(h.alerts.empty());  // 2.5 replies/s << threshold
}

TEST(IcmpFlood, WaitsWhileTopologyUnknown) {
  ModuleHarness h;  // no Multihop knowgget at all
  IcmpFloodModule module;
  for (int i = 0; i < 80; ++i) {
    h.feed(module, floodReply(i, seconds(10) + i * milliseconds(20)));
  }
  h.tick(module, seconds(12));
  EXPECT_TRUE(h.alerts.empty());  // conservative until knowledge arrives
}

TEST(IcmpFlood, DefersToSmurfOnMultihopWithTrigger) {
  ModuleHarness h;
  h.kb.put(labels::kMultihopWifi, true);
  IcmpFloodModule module;
  // Victim's own traffic binds its identity first.
  h.feed(module, icmpPacket(kVictimMac, kVictimIp, net::Ipv4Addr{9},
                            net::IcmpType::kEchoRequest, seconds(1)));
  // Spoofed requests in the victim's name (different radio): Smurf trigger.
  h.feed(module, icmpPacket(kAttackerMac, kVictimIp, net::Ipv4Addr{5},
                            net::IcmpType::kEchoRequest, seconds(9)));
  for (int i = 0; i < 80; ++i) {
    h.feed(module, floodReply(i, seconds(10) + i * milliseconds(20)));
  }
  h.tick(module, seconds(12));
  EXPECT_TRUE(h.alerts.empty());  // the Smurf module owns this incident
}

TEST(IcmpFlood, AlertsOnRawSymptomWithoutKnowledgeBase) {
  ModuleHarness h;
  h.kb.disableWrites();  // traditional-IDS emulation
  IcmpFloodModule module;
  for (int i = 0; i < 80; ++i) {
    h.feed(module, floodReply(i, seconds(10) + i * milliseconds(20)));
  }
  h.tick(module, seconds(12));
  EXPECT_EQ(h.alerts.size(), 1u);
}

TEST(IcmpFlood, RequiredFollowsIcmpPresence) {
  KnowledgeBase kb("K1");
  IcmpFloodModule module;
  EXPECT_FALSE(module.required(kb));
  kb.put("Protocols.ICMP", true);
  EXPECT_TRUE(module.required(kb));
}

TEST(IcmpFlood, SourceThresholdMatchesSetReference) {
  // Windows holding exactly minSources - 1 and exactly minSources (3)
  // distinct claimed sources.
  std::size_t alerts = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const std::uint32_t distinct : {2u, 3u}) {
      ModuleHarness h;
      h.kb.put(labels::kMultihopWifi, false);
      IcmpFloodModule module;
      Rng rng(seed);
      const SimTime tick = seconds(20);
      const auto packets = replyStormAcrossWindowEdge(rng, distinct, tick);
      for (const net::CapturedPacket& pkt : packets) h.feed(module, pkt);
      h.tick(module, tick);

      const ReplyWindow window = replyWindowAt(packets, tick);
      ASSERT_EQ(window.sources.size(), distinct);
      const double rate = static_cast<double>(window.replies) / 5.0;
      std::vector<std::string> expected;
      if (rate >= 10.0 && window.sources.size() >= 3) {
        expected.push_back("10.0.0.2|echo-reply rate " + formatDouble(rate) +
                           "/s from " + std::to_string(window.sources.size()) +
                           " claimed sources");
      }
      std::vector<std::string> actual;
      for (const Alert& a : h.alerts) {
        actual.push_back(a.victimEntity + "|" + a.detail);
      }
      EXPECT_EQ(actual, expected) << "seed " << seed << ", " << distinct
                                  << " sources";
      alerts += actual.size();
    }
  }
  EXPECT_EQ(alerts, 6u);
}

// --- SmurfModule ------------------------------------------------------------------------------

TEST(Smurf, DetectsWithSpoofTriggerAndNamesSpoofers) {
  ModuleHarness h;
  SmurfModule module;
  h.feed(module, icmpPacket(kVictimMac, kVictimIp, net::Ipv4Addr{9},
                            net::IcmpType::kEchoRequest, seconds(1)));
  h.feed(module, icmpPacket(kAttackerMac, kVictimIp, net::Ipv4Addr{5},
                            net::IcmpType::kEchoRequest, seconds(9)));
  for (int i = 0; i < 80; ++i) {
    h.feed(module, floodReply(i, seconds(10) + i * milliseconds(20)));
  }
  h.tick(module, seconds(12));
  ASSERT_EQ(h.alerts.size(), 1u);
  EXPECT_EQ(h.alerts[0].type, AttackType::kSmurf);
  ASSERT_EQ(h.alerts[0].suspectEntities.size(), 1u);
  EXPECT_EQ(h.alerts[0].suspectEntities[0], net::toString(kAttackerMac));
}

TEST(Smurf, SilentWithoutTriggerWhenKnowledgeTrusted) {
  ModuleHarness h;
  SmurfModule module;
  for (int i = 0; i < 80; ++i) {
    h.feed(module, floodReply(i, seconds(10) + i * milliseconds(20)));
  }
  h.tick(module, seconds(12));
  EXPECT_TRUE(h.alerts.empty());
}

TEST(Smurf, FallbackTwoHopSuspectIsVictimOnStarTopology) {
  ModuleHarness h;
  h.kb.disableWrites();  // traditional mode
  SmurfModule module;
  for (int i = 0; i < 80; ++i) {
    h.feed(module, floodReply(i, seconds(10) + i * milliseconds(20)));
  }
  h.tick(module, seconds(12));
  ASSERT_EQ(h.alerts.size(), 1u);
  EXPECT_EQ(h.alerts[0].type, AttackType::kSmurf);
  // The paper's §VI-B1 story: the 2-hop heuristic lands on the victim.
  ASSERT_EQ(h.alerts[0].suspectEntities.size(), 1u);
  EXPECT_EQ(h.alerts[0].suspectEntities[0], "10.0.0.2");
}

TEST(Smurf, RequiredNeedsMultihop) {
  KnowledgeBase kb("K1");
  SmurfModule module;
  kb.put("Protocols.ICMP", true);
  EXPECT_FALSE(module.required(kb));
  kb.put(labels::kMultihopWifi, true);
  EXPECT_TRUE(module.required(kb));
  kb.put(labels::kMultihopWifi, false);
  EXPECT_FALSE(module.required(kb));
}

TEST(Smurf, SourceThresholdMatchesSetReference) {
  // Windows holding exactly minSources - 1 and exactly minSources (3)
  // distinct claimed sources, with the spoofed-request trigger present.
  std::size_t alerts = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const std::uint32_t distinct : {2u, 3u}) {
      ModuleHarness h;
      SmurfModule module;
      Rng rng(seed);
      const SimTime tick = seconds(20);
      h.feed(module, icmpPacket(kVictimMac, kVictimIp, net::Ipv4Addr{9},
                                net::IcmpType::kEchoRequest, seconds(1)));
      const auto packets = replyStormAcrossWindowEdge(rng, distinct, tick);
      for (const net::CapturedPacket& pkt : packets) h.feed(module, pkt);
      h.feed(module, icmpPacket(kAttackerMac, kVictimIp, net::Ipv4Addr{5},
                                net::IcmpType::kEchoRequest,
                                tick - milliseconds(500)));
      h.tick(module, tick);

      const ReplyWindow window = replyWindowAt(packets, tick);
      ASSERT_EQ(window.sources.size(), distinct);
      std::vector<std::string> expected;
      if (static_cast<double>(window.replies) / 5.0 >= 10.0 &&
          window.sources.size() >= 3) {
        expected.push_back("10.0.0.2|reply storm with spoofed echo-request "
                           "trigger|" +
                           net::toString(kAttackerMac));
      }
      std::vector<std::string> actual;
      for (const Alert& a : h.alerts) {
        actual.push_back(a.victimEntity + "|" + a.detail + "|" +
                         join(a.suspectEntities, ','));
      }
      EXPECT_EQ(actual, expected) << "seed " << seed << ", " << distinct
                                  << " sources";
      alerts += actual.size();
    }
  }
  EXPECT_EQ(alerts, 6u);
}

// --- SynFloodModule ------------------------------------------------------------------------------

net::CapturedPacket tcpPacket(net::Mac48 linkSrc, net::Ipv4Addr src,
                              net::Ipv4Addr dst, net::TcpFlags flags,
                              std::uint32_t seq, SimTime t) {
  net::TcpSegment segment;
  segment.srcPort = 40000;
  segment.dstPort = 80;
  segment.seq = seq;
  segment.flags = flags;
  net::Ipv4Header ip;
  ip.src = src;
  ip.dst = dst;
  ip.protocol = net::IpProto::kTcp;
  net::WifiFrame frame;
  frame.kind = net::WifiFrameKind::kData;
  frame.src = linkSrc;
  frame.dst = kVictimMac;
  frame.body = net::llcSnapWrap(
      net::kEthertypeIpv4, BytesView(ip.encode(segment.encode(src, dst))));
  net::CapturedPacket pkt;
  pkt.medium = net::Medium::kWifi;
  pkt.raw = frame.encode();
  pkt.meta.timestamp = t;
  return pkt;
}

TEST(SynFlood, DetectsHalfOpenStorm) {
  ModuleHarness h;
  SynFloodModule module;
  net::TcpFlags syn;
  syn.syn = true;
  for (int i = 0; i < 120; ++i) {
    h.feed(module,
           tcpPacket(kAttackerMac,
                     net::Ipv4Addr{0xac100700u + static_cast<std::uint32_t>(i % 24)},
                     kVictimIp, syn, static_cast<std::uint32_t>(i),
                     seconds(10) + i * milliseconds(8)));
  }
  h.tick(module, seconds(13));
  ASSERT_EQ(h.alerts.size(), 1u);
  EXPECT_EQ(h.alerts[0].type, AttackType::kSynFlood);
  EXPECT_EQ(h.alerts[0].victimEntity, "10.0.0.2");
  EXPECT_EQ(h.alerts[0].suspectEntities[0], net::toString(kAttackerMac));
}

TEST(SynFlood, BenignHandshakesDontAlert) {
  ModuleHarness h;
  SynFloodModule module;
  net::TcpFlags syn;
  syn.syn = true;
  net::TcpFlags ack;
  ack.ack = true;
  for (int i = 0; i < 40; ++i) {
    const net::Ipv4Addr client{0x0a000020u + static_cast<std::uint32_t>(i % 6)};
    const auto seq = static_cast<std::uint32_t>(1000 + i);
    const SimTime t = seconds(5) + i * milliseconds(100);
    h.feed(module, tcpPacket(kVictimMac, client, kVictimIp, syn, seq, t));
    // The completing ACK carries seq = isn + 1.
    h.feed(module, tcpPacket(kVictimMac, client, kVictimIp, ack, seq + 1,
                             t + milliseconds(30)));
  }
  h.tick(module, seconds(11));
  EXPECT_TRUE(h.alerts.empty());
}

TEST(SynFlood, SourceThresholdMatchesSetReference) {
  // Windows whose mature half-open SYNs come from exactly minSources - 1
  // and exactly minSources (5) distinct claimed sources, with duplicates.
  // SYNs from other sources must not count: those at or before the
  // window's edge, one younger than the 1 s grace period, and completed
  // handshakes. The reference restates the rule with a std::set.
  struct Syn {
    SimTime time;
    std::uint32_t src;
    bool completes;
  };
  net::TcpFlags synFlags;
  synFlags.syn = true;
  net::TcpFlags ackFlags;
  ackFlags.ack = true;
  constexpr net::Mac48 kClientMac{{2, 0, 0, 0, 0, 0x30}};
  std::size_t alerts = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const std::uint32_t distinct : {4u, 5u}) {
      Rng rng(seed);
      const SimTime tick = seconds(20);
      const SimTime edge = tick - seconds(5);
      std::vector<Syn> syns;
      for (std::uint32_t i = 0; i < 3; ++i) {
        syns.push_back(Syn{edge - milliseconds(400) * (2 - i), 100 + i, false});
      }
      std::vector<std::uint32_t> sources;
      for (std::uint32_t i = 0; i < 90; ++i) {
        sources.push_back(i < distinct ? i : static_cast<std::uint32_t>(
                                                 rng.nextBelow(distinct)));
      }
      rng.shuffle(sources);
      for (std::size_t i = 0; i < sources.size(); ++i) {
        syns.push_back(Syn{edge + 1 + milliseconds(44) * i, sources[i], false});
      }
      for (std::uint32_t i = 0; i < 10; ++i) {
        syns.push_back(
            Syn{edge + milliseconds(500) + milliseconds(100) * i, 200, true});
      }
      syns.push_back(Syn{tick - seconds(1), sources.front(), false});
      syns.push_back(Syn{tick - seconds(1) + 1, 300, false});

      std::vector<net::CapturedPacket> packets;
      for (std::size_t i = 0; i < syns.size(); ++i) {
        const Syn& syn = syns[i];
        const net::Ipv4Addr src{0xac100700u + syn.src};
        const auto isn = static_cast<std::uint32_t>(1000 + 10 * i);
        packets.push_back(tcpPacket(syn.completes ? kClientMac : kAttackerMac,
                                    src, kVictimIp, synFlags, isn, syn.time));
        if (syn.completes) {
          packets.push_back(tcpPacket(kClientMac, src, kVictimIp, ackFlags,
                                      isn + 1, syn.time + milliseconds(30)));
        }
      }
      std::stable_sort(packets.begin(), packets.end(),
                       [](const auto& a, const auto& b) {
                         return a.meta.timestamp < b.meta.timestamp;
                       });
      ModuleHarness h;
      SynFloodModule module;
      for (const net::CapturedPacket& pkt : packets) h.feed(module, pkt);
      h.tick(module, tick);

      std::size_t mature = 0;
      std::size_t halfOpen = 0;
      std::set<std::uint32_t> halfOpenSources;
      for (const Syn& syn : syns) {
        if (syn.time <= edge || tick < syn.time + seconds(1)) continue;
        ++mature;
        if (syn.completes) continue;
        ++halfOpen;
        halfOpenSources.insert(syn.src);
      }
      ASSERT_EQ(halfOpenSources.size(), distinct);
      const double rate = static_cast<double>(halfOpen) / 5.0;
      const double ratio =
          static_cast<double>(halfOpen) / static_cast<double>(mature);
      std::vector<std::string> expected;
      if (rate >= 15.0 && halfOpenSources.size() >= 5 && ratio >= 0.7) {
        expected.push_back(
            "10.0.0.2|half-open SYN rate " + formatDouble(rate) + "/s, ratio " +
            formatDouble(ratio) + ", " +
            std::to_string(halfOpenSources.size()) + " sources|" +
            net::toString(kAttackerMac));
      }
      std::vector<std::string> actual;
      for (const Alert& a : h.alerts) {
        actual.push_back(a.victimEntity + "|" + a.detail + "|" +
                         join(a.suspectEntities, ','));
      }
      EXPECT_EQ(actual, expected) << "seed " << seed << ", " << distinct
                                  << " sources";
      alerts += actual.size();
    }
  }
  EXPECT_EQ(alerts, 6u);
}

// --- ForwardingWatchdog -----------------------------------------------------------------------------

const net::EntityRef kRoot = net::EntityRef::of(net::Mac16{1});
const net::EntityRef kRelay = net::EntityRef::of(net::Mac16{3});

TEST(Watchdog, ForwardedPacketsResolveCleanly) {
  ForwardingWatchdog watchdog;
  // 4 -> 3 (handoff), then 3 -> 2 (forward with THL+1).
  const auto handoff = ctpDataPacket(net::Mac16{4}, net::Mac16{3},
                                     net::Mac16{4}, 1, 0, seconds(1));
  watchdog.observe(handoff, net::dissect(handoff), kRoot);
  const auto forward = ctpDataPacket(net::Mac16{3}, net::Mac16{2},
                                     net::Mac16{4}, 1, 1,
                                     seconds(1) + milliseconds(50));
  watchdog.observe(forward, net::dissect(forward), kRoot);
  watchdog.expire(seconds(3));
  EXPECT_EQ(watchdog.samples(kRelay, seconds(3)), 1u);
  EXPECT_DOUBLE_EQ(watchdog.dropRatio(kRelay, seconds(3)), 0.0);
}

TEST(Watchdog, TimeoutBecomesDrop) {
  ForwardingWatchdog watchdog;
  const auto handoff = ctpDataPacket(net::Mac16{4}, net::Mac16{3},
                                     net::Mac16{4}, 1, 0, seconds(1));
  watchdog.observe(handoff, net::dissect(handoff), kRoot);
  watchdog.expire(seconds(3));
  EXPECT_EQ(watchdog.samples(kRelay, seconds(3)), 1u);
  EXPECT_DOUBLE_EQ(watchdog.dropRatio(kRelay, seconds(3)), 1.0);
  EXPECT_EQ(watchdog.droppedFingerprints(kRelay, seconds(3)).size(), 1u);
}

TEST(Watchdog, RootIsNeverExpectedToForward) {
  ForwardingWatchdog watchdog;
  const auto toRoot = ctpDataPacket(net::Mac16{2}, net::Mac16{1},
                                    net::Mac16{4}, 1, 2, seconds(1));
  watchdog.observe(toRoot, net::dissect(toRoot), kRoot);
  watchdog.expire(seconds(5));
  EXPECT_EQ(watchdog.samples(kRoot, seconds(5)), 0u);
}

TEST(Watchdog, PayloadTamperingCaught) {
  ForwardingWatchdog watchdog;
  const auto handoff = ctpDataPacket(net::Mac16{4}, net::Mac16{3},
                                     net::Mac16{4}, 1, 0, seconds(1),
                                     -60.0, bytesOf("orig"));
  watchdog.observe(handoff, net::dissect(handoff), kRoot);
  const auto tampered = ctpDataPacket(net::Mac16{3}, net::Mac16{2},
                                      net::Mac16{4}, 1, 1,
                                      seconds(1) + milliseconds(50), -60.0,
                                      bytesOf("evil"));
  watchdog.observe(tampered, net::dissect(tampered), kRoot);
  const auto alterations = watchdog.drainAlterations();
  ASSERT_EQ(alterations.size(), 1u);
  EXPECT_EQ(alterations[0].entity, kRelay);
  EXPECT_EQ(alterations[0].originEntity, net::EntityRef::of(net::Mac16{4}));
  EXPECT_TRUE(watchdog.drainAlterations().empty());  // drained
}

TEST(Watchdog, SimultaneousDropsFollowLegacyKeyOrder) {
  // Units that time out together become drop verdicts in the order their
  // string keys "C<origin>:<seq>" sort ("C10:1" < "C1:1" < "C2:1"), which
  // is the order of the Wormhole.Drops fingerprint list.
  ForwardingWatchdog watchdog;
  for (std::uint16_t origin : {2, 10, 1}) {
    const auto handoff = ctpDataPacket(net::Mac16{origin}, net::Mac16{3},
                                       net::Mac16{origin}, 1, 0, seconds(1));
    watchdog.observe(handoff, net::dissect(handoff), kRoot);
  }
  watchdog.expire(seconds(3));
  const Bytes payload = bytesOf("pp");  // ctpDataPacket's default payload
  const std::vector<std::uint64_t> expected = {
      ForwardingWatchdog::fingerprint(10, 1, BytesView(payload)),
      ForwardingWatchdog::fingerprint(1, 1, BytesView(payload)),
      ForwardingWatchdog::fingerprint(2, 1, BytesView(payload))};
  EXPECT_EQ(watchdog.droppedFingerprints(kRelay, seconds(3)), expected);
}

TEST(Watchdog, FingerprintIsFnv1aOfSourceSeqPayload) {
  const Bytes payload = bytesOf("tunnel-me");
  Bytes material = {0x12, 0x34, 9};  // source big-endian, then seq
  material.insert(material.end(), payload.begin(), payload.end());
  EXPECT_EQ(ForwardingWatchdog::fingerprint(0x1234, 9, BytesView(payload)),
            fnv1a64(BytesView(material)));
}

TEST(Watchdog, FingerprintStableAcrossSides) {
  const Bytes payload = bytesOf("tunnel-me");
  EXPECT_EQ(ForwardingWatchdog::fingerprint(5, 9, BytesView(payload)),
            ForwardingWatchdog::fingerprint(5, 9, BytesView(payload)));
  EXPECT_NE(ForwardingWatchdog::fingerprint(5, 9, BytesView(payload)),
            ForwardingWatchdog::fingerprint(5, 10, BytesView(payload)));
}

// --- SelectiveForwarding / Blackhole classification bands ---------------------------------------------

class DropRatioBands : public ::testing::TestWithParam<double> {};

TEST_P(DropRatioBands, ModulesSplitTheRatioSpectrum) {
  const double dropRatio = GetParam();
  ModuleHarness h;
  h.kb.put(labels::kMultihopWpan, true);
  h.kb.put(labels::kCtpRoot, "0x0001");
  SelectiveForwardingModule selective;
  BlackholeModule blackhole;

  // Feed N handoffs to relay 3; forward (1 - dropRatio) of them.
  const int total = 40;
  int forwarded = 0;
  for (int i = 0; i < total; ++i) {
    const SimTime t = seconds(1) + i * milliseconds(400);
    const auto handoff = ctpDataPacket(net::Mac16{4}, net::Mac16{3},
                                       net::Mac16{4},
                                       static_cast<std::uint8_t>(i), 0, t);
    h.feed(selective, handoff);
    h.feed(blackhole, handoff);
    const bool forward =
        static_cast<double>(forwarded) < (1.0 - dropRatio) * (i + 1);
    if (forward) {
      ++forwarded;
      // Forward toward the root so the chain of expectations terminates.
      const auto fwd = ctpDataPacket(net::Mac16{3}, net::Mac16{1},
                                     net::Mac16{4},
                                     static_cast<std::uint8_t>(i), 1,
                                     t + milliseconds(30));
      h.feed(selective, fwd);
      h.feed(blackhole, fwd);
    }
  }
  h.tick(selective, seconds(20));
  h.tick(blackhole, seconds(20));

  bool sawSelective = false;
  bool sawBlackhole = false;
  for (const Alert& alert : h.alerts) {
    if (alert.type == AttackType::kSelectiveForwarding) sawSelective = true;
    if (alert.type == AttackType::kBlackhole) sawBlackhole = true;
  }
  if (dropRatio == 0.0) {
    EXPECT_FALSE(sawSelective);
    EXPECT_FALSE(sawBlackhole);
  } else if (dropRatio <= 0.6) {
    EXPECT_TRUE(sawSelective);
    EXPECT_FALSE(sawBlackhole);
  } else {
    EXPECT_TRUE(sawBlackhole);
    EXPECT_FALSE(sawSelective);
  }
}

INSTANTIATE_TEST_SUITE_P(Ratios, DropRatioBands,
                         ::testing::Values(0.0, 0.3, 0.5, 1.0));

// --- Replication modules -----------------------------------------------------------------------------

net::CapturedPacket zigbeeReport(net::Mac16 src, std::uint8_t seq, SimTime t,
                                 double rssi) {
  net::ZigbeeNwkFrame nwk;
  nwk.src = src;
  nwk.dst = net::Mac16{0x0001};
  nwk.seq = seq;
  nwk.payload = {net::kZigbeeAppReport, 0, 0};
  net::Ieee802154Frame frame;
  frame.src = src;
  frame.dst = nwk.dst;
  frame.payload = nwk.encode();
  return test::wpanPacket(frame, t, rssi);
}

TEST(ReplicationStatic, BimodalRssiFlagsClone) {
  ModuleHarness h;
  ReplicationStaticModule module;
  // Interleaved transmissions: legit at -60, replica at -85.
  for (int i = 0; i < 10; ++i) {
    h.feed(module, zigbeeReport(net::Mac16{5}, static_cast<std::uint8_t>(i),
                                seconds(1 + 2 * i), -60.0 + (i % 3) * 0.5));
    h.feed(module, zigbeeReport(net::Mac16{5}, static_cast<std::uint8_t>(i),
                                seconds(2 + 2 * i), -85.0 - (i % 3) * 0.5));
  }
  h.tick(module, seconds(21));
  ASSERT_EQ(h.alerts.size(), 1u);
  EXPECT_EQ(h.alerts[0].type, AttackType::kReplication);
  EXPECT_EQ(h.alerts[0].victimEntity, "0x0005");
}

TEST(ReplicationStatic, SingleTransmitterStaysClean) {
  ModuleHarness h;
  ReplicationStaticModule module;
  for (int i = 0; i < 20; ++i) {
    h.feed(module, zigbeeReport(net::Mac16{5}, static_cast<std::uint8_t>(i),
                                seconds(1 + i), -60.0 + (i % 4) * 0.6));
  }
  h.tick(module, seconds(22));
  EXPECT_TRUE(h.alerts.empty());
}

/// ReplicationStaticModule's rule restated the direct way, with the
/// module's defaults: each identity keeps its 20 s window of (time, RSSI)
/// samples, and every tick copies the window, sorts it and splits it at the
/// largest gap.
class CopyAndSortReplicationReference {
 public:
  void onPacket(const std::string& entity, SimTime t, double rssi) {
    auto& window = samples_[entity];
    window.emplace_back(t, rssi);
    prune(window, t);
  }

  /// The alerts of one tick, as "entity|time|detail".
  std::vector<std::string> onTick(SimTime now) {
    std::vector<std::string> out;
    for (auto& [entity, window] : samples_) {
      prune(window, now);
      if (window.size() < 2 * kMinPerCluster) continue;
      std::vector<double> values;
      for (const auto& sample : window) values.push_back(sample.second);
      std::sort(values.begin(), values.end());
      std::size_t gapAt = 0;
      double gap = 0.0;
      for (std::size_t i = 1; i < values.size(); ++i) {
        if (values[i] - values[i - 1] > gap) {
          gap = values[i] - values[i - 1];
          gapAt = i;
        }
      }
      if (gap < 8.0) continue;
      if (gapAt < kMinPerCluster || values.size() - gapAt < kMinPerCluster) {
        continue;
      }
      if (values[gapAt - 1] - values.front() > 3.0 ||
          values.back() - values[gapAt] > 3.0) {
        continue;
      }
      auto last = lastAlert_.find(entity);
      if (last != lastAlert_.end() && now < last->second + seconds(15)) continue;
      lastAlert_[entity] = now;
      out.push_back(entity + "|" + std::to_string(now) +
                    "|bimodal RSSI: clusters at " +
                    formatDouble(values.front()) + ".." +
                    formatDouble(values[gapAt - 1]) + " and " +
                    formatDouble(values[gapAt]) + ".." +
                    formatDouble(values.back()) + " dBm");
    }
    return out;
  }

 private:
  static constexpr std::size_t kMinPerCluster = 3;

  static void prune(std::deque<std::pair<SimTime, double>>& window, SimTime t) {
    const SimTime cutoff = t > seconds(20) ? t - seconds(20) : 0;
    while (!window.empty() && window.front().first <= cutoff) {
      window.pop_front();
    }
  }

  std::map<std::string, std::deque<std::pair<SimTime, double>>> samples_;
  std::map<std::string, SimTime> lastAlert_;
};

TEST(ReplicationStatic, MatchesCopyAndSortReferenceOnSeededStreams) {
  // Six identities per seed: clones (two RSSI clusters 8-14 dB apart),
  // single transmitters, and loose ones whose clusters are too wide. RSSI
  // comes from a 0.5 dB grid so values repeat; timestamps sit on a 250 ms
  // grid so several samples share a time and samples expire exactly at the
  // tick that reaches their window edge. Identities go quiet for a while,
  // so windows drain and refill.
  std::size_t totalAlerts = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    ModuleHarness h;
    ReplicationStaticModule module;
    CopyAndSortReplicationReference reference;
    std::vector<std::string> expected;
    Rng rng(seed);
    struct Identity {
      net::Mac16 mac;
      double low;
      double high;
      int spreadSteps;
    };
    std::vector<Identity> identities;
    for (std::uint16_t n = 2; n < 8; ++n) {
      const double low = -90.0 + 0.5 * static_cast<double>(rng.nextInt(0, 20));
      const double high = low + 0.5 * static_cast<double>(rng.nextInt(0, 28));
      identities.push_back(Identity{net::Mac16{n}, low, high,
                                    static_cast<int>(rng.nextInt(0, 8))});
    }
    SimTime t = milliseconds(250);
    SimTime nextTick = seconds(1);
    std::uint8_t seq = 0;
    while (t < seconds(150)) {
      while (nextTick <= t) {
        h.tick(module, nextTick);
        for (std::string& a : reference.onTick(nextTick)) {
          expected.push_back(std::move(a));
        }
        nextTick += seconds(1);
      }
      const Identity& id = identities[rng.pickIndex(identities.size())];
      const bool quiet = ((t / seconds(30)) + id.mac.value) % 4 == 0;
      if (!quiet) {
        const double base = rng.nextBelow(2) == 0 ? id.low : id.high;
        const double rssi =
            base - 0.5 * static_cast<double>(rng.nextInt(0, id.spreadSteps));
        h.feed(module, zigbeeReport(id.mac, seq++, t, rssi));
        reference.onPacket(net::toString(id.mac), t, rssi);
      }
      t += milliseconds(250) * rng.nextBelow(3);
    }
    std::vector<std::string> actual;
    for (const Alert& a : h.alerts) {
      actual.push_back(a.victimEntity + "|" + std::to_string(a.time) + "|" +
                       a.detail);
    }
    EXPECT_EQ(actual, expected) << "seed " << seed;
    totalAlerts += expected.size();
  }
  EXPECT_GT(totalAlerts, 10u);
}

TEST(ReplicationStatic, NanRssiIsNotASample) {
  // Only a crafted capture carries a NaN reading. It must not enter the
  // ordered window, where it would break the search that expires samples.
  ModuleHarness h;
  ReplicationStaticModule module;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < 10; ++i) {
    const auto seq = static_cast<std::uint8_t>(i);
    h.feed(module, zigbeeReport(net::Mac16{5}, seq, seconds(1 + 2 * i), -60.0));
    h.feed(module, zigbeeReport(net::Mac16{5}, seq, seconds(2 + 2 * i),
                                i % 2 == 0 ? -85.0 : nan));
  }
  h.tick(module, seconds(21));
  ASSERT_EQ(h.alerts.size(), 1u);
  EXPECT_EQ(h.alerts[0].detail,
            "bimodal RSSI: clusters at -85..-85 and -60..-60 dBm");
  // Once those samples expire, one transmitter alone raises nothing.
  for (int i = 0; i < 10; ++i) {
    h.feed(module, zigbeeReport(net::Mac16{5}, static_cast<std::uint8_t>(i),
                                seconds(50 + i), i % 2 == 0 ? -61.0 : nan));
  }
  h.tick(module, seconds(60));
  EXPECT_EQ(h.alerts.size(), 1u);
}

TEST(ReplicationMobile, ImpossibleMovesFlagClone) {
  ModuleHarness h;
  ReplicationMobileModule module;
  // Near-simultaneous captures 25 dB apart, repeatedly.
  for (int i = 0; i < 4; ++i) {
    h.feed(module, zigbeeReport(net::Mac16{5}, static_cast<std::uint8_t>(i),
                                seconds(1 + 3 * i), -55.0));
    h.feed(module, zigbeeReport(net::Mac16{5}, static_cast<std::uint8_t>(i),
                                seconds(1 + 3 * i) + milliseconds(300), -80.0));
  }
  h.tick(module, seconds(11));
  ASSERT_GE(h.alerts.size(), 1u);
  EXPECT_EQ(h.alerts[0].type, AttackType::kReplication);
}

TEST(ReplicationMobile, GradualMovementTolerated) {
  ModuleHarness h;
  ReplicationMobileModule module;
  // RSSI drifting smoothly as a node walks: no alert.
  double rssi = -50.0;
  for (int i = 0; i < 40; ++i) {
    h.feed(module, zigbeeReport(net::Mac16{5}, static_cast<std::uint8_t>(i),
                                seconds(1) + i * milliseconds(600), rssi));
    rssi -= 0.7;
  }
  h.tick(module, seconds(26));
  EXPECT_TRUE(h.alerts.empty());
}

TEST(ReplicationModules, RequiredAreMutuallyExclusiveOnMobility) {
  KnowledgeBase kb("K1");
  ReplicationStaticModule staticModule;
  ReplicationMobileModule mobileModule;
  // Unknown mobility: neither activates (no basis to pick a technique).
  EXPECT_FALSE(staticModule.required(kb));
  EXPECT_FALSE(mobileModule.required(kb));
  kb.put(labels::kMobility, false);
  EXPECT_TRUE(staticModule.required(kb));
  EXPECT_FALSE(mobileModule.required(kb));
  kb.put(labels::kMobility, true);
  EXPECT_FALSE(staticModule.required(kb));
  EXPECT_TRUE(mobileModule.required(kb));
}

}  // namespace
}  // namespace kalis::ids
