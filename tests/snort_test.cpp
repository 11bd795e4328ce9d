// Snort-like baseline tests: rule-language parsing, matching semantics,
// thresholds, and the capture-stack blindness that drives the paper's
// comparison (§VI-B2: "Snort is unable to intercept and analyze the
// traffic" on ZigBee).
#include <gtest/gtest.h>

#include "baseline/snort_engine.hpp"
#include "net/packet.hpp"

namespace kalis::baseline {
namespace {

net::CapturedPacket wifiIcmp(net::Ipv4Addr src, net::Ipv4Addr dst,
                             net::IcmpType type, SimTime t) {
  net::IcmpMessage msg;
  msg.type = type;
  net::Ipv4Header ip;
  ip.src = src;
  ip.dst = dst;
  ip.protocol = net::IpProto::kIcmp;
  net::WifiFrame frame;
  frame.kind = net::WifiFrameKind::kData;
  frame.body = net::llcSnapWrap(net::kEthertypeIpv4,
                                BytesView(ip.encode(msg.encode())));
  net::CapturedPacket pkt;
  pkt.medium = net::Medium::kWifi;
  pkt.raw = frame.encode();
  pkt.meta.timestamp = t;
  return pkt;
}

net::CapturedPacket wifiTcp(net::Ipv4Addr src, net::Ipv4Addr dst,
                            std::uint16_t dstPort, net::TcpFlags flags,
                            Bytes payload, SimTime t) {
  net::TcpSegment segment;
  segment.srcPort = 33333;
  segment.dstPort = dstPort;
  segment.flags = flags;
  segment.payload = std::move(payload);
  net::Ipv4Header ip;
  ip.src = src;
  ip.dst = dst;
  ip.protocol = net::IpProto::kTcp;
  net::WifiFrame frame;
  frame.kind = net::WifiFrameKind::kData;
  frame.body = net::llcSnapWrap(
      net::kEthertypeIpv4, BytesView(ip.encode(segment.encode(src, dst))));
  net::CapturedPacket pkt;
  pkt.medium = net::Medium::kWifi;
  pkt.raw = frame.encode();
  pkt.meta.timestamp = t;
  return pkt;
}

// --- parser -------------------------------------------------------------------------

TEST(RuleParser, FullRuleParses) {
  const auto result = parseRules(
      "alert tcp 10.0.0.0/8 any -> any 80 (msg:\"web probe\"; "
      "content:\"GET /admin\"; flags:PA; dsize:>10; sid:42; "
      "classtype:misc-activity;)");
  ASSERT_TRUE(result.errors.empty()) << result.errors[0];
  ASSERT_EQ(result.rules.size(), 1u);
  const SnortRule& rule = result.rules[0];
  EXPECT_EQ(rule.proto, RuleProto::kTcp);
  EXPECT_FALSE(rule.src.any);
  EXPECT_TRUE(rule.srcPort.any);
  EXPECT_FALSE(rule.dstPort.any);
  EXPECT_EQ(rule.dstPort.lo, 80);
  EXPECT_EQ(rule.msg, "web probe");
  EXPECT_EQ(rule.sid, 42u);
  ASSERT_EQ(rule.contents.size(), 1u);
  EXPECT_EQ(rule.contents[0], bytesOf("GET /admin"));
  ASSERT_TRUE(rule.flags.has_value());
  EXPECT_TRUE(rule.flags->psh);
  EXPECT_TRUE(rule.flags->ack);
  ASSERT_TRUE(rule.dsize.has_value());
  EXPECT_EQ(rule.dsize->op, DsizeSpec::Op::kGt);
}

TEST(RuleParser, ThresholdOption) {
  const auto result = parseRules(
      "alert icmp any any -> any any (itype:0; threshold: type both, "
      "track by_dst, count 40, seconds 5; sid:1;)");
  ASSERT_EQ(result.rules.size(), 1u);
  ASSERT_TRUE(result.rules[0].threshold.has_value());
  EXPECT_EQ(result.rules[0].threshold->count, 40u);
  EXPECT_EQ(result.rules[0].threshold->window, seconds(5));
  EXPECT_EQ(result.rules[0].threshold->track, ThresholdSpec::Track::kByDst);
}

TEST(RuleParser, ThresholdSecondsPastVirtualTimeRejected) {
  for (const char* window : {"1e300", "inf", "nan"}) {
    const auto result = parseRules(
        std::string("alert icmp any any -> any any (itype:0; threshold: type "
                    "both, track by_dst, count 40, seconds ") +
        window + "; sid:1;)");
    EXPECT_TRUE(result.rules.empty()) << window;
    EXPECT_EQ(result.errors.size(), 1u) << window;
  }
}

TEST(RuleParser, HexContent) {
  const auto result =
      parseRules("alert tcp any any -> any any (content:|de ad be ef|; sid:2;)");
  ASSERT_EQ(result.rules.size(), 1u);
  EXPECT_EQ(result.rules[0].contents[0], (Bytes{0xde, 0xad, 0xbe, 0xef}));
}

TEST(RuleParser, CommentsAndBlanksSkipped) {
  const auto result = parseRules(
      "# a comment\n\n"
      "alert ip any any -> any any (sid:3;)\n");
  EXPECT_TRUE(result.errors.empty());
  EXPECT_EQ(result.rules.size(), 1u);
}

TEST(RuleParser, ErrorsCollectedPerLineAndGoodRulesKept) {
  const auto result = parseRules(
      "alert tcp any any -> any any (sid:1;)\n"
      "alert bogus any any -> any any (sid:2;)\n"
      "alert udp any any -> any any (sid:3;)\n"
      "alert udp any any any any (sid:4;)\n");
  EXPECT_EQ(result.rules.size(), 2u);
  ASSERT_EQ(result.errors.size(), 2u);
  EXPECT_NE(result.errors[0].find("line 2"), std::string::npos);
  EXPECT_NE(result.errors[1].find("line 4"), std::string::npos);
}

TEST(RuleParser, AddrSpecCidr) {
  const auto spec = parseRules(
      "alert ip 192.168.1.0/24 any -> any any (sid:5;)");
  ASSERT_EQ(spec.rules.size(), 1u);
  EXPECT_TRUE(spec.rules[0].src.matches(0xc0a80142));   // 192.168.1.66
  EXPECT_FALSE(spec.rules[0].src.matches(0xc0a80242));  // 192.168.2.66
}

TEST(RuleParser, PortRange) {
  const auto spec =
      parseRules("alert tcp any 1024:2048 -> any any (sid:6;)");
  ASSERT_EQ(spec.rules.size(), 1u);
  EXPECT_TRUE(spec.rules[0].srcPort.matches(1500));
  EXPECT_FALSE(spec.rules[0].srcPort.matches(80));
}

TEST(RuleParser, ClasstypeToAttackMapping) {
  const auto rules = parseRules(
      "alert icmp any any -> any any (sid:1; classtype:icmp-flood;)\n"
      "alert icmp any any -> any any (sid:2; classtype:smurf;)\n"
      "alert tcp any any -> any any (sid:3; classtype:syn-flood;)\n"
      "alert tcp any any -> any any (sid:4; classtype:misc-activity;)\n");
  ASSERT_EQ(rules.rules.size(), 4u);
  EXPECT_EQ(rules.rules[0].attackType(), ids::AttackType::kIcmpFlood);
  EXPECT_EQ(rules.rules[1].attackType(), ids::AttackType::kSmurf);
  EXPECT_EQ(rules.rules[2].attackType(), ids::AttackType::kSynFlood);
  EXPECT_EQ(rules.rules[3].attackType(), ids::AttackType::kUnknownAnomaly);
}

TEST(RuleParser, CommunityRulesetParsesCleanly) {
  const auto result = parseRules(communityRuleset());
  EXPECT_TRUE(result.errors.empty());
  EXPECT_GE(result.rules.size(), 90u);  // "a large rule list"
}

// --- engine -------------------------------------------------------------------------

TEST(SnortEngine, MatchesItypeAndFiresAlert) {
  SnortEngine engine;
  engine.loadRules(
      "alert icmp any any -> 10.0.0.2 any (msg:\"reply\"; itype:0; sid:9; "
      "classtype:icmp-flood;)");
  engine.onPacket(wifiIcmp(net::Ipv4Addr{0x0a000001}, net::Ipv4Addr{0x0a000002},
                           net::IcmpType::kEchoReply, seconds(1)));
  ASSERT_EQ(engine.alerts().size(), 1u);
  EXPECT_EQ(engine.alerts()[0].type, ids::AttackType::kIcmpFlood);
  EXPECT_EQ(engine.alerts()[0].victimEntity, "10.0.0.2");
  // A request does not match itype:0.
  engine.onPacket(wifiIcmp(net::Ipv4Addr{0x0a000003}, net::Ipv4Addr{0x0a000002},
                           net::IcmpType::kEchoRequest, seconds(2)));
  EXPECT_EQ(engine.alerts().size(), 1u);
}

TEST(SnortEngine, ThresholdNeedsCountWithinWindow) {
  SnortEngine engine;
  engine.loadRules(
      "alert icmp any any -> any any (itype:0; threshold: type both, "
      "track by_dst, count 5, seconds 2; sid:10; classtype:icmp-flood;)");
  // 4 packets: below count.
  for (int i = 0; i < 4; ++i) {
    engine.onPacket(wifiIcmp(net::Ipv4Addr{1}, net::Ipv4Addr{2},
                             net::IcmpType::kEchoReply,
                             seconds(1) + i * milliseconds(100)));
  }
  EXPECT_TRUE(engine.alerts().empty());
  // The fifth within the window fires.
  engine.onPacket(wifiIcmp(net::Ipv4Addr{1}, net::Ipv4Addr{2},
                           net::IcmpType::kEchoReply,
                           seconds(1) + milliseconds(500)));
  EXPECT_EQ(engine.alerts().size(), 1u);
  // Slow drip across windows never fires.
  SnortEngine slow;
  slow.loadRules(
      "alert icmp any any -> any any (itype:0; threshold: type both, "
      "track by_dst, count 5, seconds 2; sid:10; classtype:icmp-flood;)");
  for (int i = 0; i < 10; ++i) {
    slow.onPacket(wifiIcmp(net::Ipv4Addr{1}, net::Ipv4Addr{2},
                           net::IcmpType::kEchoReply, seconds(1 + i)));
  }
  EXPECT_TRUE(slow.alerts().empty());
}

TEST(SnortEngine, ContentMatchScansPayload) {
  SnortEngine engine;
  engine.loadRules(
      "alert tcp any any -> any any (content:\"cmd.exe\"; sid:11; "
      "classtype:misc-activity;)");
  net::TcpFlags psh;
  psh.psh = true;
  psh.ack = true;
  engine.onPacket(wifiTcp(net::Ipv4Addr{1}, net::Ipv4Addr{2}, 80, psh,
                          bytesOf("run cmd.exe now"), seconds(1)));
  EXPECT_EQ(engine.alerts().size(), 1u);
  engine.onPacket(wifiTcp(net::Ipv4Addr{1}, net::Ipv4Addr{3}, 80, psh,
                          bytesOf("harmless"), seconds(2)));
  EXPECT_EQ(engine.alerts().size(), 1u);
}

TEST(SnortEngine, BlindToNonWifiMedia) {
  SnortEngine engine;
  engine.loadRules(communityRuleset());
  net::Ieee802154Frame frame;
  frame.src = net::Mac16{5};
  net::CapturedPacket zigbee;
  zigbee.medium = net::Medium::kIeee802154;
  zigbee.raw = frame.encode();
  engine.onPacket(zigbee);
  EXPECT_EQ(engine.packetsProcessed(), 0u);
  EXPECT_EQ(engine.packetsUnparsed(), 1u);
  EXPECT_TRUE(engine.alerts().empty());
}

TEST(SnortEngine, WorkScalesWithRuleCount) {
  SnortEngine small;
  small.loadRules("alert ip any any -> any any (sid:1;)");
  SnortEngine big;
  big.loadRules(communityRuleset());
  const auto pkt = wifiIcmp(net::Ipv4Addr{1}, net::Ipv4Addr{2},
                            net::IcmpType::kEchoReply, seconds(1));
  small.onPacket(pkt);
  big.onPacket(pkt);
  EXPECT_GT(big.workUnits(), small.workUnits() * 50);
}

TEST(SnortEngine, AlertRateLimitedPerRuleVictim) {
  SnortEngine engine;
  engine.loadRules(
      "alert icmp any any -> any any (itype:0; sid:12; classtype:icmp-flood;)");
  for (int i = 0; i < 10; ++i) {
    engine.onPacket(wifiIcmp(net::Ipv4Addr{1}, net::Ipv4Addr{2},
                             net::IcmpType::kEchoReply,
                             seconds(1) + i * milliseconds(100)));
  }
  EXPECT_EQ(engine.alerts().size(), 1u);  // one per 10 s per (rule, victim)
}

TEST(SnortEngine, MemoryAccountsRulesAndState) {
  SnortEngine engine;
  const std::size_t empty = engine.memoryBytes();
  engine.loadRules(communityRuleset());
  EXPECT_GT(engine.memoryBytes(), empty + 1000);
}

}  // namespace
}  // namespace kalis::baseline
