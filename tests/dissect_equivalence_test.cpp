// Zero-copy dissector equivalence property (DESIGN.md §10): the in-place
// dissector must produce field-for-field the same result as the frozen
// legacy copying dissector (net/dissect_legacy.hpp) on every input — the
// committed fuzz corpus, valid frames of every family, and seeded mutations
// thereof. Any divergence is a refactor bug by definition.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "net/ble.hpp"
#include "net/ctp.hpp"
#include "net/dissect_legacy.hpp"
#include "net/ieee80211.hpp"
#include "net/ieee802154.hpp"
#include "net/ipv4.hpp"
#include "net/ipv6.hpp"
#include "net/packet.hpp"
#include "net/transport.hpp"
#include "net/zigbee.hpp"
#include "util/rng.hpp"

namespace kalis::net {
namespace {

Bytes owned(BytesView v) { return toBytes(v); }

#define KEXPECT(field) EXPECT_EQ(L.field, D.field) << ctx << ": " #field

void expectEqual(const legacy::LegacyDissection& L, const Dissection& D,
                 const std::string& ctx) {
  KEXPECT(medium);
  KEXPECT(type);
  // The legacy dissector computes FCS verdicts eagerly; the accessors
  // compute them on demand from the same bytes.
  EXPECT_EQ(L.wpanFcsValid, D.wpanFcsValid()) << ctx << ": wpanFcsValid";
  EXPECT_EQ(L.wifiFcsValid, D.wifiFcsValid()) << ctx << ": wifiFcsValid";

  ASSERT_EQ(L.wpan.has_value(), D.wpan.has_value()) << ctx;
  if (L.wpan) {
    EXPECT_EQ(L.wpan->type, D.wpan->type) << ctx;
    EXPECT_EQ(L.wpan->securityEnabled, D.wpan->securityEnabled) << ctx;
    EXPECT_EQ(L.wpan->ackRequest, D.wpan->ackRequest) << ctx;
    EXPECT_EQ(L.wpan->seq, D.wpan->seq) << ctx;
    EXPECT_EQ(L.wpan->panId, D.wpan->panId) << ctx;
    EXPECT_EQ(L.wpan->dst, D.wpan->dst) << ctx;
    EXPECT_EQ(L.wpan->src, D.wpan->src) << ctx;
    EXPECT_EQ(L.wpan->payload, owned(D.wpan->payload)) << ctx;
  }
  ASSERT_EQ(L.ctpData.has_value(), D.ctpData.has_value()) << ctx;
  if (L.ctpData) {
    EXPECT_EQ(L.ctpData->options, D.ctpData->options) << ctx;
    EXPECT_EQ(L.ctpData->thl, D.ctpData->thl) << ctx;
    EXPECT_EQ(L.ctpData->etx, D.ctpData->etx) << ctx;
    EXPECT_EQ(L.ctpData->origin, D.ctpData->origin) << ctx;
    EXPECT_EQ(L.ctpData->seqno, D.ctpData->seqno) << ctx;
    EXPECT_EQ(L.ctpData->collectId, D.ctpData->collectId) << ctx;
    EXPECT_EQ(L.ctpData->payload, owned(D.ctpData->payload)) << ctx;
  }
  ASSERT_EQ(L.ctpBeacon.has_value(), D.ctpBeacon.has_value()) << ctx;
  if (L.ctpBeacon) {
    EXPECT_EQ(L.ctpBeacon->options, D.ctpBeacon->options) << ctx;
    EXPECT_EQ(L.ctpBeacon->parent, D.ctpBeacon->parent) << ctx;
    EXPECT_EQ(L.ctpBeacon->etx, D.ctpBeacon->etx) << ctx;
  }
  ASSERT_EQ(L.zigbee.has_value(), D.zigbee.has_value()) << ctx;
  if (L.zigbee) {
    EXPECT_EQ(L.zigbee->type, D.zigbee->type) << ctx;
    EXPECT_EQ(L.zigbee->securityEnabled, D.zigbee->securityEnabled) << ctx;
    EXPECT_EQ(L.zigbee->dst, D.zigbee->dst) << ctx;
    EXPECT_EQ(L.zigbee->src, D.zigbee->src) << ctx;
    EXPECT_EQ(L.zigbee->radius, D.zigbee->radius) << ctx;
    EXPECT_EQ(L.zigbee->seq, D.zigbee->seq) << ctx;
    EXPECT_EQ(L.zigbee->payload, owned(D.zigbee->payload)) << ctx;
  }
  ASSERT_EQ(L.ipv6.has_value(), D.ipv6.has_value()) << ctx;
  if (L.ipv6) {
    EXPECT_EQ(L.ipv6->trafficClass, D.ipv6->trafficClass) << ctx;
    EXPECT_EQ(L.ipv6->flowLabel, D.ipv6->flowLabel) << ctx;
    EXPECT_EQ(L.ipv6->nextHeader, D.ipv6->nextHeader) << ctx;
    EXPECT_EQ(L.ipv6->hopLimit, D.ipv6->hopLimit) << ctx;
    EXPECT_EQ(L.ipv6->src, D.ipv6->src) << ctx;
    EXPECT_EQ(L.ipv6->dst, D.ipv6->dst) << ctx;
  }
  ASSERT_EQ(L.icmpv6.has_value(), D.icmpv6.has_value()) << ctx;
  if (L.icmpv6) {
    EXPECT_EQ(L.icmpv6->type, D.icmpv6->type) << ctx;
    EXPECT_EQ(L.icmpv6->code, D.icmpv6->code) << ctx;
    EXPECT_EQ(L.icmpv6->body, owned(D.icmpv6->body)) << ctx;
  }
  ASSERT_EQ(L.rplDio.has_value(), D.rplDio.has_value()) << ctx;
  if (L.rplDio) {
    EXPECT_EQ(L.rplDio->instanceId, D.rplDio->instanceId) << ctx;
    EXPECT_EQ(L.rplDio->versionNumber, D.rplDio->versionNumber) << ctx;
    EXPECT_EQ(L.rplDio->rank, D.rplDio->rank) << ctx;
    EXPECT_EQ(L.rplDio->dtsn, D.rplDio->dtsn) << ctx;
    EXPECT_EQ(L.rplDio->dodagId, D.rplDio->dodagId) << ctx;
  }
  ASSERT_EQ(L.rplDao.has_value(), D.rplDao.has_value()) << ctx;
  if (L.rplDao) {
    EXPECT_EQ(L.rplDao->instanceId, D.rplDao->instanceId) << ctx;
    EXPECT_EQ(L.rplDao->daoSequence, D.rplDao->daoSequence) << ctx;
    EXPECT_EQ(L.rplDao->dodagId, D.rplDao->dodagId) << ctx;
    EXPECT_EQ(L.rplDao->target, D.rplDao->target) << ctx;
  }
  ASSERT_EQ(L.wifi.has_value(), D.wifi.has_value()) << ctx;
  if (L.wifi) {
    EXPECT_EQ(L.wifi->kind, D.wifi->kind) << ctx;
    EXPECT_EQ(L.wifi->toDs, D.wifi->toDs) << ctx;
    EXPECT_EQ(L.wifi->fromDs, D.wifi->fromDs) << ctx;
    EXPECT_EQ(L.wifi->protectedFrame, D.wifi->protectedFrame) << ctx;
    EXPECT_EQ(L.wifi->dst, D.wifi->dst) << ctx;
    EXPECT_EQ(L.wifi->src, D.wifi->src) << ctx;
    EXPECT_EQ(L.wifi->bssid, D.wifi->bssid) << ctx;
    EXPECT_EQ(L.wifi->seqCtl, D.wifi->seqCtl) << ctx;
    EXPECT_EQ(L.wifi->body, owned(D.wifi->body)) << ctx;
  }
  ASSERT_EQ(L.ipv4.has_value(), D.ipv4.has_value()) << ctx;
  if (L.ipv4) {
    EXPECT_EQ(L.ipv4->tos, D.ipv4->tos) << ctx;
    EXPECT_EQ(L.ipv4->identification, D.ipv4->identification) << ctx;
    EXPECT_EQ(L.ipv4->ttl, D.ipv4->ttl) << ctx;
    EXPECT_EQ(L.ipv4->protocol, D.ipv4->protocol) << ctx;
    EXPECT_EQ(L.ipv4->src, D.ipv4->src) << ctx;
    EXPECT_EQ(L.ipv4->dst, D.ipv4->dst) << ctx;
  }
  ASSERT_EQ(L.tcp.has_value(), D.tcp.has_value()) << ctx;
  if (L.tcp) {
    EXPECT_EQ(L.tcp->srcPort, D.tcp->srcPort) << ctx;
    EXPECT_EQ(L.tcp->dstPort, D.tcp->dstPort) << ctx;
    EXPECT_EQ(L.tcp->seq, D.tcp->seq) << ctx;
    EXPECT_EQ(L.tcp->ackNo, D.tcp->ackNo) << ctx;
    EXPECT_EQ(L.tcp->flags.encode(), D.tcp->flags.encode()) << ctx;
    EXPECT_EQ(L.tcp->window, D.tcp->window) << ctx;
    EXPECT_EQ(L.tcp->payload, owned(D.tcp->payload)) << ctx;
  }
  ASSERT_EQ(L.udp.has_value(), D.udp.has_value()) << ctx;
  if (L.udp) {
    EXPECT_EQ(L.udp->srcPort, D.udp->srcPort) << ctx;
    EXPECT_EQ(L.udp->dstPort, D.udp->dstPort) << ctx;
    EXPECT_EQ(L.udp->payload, owned(D.udp->payload)) << ctx;
  }
  ASSERT_EQ(L.icmp.has_value(), D.icmp.has_value()) << ctx;
  if (L.icmp) {
    EXPECT_EQ(L.icmp->type, D.icmp->type) << ctx;
    EXPECT_EQ(L.icmp->code, D.icmp->code) << ctx;
    EXPECT_EQ(L.icmp->identifier, D.icmp->identifier) << ctx;
    EXPECT_EQ(L.icmp->sequence, D.icmp->sequence) << ctx;
    EXPECT_EQ(L.icmp->payload, owned(D.icmp->payload)) << ctx;
  }
  ASSERT_EQ(L.ble.has_value(), D.ble.has_value()) << ctx;
  if (L.ble) {
    EXPECT_EQ(L.ble->type, D.ble->type) << ctx;
    EXPECT_EQ(L.ble->advAddr, D.ble->advAddr) << ctx;
    EXPECT_EQ(L.ble->advData, owned(D.ble->advData)) << ctx;
  }

  EXPECT_EQ(L.appPayload, owned(D.appPayload)) << ctx;
  EXPECT_EQ(L.linkSource(), D.linkSource()) << ctx;
  EXPECT_EQ(L.linkDest(), D.linkDest()) << ctx;
  EXPECT_EQ(L.networkSource(), D.networkSource()) << ctx;
  EXPECT_EQ(L.networkDest(), D.networkDest()) << ctx;
  EXPECT_EQ(L.isBroadcastDest(), D.isBroadcastDest()) << ctx;
}

#undef KEXPECT

void check(const CapturedPacket& pkt, const std::string& ctx) {
  const legacy::LegacyDissection L = legacy::dissectLegacy(pkt);
  const Dissection D = dissect(pkt);
  expectEqual(L, D, ctx);
}

CapturedPacket packetOf(Medium medium, Bytes raw) {
  CapturedPacket pkt;
  pkt.medium = medium;
  pkt.raw = std::move(raw);
  pkt.meta.timestamp = seconds(1);
  return pkt;
}

Bytes randomBytes(Rng& rng, std::size_t maxLen) {
  Bytes out(rng.nextBelow(maxLen + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

// --- corpus: every committed adversarial input must agree --------------------

TEST(DissectEquivalence, CommittedCorpus) {
  const std::filesystem::path dir = KALIS_TEST_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".hex") continue;
    ++files;
    std::ifstream in(entry.path());
    ASSERT_TRUE(in) << entry.path();
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    std::string stripped;
    bool inComment = false;
    for (char c : content) {
      if (c == '#') inComment = true;
      if (c == '\n') inComment = false;
      if (!inComment) stripped.push_back(c);
    }
    std::istringstream tokens(stripped);
    std::string mediumToken;
    ASSERT_TRUE(tokens >> mediumToken) << entry.path();
    Medium medium = Medium::kWifi;
    if (mediumToken == "wpan") medium = Medium::kIeee802154;
    else if (mediumToken == "ble") medium = Medium::kBluetooth;
    else ASSERT_EQ(mediumToken, "wifi") << entry.path();
    std::string hex, tok;
    while (tokens >> tok) hex += tok;
    ASSERT_EQ(hex.size() % 2, 0u) << entry.path();
    Bytes raw;
    for (std::size_t i = 0; i < hex.size(); i += 2) {
      raw.push_back(static_cast<std::uint8_t>(
          std::stoi(hex.substr(i, 2), nullptr, 16)));
    }
    check(packetOf(medium, std::move(raw)), entry.path().filename().string());
  }
  EXPECT_GE(files, 10u);
}

// --- valid frames of every family, plus seeded mutations ---------------------

TEST(DissectEquivalence, RandomTrafficAndMutations) {
  Rng rng(0xd15ec7);
  for (int round = 0; round < 400; ++round) {
    Bytes raw;
    Medium medium = Medium::kIeee802154;
    switch (rng.nextBelow(7)) {
      case 0: {  // CTP data over TinyOS AM
        CtpData data;
        data.thl = static_cast<std::uint8_t>(rng.nextBelow(16));
        data.origin = Mac16{static_cast<std::uint16_t>(rng.nextBelow(32))};
        data.payload = randomBytes(rng, 16);
        Ieee802154Frame f;
        f.src = Mac16{static_cast<std::uint16_t>(1 + rng.nextBelow(31))};
        f.dst = Mac16{static_cast<std::uint16_t>(rng.nextBelow(32))};
        const Bytes body = data.encode();
        f.payload = wrapTinyosAm(kAmCtpData, BytesView(body));
        raw = f.encode();
        break;
      }
      case 1: {  // ZigBee NWK
        ZigbeeNwkFrame nwk;
        nwk.src = Mac16{static_cast<std::uint16_t>(rng.nextBelow(64))};
        nwk.dst = Mac16{static_cast<std::uint16_t>(rng.nextBelow(64))};
        nwk.payload = randomBytes(rng, 12);
        Ieee802154Frame f;
        f.src = nwk.src;
        f.payload = nwk.encode();
        raw = f.encode();
        break;
      }
      case 2: {  // ICMPv6 echo over 6LoWPAN
        const Ipv6Addr src = Ipv6Addr::linkLocalFromShort(
            Mac16{static_cast<std::uint16_t>(1 + rng.nextBelow(32))});
        const Ipv6Addr dst = Ipv6Addr::allNodesMulticast();
        Icmpv6Message msg;
        msg.type = Icmpv6Type::kEchoRequest;
        msg.body = randomBytes(rng, 16);
        Ipv6Header ip;
        ip.src = src;
        ip.dst = dst;
        Ieee802154Frame f;
        f.src = Mac16{0x0002};
        f.payload.push_back(kDispatchIpv6Uncompressed);
        const Bytes inner = ip.encode(BytesView(msg.encode(src, dst)));
        f.payload.insert(f.payload.end(), inner.begin(), inner.end());
        raw = f.encode();
        break;
      }
      case 3: {  // TCP over WiFi
        medium = Medium::kWifi;
        const Ipv4Addr src{
            0x0a000000u | static_cast<std::uint32_t>(rng.nextBelow(256))};
        const Ipv4Addr dst{
            0x0a000000u | static_cast<std::uint32_t>(rng.nextBelow(256))};
        TcpSegment tcp;
        tcp.srcPort = static_cast<std::uint16_t>(rng.next());
        tcp.flags = TcpFlags::decode(static_cast<std::uint8_t>(rng.next()));
        tcp.payload = randomBytes(rng, 24);
        Ipv4Header ip;
        ip.protocol = IpProto::kTcp;
        ip.src = src;
        ip.dst = dst;
        WifiFrame f;
        f.kind = WifiFrameKind::kData;
        const Bytes seg = tcp.encode(src, dst);
        f.body = llcSnapWrap(kEthertypeIpv4, BytesView(ip.encode(BytesView(seg))));
        raw = f.encode();
        break;
      }
      case 4: {  // ICMP echo over WiFi
        medium = Medium::kWifi;
        IcmpMessage icmp;
        icmp.type = rng.nextBool(0.5) ? IcmpType::kEchoRequest
                                      : IcmpType::kEchoReply;
        icmp.payload = randomBytes(rng, 24);
        Ipv4Header ip;
        ip.protocol = IpProto::kIcmp;
        ip.src = Ipv4Addr{0x0a000001};
        ip.dst = Ipv4Addr{0x0a000002};
        WifiFrame f;
        f.kind = WifiFrameKind::kData;
        const Bytes body = icmp.encode();
        f.body = llcSnapWrap(kEthertypeIpv4, BytesView(ip.encode(BytesView(body))));
        raw = f.encode();
        break;
      }
      case 5: {  // WiFi management
        medium = Medium::kWifi;
        WifiFrame f;
        f.kind = rng.nextBool(0.5) ? WifiFrameKind::kBeacon
                                   : WifiFrameKind::kDeauth;
        if (f.kind == WifiFrameKind::kBeacon) f.body = beaconBody("eq-test");
        raw = f.encode();
        break;
      }
      default: {  // BLE advertising
        medium = Medium::kBluetooth;
        BleAdvPdu adv;
        adv.type = static_cast<BlePduType>(rng.nextBelow(6));
        adv.advData = randomBytes(rng, 31);
        raw = adv.encode();
        break;
      }
    }
    check(packetOf(medium, raw), "valid round " + std::to_string(round));
    // Truncations hit the error paths of both dissectors identically.
    for (int cut = 0; cut < 4; ++cut) {
      Bytes t = raw;
      t.resize(rng.nextBelow(t.size() + 1));
      check(packetOf(medium, std::move(t)),
            "truncated round " + std::to_string(round));
    }
    // Bit flips probe disagreement on corrupted-but-parseable frames.
    for (int flip = 0; flip < 4 && !raw.empty(); ++flip) {
      Bytes m = raw;
      const std::size_t bit = rng.nextBelow(m.size() * 8);
      m[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      check(packetOf(medium, std::move(m)),
            "mutated round " + std::to_string(round));
    }
  }
}

}  // namespace
}  // namespace kalis::net
