// Deterministic dissector fuzzing (DESIGN.md §9): every family of
// `net::dissect` input is exercised with seeded PRNG mutations of valid
// frames — truncation, extension, bit flips, span deletion, garbage
// overwrite — plus the committed `tests/corpus/` regression inputs. The
// contract under test: dissect() never crashes, never reads out of bounds
// (CI runs this under ASan/UBSan), and mangled input comes back as
// kMalformed/kUnknown, not as UB.
//
// The same campaigns also exercise the codec (net/codec.hpp): for EVERY
// input — valid, mutated or pure garbage — serialize(dissect(x)) must
// return x byte-for-byte, and re-dissecting the serialized bytes must not
// diverge from the first parse.
//
// Each family runs kItersPerFamily iterations (override with the
// KALIS_FUZZ_ITERS env var); seven families × 15k = 105k total, satisfying
// the ≥100k acceptance bar. Everything is seeded: a failure reproduces by
// rerunning the same test.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "net/ble.hpp"
#include "net/codec.hpp"
#include "net/ctp.hpp"
#include "net/ieee80211.hpp"
#include "net/ieee802154.hpp"
#include "net/ipv4.hpp"
#include "net/ipv6.hpp"
#include "net/packet.hpp"
#include "net/transport.hpp"
#include "net/zigbee.hpp"
#include "support.hpp"
#include "trace/trace_file.hpp"
#include "util/rng.hpp"

namespace kalis::net {
namespace {

std::size_t itersPerFamily() {
  if (const char* env = std::getenv("KALIS_FUZZ_ITERS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 15000;
}

/// Dissects and touches every accessor so that all lazily-derived views are
/// materialized under the sanitizers. Returns the type for assertions.
PacketType exercise(const CapturedPacket& pkt) {
  const Dissection d = dissect(pkt);
  std::size_t sink = 0;
  sink += d.linkSource().size();
  sink += d.linkDest().size();
  if (const auto ns = d.networkSource()) sink += ns->size();
  if (const auto nd = d.networkDest()) sink += nd->size();
  sink += d.isBroadcastDest() ? 1 : 0;
  sink += std::string(packetTypeName(d.type)).size();
  sink += d.appPayload.size();
  // The optional layers must be internally consistent: re-encoding a parsed
  // layer must not crash either (guards width/length fields).
  if (d.wpan) sink += d.wpan->payload.size();
  if (d.zigbee) sink += d.zigbee->payload.size();
  if (d.wifi) sink += d.wifi->body.size();
  if (d.ble) sink += d.ble->advData.size();
  if (d.tcp) sink += d.tcp->payload.size();
  if (d.udp) sink += d.udp->payload.size();
  if (d.icmp) sink += d.icmp->payload.size();
  if (d.icmpv6) sink += d.icmpv6->body.size();
  // dissect() computes no integrity verdict: run the IP and transport
  // verifiers on every such layer that parsed (the FCS accessors run inside
  // toReadableByteString below), so the sanitizers see all seven checks.
  if (d.ipv4) {
    sink += verifyIpv4Checksum(d.wifi->body.subspan(d.llcHeader.size()));
    if (d.tcp) sink += verifyTcpChecksum(d.l3Payload, d.ipv4->src, d.ipv4->dst);
    if (d.udp) sink += verifyUdpChecksum(d.l3Payload, d.ipv4->src, d.ipv4->dst);
    if (d.icmp) sink += verifyIcmpChecksum(d.l3Payload);
  }
  if (d.icmpv6) {
    sink += verifyIcmpv6Checksum(d.l3Payload, d.ipv6->src, d.ipv6->dst);
  }
  EXPECT_GE(sink, 0u);  // keep `sink` observable
  // Codec roundtrip (packetlib discipline): whatever the parse verdict,
  // serialization must reproduce the input exactly, and a second parse of
  // the serialized bytes must not diverge from the first.
  const Bytes wire = serialize(d);
  EXPECT_EQ(wire, pkt.raw) << "serialize(dissect(x)) != x";
  CapturedPacket again = pkt;
  again.raw = wire;
  const Dissection d2 = dissect(again);
  EXPECT_EQ(toReadableByteString(d2), toReadableByteString(d))
      << "reparse diverged";
  return d.type;
}

using test::randomBytes;

/// Every fuzzed frame is captured at this RSSI.
constexpr double kRssiDbm = -40;

/// Applies 1–3 random structural mutations. Never returns the input intact
/// on purpose — the valid path is fed separately.
Bytes mutate(Bytes frame, Rng& rng) {
  const std::size_t mutations = 1 + rng.nextBelow(3);
  for (std::size_t m = 0; m < mutations; ++m) {
    switch (rng.nextBelow(5)) {
      case 0:  // truncate
        if (!frame.empty()) frame.resize(rng.nextBelow(frame.size() + 1));
        break;
      case 1: {  // extend with garbage
        const std::size_t extra = 1 + rng.nextBelow(24);
        for (std::size_t i = 0; i < extra; ++i) {
          frame.push_back(static_cast<std::uint8_t>(rng.next()));
        }
        break;
      }
      case 2:  // flip bits (often hits length/type/dispatch fields)
        if (!frame.empty()) {
          const std::size_t flips = 1 + rng.nextBelow(8);
          for (std::size_t i = 0; i < flips; ++i) {
            const std::size_t bit = rng.nextBelow(frame.size() * 8);
            frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
          }
        }
        break;
      case 3:  // delete an interior span (shifts every later field)
        if (frame.size() > 2) {
          const std::size_t pos = rng.nextBelow(frame.size() - 1);
          const std::size_t len = 1 + rng.nextBelow(frame.size() - pos - 1);
          frame.erase(frame.begin() + static_cast<std::ptrdiff_t>(pos),
                      frame.begin() + static_cast<std::ptrdiff_t>(pos + len));
        }
        break;
      case 4:  // overwrite a span with garbage, length preserved
        if (!frame.empty()) {
          const std::size_t pos = rng.nextBelow(frame.size());
          const std::size_t len = 1 + rng.nextBelow(frame.size() - pos);
          for (std::size_t i = 0; i < len; ++i) {
            frame[pos + i] = static_cast<std::uint8_t>(rng.next());
          }
        }
        break;
    }
  }
  return frame;
}

Ieee802154Frame wpanShell(Rng& rng) {
  Ieee802154Frame f;
  f.type = static_cast<WpanFrameType>(1 + rng.nextBelow(3));
  f.securityEnabled = rng.nextBool(0.2);
  f.ackRequest = rng.nextBool(0.3);
  f.seq = static_cast<std::uint8_t>(rng.next());
  f.panId = static_cast<std::uint16_t>(rng.next());
  f.dst = rng.nextBool(0.2) ? Mac16{Mac16::kBroadcast}
                            : Mac16{static_cast<std::uint16_t>(rng.next())};
  f.src = Mac16{static_cast<std::uint16_t>(rng.next())};
  return f;
}

// --- one valid-frame builder per dissector family ---------------------------

Bytes buildIeee802154(Rng& rng) {
  Ieee802154Frame f = wpanShell(rng);
  switch (rng.nextBelow(4)) {
    case 0: {  // CTP data over TinyOS AM
      CtpData data;
      data.thl = static_cast<std::uint8_t>(rng.nextBelow(16));
      data.etx = static_cast<std::uint16_t>(rng.nextBelow(512));
      data.origin = Mac16{static_cast<std::uint16_t>(rng.nextBelow(32))};
      data.seqno = static_cast<std::uint8_t>(rng.next());
      data.collectId = static_cast<std::uint8_t>(rng.nextBelow(4));
      data.payload = randomBytes(rng, 16);
      f.payload = wrapTinyosAm(kAmCtpData, BytesView(data.encode()));
      break;
    }
    case 1: {  // CTP routing beacon
      CtpRoutingBeacon beacon;
      beacon.parent = Mac16{static_cast<std::uint16_t>(rng.nextBelow(32))};
      beacon.etx = static_cast<std::uint16_t>(rng.nextBelow(512));
      f.payload = wrapTinyosAm(kAmCtpRouting, BytesView(beacon.encode()));
      break;
    }
    case 2:  // unknown AM id
      f.payload = wrapTinyosAm(static_cast<std::uint8_t>(rng.next()),
                               BytesView(randomBytes(rng, 12)));
      break;
    default:  // bare payload, arbitrary dispatch byte
      f.payload = randomBytes(rng, 20);
      break;
  }
  if (f.type == WpanFrameType::kAck) f.payload.clear();
  return f.encode();
}

Bytes buildZigbee(Rng& rng) {
  Ieee802154Frame f = wpanShell(rng);
  f.type = WpanFrameType::kData;
  ZigbeeNwkFrame nwk;
  nwk.type = rng.nextBool(0.5) ? ZigbeeFrameType::kData
                               : ZigbeeFrameType::kCommand;
  nwk.securityEnabled = rng.nextBool(0.3);
  nwk.dst = Mac16{static_cast<std::uint16_t>(rng.nextBelow(64))};
  nwk.src = Mac16{static_cast<std::uint16_t>(rng.nextBelow(64))};
  nwk.radius = static_cast<std::uint8_t>(rng.nextBelow(8));
  nwk.seq = static_cast<std::uint8_t>(rng.next());
  if (nwk.type == ZigbeeFrameType::kCommand) {
    nwk.payload.push_back(static_cast<std::uint8_t>(1 + rng.nextBelow(8)));
  }
  const Bytes extra = randomBytes(rng, 12);
  nwk.payload.insert(nwk.payload.end(), extra.begin(), extra.end());
  f.payload = nwk.encode();
  return f.encode();
}

Bytes buildIpv6(Rng& rng) {
  Ieee802154Frame f = wpanShell(rng);
  f.type = WpanFrameType::kData;
  const Ipv6Addr src = Ipv6Addr::linkLocalFromShort(
      Mac16{static_cast<std::uint16_t>(1 + rng.nextBelow(32))});
  const Ipv6Addr dst = rng.nextBool(0.3)
                           ? Ipv6Addr::allNodesMulticast()
                           : Ipv6Addr::linkLocalFromShort(Mac16{
                                 static_cast<std::uint16_t>(1 + rng.nextBelow(32))});
  Icmpv6Message msg;
  switch (rng.nextBelow(4)) {
    case 0: {
      RplDio dio;
      dio.rank = static_cast<std::uint16_t>(rng.nextBelow(1024));
      dio.dodagId = src;
      msg.type = Icmpv6Type::kRplControl;
      msg.code = kRplCodeDio;
      msg.body = dio.encodeBody();
      break;
    }
    case 1: {
      RplDao dao;
      dao.dodagId = src;
      dao.target = dst;
      msg.type = Icmpv6Type::kRplControl;
      msg.code = kRplCodeDao;
      msg.body = dao.encodeBody();
      break;
    }
    default:
      msg.type = rng.nextBool(0.5) ? Icmpv6Type::kEchoRequest
                                   : Icmpv6Type::kEchoReply;
      msg.body = randomBytes(rng, 16);
      break;
  }
  Ipv6Header ip;
  ip.src = src;
  ip.dst = dst;
  ip.hopLimit = static_cast<std::uint8_t>(1 + rng.nextBelow(64));
  f.payload.push_back(kDispatchIpv6Uncompressed);
  const Bytes inner = ip.encode(BytesView(msg.encode(src, dst)));
  f.payload.insert(f.payload.end(), inner.begin(), inner.end());
  return f.encode();
}

Mac48 randomMac48(Rng& rng) {
  Mac48 m{};
  for (auto& b : m.bytes) b = static_cast<std::uint8_t>(rng.next());
  return m;
}

WifiFrame wifiShell(Rng& rng) {
  WifiFrame f;
  f.kind = static_cast<WifiFrameKind>(rng.nextBelow(4));
  f.toDs = rng.nextBool(0.5);
  f.fromDs = rng.nextBool(0.3);
  f.protectedFrame = rng.nextBool(0.3);
  f.dst = rng.nextBool(0.2) ? Mac48::broadcast() : randomMac48(rng);
  f.src = randomMac48(rng);
  f.bssid = randomMac48(rng);
  f.seqCtl = static_cast<std::uint16_t>(rng.next());
  return f;
}

Bytes buildIeee80211(Rng& rng) {
  WifiFrame f = wifiShell(rng);
  if (f.kind == WifiFrameKind::kBeacon) {
    const Bytes ssid = randomBytes(rng, 12);
    f.body.assign(ssid.begin(), ssid.end());
  } else if (f.kind == WifiFrameKind::kData) {
    f.body = llcSnapWrap(static_cast<std::uint16_t>(rng.next()),
                         BytesView(randomBytes(rng, 24)));
  }
  return f.encode();
}

Bytes buildIpv4(Rng& rng) {
  WifiFrame f = wifiShell(rng);
  f.kind = WifiFrameKind::kData;
  const Ipv4Addr src{static_cast<std::uint32_t>(0x0a000000u | rng.nextBelow(256))};
  const Ipv4Addr dst = rng.nextBool(0.2)
                           ? Ipv4Addr::broadcast()
                           : Ipv4Addr{static_cast<std::uint32_t>(0x0a000000u | rng.nextBelow(256))};
  IcmpMessage icmp;
  icmp.type = rng.nextBool(0.5) ? IcmpType::kEchoRequest : IcmpType::kEchoReply;
  icmp.identifier = static_cast<std::uint16_t>(rng.next());
  icmp.sequence = static_cast<std::uint16_t>(rng.next());
  icmp.payload = randomBytes(rng, 24);
  Ipv4Header ip;
  ip.protocol = IpProto::kIcmp;
  ip.ttl = static_cast<std::uint8_t>(1 + rng.nextBelow(128));
  ip.identification = static_cast<std::uint16_t>(rng.next());
  ip.src = src;
  ip.dst = dst;
  f.body = llcSnapWrap(kEthertypeIpv4, BytesView(ip.encode(BytesView(icmp.encode()))));
  return f.encode();
}

Bytes buildTransport(Rng& rng) {
  WifiFrame f = wifiShell(rng);
  f.kind = WifiFrameKind::kData;
  const Ipv4Addr src{static_cast<std::uint32_t>(0x0a000000u | rng.nextBelow(256))};
  const Ipv4Addr dst{static_cast<std::uint32_t>(0x0a000000u | rng.nextBelow(256))};
  Ipv4Header ip;
  ip.src = src;
  ip.dst = dst;
  Bytes segment;
  if (rng.nextBool(0.5)) {
    TcpSegment tcp;
    tcp.srcPort = static_cast<std::uint16_t>(rng.next());
    tcp.dstPort = static_cast<std::uint16_t>(rng.next());
    tcp.seq = static_cast<std::uint32_t>(rng.next());
    tcp.ackNo = static_cast<std::uint32_t>(rng.next());
    tcp.flags = TcpFlags::decode(static_cast<std::uint8_t>(rng.next()));
    tcp.payload = randomBytes(rng, 24);
    ip.protocol = IpProto::kTcp;
    segment = tcp.encode(src, dst);
  } else {
    UdpDatagram udp;
    udp.srcPort = static_cast<std::uint16_t>(rng.next());
    udp.dstPort = static_cast<std::uint16_t>(rng.next());
    udp.payload = randomBytes(rng, 24);
    ip.protocol = IpProto::kUdp;
    segment = udp.encode(src, dst);
  }
  f.body = llcSnapWrap(kEthertypeIpv4, BytesView(ip.encode(BytesView(segment))));
  return f.encode();
}

Bytes buildBle(Rng& rng) {
  BleAdvPdu pdu;
  pdu.type = static_cast<BlePduType>(rng.nextBelow(6));
  pdu.advAddr = randomMac48(rng);
  pdu.advData = randomBytes(rng, 31);
  return pdu.encode();
}

/// One fuzz campaign: `iters` rounds of build-(maybe mutate)-dissect on one
/// medium. Every 8th frame goes through unmutated, so the valid paths stay
/// covered too; the rest are structurally mangled.
void fuzzFamily(const char* name, Medium medium, std::uint64_t seed,
                Bytes (*build)(Rng&)) {
  Rng rng(seed);
  std::size_t malformed = 0;
  const std::size_t iters = itersPerFamily();
  for (std::size_t i = 0; i < iters; ++i) {
    Bytes raw = build(rng);
    if (i % 8 != 0) raw = mutate(std::move(raw), rng);
    if (i % 97 == 0) raw = randomBytes(rng, 64);  // pure garbage rounds
    if (exercise(test::packetOf(medium, std::move(raw), kRssiDbm)) ==
        PacketType::kMalformed) {
      ++malformed;
    }
  }
  // The campaign must actually reach the malformed verdicts — a fuzzer that
  // only produces parseable frames is not testing the error paths.
  EXPECT_GT(malformed, iters / 100) << name;
}

TEST(FuzzDissector, Ieee802154) {
  fuzzFamily("ieee802154", Medium::kIeee802154, 0x802154, buildIeee802154);
}

TEST(FuzzDissector, Zigbee) {
  fuzzFamily("zigbee", Medium::kIeee802154, 0x219bee, buildZigbee);
}

TEST(FuzzDissector, Ipv6Rpl) {
  fuzzFamily("ipv6", Medium::kIeee802154, 0x6106, buildIpv6);
}

TEST(FuzzDissector, Ieee80211) {
  fuzzFamily("ieee80211", Medium::kWifi, 0x80211, buildIeee80211);
}

TEST(FuzzDissector, Ipv4Icmp) {
  fuzzFamily("ipv4", Medium::kWifi, 0x404, buildIpv4);
}

TEST(FuzzDissector, Transport) {
  fuzzFamily("transport", Medium::kWifi, 0x7c9, buildTransport);
}

TEST(FuzzDissector, Ble) {
  fuzzFamily("ble", Medium::kBluetooth, 0xb1e, buildBle);
}

TEST(FuzzDissector, MediumMismatchNeverCrashes) {
  // Feed every builder's output to every OTHER medium's dissector: an
  // 802.15.4 frame presented as WiFi must yield a verdict, not UB.
  Rng rng(0x515);
  Bytes (*builders[])(Rng&) = {buildIeee802154, buildZigbee,  buildIpv6,
                               buildIeee80211,  buildIpv4,    buildTransport,
                               buildBle};
  const Medium media[] = {Medium::kIeee802154, Medium::kWifi,
                          Medium::kBluetooth};
  for (std::size_t i = 0; i < 2000; ++i) {
    Bytes raw = builders[rng.nextBelow(7)](rng);
    if (rng.nextBool(0.5)) raw = mutate(std::move(raw), rng);
    exercise(
        test::packetOf(media[rng.nextBelow(3)], std::move(raw), kRssiDbm));
  }
}

TEST(FuzzTrace, MutatedKtrcStreamNeverCrashes) {
  // The KTRC reader fronts the same dissectors in the Data Store's replay
  // path: a corrupted trace file must degrade to `truncated`, not crash.
  Rng rng(0xc7c);
  trace::Trace small;
  small.push_back(test::packetOf(Medium::kWifi, buildIpv4(rng), kRssiDbm));
  small.push_back(
      test::packetOf(Medium::kIeee802154, buildIeee802154(rng), kRssiDbm));
  small.push_back(test::packetOf(Medium::kBluetooth, buildBle(rng), kRssiDbm));
  const Bytes clean = trace::serializeTrace(small);
  ASSERT_FALSE(trace::readTrace(BytesView(clean)).truncated);
  for (std::size_t i = 0; i < 4000; ++i) {
    const Bytes mangled = mutate(clean, rng);
    const trace::TraceReadResult r = trace::readTrace(BytesView(mangled));
    for (const net::CapturedPacket& pkt : r.packets) exercise(pkt);
  }
}

// --- committed corpus regressions -------------------------------------------
//
// tests/corpus/*.hex: one adversarial input per file. Format: first
// whitespace-separated token names the medium (wpan|wifi|ble), the rest is
// hex (whitespace ignored, '#' starts a comment). Every input that ever
// broke — or was handcrafted to probe — a dissector edge lives here and is
// replayed on every run.

TEST(FuzzCorpus, CommittedRegressionInputs) {
  std::vector<test::NamedPacket> corpus;
  ASSERT_NO_FATAL_FAILURE(test::loadCorpus(corpus));
  for (const auto& [file, pkt] : corpus) exercise(pkt);
}

}  // namespace
}  // namespace kalis::net
