// Codec roundtrip property and field-level dissection goldens (DESIGN.md
// §10, §12).
//
// Roundtrip: for ANY input bytes, serialize(dissect(pkt)) == pkt.raw — the
// parser keeps every bit, the serializer re-emits them. Checked over the
// committed fuzz corpus, valid frames of every family, and seeded
// truncations/mutations thereof.
//
// Goldens: every field dissect() produces, rendered as stable text, is
// compared with a committed file in tests/golden — one reference packet per
// family (codec_readable.txt), every corpus input (dissect_corpus.txt) and
// 400 seeded rounds of valid frames, truncations and bit flips
// (dissect_seeded.txt). A drift fails with the current rendering of the
// first frames that differ and the command that regenerates the file
// (test::checkGolden); review the regenerated diff.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <utility>
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
#include "util/checksum.hpp"
#include "util/rng.hpp"

namespace kalis::net {
namespace {

using test::fullFrame;
using test::GoldenFrame;
using test::packetOf;
using test::randomBytes;

/// The property under test: dissect, re-serialize, compare byte-for-byte,
/// then re-dissect the serialized bytes and require an identical rendering.
void checkRoundtrip(const CapturedPacket& pkt, const std::string& ctx) {
  const Dissection d = dissect(pkt);
  const Bytes wire = serialize(d);
  ASSERT_EQ(toHex(BytesView(pkt.raw)), toHex(BytesView(wire)))
      << ctx << ": serialize(dissect(pkt)) != pkt.raw";
  CapturedPacket again = pkt;
  again.raw = wire;
  const Dissection d2 = dissect(again);
  EXPECT_EQ(toReadableByteString(d), toReadableByteString(d2))
      << ctx << ": reparse diverged";
}

/// The seeded traffic of the roundtrip and golden tests: 400 rounds, each a
/// valid frame of one of seven families followed by 4 truncations and 4
/// single-bit flips of it. A flip anywhere in a WiFi or 802.15.4 frame
/// breaks its FCS, so the flipped frames carry a corrupt FCS on both media.
/// `visit(ctx, intact, pkt)` sees every frame in draw order; WiFi beacons
/// advertise `beaconSsid`.
template <typename Visit>
void forEachSeededFrame(std::uint64_t seed, const char* beaconSsid,
                        Visit visit) {
  Rng rng(seed);
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
        f.body =
            llcSnapWrap(kEthertypeIpv4, BytesView(ip.encode(BytesView(seg))));
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
        f.body =
            llcSnapWrap(kEthertypeIpv4, BytesView(ip.encode(BytesView(body))));
        raw = f.encode();
        break;
      }
      case 5: {  // WiFi management
        medium = Medium::kWifi;
        WifiFrame f;
        f.kind = rng.nextBool(0.5) ? WifiFrameKind::kBeacon
                                   : WifiFrameKind::kDeauth;
        if (f.kind == WifiFrameKind::kBeacon) f.body = beaconBody(beaconSsid);
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
    const std::string tag = " round " + std::to_string(round);
    visit("valid" + tag, true, packetOf(medium, raw));
    for (int cut = 0; cut < 4; ++cut) {
      Bytes t = raw;
      t.resize(rng.nextBelow(t.size() + 1));
      visit("cut" + tag + " #" + std::to_string(cut), false,
            packetOf(medium, std::move(t)));
    }
    for (int flip = 0; flip < 4 && !raw.empty(); ++flip) {
      Bytes m = raw;
      const std::size_t bit = rng.nextBelow(m.size() * 8);
      m[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      visit("flip" + tag + " #" + std::to_string(flip), false,
            packetOf(medium, std::move(m)));
    }
  }
}

// --- corpus: every committed adversarial input must roundtrip ----------------

TEST(CodecRoundtrip, CommittedCorpus) {
  std::vector<test::NamedPacket> corpus;
  ASSERT_NO_FATAL_FAILURE(test::loadCorpus(corpus));
  for (const auto& [file, pkt] : corpus) checkRoundtrip(pkt, file);
}

// --- reference packets: one per family, deterministic ------------------------
// Shared between the golden readable-byte-string test and the builder-
// direction roundtrip test.

std::vector<std::pair<std::string, CapturedPacket>> referencePackets() {
  std::vector<std::pair<std::string, CapturedPacket>> out;

  {  // CTP data over TinyOS AM
    CtpData data;
    data.options = 0x01;
    data.thl = 3;
    data.etx = 0x0010;
    data.origin = Mac16{0x0005};
    data.seqno = 0x2a;
    data.collectId = kAmCtpData;
    data.payload = {0xde, 0xad, 0xbe, 0xef};
    Ieee802154Frame f;
    f.src = Mac16{0x0002};
    f.dst = Mac16{0x0001};
    f.seq = 0x11;
    f.panId = 0x2200;
    const Bytes body = data.encode();
    f.payload = wrapTinyosAm(kAmCtpData, BytesView(body));
    out.emplace_back("ctp-data", packetOf(Medium::kIeee802154, f.encode()));
  }
  {  // CTP routing beacon
    CtpRoutingBeacon beacon;
    beacon.parent = Mac16{0x0001};
    beacon.etx = 0x0020;
    Ieee802154Frame f;
    f.src = Mac16{0x0007};
    f.dst = Mac16{Mac16::kBroadcast};
    const Bytes body = beacon.encode();
    f.payload = wrapTinyosAm(kAmCtpRouting, BytesView(body));
    out.emplace_back("ctp-beacon", packetOf(Medium::kIeee802154, f.encode()));
  }
  {  // ZigBee NWK command
    ZigbeeNwkFrame nwk;
    nwk.type = ZigbeeFrameType::kCommand;
    nwk.src = Mac16{0x0030};
    nwk.dst = Mac16{0x0000};
    nwk.radius = 5;
    nwk.seq = 0x61;
    nwk.payload = {static_cast<std::uint8_t>(ZigbeeCommand::kRouteRequest),
                   0x05};
    Ieee802154Frame f;
    f.src = nwk.src;
    f.payload = nwk.encode();
    out.emplace_back("zigbee-route-req",
                     packetOf(Medium::kIeee802154, f.encode()));
  }
  {  // RPL DIO over 6LoWPAN
    const Ipv6Addr src = Ipv6Addr::linkLocalFromShort(Mac16{0x0003});
    const Ipv6Addr dst = Ipv6Addr::allNodesMulticast();
    RplDio dio;
    dio.instanceId = 0x1e;
    dio.versionNumber = 2;
    dio.rank = 0x0200;
    dio.dtsn = 0x07;
    dio.dodagId = Ipv6Addr::linkLocalFromShort(Mac16{0x0001});
    Icmpv6Message msg;
    msg.type = Icmpv6Type::kRplControl;
    msg.code = kRplCodeDio;
    msg.body = dio.encodeBody();
    Ipv6Header ip;
    ip.src = src;
    ip.dst = dst;
    Ieee802154Frame f;
    f.src = Mac16{0x0003};
    f.payload.push_back(kDispatchIpv6Uncompressed);
    const Bytes inner = ip.encode(BytesView(msg.encode(src, dst)));
    f.payload.insert(f.payload.end(), inner.begin(), inner.end());
    out.emplace_back("rpl-dio", packetOf(Medium::kIeee802154, f.encode()));
  }
  {  // TCP SYN over WiFi
    const Ipv4Addr src{0x0a000003};
    const Ipv4Addr dst{0x0a000001};
    TcpSegment tcp;
    tcp.srcPort = 40123;
    tcp.dstPort = 443;
    tcp.seq = 0x01020304;
    tcp.flags.syn = true;
    Ipv4Header ip;
    ip.protocol = IpProto::kTcp;
    ip.identification = 0x77aa;
    ip.src = src;
    ip.dst = dst;
    WifiFrame f;
    f.kind = WifiFrameKind::kData;
    f.toDs = true;
    f.seqCtl = 0x0150;
    const Bytes seg = tcp.encode(src, dst);
    f.body = llcSnapWrap(kEthertypeIpv4, BytesView(ip.encode(BytesView(seg))));
    out.emplace_back("wifi-tcp-syn", packetOf(Medium::kWifi, f.encode()));
  }
  {  // UDP over WiFi
    const Ipv4Addr src{0x0a000002};
    const Ipv4Addr dst{0x0a0000fe};
    UdpDatagram udp;
    udp.srcPort = 5353;
    udp.dstPort = 5353;
    udp.payload = {0x68, 0x65, 0x6c, 0x6c, 0x6f};
    Ipv4Header ip;
    ip.protocol = IpProto::kUdp;
    ip.src = src;
    ip.dst = dst;
    WifiFrame f;
    f.kind = WifiFrameKind::kData;
    f.fromDs = true;
    const Bytes dgram = udp.encode(src, dst);
    f.body = llcSnapWrap(kEthertypeIpv4, BytesView(ip.encode(BytesView(dgram))));
    out.emplace_back("wifi-udp", packetOf(Medium::kWifi, f.encode()));
  }
  {  // WiFi beacon
    WifiFrame f;
    f.kind = WifiFrameKind::kBeacon;
    f.body = beaconBody("kalis-lab");
    out.emplace_back("wifi-beacon", packetOf(Medium::kWifi, f.encode()));
  }
  {  // BLE advertising
    BleAdvPdu adv;
    adv.type = BlePduType::kAdvInd;
    adv.advAddr = Mac48{{0xc0, 0xff, 0xee, 0x00, 0x00, 0x01}};
    adv.advData = {0x02, 0x01, 0x06};
    out.emplace_back("ble-adv", packetOf(Medium::kBluetooth, adv.encode()));
  }
  {  // Garbage — fully unparsed, must still roundtrip via the raw fallback
    out.emplace_back(
        "garbage",
        packetOf(Medium::kIeee802154, Bytes{0x01, 0x02, 0x03}));
  }
  return out;
}

TEST(CodecRoundtrip, ReferencePacketsAllFamilies) {
  for (const auto& [name, pkt] : referencePackets()) {
    checkRoundtrip(pkt, name);
  }
}

TEST(CodecGolden, ReadableByteStrings) {
  std::vector<GoldenFrame> frames;
  for (const auto& [name, pkt] : referencePackets()) {
    // The readable byte string alone; DissectGolden adds the entities line.
    frames.push_back(fullFrame(name, toReadableByteString(dissect(pkt))));
  }
  test::checkGolden(KALIS_TEST_GOLDEN_DIR, "codec_readable.txt", frames);
}

// --- dissection goldens: every corpus input and seeded frame -----------------
// The field-level check of dissect(): each frame renders to its readable
// byte string plus one line of the entity identities modules key on, and
// must re-serialize to its own bytes.

std::string renderChecked(const CapturedPacket& pkt, const std::string& ctx) {
  const Dissection d = dissect(pkt);
  EXPECT_EQ(toHex(BytesView(serialize(d))), toHex(BytesView(pkt.raw)))
      << ctx << ": serialize(dissect(pkt)) != pkt.raw";
  std::string out = toReadableByteString(d);
  out += "  entities linkSrc=" + d.linkSource();
  out += " linkDst=" + d.linkDest();
  out += " netSrc=" + d.networkSource().value_or("-");
  out += " netDst=" + d.networkDest().value_or("-");
  out += d.isBroadcastDest() ? " broadcast=1\n" : " broadcast=0\n";
  return out;
}

TEST(DissectGolden, CommittedCorpus) {
  std::vector<test::NamedPacket> corpus;
  ASSERT_NO_FATAL_FAILURE(test::loadCorpus(corpus));
  std::vector<GoldenFrame> frames;
  for (const auto& [file, pkt] : corpus) {
    frames.push_back(fullFrame(file, renderChecked(pkt, file)));
  }
  test::checkGolden(KALIS_TEST_GOLDEN_DIR, "dissect_corpus.txt", frames);
}

/// Valid frames are written out in full; each truncation and bit flip is one
/// line, its context and the FNV-1a-64 of its rendering, which keeps the
/// file small enough to review.
TEST(DissectGolden, RandomTrafficAndMutations) {
  std::vector<GoldenFrame> frames;
  forEachSeededFrame(
      0xd15ec7, "eq-test",
      [&frames](const std::string& ctx, bool intact,
                const CapturedPacket& pkt) {
        const std::string rendering = renderChecked(pkt, ctx);
        if (intact) {
          frames.push_back(fullFrame(ctx, rendering));
          return;
        }
        char hash[24];
        std::snprintf(hash, sizeof(hash), " fnv=%016" PRIx64,
                      fnv1a64(BytesView(bytesOf(rendering))));
        frames.push_back({{ctx + hash}, ctx + '\n' + rendering});
      });
  EXPECT_EQ(frames.size(), 3600u);
  test::checkGolden(KALIS_TEST_GOLDEN_DIR, "dissect_seeded.txt", frames);
}

// --- a flipped FCS byte changes the verdict and nothing else ------------------
// dissect() parses structure only; the FCS verdict is derived from the bytes
// when asked. A frame whose FCS is off by one byte must parse to the same
// layers, type and fields as the intact frame, render fcsValid=0 and still
// re-serialize to its own (corrupt) bytes.
TEST(CodecRoundtrip, FlippedFcsByteChangesOnlyTheVerdict) {
  std::size_t checked = 0;
  for (const auto& [name, intact] : referencePackets()) {
    if (name != "wifi-tcp-syn" && name != "rpl-dio") continue;
    ++checked;
    CapturedPacket corrupt = intact;
    corrupt.raw.back() ^= 0x01;  // the last FCS byte, on either medium
    const Dissection d = dissect(corrupt);
    const auto good = test::linesOf(toReadableByteString(dissect(intact)));
    const auto bad = test::linesOf(toReadableByteString(d));
    // Line 0 is medium and type, line 1 the link layer (with the FCS), then
    // one line per inner layer, and last the raw bytes (with the FCS).
    ASSERT_EQ(bad.size(), good.size()) << name;
    for (std::size_t i = 0; i + 1 < good.size(); ++i) {
      if (i == 1) continue;
      EXPECT_EQ(bad[i], good[i]) << name;
    }
    EXPECT_NE(good[1].find(" fcsValid=1 "), std::string::npos) << good[1];
    EXPECT_NE(bad[1].find(" fcsValid=0 "), std::string::npos) << bad[1];
    EXPECT_EQ(toHex(BytesView(serialize(d))), toHex(BytesView(corrupt.raw)))
        << name << ": serialize(dissect(pkt)) != pkt.raw";
  }
  EXPECT_EQ(checked, 2u);
}

// --- valid frames of every family, plus seeded mutations ---------------------
// Each round roundtrips the valid frame plus 4 truncations and 4 bit flips of
// it — the mutations are what prove the fallback paths re-emit malformed
// input verbatim instead of "repairing" it.

TEST(CodecRoundtrip, RandomTrafficAndMutations) {
  forEachSeededFrame(0xc0dec, "rt-test",
                     [](const std::string& ctx, bool /*intact*/,
                        const CapturedPacket& pkt) {
                       checkRoundtrip(pkt, ctx);
                     });
}

}  // namespace
}  // namespace kalis::net
