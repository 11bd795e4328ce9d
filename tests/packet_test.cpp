// Packet-stack tests: addresses, per-protocol encode/decode round trips,
// checksum/FCS validation, the dissector's classification, and robustness
// against truncated/corrupted frames (an IDS's daily diet).
#include <gtest/gtest.h>

#include <thread>

#include "net/packet.hpp"
#include "util/rng.hpp"

namespace kalis::net {
namespace {

// --- addresses -----------------------------------------------------------------

TEST(Addr, Mac16Format) {
  EXPECT_EQ(toString(Mac16{0x0003}), "0x0003");
  EXPECT_EQ(toString(Mac16{Mac16::kBroadcast}), "0xffff");
  EXPECT_TRUE(Mac16{0xffff}.isBroadcast());
}

TEST(Addr, Mac16Parse) {
  EXPECT_EQ(parseMac16("0x0003")->value, 0x0003);
  EXPECT_EQ(parseMac16("ffff")->value, 0xffff);
  EXPECT_EQ(parseMac16("0x12345"), std::nullopt);
  EXPECT_EQ(parseMac16("xyz"), std::nullopt);
}

TEST(Addr, Mac48RoundTrip) {
  const Mac48 mac{{0x02, 0x4b, 0x41, 0x00, 0x12, 0xfe}};
  EXPECT_EQ(toString(mac), "02:4b:41:00:12:fe");
  EXPECT_EQ(parseMac48("02:4b:41:00:12:fe"), mac);
  EXPECT_EQ(parseMac48("02:4b:41:00:12"), std::nullopt);
  EXPECT_TRUE(Mac48::broadcast().isBroadcast());
  EXPECT_FALSE(mac.isBroadcast());
}

TEST(Addr, Ipv4RoundTrip) {
  const Ipv4Addr addr{0x0a000207};
  EXPECT_EQ(toString(addr), "10.0.2.7");
  EXPECT_EQ(parseIpv4("10.0.2.7"), addr);
  EXPECT_EQ(parseIpv4("10.0.2.999"), std::nullopt);
  EXPECT_EQ(parseIpv4("10.0.2"), std::nullopt);
}

TEST(Addr, Ipv6LinkLocalEmbedsShortAddress) {
  const Ipv6Addr addr = Ipv6Addr::linkLocalFromShort(Mac16{0x1234});
  EXPECT_EQ(addr.embeddedShort(), Mac16{0x1234});
  EXPECT_FALSE(addr.isMulticast());
  EXPECT_TRUE(Ipv6Addr::allNodesMulticast().isMulticast());
  EXPECT_EQ(Ipv6Addr{}.embeddedShort(), std::nullopt);
}

// --- IEEE 802.15.4 -----------------------------------------------------------------

TEST(Ieee802154, EncodeDecodeRoundTrip) {
  Ieee802154Frame frame;
  frame.type = WpanFrameType::kData;
  frame.securityEnabled = true;
  frame.ackRequest = true;
  frame.seq = 0x42;
  frame.panId = 0x22;
  frame.dst = Mac16{0x0001};
  frame.src = Mac16{0x0005};
  frame.payload = bytesOf("hello");

  const Bytes raw = frame.encode();
  std::optional<Ieee802154FrameView> decoded;
  ASSERT_TRUE(decodeIeee802154(BytesView(raw), decoded));
  EXPECT_TRUE(verifyIeee802154Fcs(BytesView(raw)));
  EXPECT_EQ(decoded->type, WpanFrameType::kData);
  EXPECT_TRUE(decoded->securityEnabled);
  EXPECT_TRUE(decoded->ackRequest);
  EXPECT_EQ(decoded->seq, 0x42);
  EXPECT_EQ(decoded->panId, 0x22);
  EXPECT_EQ(decoded->dst, Mac16{0x0001});
  EXPECT_EQ(decoded->src, Mac16{0x0005});
  EXPECT_EQ(toBytes(decoded->payload), bytesOf("hello"));
}

TEST(Ieee802154, CorruptedFcsStillDecodesButFlagged) {
  Ieee802154Frame frame;
  frame.src = Mac16{0x0009};
  frame.payload = bytesOf("data");
  Bytes raw = frame.encode();
  raw[raw.size() - 1] ^= 0xff;
  std::optional<Ieee802154FrameView> decoded;
  ASSERT_TRUE(decodeIeee802154(BytesView(raw), decoded));
  EXPECT_FALSE(verifyIeee802154Fcs(BytesView(raw)));
  EXPECT_EQ(decoded->src, Mac16{0x0009});
}

// Each decoder writes into a slot its caller owns. A frame that does not
// decode must leave that slot empty even when it already holds an earlier
// frame's layer, so the truncation cases below decode into a full slot.
TEST(Ieee802154, TruncatedFrameRejected) {
  Ieee802154Frame frame;
  const Bytes raw = frame.encode();
  std::optional<Ieee802154FrameView> slot;
  for (std::size_t cut = 0; cut < raw.size(); ++cut) {
    ASSERT_TRUE(decodeIeee802154(BytesView(raw), slot));
    EXPECT_FALSE(decodeIeee802154(BytesView(raw).first(cut), slot))
        << "prefix length " << cut;
    EXPECT_FALSE(slot.has_value()) << "prefix length " << cut;
  }
}

// --- CTP -----------------------------------------------------------------------------

TEST(Ctp, DataRoundTrip) {
  CtpData data;
  data.options = 0x01;
  data.thl = 3;
  data.etx = 40;
  data.origin = Mac16{0x0006};
  data.seqno = 77;
  data.collectId = 0x20;
  data.payload = bytesOf("\x0b\x86\x01\x00");
  const Bytes raw = data.encode();
  std::optional<CtpDataView> decoded;
  ASSERT_TRUE(decodeCtpData(BytesView(raw), decoded));
  EXPECT_EQ(decoded->thl, 3);
  EXPECT_EQ(decoded->etx, 40);
  EXPECT_EQ(decoded->origin, Mac16{0x0006});
  EXPECT_EQ(decoded->seqno, 77);
  EXPECT_EQ(toBytes(decoded->payload), data.payload);
}

TEST(Ctp, BeaconRoundTrip) {
  CtpRoutingBeacon beacon;
  beacon.parent = Mac16{0x0002};
  beacon.etx = 20;
  const Bytes raw = beacon.encode();
  std::optional<CtpRoutingBeacon> decoded;
  ASSERT_TRUE(decodeCtpBeacon(BytesView(raw), decoded));
  EXPECT_EQ(decoded->parent, Mac16{0x0002});
  EXPECT_EQ(decoded->etx, 20);
  EXPECT_FALSE(decodeCtpBeacon(BytesView(raw).first(4), decoded));
  EXPECT_FALSE(decoded.has_value());
}

TEST(Ctp, TruncatedDataRejected) {
  const Bytes truncated = bytesOf("\x01\x02\x03");
  std::optional<CtpDataView> slot;
  EXPECT_FALSE(decodeCtpData(BytesView(truncated), slot));
  EXPECT_FALSE(slot.has_value());
  const Bytes valid = CtpData{}.encode();
  ASSERT_TRUE(decodeCtpData(BytesView(valid), slot));
  EXPECT_FALSE(decodeCtpData(BytesView(truncated), slot));
  EXPECT_FALSE(slot.has_value());
}

// --- ZigBee -----------------------------------------------------------------------------

TEST(Zigbee, NwkRoundTrip) {
  ZigbeeNwkFrame frame;
  frame.type = ZigbeeFrameType::kData;
  frame.securityEnabled = true;
  frame.dst = Mac16{0x0000};
  frame.src = Mac16{0x0014};
  frame.radius = 5;
  frame.seq = 99;
  frame.payload = {kZigbeeAppReport, 0x12, 0x34};
  const Bytes raw = frame.encode();
  std::optional<ZigbeeNwkFrameView> decoded;
  ASSERT_TRUE(decodeZigbeeNwk(BytesView(raw), decoded));
  EXPECT_TRUE(decoded->securityEnabled);
  EXPECT_EQ(decoded->src, Mac16{0x0014});
  EXPECT_EQ(decoded->radius, 5);
  EXPECT_EQ(toBytes(decoded->payload), frame.payload);
}

TEST(Zigbee, CommandId) {
  ZigbeeNwkFrame frame;
  frame.type = ZigbeeFrameType::kCommand;
  frame.payload = {static_cast<std::uint8_t>(ZigbeeCommand::kRouteRequest)};
  EXPECT_EQ(frame.command(), ZigbeeCommand::kRouteRequest);
  frame.payload.clear();
  EXPECT_EQ(frame.command(), std::nullopt);
}

TEST(Zigbee, WrongDispatchRejected) {
  Bytes raw = {0x99, 0, 0, 0, 0, 0, 0, 0};
  std::optional<ZigbeeNwkFrameView> slot;
  EXPECT_FALSE(decodeZigbeeNwk(BytesView(raw), slot));
  EXPECT_FALSE(slot.has_value());
  const Bytes valid = ZigbeeNwkFrame{}.encode();
  for (const BytesView rejected : {BytesView(raw), BytesView(valid).first(8)}) {
    ASSERT_TRUE(decodeZigbeeNwk(BytesView(valid), slot));
    EXPECT_FALSE(decodeZigbeeNwk(rejected, slot));
    EXPECT_FALSE(slot.has_value());
  }
}

// --- IPv4 / transport ----------------------------------------------------------------------

TEST(Ipv4, HeaderRoundTripWithValidChecksum) {
  Ipv4Header ip;
  ip.tos = 0x10;
  ip.identification = 0x4242;
  ip.ttl = 17;
  ip.protocol = IpProto::kUdp;
  ip.src = *parseIpv4("10.0.0.5");
  ip.dst = *parseIpv4("198.51.100.1");
  const Bytes payload = bytesOf("payload!");
  Bytes raw = ip.encode(payload);
  raw.push_back(0xee);  // link-layer slack past totalLength
  std::optional<Ipv4Header> decoded;
  BytesView l4;
  BytesView trailer;
  ASSERT_TRUE(decodeIpv4(BytesView(raw), decoded, l4, trailer));
  EXPECT_TRUE(verifyIpv4Checksum(BytesView(raw)));
  EXPECT_EQ(decoded->ttl, 17);
  EXPECT_EQ(decoded->protocol, IpProto::kUdp);
  EXPECT_EQ(toString(decoded->src), "10.0.0.5");
  EXPECT_EQ(toBytes(l4), payload);
  EXPECT_EQ(toBytes(trailer), Bytes{0xee});

  // Truncated, then an IPv6 version nibble: the full slot and views empty.
  Bytes v6 = raw;
  v6[0] = static_cast<std::uint8_t>(0x60 | (v6[0] & 0x0f));
  for (const BytesView rejected : {BytesView(raw).first(19), BytesView(v6)}) {
    ASSERT_TRUE(decodeIpv4(BytesView(raw), decoded, l4, trailer));
    EXPECT_FALSE(decodeIpv4(rejected, decoded, l4, trailer));
    EXPECT_FALSE(decoded.has_value());
    EXPECT_TRUE(l4.empty());
    EXPECT_TRUE(trailer.empty());
  }
}

TEST(Ipv4, CorruptedHeaderChecksumDetected) {
  Ipv4Header ip;
  ip.src = Ipv4Addr{1};
  ip.dst = Ipv4Addr{2};
  Bytes raw = ip.encode(BytesView());
  raw[8] ^= 0x01;  // TTL flip
  std::optional<Ipv4Header> decoded;
  BytesView l4;
  BytesView trailer;
  ASSERT_TRUE(decodeIpv4(BytesView(raw), decoded, l4, trailer));
  EXPECT_FALSE(verifyIpv4Checksum(BytesView(raw)));
}

TEST(Tcp, SegmentRoundTripWithPseudoHeaderChecksum) {
  const Ipv4Addr src = *parseIpv4("10.0.0.2");
  const Ipv4Addr dst = *parseIpv4("10.0.0.9");
  TcpSegment seg;
  seg.srcPort = 40001;
  seg.dstPort = 443;
  seg.seq = 0x10203040;
  seg.ackNo = 0x50607080;
  seg.flags.syn = true;
  seg.window = 1024;
  seg.payload = bytesOf("GET /");
  const Bytes raw = seg.encode(src, dst);
  std::optional<TcpSegmentView> decoded;
  ASSERT_TRUE(decodeTcp(BytesView(raw), decoded));
  EXPECT_TRUE(verifyTcpChecksum(BytesView(raw), src, dst));
  EXPECT_EQ(decoded->srcPort, 40001);
  EXPECT_TRUE(decoded->flags.isSynOnly());
  EXPECT_EQ(toBytes(decoded->payload), bytesOf("GET /"));
  EXPECT_FALSE(decodeTcp(BytesView(raw).first(19), decoded));
  EXPECT_FALSE(decoded.has_value());
}

TEST(Tcp, ChecksumFailsUnderSpoofedAddresses) {
  const Ipv4Addr src = *parseIpv4("10.0.0.2");
  const Ipv4Addr dst = *parseIpv4("10.0.0.9");
  TcpSegment seg;
  seg.flags.ack = true;
  const Bytes raw = seg.encode(src, dst);
  std::optional<TcpSegmentView> decoded;
  ASSERT_TRUE(decodeTcp(BytesView(raw), decoded));
  EXPECT_FALSE(verifyTcpChecksum(BytesView(raw), *parseIpv4("10.0.0.3"), dst));
}

TEST(Tcp, FlagClassification) {
  TcpFlags syn = TcpFlags::decode(0x02);
  EXPECT_TRUE(syn.isSynOnly());
  TcpFlags synAck = TcpFlags::decode(0x12);
  EXPECT_TRUE(synAck.isSynAck());
  EXPECT_FALSE(synAck.isSynOnly());
  EXPECT_EQ(TcpFlags::decode(0x19).encode(), 0x19);
}

TEST(Udp, DatagramRoundTrip) {
  const Ipv4Addr src = *parseIpv4("10.0.0.4");
  const Ipv4Addr dst = *parseIpv4("10.0.0.5");
  UdpDatagram dg;
  dg.srcPort = 5353;
  dg.dstPort = 5888;
  dg.payload = bytesOf("knowgget-sync");
  const Bytes raw = dg.encode(src, dst);
  std::optional<UdpDatagramView> decoded;
  ASSERT_TRUE(decodeUdp(BytesView(raw), decoded));
  EXPECT_TRUE(verifyUdpChecksum(BytesView(raw), src, dst));
  EXPECT_EQ(decoded->dstPort, 5888);
  EXPECT_EQ(toBytes(decoded->payload), dg.payload);
  // Cut inside the payload: the length field now runs past the buffer.
  EXPECT_FALSE(decodeUdp(BytesView(raw).first(raw.size() - 1), decoded));
  EXPECT_FALSE(decoded.has_value());
}

TEST(Icmp, EchoRoundTrip) {
  IcmpMessage msg;
  msg.type = IcmpType::kEchoRequest;
  msg.identifier = 0x1234;
  msg.sequence = 7;
  msg.payload = bytesOf("ping");
  const Bytes raw = msg.encode();
  std::optional<IcmpMessageView> decoded;
  ASSERT_TRUE(decodeIcmp(BytesView(raw), decoded));
  EXPECT_TRUE(verifyIcmpChecksum(BytesView(raw)));
  EXPECT_EQ(decoded->type, IcmpType::kEchoRequest);
  EXPECT_EQ(decoded->identifier, 0x1234);
  EXPECT_EQ(toBytes(decoded->payload), bytesOf("ping"));
  EXPECT_FALSE(decodeIcmp(BytesView(raw).first(7), decoded));
  EXPECT_FALSE(decoded.has_value());
}

// --- IPv6 / ICMPv6 / RPL ----------------------------------------------------------------------

TEST(Ipv6, HeaderRoundTrip) {
  Ipv6Header ip;
  ip.hopLimit = 3;
  ip.src = Ipv6Addr::linkLocalFromShort(Mac16{0x0002});
  ip.dst = Ipv6Addr::linkLocalFromShort(Mac16{0x0001});
  const Bytes payload = bytesOf("sixlowpan");
  Bytes raw = ip.encode(payload);
  raw.push_back(0xee);  // link-layer slack past payloadLength
  std::optional<Ipv6Header> decoded;
  BytesView l4;
  BytesView trailer;
  ASSERT_TRUE(decodeIpv6(BytesView(raw), decoded, l4, trailer));
  EXPECT_EQ(decoded->hopLimit, 3);
  EXPECT_EQ(decoded->src.embeddedShort(), Mac16{0x0002});
  EXPECT_EQ(toBytes(l4), payload);
  EXPECT_EQ(toBytes(trailer), Bytes{0xee});

  // Truncated, then an IPv4 version nibble: the full slot and views empty.
  Bytes v4 = raw;
  v4[0] = static_cast<std::uint8_t>(0x40 | (v4[0] & 0x0f));
  for (const BytesView rejected : {BytesView(raw).first(39), BytesView(v4)}) {
    ASSERT_TRUE(decodeIpv6(BytesView(raw), decoded, l4, trailer));
    EXPECT_FALSE(decodeIpv6(rejected, decoded, l4, trailer));
    EXPECT_FALSE(decoded.has_value());
    EXPECT_TRUE(l4.empty());
    EXPECT_TRUE(trailer.empty());
  }
}

TEST(Icmpv6, ChecksumOverPseudoHeader) {
  const Ipv6Addr src = Ipv6Addr::linkLocalFromShort(Mac16{0x0002});
  const Ipv6Addr dst = Ipv6Addr::linkLocalFromShort(Mac16{0x0001});
  Icmpv6Message msg;
  msg.type = Icmpv6Type::kEchoRequest;
  msg.body = bytesOf("abcd");
  const Bytes raw = msg.encode(src, dst);
  std::optional<Icmpv6MessageView> decoded;
  ASSERT_TRUE(decodeIcmpv6(BytesView(raw), decoded));
  EXPECT_EQ(toBytes(decoded->body), bytesOf("abcd"));
  EXPECT_TRUE(verifyIcmpv6Checksum(BytesView(raw), src, dst));
  // Same bytes, different claimed source: checksum must fail.
  EXPECT_FALSE(verifyIcmpv6Checksum(
      BytesView(raw), Ipv6Addr::linkLocalFromShort(Mac16{0x0009}), dst));
  EXPECT_FALSE(decodeIcmpv6(BytesView(raw).first(3), decoded));
  EXPECT_FALSE(decoded.has_value());
}

TEST(Rpl, DioRoundTrip) {
  RplDio dio;
  dio.instanceId = 1;
  dio.versionNumber = 3;
  dio.rank = 512;
  dio.dtsn = 9;
  dio.dodagId = Ipv6Addr::linkLocalFromShort(Mac16{0x0001});
  const Bytes body = dio.encodeBody();
  std::optional<RplDio> decoded;
  ASSERT_TRUE(decodeRplDio(BytesView(body), decoded));
  EXPECT_EQ(decoded->rank, 512);
  EXPECT_EQ(decoded->dodagId.embeddedShort(), Mac16{0x0001});
  EXPECT_FALSE(decodeRplDio(BytesView(body).first(23), decoded));
  EXPECT_FALSE(decoded.has_value());
}

TEST(Rpl, DaoRoundTrip) {
  RplDao dao;
  dao.instanceId = 1;
  dao.daoSequence = 4;
  dao.dodagId = Ipv6Addr::linkLocalFromShort(Mac16{0x0001});
  dao.target = Ipv6Addr::linkLocalFromShort(Mac16{0x0007});
  const Bytes body = dao.encodeBody();
  std::optional<RplDao> decoded;
  ASSERT_TRUE(decodeRplDao(BytesView(body), decoded));
  EXPECT_EQ(decoded->daoSequence, 4);
  EXPECT_EQ(decoded->target.embeddedShort(), Mac16{0x0007});
  EXPECT_FALSE(decodeRplDao(BytesView(body).first(35), decoded));
  EXPECT_FALSE(decoded.has_value());
}

// --- 802.11 ------------------------------------------------------------------------------------

TEST(Wifi, DataFrameRoundTripAllDirections) {
  for (const auto& [toDs, fromDs] : {std::pair{false, false},
                                     std::pair{true, false},
                                     std::pair{false, true}}) {
    WifiFrame frame;
    frame.kind = WifiFrameKind::kData;
    frame.toDs = toDs;
    frame.fromDs = fromDs;
    frame.dst = Mac48{{2, 0, 0, 0, 0, 1}};
    frame.src = Mac48{{2, 0, 0, 0, 0, 2}};
    frame.bssid = Mac48{{2, 0, 0, 0, 0, 3}};
    frame.seqCtl = 0x0123;
    frame.body = bytesOf("body");
    const Bytes raw = frame.encode();
    std::optional<WifiFrameView> decoded;
    ASSERT_TRUE(decodeWifi(BytesView(raw), decoded));
    EXPECT_TRUE(verifyWifiFcs(BytesView(raw)));
    EXPECT_EQ(decoded->dst, frame.dst) << toDs << fromDs;
    EXPECT_EQ(decoded->src, frame.src);
    EXPECT_EQ(decoded->bssid, frame.bssid);
    EXPECT_EQ(toBytes(decoded->body), frame.body);

    // Truncated, then a control frame (type 1), which the stack does not
    // model: the full slot is left empty.
    Bytes control = raw;
    control[0] = 0x04;
    for (const BytesView rejected : {BytesView(raw).first(27), BytesView(control)}) {
      ASSERT_TRUE(decodeWifi(BytesView(raw), decoded));
      EXPECT_FALSE(decodeWifi(rejected, decoded));
      EXPECT_FALSE(decoded.has_value());
    }
  }
}

TEST(Wifi, BeaconCarriesSsid) {
  WifiFrame beacon;
  beacon.kind = WifiFrameKind::kBeacon;
  beacon.body = beaconBody("kalis-home");
  const Bytes raw = beacon.encode();
  std::optional<WifiFrameView> decoded;
  ASSERT_TRUE(decodeWifi(BytesView(raw), decoded));
  EXPECT_EQ(decoded->kind, WifiFrameKind::kBeacon);
  EXPECT_EQ(beaconSsid(BytesView(decoded->body)), "kalis-home");
}

TEST(Wifi, LlcSnapRoundTrip) {
  const Bytes payload = bytesOf("ip-bytes");
  const Bytes wrapped = llcSnapWrap(kEthertypeIpv4, BytesView(payload));
  std::optional<LlcSnapDecoded> unwrapped;
  ASSERT_TRUE(llcSnapUnwrap(BytesView(wrapped), unwrapped));
  EXPECT_EQ(unwrapped->ethertype, kEthertypeIpv4);
  EXPECT_EQ(Bytes(unwrapped->payload.begin(), unwrapped->payload.end()), payload);

  // Truncated, then a body that is not LLC/SNAP: the full slot is emptied.
  Bytes notSnap = wrapped;
  notSnap[2] = 0x00;
  for (const BytesView rejected : {BytesView(wrapped).first(7), BytesView(notSnap)}) {
    ASSERT_TRUE(llcSnapUnwrap(BytesView(wrapped), unwrapped));
    EXPECT_FALSE(llcSnapUnwrap(rejected, unwrapped));
    EXPECT_FALSE(unwrapped.has_value());
  }
}

TEST(Wifi, CorruptFcsFlagged) {
  WifiFrame frame;
  frame.kind = WifiFrameKind::kData;
  frame.body = bytesOf("x");
  Bytes raw = frame.encode();
  raw[raw.size() - 2] ^= 0x40;
  std::optional<WifiFrameView> decoded;
  ASSERT_TRUE(decodeWifi(BytesView(raw), decoded));
  EXPECT_FALSE(verifyWifiFcs(BytesView(raw)));
}

// --- BLE ------------------------------------------------------------------------------------------

TEST(Ble, AdvRoundTrip) {
  BleAdvPdu adv;
  adv.type = BlePduType::kAdvInd;
  adv.advAddr = Mac48{{0xc0, 1, 2, 3, 4, 5}};
  adv.advData = bytesOf("AUGUST");
  const Bytes raw = adv.encode();
  std::optional<BleAdvPduView> decoded;
  ASSERT_TRUE(decodeBleAdv(BytesView(raw), decoded));
  EXPECT_EQ(decoded->advAddr, adv.advAddr);
  EXPECT_EQ(toBytes(decoded->advData), adv.advData);
  // Cut inside advData: the length field now runs past the buffer.
  EXPECT_FALSE(decodeBleAdv(BytesView(raw).first(raw.size() - 1), decoded));
  EXPECT_FALSE(decoded.has_value());
}

// --- dissector classification (parameterized) -----------------------------------------------------

struct ClassifyCase {
  const char* name;
  CapturedPacket (*make)();
  PacketType expected;
};

// ctest names each case after gtest's printout of its parameter. Without this
// overload that printout is a byte dump of the pointers above, which address
// randomisation changes on every build.
void PrintTo(const ClassifyCase& c, std::ostream* os) { *os << c.name; }

CapturedPacket wrapWpan(Bytes payload) {
  Ieee802154Frame frame;
  frame.dst = Mac16{0x0001};
  frame.src = Mac16{0x0005};
  frame.payload = std::move(payload);
  return CapturedPacket{Medium::kIeee802154, frame.encode(), {}};
}

CapturedPacket wrapWifiIp(IpProto proto, Bytes l4) {
  Ipv4Header ip;
  ip.src = Ipv4Addr{0x0a000001};
  ip.dst = Ipv4Addr{0x0a000002};
  ip.protocol = proto;
  WifiFrame frame;
  frame.kind = WifiFrameKind::kData;
  frame.body = llcSnapWrap(kEthertypeIpv4, BytesView(ip.encode(l4)));
  return CapturedPacket{Medium::kWifi, frame.encode(), {}};
}

const ClassifyCase kCases[] = {
    {"CtpData",
     [] {
       CtpData d;
       d.origin = Mac16{0x0004};
       return wrapWpan(wrapTinyosAm(kAmCtpData, BytesView(d.encode())));
     },
     PacketType::kCtpData},
    {"CtpRouting",
     [] {
       CtpRoutingBeacon b;
       return wrapWpan(wrapTinyosAm(kAmCtpRouting, BytesView(b.encode())));
     },
     PacketType::kCtpRouting},
    {"ZigbeeData",
     [] {
       ZigbeeNwkFrame z;
       z.src = Mac16{0x0005};
       z.payload = {kZigbeeAppReport};
       return wrapWpan(z.encode());
     },
     PacketType::kZigbeeData},
    {"ZigbeeRouting",
     [] {
       ZigbeeNwkFrame z;
       z.type = ZigbeeFrameType::kCommand;
       z.payload = {static_cast<std::uint8_t>(ZigbeeCommand::kLinkStatus)};
       return wrapWpan(z.encode());
     },
     PacketType::kZigbeeRouting},
    {"RplDio",
     [] {
       RplDio dio;
       dio.rank = 256;
       Icmpv6Message m;
       m.type = Icmpv6Type::kRplControl;
       m.code = kRplCodeDio;
       m.body = dio.encodeBody();
       Ipv6Header ip;
       ip.src = Ipv6Addr::linkLocalFromShort(Mac16{0x0001});
       ip.dst = Ipv6Addr::allNodesMulticast();
       Bytes payload;
       payload.push_back(kDispatchIpv6Uncompressed);
       const Bytes packet = ip.encode(m.encode(ip.src, ip.dst));
       payload.insert(payload.end(), packet.begin(), packet.end());
       return wrapWpan(std::move(payload));
     },
     PacketType::kRplDio},
    {"TcpSyn",
     [] {
       TcpSegment t;
       t.flags.syn = true;
       return wrapWifiIp(IpProto::kTcp,
                         t.encode(Ipv4Addr{0x0a000001}, Ipv4Addr{0x0a000002}));
     },
     PacketType::kTcpSyn},
    {"TcpSynAck",
     [] {
       TcpSegment t;
       t.flags.syn = true;
       t.flags.ack = true;
       return wrapWifiIp(IpProto::kTcp,
                         t.encode(Ipv4Addr{0x0a000001}, Ipv4Addr{0x0a000002}));
     },
     PacketType::kTcpSynAck},
    {"TcpData",
     [] {
       TcpSegment t;
       t.flags.ack = true;
       t.flags.psh = true;
       t.payload = bytesOf("x");
       return wrapWifiIp(IpProto::kTcp,
                         t.encode(Ipv4Addr{0x0a000001}, Ipv4Addr{0x0a000002}));
     },
     PacketType::kTcpData},
    {"Udp",
     [] {
       UdpDatagram u;
       return wrapWifiIp(IpProto::kUdp,
                         u.encode(Ipv4Addr{0x0a000001}, Ipv4Addr{0x0a000002}));
     },
     PacketType::kUdp},
    {"IcmpEchoReq",
     [] {
       IcmpMessage m;
       m.type = IcmpType::kEchoRequest;
       return wrapWifiIp(IpProto::kIcmp, m.encode());
     },
     PacketType::kIcmpEchoReq},
    {"IcmpEchoRep",
     [] {
       IcmpMessage m;
       m.type = IcmpType::kEchoReply;
       return wrapWifiIp(IpProto::kIcmp, m.encode());
     },
     PacketType::kIcmpEchoRep},
    {"WifiBeacon",
     [] {
       WifiFrame f;
       f.kind = WifiFrameKind::kBeacon;
       f.body = beaconBody("x");
       return CapturedPacket{Medium::kWifi, f.encode(), {}};
     },
     PacketType::kWifiBeacon},
    {"WifiDeauth",
     [] {
       WifiFrame f;
       f.kind = WifiFrameKind::kDeauth;
       return CapturedPacket{Medium::kWifi, f.encode(), {}};
     },
     PacketType::kWifiDeauth},
    {"BleAdv",
     [] {
       BleAdvPdu adv;
       return CapturedPacket{Medium::kBluetooth, adv.encode(), {}};
     },
     PacketType::kBleAdv},
};

class DissectClassify : public ::testing::TestWithParam<ClassifyCase> {};

TEST_P(DissectClassify, ClassifiesCorrectly) {
  const ClassifyCase& test = GetParam();
  const Dissection d = dissect(test.make());
  EXPECT_EQ(d.type, test.expected) << packetTypeName(d.type);
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, DissectClassify, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<ClassifyCase>& info) {
      return info.param.name;
    });

TEST(Dissect, LinkAndNetworkEntities) {
  TcpSegment t;
  t.flags.syn = true;
  const Dissection d = dissect(wrapWifiIp(
      IpProto::kTcp, t.encode(Ipv4Addr{0x0a000001}, Ipv4Addr{0x0a000002})));
  EXPECT_EQ(d.networkSource(), "10.0.0.1");
  EXPECT_EQ(d.networkDest(), "10.0.0.2");
  EXPECT_EQ(d.linkSource(), "00:00:00:00:00:00");
}

TEST(Dissect, BroadcastDetection) {
  Ieee802154Frame frame;
  frame.dst = Mac16{Mac16::kBroadcast};
  const Dissection d =
      dissect(CapturedPacket{Medium::kIeee802154, frame.encode(), {}});
  EXPECT_TRUE(d.isBroadcastDest());
}

// dissectCallCount() counts the calling thread's dissections only: a pipeline's
// shard workers dissect concurrently and must not share a counter.
TEST(Dissect, CallCountIsPerThread) {
  const CapturedPacket pkt = kCases[0].make();
  constexpr std::uint64_t kOther = 500;
  constexpr std::uint64_t kMine = 7;
  const std::uint64_t before = dissectCallCount();
  std::uint64_t otherCount = 0;
  std::thread other([&] {
    const std::uint64_t start = dissectCallCount();
    for (std::uint64_t i = 0; i < kOther; ++i) (void)dissect(pkt);
    otherCount = dissectCallCount() - start;
  });
  for (std::uint64_t i = 0; i < kMine; ++i) (void)dissect(pkt);
  other.join();
  EXPECT_EQ(dissectCallCount() - before, kMine);
  EXPECT_EQ(otherCount, kOther);
}

// Robustness property: the dissector must never crash or misbehave on
// truncated prefixes or bit-flipped mutations of valid frames.
class DissectFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DissectFuzz, SurvivesTruncationAndMutation) {
  Rng rng(GetParam());
  for (const ClassifyCase& test : kCases) {
    const CapturedPacket original = test.make();
    // All truncations.
    for (std::size_t len = 0; len <= original.raw.size(); ++len) {
      CapturedPacket cut = original;
      cut.raw.resize(len);
      const Dissection d = dissect(cut);
      (void)d.linkSource();
      (void)d.isBroadcastDest();
    }
    // Random mutations.
    for (int i = 0; i < 20; ++i) {
      CapturedPacket mutated = original;
      if (mutated.raw.empty()) break;
      const std::size_t pos = rng.pickIndex(mutated.raw.size());
      mutated.raw[pos] ^= static_cast<std::uint8_t>(1 + rng.nextBelow(255));
      const Dissection d = dissect(mutated);
      (void)d.networkSource();
    }
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DissectFuzz, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace kalis::net
