#include "net/packet.hpp"

#include "net/packet_view.hpp"

namespace kalis::net {

namespace {
// Per thread: a pipeline's shard workers dissect concurrently, and a shared
// counter would be one cache line all of them write on every packet.
thread_local std::uint64_t t_dissectCalls = 0;
}  // namespace

std::uint64_t dissectCallCount() { return t_dissectCalls; }

const char* mediumName(Medium m) {
  switch (m) {
    case Medium::kIeee802154: return "802.15.4";
    case Medium::kWifi: return "WiFi";
    case Medium::kBluetooth: return "Bluetooth";
  }
  return "?";
}

const char* packetTypeName(PacketType t) {
  switch (t) {
    case PacketType::kUnknown: return "Unknown";
    case PacketType::kMalformed: return "Malformed";
    case PacketType::kWpanAck: return "WPANAck";
    case PacketType::kWpanBeacon: return "WPANBeacon";
    case PacketType::kCtpData: return "CTPData";
    case PacketType::kCtpRouting: return "CTPRouting";
    case PacketType::kZigbeeData: return "ZigbeeData";
    case PacketType::kZigbeeRouting: return "ZigbeeRouting";
    case PacketType::kRplDio: return "RPLDIO";
    case PacketType::kRplDao: return "RPLDAO";
    case PacketType::kIcmpv6EchoReq: return "ICMPv6EchoReq";
    case PacketType::kIcmpv6EchoRep: return "ICMPv6EchoRep";
    case PacketType::kSixlowpanOther: return "SixlowpanOther";
    case PacketType::kWifiBeacon: return "WifiBeacon";
    case PacketType::kWifiProbe: return "WifiProbe";
    case PacketType::kWifiDeauth: return "WifiDeauth";
    case PacketType::kTcpSyn: return "TCPSYN";
    case PacketType::kTcpSynAck: return "TCPSYNACK";
    case PacketType::kTcpAck: return "TCPACK";
    case PacketType::kTcpRst: return "TCPRST";
    case PacketType::kTcpFin: return "TCPFIN";
    case PacketType::kTcpData: return "TCPData";
    case PacketType::kUdp: return "UDP";
    case PacketType::kIcmpEchoReq: return "ICMPEchoReq";
    case PacketType::kIcmpEchoRep: return "ICMPEchoRep";
    case PacketType::kIcmpOther: return "ICMPOther";
    case PacketType::kIpOther: return "IPOther";
    case PacketType::kBleAdv: return "BLEAdv";
    case PacketType::kBleScan: return "BLEScan";
  }
  return "?";
}

bool Dissection::isBroadcastDest() const {
  if (wpan) return wpan->dst.isBroadcast();
  if (wifi) return wifi->dst.isBroadcast();
  if (ble) return true;
  return false;
}

namespace {

// Each step decodes its layer straight into the Dissection's member for it,
// which the decoder fills in place or leaves empty; no layer is copied in.

void classifyTcp(Dissection& d) {
  const TcpFlags& f = d.tcp->flags;
  if (f.isSynOnly()) {
    d.type = PacketType::kTcpSyn;
  } else if (f.isSynAck()) {
    d.type = PacketType::kTcpSynAck;
  } else if (f.rst) {
    d.type = PacketType::kTcpRst;
  } else if (f.fin) {
    d.type = PacketType::kTcpFin;
  } else if (!d.tcp->payload.empty()) {
    d.type = PacketType::kTcpData;
  } else if (f.ack) {
    d.type = PacketType::kTcpAck;
  } else {
    d.type = PacketType::kTcpData;
  }
}

/// The transport layer inside d.l3Payload; d.ipv4 has parsed.
void dissectIpv4Payload(Dissection& d) {
  switch (d.ipv4->protocol) {
    case IpProto::kTcp:
      if (decodeTcp(d.l3Payload, d.tcp)) {
        d.appPayload = d.tcp->payload;
        classifyTcp(d);
      } else {
        d.type = PacketType::kMalformed;
      }
      break;
    case IpProto::kUdp:
      if (decodeUdp(d.l3Payload, d.udp)) {
        d.appPayload = d.udp->payload;
        d.l4Trailer = d.l3Payload.subspan(8 + d.udp->payload.size());
        d.type = PacketType::kUdp;
      } else {
        d.type = PacketType::kMalformed;
      }
      break;
    case IpProto::kIcmp:
      if (decodeIcmp(d.l3Payload, d.icmp)) {
        d.appPayload = d.icmp->payload;
        switch (d.icmp->type) {
          case IcmpType::kEchoRequest: d.type = PacketType::kIcmpEchoReq; break;
          case IcmpType::kEchoReply: d.type = PacketType::kIcmpEchoRep; break;
          default: d.type = PacketType::kIcmpOther; break;
        }
      } else {
        d.type = PacketType::kMalformed;
      }
      break;
    default:
      d.type = PacketType::kIpOther;
      break;
  }
}

/// The ICMPv6 / RPL layers inside d.l3Payload; d.ipv6 has parsed.
void dissectIpv6Payload(Dissection& d) {
  if (d.ipv6->nextHeader != static_cast<std::uint8_t>(IpProto::kIcmpv6)) {
    d.type = PacketType::kSixlowpanOther;
    d.appPayload = d.l3Payload;
    return;
  }
  if (!decodeIcmpv6(d.l3Payload, d.icmpv6)) {
    d.type = PacketType::kMalformed;
    return;
  }
  switch (d.icmpv6->type) {
    case Icmpv6Type::kEchoRequest:
      d.type = PacketType::kIcmpv6EchoReq;
      break;
    case Icmpv6Type::kEchoReply:
      d.type = PacketType::kIcmpv6EchoRep;
      break;
    case Icmpv6Type::kRplControl:
      if (d.icmpv6->code == kRplCodeDio) {
        d.type = decodeRplDio(d.icmpv6->body, d.rplDio) ? PacketType::kRplDio
                                                        : PacketType::kMalformed;
      } else if (d.icmpv6->code == kRplCodeDao) {
        d.type = decodeRplDao(d.icmpv6->body, d.rplDao) ? PacketType::kRplDao
                                                        : PacketType::kMalformed;
      } else {
        d.type = PacketType::kSixlowpanOther;
      }
      break;
  }
}

void dissectWpan(Dissection& d, BytesView raw) {
  if (!decodeIeee802154(raw, d.wpan)) {
    d.type = PacketType::kMalformed;
    return;
  }
  const BytesView payload = d.wpan->payload;

  if (d.wpan->type == WpanFrameType::kAck) {
    d.type = PacketType::kWpanAck;
    return;
  }
  if (d.wpan->type == WpanFrameType::kBeacon) {
    d.type = PacketType::kWpanBeacon;
    return;
  }
  if (payload.empty()) {
    d.type = PacketType::kUnknown;
    return;
  }

  // skb-style dispatch walk: pull protocol tag bytes off the front of the
  // payload view; everything handed to inner decoders aliases the frame.
  PacketView cursor(payload);
  const std::uint8_t dispatch = *cursor.pullByte();
  const BytesView inner = cursor.data();
  if (dispatch == kDispatchTinyosAm) {
    const auto amId = cursor.pullByte();
    if (!amId) {
      d.type = PacketType::kMalformed;
      return;
    }
    const BytesView amPayload = cursor.data();
    if (*amId == kAmCtpData) {
      if (decodeCtpData(amPayload, d.ctpData)) {
        d.appPayload = d.ctpData->payload;
        d.type = PacketType::kCtpData;
      } else {
        d.type = PacketType::kMalformed;
      }
    } else if (*amId == kAmCtpRouting) {
      d.type = decodeCtpBeacon(amPayload, d.ctpBeacon) ? PacketType::kCtpRouting
                                                       : PacketType::kMalformed;
    } else {
      d.appPayload = amPayload;
      d.type = PacketType::kUnknown;
    }
  } else if (dispatch == kDispatchZigbeeNwk) {
    if (!decodeZigbeeNwk(payload, d.zigbee)) {
      d.type = PacketType::kMalformed;
      return;
    }
    d.appPayload = d.zigbee->payload;
    d.type = d.zigbee->type == ZigbeeFrameType::kCommand
                 ? PacketType::kZigbeeRouting
                 : PacketType::kZigbeeData;
  } else if (dispatch == kDispatchIpv6Uncompressed) {
    if (!decodeIpv6(inner, d.ipv6, d.l3Payload, d.l3Trailer)) {
      d.type = PacketType::kMalformed;
      return;
    }
    dissectIpv6Payload(d);
  } else {
    d.appPayload = payload;
    d.type = PacketType::kUnknown;
  }
}

void dissectWifi(Dissection& d, BytesView raw) {
  if (!decodeWifi(raw, d.wifi)) {
    d.type = PacketType::kMalformed;
    return;
  }
  switch (d.wifi->kind) {
    case WifiFrameKind::kBeacon:
      d.type = PacketType::kWifiBeacon;
      return;
    case WifiFrameKind::kProbeRequest:
      d.type = PacketType::kWifiProbe;
      return;
    case WifiFrameKind::kDeauth:
      d.type = PacketType::kWifiDeauth;
      return;
    case WifiFrameKind::kData:
      break;
  }
  std::optional<LlcSnapDecoded> llc;
  if (!llcSnapUnwrap(d.wifi->body, llc)) {
    d.type = PacketType::kUnknown;
    return;
  }
  d.llcHeader = d.wifi->body.first(8);
  if (llc->ethertype == kEthertypeIpv4) {
    if (!decodeIpv4(llc->payload, d.ipv4, d.l3Payload, d.l3Trailer)) {
      d.type = PacketType::kMalformed;
      return;
    }
    dissectIpv4Payload(d);
  } else if (llc->ethertype == kEthertypeIpv6) {
    if (!decodeIpv6(llc->payload, d.ipv6, d.l3Payload, d.l3Trailer)) {
      d.type = PacketType::kMalformed;
      return;
    }
    dissectIpv6Payload(d);
  } else {
    d.type = PacketType::kUnknown;
  }
}

void dissectBle(Dissection& d, BytesView raw) {
  if (!decodeBleAdv(raw, d.ble)) {
    d.type = PacketType::kMalformed;
    return;
  }
  d.appPayload = d.ble->advData;
  d.type = (d.ble->type == BlePduType::kScanReq ||
            d.ble->type == BlePduType::kScanRsp)
               ? PacketType::kBleScan
               : PacketType::kBleAdv;
}

}  // namespace

Dissection dissect(const CapturedPacket& pkt) {
  ++t_dissectCalls;
  Dissection d;
  d.medium = pkt.medium;
  d.raw = BytesView(pkt.raw);
  switch (pkt.medium) {
    case Medium::kIeee802154:
      dissectWpan(d, d.raw);
      break;
    case Medium::kWifi:
      dissectWifi(d, d.raw);
      break;
    case Medium::kBluetooth:
      dissectBle(d, d.raw);
      break;
  }
  return d;
}

}  // namespace kalis::net
