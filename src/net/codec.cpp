#include "net/codec.hpp"

#include <cstdarg>
#include <cstdio>

namespace kalis::net {

namespace {

// --- serialize --------------------------------------------------------------
// Layer-by-layer reassembly. At every layer: if the inner layer parsed,
// re-encode it recursively from its struct fields; otherwise fall back to
// the retained payload view verbatim. The fallback is what makes
// serialize(dissect(x)) == x total over arbitrary input.

Bytes serializeIcmpv6(const Dissection& d) {
  Icmpv6MessageT<BytesView> msg = *d.icmpv6;
  Bytes body;
  if (d.rplDio) {
    body = d.rplDio->encodeBody();
    const BytesView slack = msg.body.subspan(24);
    body.insert(body.end(), slack.begin(), slack.end());
    msg.body = BytesView(body);
  } else if (d.rplDao) {
    body = d.rplDao->encodeBody();
    const BytesView slack = msg.body.subspan(36);
    body.insert(body.end(), slack.begin(), slack.end());
    msg.body = BytesView(body);
  }
  // src/dst only feed the checksum computation, which is skipped whenever
  // wireChecksum is set (always, for parsed messages).
  const Ipv6Addr src = d.ipv6 ? d.ipv6->src : Ipv6Addr{};
  const Ipv6Addr dst = d.ipv6 ? d.ipv6->dst : Ipv6Addr{};
  return msg.encode(src, dst);
}

Bytes serializeIpv6(const Dissection& d) {
  Bytes inner = d.icmpv6 ? serializeIcmpv6(d) : toBytes(d.l3Payload);
  Bytes out = d.ipv6->encode(BytesView(inner));
  out.insert(out.end(), d.l3Trailer.begin(), d.l3Trailer.end());
  return out;
}

Bytes serializeIpv4(const Dissection& d) {
  Bytes inner;
  if (d.tcp) {
    inner = d.tcp->encode(d.ipv4->src, d.ipv4->dst);
  } else if (d.udp) {
    inner = d.udp->encode(d.ipv4->src, d.ipv4->dst);
    inner.insert(inner.end(), d.l4Trailer.begin(), d.l4Trailer.end());
  } else if (d.icmp) {
    inner = d.icmp->encode();
  } else {
    inner = toBytes(d.l3Payload);
  }
  Bytes out = d.ipv4->encode(BytesView(inner));
  out.insert(out.end(), d.l3Trailer.begin(), d.l3Trailer.end());
  return out;
}

Bytes serializeWpanPayload(const Dissection& d) {
  Bytes out;
  if (d.ctpData) {
    out.push_back(kDispatchTinyosAm);
    out.push_back(kAmCtpData);
    const Bytes body = d.ctpData->encode();
    out.insert(out.end(), body.begin(), body.end());
  } else if (d.ctpBeacon) {
    out.push_back(kDispatchTinyosAm);
    out.push_back(kAmCtpRouting);
    const Bytes body = d.ctpBeacon->encode();
    out.insert(out.end(), body.begin(), body.end());
    // decodeCtpBeacon reads exactly 5 bytes; re-attach anything after them.
    const BytesView slack = d.wpan->payload.subspan(7);
    out.insert(out.end(), slack.begin(), slack.end());
  } else if (d.zigbee) {
    out = d.zigbee->encode();  // includes the 0x48 dispatch byte
  } else if (d.ipv6) {
    out.push_back(kDispatchIpv6Uncompressed);
    const Bytes ip = serializeIpv6(d);
    out.insert(out.end(), ip.begin(), ip.end());
  } else {
    // Acks, beacons, unknown AM ids, malformed inner layers: the link-layer
    // payload view is the ground truth.
    out = toBytes(d.wpan->payload);
  }
  return out;
}

Bytes serializeWifiBody(const Dissection& d) {
  if (d.ipv4 || d.ipv6) {
    Bytes out = toBytes(d.llcHeader);
    const Bytes ip = d.ipv4 ? serializeIpv4(d) : serializeIpv6(d);
    out.insert(out.end(), ip.begin(), ip.end());
    return out;
  }
  // Management frames, non-LLC data, malformed inner layers.
  return toBytes(d.wifi->body);
}

// --- readable byte string ---------------------------------------------------

void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

void appendHexField(std::string& out, const char* name, BytesView bytes) {
  out += ' ';
  out += name;
  out += "=[";
  out += toHex(bytes);
  out += ']';
}

void appendMac48(std::string& out, const char* name, const Mac48& a) {
  appendf(out, " %s=%02x:%02x:%02x:%02x:%02x:%02x", name, a.bytes[0],
          a.bytes[1], a.bytes[2], a.bytes[3], a.bytes[4], a.bytes[5]);
}

void appendIpv4(std::string& out, const char* name, Ipv4Addr a) {
  appendf(out, " %s=%u.%u.%u.%u", name, (a.value >> 24) & 0xff,
          (a.value >> 16) & 0xff, (a.value >> 8) & 0xff, a.value & 0xff);
}

void appendIpv6(std::string& out, const char* name, const Ipv6Addr& a) {
  appendf(out, " %s=", name);
  out += toHex(BytesView(a.bytes.data(), a.bytes.size()));
}

}  // namespace

Bytes serialize(const Dissection& d) {
  switch (d.medium) {
    case Medium::kIeee802154: {
      if (!d.wpan) return toBytes(d.raw);
      const Bytes payload = serializeWpanPayload(d);
      Ieee802154FrameT<BytesView> f = *d.wpan;
      f.payload = BytesView(payload);
      return f.encode();
    }
    case Medium::kWifi: {
      if (!d.wifi) return toBytes(d.raw);
      const Bytes body = serializeWifiBody(d);
      WifiFrameT<BytesView> f = *d.wifi;
      f.body = BytesView(body);
      return f.encode();
    }
    case Medium::kBluetooth: {
      if (!d.ble) return toBytes(d.raw);
      return d.ble->encode();
    }
  }
  return toBytes(d.raw);
}

std::string toReadableByteString(const Dissection& d) {
  std::string out;
  appendf(out, "%s %s\n", mediumName(d.medium), packetTypeName(d.type));

  if (d.wpan) {
    appendf(out,
            "  ieee802154 type=%u security=%u ackReq=%u seq=0x%02x "
            "panId=0x%04x dst=0x%04x src=0x%04x fcfExtra=0x%04x fcs=0x%04x "
            "fcsValid=%u",
            static_cast<unsigned>(d.wpan->type),
            d.wpan->securityEnabled ? 1u : 0u, d.wpan->ackRequest ? 1u : 0u,
            d.wpan->seq, d.wpan->panId, d.wpan->dst.value, d.wpan->src.value,
            d.wpan->fcfExtra, d.wpan->wireFcs.value_or(0),
            d.wpanFcsValid() ? 1u : 0u);
    appendHexField(out, "payload", d.wpan->payload);
    out += '\n';
  }
  if (d.ctpData) {
    appendf(out,
            "  ctp_data options=0x%02x thl=%u etx=0x%04x origin=0x%04x "
            "seqno=0x%02x collectId=0x%02x",
            d.ctpData->options, d.ctpData->thl, d.ctpData->etx,
            d.ctpData->origin.value, d.ctpData->seqno, d.ctpData->collectId);
    appendHexField(out, "payload", d.ctpData->payload);
    out += '\n';
  }
  if (d.ctpBeacon) {
    appendf(out, "  ctp_beacon options=0x%02x parent=0x%04x etx=0x%04x\n",
            d.ctpBeacon->options, d.ctpBeacon->parent.value, d.ctpBeacon->etx);
  }
  if (d.zigbee) {
    appendf(out,
            "  zigbee_nwk type=%u security=%u dst=0x%04x src=0x%04x "
            "radius=%u seq=0x%02x fcExtra=0x%04x",
            static_cast<unsigned>(d.zigbee->type),
            d.zigbee->securityEnabled ? 1u : 0u, d.zigbee->dst.value,
            d.zigbee->src.value, d.zigbee->radius, d.zigbee->seq,
            d.zigbee->fcExtra);
    appendHexField(out, "payload", d.zigbee->payload);
    out += '\n';
  }
  if (d.wifi) {
    appendf(out,
            "  ieee80211 kind=%u toDs=%u fromDs=%u protected=%u "
            "dataSubtype=0x%x fc1Extra=0x%02x duration=0x%04x",
            static_cast<unsigned>(d.wifi->kind), d.wifi->toDs ? 1u : 0u,
            d.wifi->fromDs ? 1u : 0u, d.wifi->protectedFrame ? 1u : 0u,
            d.wifi->dataSubtype, d.wifi->fc1Extra, d.wifi->duration);
    appendMac48(out, "dst", d.wifi->dst);
    appendMac48(out, "src", d.wifi->src);
    appendMac48(out, "bssid", d.wifi->bssid);
    appendf(out, " seqCtl=0x%04x fcs=0x%08x fcsValid=%u", d.wifi->seqCtl,
            d.wifi->wireFcs.value_or(0), d.wifiFcsValid() ? 1u : 0u);
    appendHexField(out, "body", d.wifi->body);
    out += '\n';
  }
  if (d.ipv4) {
    out += "  ipv4";
    appendIpv4(out, "src", d.ipv4->src);
    appendIpv4(out, "dst", d.ipv4->dst);
    appendf(out,
            " proto=%u tos=0x%02x id=0x%04x ttl=%u flagsFrag=0x%04x "
            "totalLen=%u checksum=0x%04x",
            static_cast<unsigned>(d.ipv4->protocol), d.ipv4->tos,
            d.ipv4->identification, d.ipv4->ttl, d.ipv4->flagsFrag,
            d.ipv4->wireTotalLen.value_or(0), d.ipv4->wireChecksum.value_or(0));
    if (!d.ipv4->options.empty()) {
      appendHexField(out, "options", d.ipv4->options);
    }
    out += '\n';
  }
  if (d.ipv6) {
    out += "  ipv6";
    appendIpv6(out, "src", d.ipv6->src);
    appendIpv6(out, "dst", d.ipv6->dst);
    appendf(out,
            " nextHeader=%u hopLimit=%u trafficClass=0x%02x flowLabel=0x%05x "
            "payloadLen=%u\n",
            d.ipv6->nextHeader, d.ipv6->hopLimit, d.ipv6->trafficClass,
            d.ipv6->flowLabel, d.ipv6->wirePayloadLen.value_or(0));
  }
  if (d.icmpv6) {
    appendf(out, "  icmpv6 type=%u code=0x%02x checksum=0x%04x",
            static_cast<unsigned>(d.icmpv6->type), d.icmpv6->code,
            d.icmpv6->wireChecksum.value_or(0));
    appendHexField(out, "body", d.icmpv6->body);
    out += '\n';
  }
  if (d.rplDio) {
    appendf(out,
            "  rpl_dio instanceId=0x%02x version=%u rank=0x%04x dtsn=0x%02x "
            "gMopPrf=0x%02x flags=0x%02x reserved=0x%02x dodagId=",
            d.rplDio->instanceId, d.rplDio->versionNumber, d.rplDio->rank,
            d.rplDio->dtsn, d.rplDio->groundedMopPrf, d.rplDio->flags,
            d.rplDio->reserved);
    out += toHex(
        BytesView(d.rplDio->dodagId.bytes.data(), d.rplDio->dodagId.bytes.size()));
    out += '\n';
  }
  if (d.rplDao) {
    appendf(out,
            "  rpl_dao instanceId=0x%02x seq=0x%02x kdFlags=0x%02x "
            "reserved=0x%02x dodagId=",
            d.rplDao->instanceId, d.rplDao->daoSequence, d.rplDao->kdFlags,
            d.rplDao->reserved);
    out += toHex(BytesView(d.rplDao->dodagId.bytes.data(),
                           d.rplDao->dodagId.bytes.size()));
    out += " target=";
    out += toHex(
        BytesView(d.rplDao->target.bytes.data(), d.rplDao->target.bytes.size()));
    out += '\n';
  }
  if (d.tcp) {
    appendf(out,
            "  tcp srcPort=%u dstPort=%u seq=0x%08x ack=0x%08x flags=0x%02x "
            "window=%u urgent=0x%04x offsetReserved=0x%x checksum=0x%04x",
            d.tcp->srcPort, d.tcp->dstPort, d.tcp->seq, d.tcp->ackNo,
            d.tcp->flags.encode(), d.tcp->window, d.tcp->urgent,
            d.tcp->offsetReserved, d.tcp->wireChecksum.value_or(0));
    if (!d.tcp->options.empty()) {
      appendHexField(out, "options", d.tcp->options);
    }
    appendHexField(out, "payload", d.tcp->payload);
    out += '\n';
  }
  if (d.udp) {
    appendf(out, "  udp srcPort=%u dstPort=%u checksum=0x%04x", d.udp->srcPort,
            d.udp->dstPort, d.udp->wireChecksum.value_or(0));
    appendHexField(out, "payload", d.udp->payload);
    out += '\n';
  }
  if (d.icmp) {
    appendf(out, "  icmp type=%u code=0x%02x id=0x%04x seq=0x%04x checksum=0x%04x",
            static_cast<unsigned>(d.icmp->type), d.icmp->code,
            d.icmp->identifier, d.icmp->sequence,
            d.icmp->wireChecksum.value_or(0));
    appendHexField(out, "payload", d.icmp->payload);
    out += '\n';
  }
  if (d.ble) {
    appendf(out, "  ble_adv type=%u headerExtra=0x%02x",
            static_cast<unsigned>(d.ble->type), d.ble->headerExtra);
    appendMac48(out, "advAddr", d.ble->advAddr);
    appendHexField(out, "advData", d.ble->advData);
    if (!d.ble->trailer.empty()) appendHexField(out, "trailer", d.ble->trailer);
    out += '\n';
  }
  if (!d.llcHeader.empty()) {
    out += "  llc_snap";
    appendHexField(out, "header", d.llcHeader);
    out += '\n';
  }
  if (!d.l3Trailer.empty()) {
    out += "  l3_trailer";
    appendHexField(out, "bytes", d.l3Trailer);
    out += '\n';
  }
  if (!d.l4Trailer.empty()) {
    out += "  l4_trailer";
    appendHexField(out, "bytes", d.l4Trailer);
    out += '\n';
  }
  if (!d.appPayload.empty()) {
    out += "  app";
    appendHexField(out, "payload", d.appPayload);
    out += '\n';
  }
  out += "  raw=[";
  out += toHex(d.raw);
  out += "]\n";
  return out;
}

}  // namespace kalis::net
