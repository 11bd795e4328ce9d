#include "net/ipv6.hpp"

#include <algorithm>
#include <cstring>

#include "util/checksum.hpp"

namespace kalis::net {

Bytes Ipv6Header::encode(BytesView payload) const {
  Bytes out;
  ByteWriter w(out);
  const std::uint32_t vtf = (6u << 28) |
                            (static_cast<std::uint32_t>(trafficClass) << 20) |
                            (flowLabel & 0xfffff);
  w.u32be(vtf);
  w.u16be(wirePayloadLen ? *wirePayloadLen
                         : static_cast<std::uint16_t>(payload.size()));
  w.u8(nextHeader);
  w.u8(hopLimit);
  w.raw(BytesView(src.bytes.data(), src.bytes.size()));
  w.raw(BytesView(dst.bytes.data(), dst.bytes.size()));
  w.raw(payload);
  return out;
}

bool decodeIpv6(BytesView raw, std::optional<Ipv6Header>& header,
                BytesView& payload, BytesView& trailer) {
  const std::uint8_t* p = raw.data();
  const std::uint32_t vtf = raw.size() < 40 ? 0 : loadU32be(p);
  if ((vtf >> 28) != 6) {
    header.reset();
    payload = {};
    trailer = {};
    return false;
  }
  Ipv6Header& h = header.emplace();
  h.trafficClass = static_cast<std::uint8_t>((vtf >> 20) & 0xff);
  h.flowLabel = vtf & 0xfffff;
  const std::uint16_t payloadLen = loadU16be(p + 4);
  h.nextHeader = p[6];
  h.hopLimit = p[7];
  std::memcpy(h.src.bytes.data(), p + 8, 16);
  std::memcpy(h.dst.bytes.data(), p + 24, 16);
  h.wirePayloadLen = payloadLen;
  const std::size_t len = std::min<std::size_t>(payloadLen, raw.size() - 40);
  payload = raw.subspan(40, len);   // aliases `raw`
  trailer = raw.subspan(40 + len);  // payloadLength slack, ditto
  return true;
}

std::array<std::uint8_t, 40> ipv6PseudoHeader(const Ipv6Addr& src,
                                              const Ipv6Addr& dst,
                                              std::uint32_t length,
                                              std::uint8_t nextHeader) {
  std::array<std::uint8_t, 40> out{};  // the three zero bytes stay zero
  std::copy(src.bytes.begin(), src.bytes.end(), out.begin());
  std::copy(dst.bytes.begin(), dst.bytes.end(), out.begin() + 16);
  out[32] = static_cast<std::uint8_t>(length >> 24);
  out[33] = static_cast<std::uint8_t>(length >> 16);
  out[34] = static_cast<std::uint8_t>(length >> 8);
  out[35] = static_cast<std::uint8_t>(length);
  out[39] = nextHeader;
  return out;
}

template <class Storage>
Bytes Icmpv6MessageT<Storage>::encode(const Ipv6Addr& src, const Ipv6Addr& dst) const {
  Bytes out;
  ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(code);
  const std::size_t checksumOffset = out.size();
  w.u16be(0);
  w.raw(body);
  if (wireChecksum) {
    w.patchU16be(checksumOffset, *wireChecksum);
  } else {
    const auto pseudo =
        ipv6PseudoHeader(src, dst, static_cast<std::uint32_t>(out.size()),
                         static_cast<std::uint8_t>(IpProto::kIcmpv6));
    w.patchU16be(checksumOffset, internetChecksum2(pseudo, BytesView(out)));
  }
  return out;
}

template struct Icmpv6MessageT<Bytes>;
template struct Icmpv6MessageT<BytesView>;

bool decodeIcmpv6(BytesView raw, std::optional<Icmpv6MessageView>& slot) {
  if (raw.size() < 4) {
    slot.reset();
    return false;
  }
  Icmpv6MessageView& msg = slot.emplace();
  msg.type = static_cast<Icmpv6Type>(raw[0]);
  msg.code = raw[1];
  msg.wireChecksum = loadU16be(raw.data() + 2);
  msg.body = raw.subspan(4);  // aliases `raw`
  return true;
}

bool verifyIcmpv6Checksum(BytesView message, const Ipv6Addr& src,
                          const Ipv6Addr& dst) {
  const auto pseudo =
      ipv6PseudoHeader(src, dst, static_cast<std::uint32_t>(message.size()),
                       static_cast<std::uint8_t>(IpProto::kIcmpv6));
  return internetChecksum2(pseudo, message) == 0;
}

Bytes RplDio::encodeBody() const {
  Bytes out;
  ByteWriter w(out);
  w.u8(instanceId);
  w.u8(versionNumber);
  w.u16be(rank);
  w.u8(groundedMopPrf);
  w.u8(dtsn);
  w.u8(flags);
  w.u8(reserved);
  w.raw(BytesView(dodagId.bytes.data(), dodagId.bytes.size()));
  return out;
}

bool decodeRplDio(BytesView body, std::optional<RplDio>& slot) {
  if (body.size() < 24) {
    slot.reset();
    return false;
  }
  const std::uint8_t* p = body.data();
  RplDio& d = slot.emplace();
  d.instanceId = p[0];
  d.versionNumber = p[1];
  d.rank = loadU16be(p + 2);
  d.groundedMopPrf = p[4];
  d.dtsn = p[5];
  d.flags = p[6];
  d.reserved = p[7];
  std::memcpy(d.dodagId.bytes.data(), p + 8, 16);
  return true;
}

Bytes RplDao::encodeBody() const {
  Bytes out;
  ByteWriter w(out);
  w.u8(instanceId);
  w.u8(kdFlags);
  w.u8(reserved);
  w.u8(daoSequence);
  w.raw(BytesView(dodagId.bytes.data(), dodagId.bytes.size()));
  w.raw(BytesView(target.bytes.data(), target.bytes.size()));
  return out;
}

bool decodeRplDao(BytesView body, std::optional<RplDao>& slot) {
  if (body.size() < 36) {
    slot.reset();
    return false;
  }
  const std::uint8_t* p = body.data();
  RplDao& d = slot.emplace();
  d.instanceId = p[0];
  d.kdFlags = p[1];
  d.reserved = p[2];
  d.daoSequence = p[3];
  std::memcpy(d.dodagId.bytes.data(), p + 4, 16);
  std::memcpy(d.target.bytes.data(), p + 20, 16);
  return true;
}

}  // namespace kalis::net
