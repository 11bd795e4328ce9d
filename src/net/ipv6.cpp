#include "net/ipv6.hpp"

#include <algorithm>

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

std::optional<Ipv6Decoded> decodeIpv6(BytesView raw) {
  if (raw.size() < 40) return std::nullopt;
  ByteReader r(raw);
  auto vtf = *r.u32be();
  if ((vtf >> 28) != 6) return std::nullopt;
  Ipv6Decoded d;
  d.header.trafficClass = static_cast<std::uint8_t>((vtf >> 20) & 0xff);
  d.header.flowLabel = vtf & 0xfffff;
  auto payloadLen = *r.u16be();
  d.header.nextHeader = *r.u8();
  d.header.hopLimit = *r.u8();
  auto srcBytes = *r.take(16);
  auto dstBytes = *r.take(16);
  std::copy(srcBytes.begin(), srcBytes.end(), d.header.src.bytes.begin());
  std::copy(dstBytes.begin(), dstBytes.end(), d.header.dst.bytes.begin());
  d.header.wirePayloadLen = payloadLen;
  std::size_t len = payloadLen;
  if (len > r.remaining()) len = r.remaining();
  d.payload = *r.take(len);  // aliases `raw`
  d.trailer = r.rest();      // payloadLength slack, ditto
  return d;
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

std::optional<Icmpv6MessageView> decodeIcmpv6(BytesView raw) {
  if (raw.size() < 4) return std::nullopt;
  ByteReader r(raw);
  Icmpv6MessageView msg;
  msg.type = static_cast<Icmpv6Type>(*r.u8());
  msg.code = *r.u8();
  msg.wireChecksum = *r.u16be();
  msg.body = r.rest();  // aliases `raw`
  return msg;
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

std::optional<RplDio> decodeRplDio(BytesView body) {
  if (body.size() < 24) return std::nullopt;
  ByteReader r(body);
  RplDio d;
  d.instanceId = *r.u8();
  d.versionNumber = *r.u8();
  d.rank = *r.u16be();
  d.groundedMopPrf = *r.u8();
  d.dtsn = *r.u8();
  d.flags = *r.u8();
  d.reserved = *r.u8();
  auto id = *r.take(16);
  std::copy(id.begin(), id.end(), d.dodagId.bytes.begin());
  return d;
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

std::optional<RplDao> decodeRplDao(BytesView body) {
  if (body.size() < 36) return std::nullopt;
  ByteReader r(body);
  RplDao d;
  d.instanceId = *r.u8();
  d.kdFlags = *r.u8();
  d.reserved = *r.u8();
  d.daoSequence = *r.u8();
  auto id = *r.take(16);
  std::copy(id.begin(), id.end(), d.dodagId.bytes.begin());
  auto target = *r.take(16);
  std::copy(target.begin(), target.end(), d.target.bytes.begin());
  return d;
}

}  // namespace kalis::net
