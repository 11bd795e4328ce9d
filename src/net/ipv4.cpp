#include "net/ipv4.hpp"

#include "util/checksum.hpp"

namespace kalis::net {

Bytes Ipv4Header::encode(BytesView payload) const {
  Bytes out;
  ByteWriter w(out);
  const std::size_t ihl = 20 + options.size();
  w.u8(static_cast<std::uint8_t>(0x40 | (ihl / 4)));
  w.u8(tos);
  w.u16be(wireTotalLen ? *wireTotalLen
                       : static_cast<std::uint16_t>(ihl + payload.size()));
  w.u16be(identification);
  w.u16be(flagsFrag);
  w.u8(ttl);
  w.u8(static_cast<std::uint8_t>(protocol));
  const std::size_t checksumOffset = out.size();
  w.u16be(0);
  w.u32be(src.value);
  w.u32be(dst.value);
  w.raw(options);
  w.patchU16be(checksumOffset,
               wireChecksum ? *wireChecksum : internetChecksum(BytesView(out)));
  w.raw(payload);
  return out;
}

bool decodeIpv4(BytesView raw, std::optional<Ipv4Header>& header,
                BytesView& payload, BytesView& trailer) {
  const std::uint8_t* p = raw.data();
  const std::size_t ihl = raw.size() < 20 ? 0 : (p[0] & 0x0f) * 4u;
  if (ihl < 20 || (p[0] >> 4) != 4 || raw.size() < ihl) {
    header.reset();
    payload = {};
    trailer = {};
    return false;
  }
  Ipv4Header& h = header.emplace();
  h.tos = p[1];
  const std::uint16_t totalLen = loadU16be(p + 2);
  h.identification = loadU16be(p + 4);
  h.flagsFrag = loadU16be(p + 6);
  h.ttl = p[8];
  h.protocol = static_cast<IpProto>(p[9]);
  h.wireChecksum = loadU16be(p + 10);
  h.src = Ipv4Addr{loadU32be(p + 12)};
  h.dst = Ipv4Addr{loadU32be(p + 16)};
  h.options = raw.subspan(20, ihl - 20);  // aliases `raw`
  h.wireTotalLen = totalLen;

  std::size_t payloadLen = totalLen >= ihl ? totalLen - ihl : 0;
  if (payloadLen > raw.size() - ihl) payloadLen = raw.size() - ihl;
  payload = raw.subspan(ihl, payloadLen);   // aliases `raw`
  trailer = raw.subspan(ihl + payloadLen);  // totalLength slack, ditto
  return true;
}

bool verifyIpv4Checksum(BytesView packet) {
  if (packet.empty()) return false;
  const std::size_t ihl = (packet[0] & 0x0f) * 4u;
  if (ihl < 20 || packet.size() < ihl) return false;
  return internetChecksum(packet.first(ihl)) == 0;
}

std::array<std::uint8_t, 12> ipv4PseudoHeader(Ipv4Addr src, Ipv4Addr dst,
                                              IpProto proto,
                                              std::uint16_t length) {
  return {static_cast<std::uint8_t>(src.value >> 24),
          static_cast<std::uint8_t>(src.value >> 16),
          static_cast<std::uint8_t>(src.value >> 8),
          static_cast<std::uint8_t>(src.value),
          static_cast<std::uint8_t>(dst.value >> 24),
          static_cast<std::uint8_t>(dst.value >> 16),
          static_cast<std::uint8_t>(dst.value >> 8),
          static_cast<std::uint8_t>(dst.value),
          0,
          static_cast<std::uint8_t>(proto),
          static_cast<std::uint8_t>(length >> 8),
          static_cast<std::uint8_t>(length)};
}

}  // namespace kalis::net
