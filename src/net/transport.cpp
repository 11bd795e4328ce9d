#include "net/transport.hpp"

#include "util/checksum.hpp"

namespace kalis::net {

std::uint8_t TcpFlags::encode() const {
  std::uint8_t bits = extra;
  if (fin) bits |= 0x01;
  if (syn) bits |= 0x02;
  if (rst) bits |= 0x04;
  if (psh) bits |= 0x08;
  if (ack) bits |= 0x10;
  return bits;
}

TcpFlags TcpFlags::decode(std::uint8_t bits) {
  TcpFlags f;
  f.fin = bits & 0x01;
  f.syn = bits & 0x02;
  f.rst = bits & 0x04;
  f.psh = bits & 0x08;
  f.ack = bits & 0x10;
  f.extra = bits & 0xE0;
  return f;
}

template <class Storage>
Bytes TcpSegmentT<Storage>::encode(Ipv4Addr src, Ipv4Addr dst) const {
  Bytes out;
  ByteWriter w(out);
  w.u16be(srcPort);
  w.u16be(dstPort);
  w.u32be(seq);
  w.u32be(ackNo);
  const std::size_t offsetWords = 5 + options.size() / 4;
  w.u8(static_cast<std::uint8_t>((offsetWords << 4) | offsetReserved));
  w.u8(flags.encode());
  w.u16be(window);
  const std::size_t checksumOffset = out.size();
  w.u16be(0);
  w.u16be(urgent);
  w.raw(BytesView(options));
  w.raw(payload);
  if (wireChecksum) {
    w.patchU16be(checksumOffset, *wireChecksum);
  } else {
    const auto pseudo = ipv4PseudoHeader(
        src, dst, IpProto::kTcp, static_cast<std::uint16_t>(out.size()));
    w.patchU16be(checksumOffset, internetChecksum2(pseudo, BytesView(out)));
  }
  return out;
}

std::optional<TcpSegmentView> decodeTcp(BytesView raw) {
  if (raw.size() < 20) return std::nullopt;
  ByteReader r(raw);
  TcpSegmentView seg;
  seg.srcPort = *r.u16be();
  seg.dstPort = *r.u16be();
  seg.seq = *r.u32be();
  seg.ackNo = *r.u32be();
  auto offsetByte = *r.u8();
  const std::size_t headerLen = (offsetByte >> 4) * 4u;
  if (headerLen < 20 || headerLen > raw.size()) return std::nullopt;
  seg.flags = TcpFlags::decode(*r.u8());
  seg.window = *r.u16be();
  seg.wireChecksum = *r.u16be();
  seg.urgent = *r.u16be();
  seg.offsetReserved = offsetByte & 0x0f;
  seg.options = *r.take(headerLen - 20);  // aliases `raw`
  seg.payload = r.rest();                 // ditto
  return seg;
}

bool verifyTcpChecksum(BytesView segment, Ipv4Addr src, Ipv4Addr dst) {
  const auto pseudo = ipv4PseudoHeader(
      src, dst, IpProto::kTcp, static_cast<std::uint16_t>(segment.size()));
  return internetChecksum2(pseudo, segment) == 0;
}

template struct TcpSegmentT<Bytes>;
template struct TcpSegmentT<BytesView>;

template <class Storage>
Bytes UdpDatagramT<Storage>::encode(Ipv4Addr src, Ipv4Addr dst) const {
  Bytes out;
  ByteWriter w(out);
  w.u16be(srcPort);
  w.u16be(dstPort);
  w.u16be(static_cast<std::uint16_t>(8 + payload.size()));
  const std::size_t checksumOffset = out.size();
  w.u16be(0);
  w.raw(payload);
  if (wireChecksum) {
    w.patchU16be(checksumOffset, *wireChecksum);
  } else {
    const auto pseudo = ipv4PseudoHeader(
        src, dst, IpProto::kUdp, static_cast<std::uint16_t>(out.size()));
    std::uint16_t csum = internetChecksum2(pseudo, BytesView(out));
    if (csum == 0) csum = 0xffff;  // RFC 768: transmitted 0 = "no checksum"
    w.patchU16be(checksumOffset, csum);
  }
  return out;
}

std::optional<UdpDatagramView> decodeUdp(BytesView raw) {
  if (raw.size() < 8) return std::nullopt;
  ByteReader r(raw);
  UdpDatagramView dg;
  dg.srcPort = *r.u16be();
  dg.dstPort = *r.u16be();
  auto len = *r.u16be();
  dg.wireChecksum = *r.u16be();
  if (len < 8 || len > raw.size()) return std::nullopt;
  dg.payload = raw.subspan(8, len - 8);  // aliases `raw`
  return dg;
}

bool verifyUdpChecksum(BytesView datagram, Ipv4Addr src, Ipv4Addr dst) {
  if (datagram.size() < 8) return false;
  const std::uint16_t len = *ByteReader(datagram.subspan(4)).u16be();
  if (len < 8 || len > datagram.size()) return false;
  const auto pseudo = ipv4PseudoHeader(src, dst, IpProto::kUdp, len);
  return internetChecksum2(pseudo, datagram.first(len)) == 0;
}

template struct UdpDatagramT<Bytes>;
template struct UdpDatagramT<BytesView>;

template <class Storage>
Bytes IcmpMessageT<Storage>::encode() const {
  Bytes out;
  ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(code);
  const std::size_t checksumOffset = out.size();
  w.u16be(0);
  w.u16be(identifier);
  w.u16be(sequence);
  w.raw(payload);
  w.patchU16be(checksumOffset,
               wireChecksum ? *wireChecksum : internetChecksum(BytesView(out)));
  return out;
}

template struct IcmpMessageT<Bytes>;
template struct IcmpMessageT<BytesView>;

std::optional<IcmpMessageView> decodeIcmp(BytesView raw) {
  if (raw.size() < 8) return std::nullopt;
  ByteReader r(raw);
  IcmpMessageView msg;
  msg.type = static_cast<IcmpType>(*r.u8());
  msg.code = *r.u8();
  msg.wireChecksum = *r.u16be();
  msg.identifier = *r.u16be();
  msg.sequence = *r.u16be();
  msg.payload = r.rest();  // aliases `raw`
  return msg;
}

bool verifyIcmpChecksum(BytesView message) {
  return internetChecksum(message) == 0;
}

}  // namespace kalis::net
