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

bool decodeTcp(BytesView raw, std::optional<TcpSegmentView>& slot) {
  const std::uint8_t* p = raw.data();
  const std::size_t headerLen = raw.size() < 20 ? 0 : (p[12] >> 4) * 4u;
  if (headerLen < 20 || headerLen > raw.size()) {
    slot.reset();
    return false;
  }
  TcpSegmentView& seg = slot.emplace();
  seg.srcPort = loadU16be(p);
  seg.dstPort = loadU16be(p + 2);
  seg.seq = loadU32be(p + 4);
  seg.ackNo = loadU32be(p + 8);
  seg.offsetReserved = p[12] & 0x0f;
  seg.flags = TcpFlags::decode(p[13]);
  seg.window = loadU16be(p + 14);
  seg.wireChecksum = loadU16be(p + 16);
  seg.urgent = loadU16be(p + 18);
  seg.options = raw.subspan(20, headerLen - 20);  // aliases `raw`
  seg.payload = raw.subspan(headerLen);           // ditto
  return true;
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

bool decodeUdp(BytesView raw, std::optional<UdpDatagramView>& slot) {
  const std::uint8_t* p = raw.data();
  const std::size_t len = raw.size() < 8 ? 0 : loadU16be(p + 4);
  if (len < 8 || len > raw.size()) {
    slot.reset();
    return false;
  }
  UdpDatagramView& dg = slot.emplace();
  dg.srcPort = loadU16be(p);
  dg.dstPort = loadU16be(p + 2);
  dg.wireChecksum = loadU16be(p + 6);
  dg.payload = raw.subspan(8, len - 8);  // aliases `raw`
  return true;
}

bool verifyUdpChecksum(BytesView datagram, Ipv4Addr src, Ipv4Addr dst) {
  if (datagram.size() < 8) return false;
  const std::uint16_t len = loadU16be(datagram.data() + 4);
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

bool decodeIcmp(BytesView raw, std::optional<IcmpMessageView>& slot) {
  if (raw.size() < 8) {
    slot.reset();
    return false;
  }
  const std::uint8_t* p = raw.data();
  IcmpMessageView& msg = slot.emplace();
  msg.type = static_cast<IcmpType>(p[0]);
  msg.code = p[1];
  msg.wireChecksum = loadU16be(p + 2);
  msg.identifier = loadU16be(p + 4);
  msg.sequence = loadU16be(p + 6);
  msg.payload = raw.subspan(8);  // aliases `raw`
  return true;
}

bool verifyIcmpChecksum(BytesView message) {
  return internetChecksum(message) == 0;
}

}  // namespace kalis::net
