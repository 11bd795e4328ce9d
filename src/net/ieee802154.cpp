#include "net/ieee802154.hpp"

#include "util/checksum.hpp"

namespace kalis::net {

namespace {
// FCF bit positions (subset we decode into named fields; everything else
// lands in fcfExtra).
constexpr std::uint16_t kFrameTypeMask = 0x0007;
constexpr std::uint16_t kSecurityBit = 0x0008;
constexpr std::uint16_t kAckRequestBit = 0x0020;
}  // namespace

template <class Storage>
Bytes Ieee802154FrameT<Storage>::encode() const {
  Bytes out;
  ByteWriter w(out);
  std::uint16_t fcf = static_cast<std::uint16_t>(type) & kFrameTypeMask;
  if (securityEnabled) fcf |= kSecurityBit;
  if (ackRequest) fcf |= kAckRequestBit;
  fcf |= fcfExtra;
  w.u16le(fcf);
  w.u8(seq);
  w.u16le(panId);
  w.u16le(dst.value);
  w.u16le(src.value);
  w.raw(payload);
  w.u16le(wireFcs ? *wireFcs : crc16Ccitt(BytesView(out)));
  return out;
}

template struct Ieee802154FrameT<Bytes>;
template struct Ieee802154FrameT<BytesView>;

std::optional<Ieee802154FrameView> decodeIeee802154(BytesView raw) {
  ByteReader r(raw);
  auto fcf = r.u16le();
  auto seq = r.u8();
  auto pan = r.u16le();
  auto dst = r.u16le();
  auto src = r.u16le();
  if (!fcf || !seq || !pan || !dst || !src) return std::nullopt;
  if (r.remaining() < 2) return std::nullopt;  // room for the FCS

  Ieee802154FrameView f;
  f.type = static_cast<WpanFrameType>(*fcf & kFrameTypeMask);
  f.securityEnabled = (*fcf & kSecurityBit) != 0;
  f.ackRequest = (*fcf & kAckRequestBit) != 0;
  f.fcfExtra =
      *fcf & static_cast<std::uint16_t>(
                 ~(kFrameTypeMask | kSecurityBit | kAckRequestBit));
  f.seq = *seq;
  f.panId = *pan;
  f.dst = Mac16{*dst};
  f.src = Mac16{*src};

  const std::size_t payloadLen = r.remaining() - 2;
  auto payload = r.take(payloadLen);
  auto fcs = r.u16le();
  f.payload = *payload;  // aliases `raw`
  f.wireFcs = *fcs;
  return f;
}

bool verifyIeee802154Fcs(BytesView frame) {
  if (frame.size() < 2) return false;
  const std::size_t n = frame.size() - 2;
  return *ByteReader(frame.subspan(n)).u16le() == crc16Ccitt(frame.first(n));
}

}  // namespace kalis::net
