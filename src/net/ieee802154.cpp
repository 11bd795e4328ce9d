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

bool decodeIeee802154(BytesView raw, std::optional<Ieee802154FrameView>& slot) {
  // FCF(2) | seq(1) | dstPan(2) | dst16(2) | src16(2) | payload | FCS(2)
  if (raw.size() < 9 + 2) {
    slot.reset();
    return false;
  }
  const std::uint8_t* p = raw.data();
  const std::uint16_t fcf = loadU16le(p);
  Ieee802154FrameView& f = slot.emplace();
  f.type = static_cast<WpanFrameType>(fcf & kFrameTypeMask);
  f.securityEnabled = (fcf & kSecurityBit) != 0;
  f.ackRequest = (fcf & kAckRequestBit) != 0;
  f.fcfExtra = fcf & static_cast<std::uint16_t>(
                         ~(kFrameTypeMask | kSecurityBit | kAckRequestBit));
  f.seq = p[2];
  f.panId = loadU16le(p + 3);
  f.dst = Mac16{loadU16le(p + 5)};
  f.src = Mac16{loadU16le(p + 7)};
  f.payload = raw.subspan(9, raw.size() - 11);  // aliases `raw`
  f.wireFcs = loadU16le(p + raw.size() - 2);
  return true;
}

bool verifyIeee802154Fcs(BytesView frame) {
  if (frame.size() < 2) return false;
  const std::size_t n = frame.size() - 2;
  return loadU16le(frame.data() + n) == crc16Ccitt(frame.first(n));
}

}  // namespace kalis::net
