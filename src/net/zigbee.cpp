#include "net/zigbee.hpp"

#include "net/ieee802154.hpp"

namespace kalis::net {

namespace {
constexpr std::uint16_t kTypeMask = 0x0003;
constexpr std::uint16_t kSecurityBit = 0x0200;
}  // namespace

template <class Storage>
Bytes ZigbeeNwkFrameT<Storage>::encode() const {
  Bytes out;
  ByteWriter w(out);
  w.u8(kDispatchZigbeeNwk);
  std::uint16_t fc = static_cast<std::uint16_t>(type) & kTypeMask;
  if (securityEnabled) fc |= kSecurityBit;
  fc |= fcExtra;
  w.u16le(fc);
  w.u16le(dst.value);
  w.u16le(src.value);
  w.u8(radius);
  w.u8(seq);
  w.raw(payload);
  return out;
}

template struct ZigbeeNwkFrameT<Bytes>;
template struct ZigbeeNwkFrameT<BytesView>;

bool decodeZigbeeNwk(BytesView raw, std::optional<ZigbeeNwkFrameView>& slot) {
  // dispatch(1) | frameControl(2) | dst16(2) | src16(2) | radius(1) | seq(1)
  if (raw.size() < 9 || raw[0] != kDispatchZigbeeNwk) {
    slot.reset();
    return false;
  }
  const std::uint8_t* p = raw.data();
  const std::uint16_t fc = loadU16le(p + 1);
  ZigbeeNwkFrameView& f = slot.emplace();
  f.type = static_cast<ZigbeeFrameType>(fc & kTypeMask);
  f.securityEnabled = (fc & kSecurityBit) != 0;
  f.fcExtra = fc & static_cast<std::uint16_t>(~(kTypeMask | kSecurityBit));
  f.dst = Mac16{loadU16le(p + 3)};
  f.src = Mac16{loadU16le(p + 5)};
  f.radius = p[7];
  f.seq = p[8];
  f.payload = raw.subspan(9);  // aliases `raw`
  return true;
}

}  // namespace kalis::net
