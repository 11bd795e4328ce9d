#include "net/ble.hpp"

namespace kalis::net {

template <class Storage>
Bytes BleAdvPduT<Storage>::encode() const {
  Bytes out;
  ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(
      (static_cast<std::uint8_t>(type) & 0x0f) | headerExtra));
  w.u8(static_cast<std::uint8_t>(6 + advData.size()));
  // BLE transmits the advertiser address least-significant byte first.
  for (int i = 5; i >= 0; --i) w.u8(advAddr.bytes[static_cast<std::size_t>(i)]);
  w.raw(advData);
  w.raw(trailer);
  return out;
}

template struct BleAdvPduT<Bytes>;
template struct BleAdvPduT<BytesView>;

bool decodeBleAdv(BytesView raw, std::optional<BleAdvPduView>& slot) {
  const std::size_t len = raw.size() < 8 ? 0 : raw[1];
  if (len < 6 || raw.size() < 2 + len) {
    slot.reset();
    return false;
  }
  const std::uint8_t hdr = raw[0];
  BleAdvPduView& pdu = slot.emplace();
  pdu.type = static_cast<BlePduType>(hdr & 0x0f);
  pdu.headerExtra = hdr & 0xf0;
  // BLE transmits the advertiser address least-significant byte first.
  for (std::size_t i = 0; i < 6; ++i) pdu.advAddr.bytes[i] = raw[7 - i];
  pdu.advData = raw.subspan(8, len - 6);  // aliases `raw`
  pdu.trailer = raw.subspan(2 + len);     // ditto
  return true;
}

}  // namespace kalis::net
