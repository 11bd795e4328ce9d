// Bluetooth Low Energy advertising PDUs (simplified link-layer view).
// Consumer devices in the testbed (smart lock, dash button) advertise over
// BLE; Kalis only needs to observe presence, identity and advertising rate.
//
// Layout: header(1: PDU type in low nibble) | length(1) | advAddr(6 LE) | advData
#pragma once

#include <cstdint>
#include <optional>

#include "net/addr.hpp"
#include "util/bytes.hpp"

namespace kalis::net {

enum class BlePduType : std::uint8_t {
  kAdvInd = 0x0,
  kAdvDirectInd = 0x1,
  kAdvNonconnInd = 0x2,
  kScanReq = 0x3,
  kScanRsp = 0x4,
  kConnectReq = 0x5,
};

/// advData storage is a template parameter: encoders own their data
/// (Storage = Bytes); the dissector keeps a zero-copy view (Storage =
/// BytesView) aliasing the capture buffer.
template <class Storage>
struct BleAdvPduT {
  BlePduType type = BlePduType::kAdvInd;
  Mac48 advAddr{};
  Storage advData{};
  // Wire-preservation fields (packetlib discipline); builders leave the
  // defaults, the parser fills them in so encode(decode(x)) == x.
  std::uint8_t headerExtra = 0;  ///< header bits outside the type nibble
  Storage trailer{};             ///< bytes past the advertised length

  Bytes encode() const;
};

using BleAdvPdu = BleAdvPduT<Bytes>;
using BleAdvPduView = BleAdvPduT<BytesView>;

/// Parses the PDU into `slot`; false, with the slot empty, when it is shorter
/// than its header and address or than its length field says. The decoded
/// advData aliases `raw`.
bool decodeBleAdv(BytesView raw, std::optional<BleAdvPduView>& slot);

}  // namespace kalis::net
