// ZigBee network-layer (NWK) frames, simplified to the fields the IDS and
// the routing simulation use.
//
// Layout after the 0x48 dispatch byte:
//   frameControl(2 LE) | dst16(2 LE) | src16(2 LE) | radius(1) | seq(1) | payload
// frameControl bits 0-1: 0 = data, 1 = NWK command. For command frames the
// first payload byte is the command id (route request / route reply / leave).
#pragma once

#include <cstdint>
#include <optional>

#include "net/addr.hpp"
#include "util/bytes.hpp"

namespace kalis::net {

enum class ZigbeeFrameType : std::uint8_t { kData = 0, kCommand = 1 };

enum class ZigbeeCommand : std::uint8_t {
  kRouteRequest = 0x01,
  kRouteReply = 0x02,
  kNetworkStatus = 0x03,
  kLeave = 0x04,
  kLinkStatus = 0x08,
};

/// Payload storage is a template parameter: encoders own their payload
/// (Storage = Bytes); the dissector keeps a zero-copy view (Storage =
/// BytesView) aliasing the capture buffer.
template <class Storage>
struct ZigbeeNwkFrameT {
  ZigbeeFrameType type = ZigbeeFrameType::kData;
  bool securityEnabled = false;  ///< NWK security bit (frameControl bit 9)
  Mac16 dst{Mac16::kBroadcast};
  Mac16 src{0};
  std::uint8_t radius = 1;  ///< remaining hop budget; >1 implies routing
  std::uint8_t seq = 0;
  Storage payload{};
  /// frameControl bits outside type/security, kept verbatim so that
  /// encode(decode(x)) == x (packetlib discipline). Builders leave 0.
  std::uint16_t fcExtra = 0;

  /// Serializes including the 0x48 dispatch byte.
  Bytes encode() const;

  /// For command frames: the command id, if present.
  std::optional<ZigbeeCommand> command() const {
    if (type != ZigbeeFrameType::kCommand || payload.empty()) return std::nullopt;
    return static_cast<ZigbeeCommand>(payload[0]);
  }
};

using ZigbeeNwkFrame = ZigbeeNwkFrameT<Bytes>;
using ZigbeeNwkFrameView = ZigbeeNwkFrameT<BytesView>;

/// Expects `raw` to begin with the 0x48 dispatch byte. Parses the frame into
/// `slot`; false, with the slot empty, when the dispatch byte differs or the
/// frame is shorter than its header. The decoded payload aliases `raw`.
bool decodeZigbeeNwk(BytesView raw, std::optional<ZigbeeNwkFrameView>& slot);

/// Materializes a zero-copy view into an owning frame — the explicit copy
/// point for relays that mutate or retain a dissected frame.
inline ZigbeeNwkFrame toOwned(const ZigbeeNwkFrameView& v) {
  return ZigbeeNwkFrame{v.type, v.securityEnabled,  v.dst,
                        v.src,  v.radius,           v.seq,
                        toBytes(v.payload), v.fcExtra};
}

// Application-profile payload tags used by the simulated hub/sub traffic
// (first byte of a NWK data payload). Shared between the traffic agents and
// the device-classification heuristics.
inline constexpr std::uint8_t kZigbeeAppCommand = 0x01;
inline constexpr std::uint8_t kZigbeeAppReport = 0x02;

}  // namespace kalis::net
