// IEEE 802.15.4 MAC frames (data / ack / beacon / command), short-address
// mode with PAN-id compression — the configuration TelosB motes and ZigBee
// devices use in practice.
//
// Wire layout (little-endian, per the standard):
//   FCF(2) | seq(1) | dstPan(2) | dst16(2) | src16(2) | payload | FCS(2)
// FCS is CRC-16/CCITT over all preceding bytes.
#pragma once

#include <cstdint>
#include <optional>

#include "net/addr.hpp"
#include "util/bytes.hpp"

namespace kalis::net {

enum class WpanFrameType : std::uint8_t {
  kBeacon = 0,
  kData = 1,
  kAck = 2,
  kMacCommand = 3,
};

/// Payload storage is a template parameter: encode-side users own their
/// payload (`Ieee802154Frame`, Storage = Bytes), while the dissector keeps a
/// zero-copy view into the capture buffer (`Ieee802154FrameView`,
/// Storage = BytesView).
template <class Storage>
struct Ieee802154FrameT {
  WpanFrameType type = WpanFrameType::kData;
  bool securityEnabled = false;   ///< link-layer security bit (feature signal)
  bool ackRequest = false;
  std::uint8_t seq = 0;
  std::uint16_t panId = 0;
  Mac16 dst{Mac16::kBroadcast};
  Mac16 src{0};
  Storage payload{};
  /// FCF bits outside type/security/ack — addressing modes, PAN compression,
  /// frame pending, version. The parser keeps them verbatim so that
  /// encode(decode(x)) reproduces x bit-for-bit (packetlib discipline); the
  /// default is what builders always emitted: PAN-id compression + 16-bit
  /// addressing both ways.
  std::uint16_t fcfExtra = kDefaultFcfExtra;
  /// FCS as seen on the wire. Parsers always set it (even when invalid —
  /// an IDS must be able to re-emit corrupt traffic unchanged); builders
  /// leave it unset and get a freshly computed CRC.
  std::optional<std::uint16_t> wireFcs{};

  static constexpr std::uint16_t kDefaultFcfExtra = 0x8840;

  /// Serializes the frame; FCS is wireFcs when set, else computed.
  Bytes encode() const;
};

using Ieee802154Frame = Ieee802154FrameT<Bytes>;
using Ieee802154FrameView = Ieee802154FrameT<BytesView>;

/// Decodes a frame's structure into `slot`, which the caller owns; false,
/// with the slot empty, when the frame is shorter than its header and FCS.
/// The FCS is kept in wireFcs but not checked: a bad FCS still decodes (an
/// IDS wants to see corrupted traffic), and verifyIeee802154Fcs gives the
/// verdict when something asks for it. The decoded payload is a view
/// aliasing `raw` — the caller keeps the backing buffer alive for as long as
/// the decoded frame is used.
bool decodeIeee802154(BytesView raw, std::optional<Ieee802154FrameView>& slot);

/// True when the frame's last two bytes are the CRC-16/CCITT (little-endian)
/// of the bytes before them; false for a frame shorter than an FCS.
bool verifyIeee802154Fcs(BytesView frame);

// --- payload dispatch -------------------------------------------------------
// The first payload byte selects the network protocol stacked on 802.15.4.
// 0x3f mirrors TinyOS's 802.15.4 "I-frame" AM dispatch; 0x41 is the real
// 6LoWPAN "uncompressed IPv6" dispatch; 0x48 stands in for a ZigBee NWK frame.

inline constexpr std::uint8_t kDispatchTinyosAm = 0x3f;
inline constexpr std::uint8_t kDispatchIpv6Uncompressed = 0x41;
inline constexpr std::uint8_t kDispatchZigbeeNwk = 0x48;

// TinyOS Active Message ids used by the Collection Tree Protocol.
inline constexpr std::uint8_t kAmCtpRouting = 0x70;
inline constexpr std::uint8_t kAmCtpData = 0x71;

}  // namespace kalis::net
